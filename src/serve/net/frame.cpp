#include "src/serve/net/frame.hpp"

#include <cstring>
#include <stdexcept>

#include "src/serve/event_batch.hpp"

namespace cmarkov::serve::net {

namespace {

void put_u16(std::string& out, std::uint16_t value) {
  out.push_back(static_cast<char>(value & 0xff));
  out.push_back(static_cast<char>((value >> 8) & 0xff));
}

void put_u32(std::string& out, std::uint32_t value) {
  out.push_back(static_cast<char>(value & 0xff));
  out.push_back(static_cast<char>((value >> 8) & 0xff));
  out.push_back(static_cast<char>((value >> 16) & 0xff));
  out.push_back(static_cast<char>((value >> 24) & 0xff));
}

void put_str(std::string& out, std::string_view value) {
  if (value.size() > 0xffff) {
    throw std::runtime_error("frame: string field exceeds 65535 bytes");
  }
  put_u16(out, static_cast<std::uint16_t>(value.size()));
  out.append(value);
}

/// Bounds-checked little-endian reader over a payload. Every decoder
/// below reads through one of these, so a truncated or lying length in
/// hostile input surfaces as a thrown error, never an overread.
class PayloadReader {
 public:
  explicit PayloadReader(std::string_view payload) : payload_(payload) {}

  std::uint16_t u16(const char* what) {
    need(2, what);
    const auto* p =
        reinterpret_cast<const unsigned char*>(payload_.data() + pos_);
    pos_ += 2;
    return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
  }

  std::uint32_t u32(const char* what) {
    need(4, what);
    const auto* p =
        reinterpret_cast<const unsigned char*>(payload_.data() + pos_);
    pos_ += 4;
    return static_cast<std::uint32_t>(p[0]) |
           (static_cast<std::uint32_t>(p[1]) << 8) |
           (static_cast<std::uint32_t>(p[2]) << 16) |
           (static_cast<std::uint32_t>(p[3]) << 24);
  }

  std::string str(const char* what) {
    const std::uint16_t len = u16(what);
    need(len, what);
    std::string out(payload_.substr(pos_, len));
    pos_ += len;
    return out;
  }

  void expect_end(const char* op) {
    if (pos_ != payload_.size()) {
      throw std::runtime_error(std::string("frame: ") +
                               std::to_string(payload_.size() - pos_) +
                               " trailing byte(s) after " + op + " payload");
    }
  }

 private:
  void need(std::size_t n, const char* what) {
    if (payload_.size() - pos_ < n) {
      throw std::runtime_error(std::string("frame: truncated payload while "
                                           "reading ") +
                               what);
    }
  }

  std::string_view payload_;
  std::size_t pos_ = 0;
};

}  // namespace

std::string encode_frame(FrameOp op, std::uint16_t flags,
                         std::string_view payload) {
  if (payload.size() > kMaxPayload) {
    throw std::runtime_error("frame: payload exceeds kMaxPayload");
  }
  std::string out;
  out.reserve(kFrameHeaderSize + payload.size());
  put_u32(out, kFrameMagic);
  out.push_back(static_cast<char>(kFrameVersion));
  out.push_back(static_cast<char>(op));
  put_u16(out, flags);
  put_u32(out, static_cast<std::uint32_t>(payload.size()));
  out.append(payload);
  return out;
}

std::string encode_hello_payload(std::string_view model,
                                 std::string_view session,
                                 std::string_view trace_id) {
  std::string out;
  put_str(out, model);
  put_str(out, session);
  put_str(out, trace_id);
  return out;
}

std::string encode_event_batch_payload(
    const std::vector<trace::CallEvent>& events) {
  EventBatch batch;
  for (const trace::CallEvent& event : events) batch.append(event);
  return batch.bytes();
}

std::string encode_trace_payload(std::uint32_t n) {
  std::string out;
  put_u32(out, n);
  return out;
}

HelloRequest decode_hello_payload(std::string_view payload) {
  PayloadReader reader(payload);
  HelloRequest request;
  request.model = reader.str("HELLO model");
  request.session = reader.str("HELLO session");
  request.trace_id = reader.str("HELLO trace id");
  reader.expect_end("HELLO");
  if (request.model.empty()) {
    throw std::runtime_error("frame: HELLO with empty model name");
  }
  return request;
}

std::vector<trace::CallEvent> decode_event_batch_payload(
    std::string_view payload) {
  return to_call_events(payload);
}

std::uint32_t decode_trace_payload(std::string_view payload) {
  PayloadReader reader(payload);
  const std::uint32_t n = reader.u32("TRACE n");
  reader.expect_end("TRACE");
  return n;
}

void FrameParser::feed(const char* data, std::size_t size) {
  if (!error_.empty()) return;  // latched; the connection is doomed anyway
  // Compact lazily: only once the dead prefix dominates the buffer, so a
  // hot connection is not memmoving bytes on every frame.
  if (consumed_ > 4096 && consumed_ * 2 > buffer_.size()) {
    buffer_.erase(0, consumed_);
    consumed_ = 0;
  }
  buffer_.append(data, size);
}

std::optional<Frame> FrameParser::next() {
  if (!error_.empty()) return std::nullopt;
  const std::size_t available = buffer_.size() - consumed_;
  if (available < kFrameHeaderSize) return std::nullopt;
  const auto* p =
      reinterpret_cast<const unsigned char*>(buffer_.data() + consumed_);
  const std::uint32_t magic = static_cast<std::uint32_t>(p[0]) |
                              (static_cast<std::uint32_t>(p[1]) << 8) |
                              (static_cast<std::uint32_t>(p[2]) << 16) |
                              (static_cast<std::uint32_t>(p[3]) << 24);
  if (magic != kFrameMagic) {
    error_ = "frame: bad magic (expected \"CMKB\")";
    return std::nullopt;
  }
  if (p[4] != kFrameVersion) {
    error_ = "frame: unsupported version " + std::to_string(p[4]) +
             " (this server speaks version " + std::to_string(kFrameVersion) +
             ")";
    return std::nullopt;
  }
  const std::uint32_t payload_len = static_cast<std::uint32_t>(p[8]) |
                                    (static_cast<std::uint32_t>(p[9]) << 8) |
                                    (static_cast<std::uint32_t>(p[10]) << 16) |
                                    (static_cast<std::uint32_t>(p[11]) << 24);
  if (payload_len > kMaxPayload) {
    error_ = "frame: payload length " + std::to_string(payload_len) +
             " exceeds the " + std::to_string(kMaxPayload) + " byte limit";
    return std::nullopt;
  }
  if (available < kFrameHeaderSize + payload_len) return std::nullopt;
  Frame frame;
  frame.op = static_cast<FrameOp>(p[5]);
  frame.flags = static_cast<std::uint16_t>(p[6] | (p[7] << 8));
  frame.payload =
      buffer_.substr(consumed_ + kFrameHeaderSize, payload_len);
  consumed_ += kFrameHeaderSize + payload_len;
  return frame;
}

}  // namespace cmarkov::serve::net
