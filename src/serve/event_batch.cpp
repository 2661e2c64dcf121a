#include "src/serve/event_batch.hpp"

#include <stdexcept>
#include <utility>
#include <vector>

namespace cmarkov::serve {

namespace {

[[noreturn]] void truncated(const char* what) {
  throw std::runtime_error(std::string("frame: truncated payload while "
                                       "reading ") +
                           what);
}

/// Checks an EV-batch payload front to back and returns its count; throws
/// at the first malformed byte. With `out`, also appends each event to it,
/// so the decoder checks and builds in one pass.
std::uint32_t walk(std::string_view payload,
                   std::vector<trace::CallEvent>* out) {
  const std::size_t size = payload.size();
  const auto* p = reinterpret_cast<const unsigned char*>(payload.data());
  std::size_t pos = 0;
  const auto need = [&](std::size_t n, const char* what) {
    if (size - pos < n) truncated(what);
  };
  const auto str = [&](const char* what) {
    need(2, what);
    const auto len = static_cast<std::size_t>(p[pos] | (p[pos + 1] << 8));
    pos += 2;
    need(len, what);
    const std::string_view out = payload.substr(pos, len);
    pos += len;
    return out;
  };

  need(EventBatch::kHeaderSize, "event count");
  const std::uint32_t count = static_cast<std::uint32_t>(p[0]) |
                              (static_cast<std::uint32_t>(p[1]) << 8) |
                              (static_cast<std::uint32_t>(p[2]) << 16) |
                              (static_cast<std::uint32_t>(p[3]) << 24);
  pos = EventBatch::kHeaderSize;
  // Each event needs at least 5 payload bytes (kind + two empty strings),
  // so an impossible count fails before the walk.
  if (count > size / 5) {
    throw std::runtime_error(
        "frame: event count " + std::to_string(count) +
        " exceeds what the payload could hold");
  }
  if (out != nullptr) out->reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    need(1, "event kind");
    const std::uint8_t kind = p[pos++];
    if (kind > 1) {
      throw std::runtime_error("frame: unknown event kind " +
                               std::to_string(kind));
    }
    const std::string_view site = str("event site");
    const std::string_view callee = str("event callee");
    if (out != nullptr) {
      trace::CallEvent& event = out->emplace_back();
      event.kind = kind == 0 ? ir::CallKind::kSyscall : ir::CallKind::kLibcall;
      event.caller = site;
      event.name = callee;
    }
  }
  if (pos != size) {
    throw std::runtime_error("frame: " + std::to_string(size - pos) +
                             " trailing byte(s) after event batch payload");
  }
  return count;
}

}  // namespace

std::uint32_t check_event_batch(std::string_view payload) {
  return walk(payload, nullptr);
}

std::vector<trace::CallEvent> to_call_events(std::string_view payload) {
  std::vector<trace::CallEvent> events;
  walk(payload, &events);
  return events;
}

EventBatch EventBatch::parse(std::string payload) {
  EventBatch batch;
  batch.count_ = check_event_batch(payload);
  batch.bytes_ = std::move(payload);
  return batch;
}

void EventBatch::append(ir::CallKind kind, std::string_view site,
                        std::string_view callee) {
  if (site.size() > 0xffff || callee.size() > 0xffff) {
    throw std::runtime_error("frame: string field exceeds 65535 bytes");
  }
  const auto put_str = [&](std::string_view value) {
    bytes_.push_back(static_cast<char>(value.size() & 0xff));
    bytes_.push_back(static_cast<char>((value.size() >> 8) & 0xff));
    bytes_.append(value);
  };
  // Grows geometrically like push_back, but once per event.
  bytes_.reserve(bytes_.size() + 5 + site.size() + callee.size());
  bytes_.push_back(kind == ir::CallKind::kSyscall ? '\0' : '\1');
  put_str(site);
  put_str(callee);
  ++count_;
  for (std::size_t i = 0; i < kHeaderSize; ++i) {
    bytes_[i] = static_cast<char>((count_ >> (8 * i)) & 0xff);
  }
}

}  // namespace cmarkov::serve
