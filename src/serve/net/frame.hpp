// The cmarkovd binary frame protocol ("CMKB"): length-prefixed, versioned
// frames carrying the same conversation as the text line protocol, built
// for the epoll front-end's hot path. The text protocol costs one
// read/parse/reply round trip per event; a CMKB event-batch frame carries
// hundreds of events and takes one ack — that is where the batching win
// comes from. The text protocol stays available on the same port for
// debugging and replay (the server sniffs the first bytes of each
// connection: frames start with the "CMKB" magic, text does not).
//
// Wire layout (all integers little-endian):
//
//   header (12 bytes):
//     u32 magic        "CMKB" = 0x424B4D43
//     u8  version      1
//     u8  op           see FrameOp
//     u16 flags        see FrameFlags
//     u32 payload_len  bytes following the header, <= kMaxPayload
//
//   payload by op (client -> server):
//     kHello       str model, str session (empty = server assigns),
//                  str trace_id (empty = none)
//     kEventBatch  u32 count, then per event:
//                    u8 kind (0 = syscall, 1 = libcall), str site,
//                    str callee
//                  (serve::EventBatch: the server queues these bytes
//                  as they are, src/serve/event_batch.hpp)
//     kStats       (empty)
//     kMetrics     (empty)
//     kTrace       u32 n
//     kEvict       (empty)
//     kBye         (empty)
//
//   payload (server -> client):
//     kReply       UTF-8 text, exactly the line the text protocol would
//                  have answered (for kEventBatch: one summary line
//                  "OK n=<accepted> dropped=<d> rejected=<r>")
//     kError       UTF-8 reason; the server closes the connection after
//                  a framing-level error frame
//
//   `str` is u16 length + that many bytes (no terminator).
//
// Framing errors (bad magic, unsupported version, oversized or truncated
// payloads, malformed strings) are protocol violations: the parser reports
// a loud model_io-style message, the server answers one kError frame and
// drops the connection. serve_net_test drives a table of hostile frames
// through this parser — reject, account, never crash.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/trace/event.hpp"

namespace cmarkov::serve::net {

inline constexpr std::uint32_t kFrameMagic = 0x424B4D43u;  // "CMKB"
inline constexpr std::uint8_t kFrameVersion = 1;
inline constexpr std::size_t kFrameHeaderSize = 12;
/// Upper bound on payload_len; anything larger is a protocol violation
/// (a hostile length would otherwise make the server buffer gigabytes).
inline constexpr std::uint32_t kMaxPayload = 1u << 20;

enum class FrameOp : std::uint8_t {
  kHello = 1,
  kEventBatch = 2,
  kStats = 3,
  kMetrics = 4,
  kTrace = 5,
  kEvict = 6,
  kBye = 7,
  // Server -> client.
  kReply = 0x80,
  kError = 0xFF,
};

enum FrameFlags : std::uint16_t {
  /// Event batches only: the client does not want the summary ack.
  kFlagNoReply = 1u << 0,
};

/// One complete decoded frame (header + raw payload bytes).
struct Frame {
  FrameOp op = FrameOp::kError;
  std::uint16_t flags = 0;
  std::string payload;
};

/// Serializes a frame (header + payload). The inverse of FrameParser.
std::string encode_frame(FrameOp op, std::uint16_t flags,
                         std::string_view payload);

// -- Payload builders (client side; benches and tests use these too) ------

std::string encode_hello_payload(std::string_view model,
                                 std::string_view session,
                                 std::string_view trace_id);
std::string encode_event_batch_payload(
    const std::vector<trace::CallEvent>& events);
std::string encode_trace_payload(std::uint32_t n);

// -- Payload decoders (server side) ---------------------------------------

struct HelloRequest {
  std::string model;
  std::string session;   ///< empty: server assigns an id
  std::string trace_id;  ///< empty: no default trace id
};

/// Throws std::runtime_error ("frame: ...") on malformed payloads.
HelloRequest decode_hello_payload(std::string_view payload);
/// The batch as owned CallEvents (serve::to_call_events). The server
/// itself never decodes a batch into strings; it queues the checked
/// payload (serve::EventBatch::parse).
std::vector<trace::CallEvent> decode_event_batch_payload(
    std::string_view payload);
std::uint32_t decode_trace_payload(std::string_view payload);

/// Incremental frame scanner for an edge-triggered read loop: feed it
/// whatever the socket produced, pull complete frames out. Once a framing
/// violation is detected the parser latches into the error state (error()
/// non-empty) and next() returns nothing — the connection is beyond
/// resynchronization and must be closed.
class FrameParser {
 public:
  /// Appends raw socket bytes to the scan buffer.
  void feed(const char* data, std::size_t size);

  /// Extracts the next complete frame, or nullopt when more bytes are
  /// needed (or the parser is in the error state).
  std::optional<Frame> next();

  /// Loud description of the framing violation; empty while healthy.
  const std::string& error() const { return error_; }

  /// Bytes buffered but not yet consumed (tests; backpressure accounting).
  std::size_t buffered() const { return buffer_.size() - consumed_; }

 private:
  std::string buffer_;
  std::size_t consumed_ = 0;
  std::string error_;
};

}  // namespace cmarkov::serve::net
