// The unit cmarkovd queues: one EV batch in the byte layout of a CMKB
// kEventBatch payload (net/frame.hpp), so a frame's events cross the shard
// queue as the bytes they arrived in. The net loop only checks them
// (EventBatch::parse); the shard worker walks them as string_views
// (EventCursor) and feeds them to OnlineMonitor, so no event builds or
// frees a string between the socket and the monitor. Text EV lines and the
// one-event SessionManager::submit encode their event into the same layout.
//
//   u32 count, then per event:
//     u8 kind (0 = syscall, 1 = libcall), str site, str callee
//   `str` is u16 length + that many bytes; integers are little-endian.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/trace/event.hpp"

namespace cmarkov::serve {

/// One event of an EventBatch; the views point into the batch's bytes.
struct EventView {
  ir::CallKind kind = ir::CallKind::kSyscall;
  std::string_view site;    ///< calling context (CallEvent::caller)
  std::string_view callee;  ///< called function (CallEvent::name)
};

/// An owned, well-formed EV-batch payload. Only parse() and append() make
/// one, so walking it needs no bounds checks.
class EventBatch {
 public:
  /// Bytes of the leading u32 count; the first event starts here.
  static constexpr std::size_t kHeaderSize = 4;

  /// A batch of zero events.
  EventBatch() : bytes_(kHeaderSize, '\0') {}

  /// Checks `payload` without building a string and takes it. Throws
  /// std::runtime_error ("frame: …") when it is malformed: a truncated
  /// field, a count the payload could not hold, an unknown kind byte, or
  /// trailing bytes.
  static EventBatch parse(std::string payload);

  /// Appends one event. Throws std::runtime_error when a string is longer
  /// than 65535 bytes.
  void append(ir::CallKind kind, std::string_view site,
              std::string_view callee);
  void append(const trace::CallEvent& event) {
    append(event.kind, event.caller, event.name);
  }

  std::uint32_t size() const { return count_; }
  bool empty() const { return count_ == 0; }
  /// The payload bytes, count included.
  const std::string& bytes() const { return bytes_; }

 private:
  std::string bytes_;
  std::uint32_t count_ = 0;
};

/// Checks an EV-batch payload as EventBatch::parse does, building
/// nothing; returns its event count.
std::uint32_t check_event_batch(std::string_view payload);

/// Checks an EV-batch payload as check_event_batch does and returns its
/// events as owned CallEvents, in one pass (the decoder behind
/// net::decode_event_batch_payload; tests and tooling).
std::vector<trace::CallEvent> to_call_events(std::string_view payload);

/// Walks checked events from a byte offset (kHeaderSize for the first
/// event). The caller asks for no more events than remain.
class EventCursor {
 public:
  explicit EventCursor(const EventBatch& batch,
                       std::size_t offset = EventBatch::kHeaderSize)
      : at_(batch.bytes().data() + offset) {}

  EventView next() {
    EventView event;
    event.kind = *at_++ == 0 ? ir::CallKind::kSyscall : ir::CallKind::kLibcall;
    event.site = str();
    event.callee = str();
    return event;
  }

  /// Skips `n` events.
  void skip(std::size_t n) {
    for (; n > 0; --n) (void)next();
  }

  /// Byte offset of the next event within `batch`.
  std::size_t offset(const EventBatch& batch) const {
    return static_cast<std::size_t>(at_ - batch.bytes().data());
  }

 private:
  std::string_view str() {
    const auto* p = reinterpret_cast<const unsigned char*>(at_);
    const std::size_t len = static_cast<std::size_t>(p[0] | (p[1] << 8));
    const std::string_view out(at_ + 2, len);
    at_ += 2 + len;
    return out;
  }

  const char* at_;
};

}  // namespace cmarkov::serve
