#include "src/serve/net/binary_session.hpp"

#include <exception>
#include <utility>

#include "src/obs/export.hpp"
#include "src/serve/protocol.hpp"

namespace cmarkov::serve::net {

BinarySession::BinarySession(SessionManager& manager) : manager_(manager) {}

BinarySession::~BinarySession() {
  if (!session_id_.empty() && !closed_) {
    try {
      manager_.close_session(session_id_);
    } catch (const std::exception&) {
      // Disconnect raced with an explicit close; nothing left to release.
    }
  }
}

BinarySession::Output BinarySession::reply(std::string line) const {
  return {encode_frame(FrameOp::kReply, 0, line), false};
}

BinarySession::Output BinarySession::protocol_error(std::string reason) const {
  return {encode_frame(FrameOp::kError, 0, reason), true};
}

BinarySession::Output BinarySession::handle_frame(const Frame& frame) {
  if (closed_) return reply("ERR session closed (BYE already processed)");
  try {
    switch (frame.op) {
      case FrameOp::kHello:
        return handle_hello(frame);
      case FrameOp::kEventBatch:
        return handle_event_batch(frame);
      case FrameOp::kStats: {
        if (session_id_.empty()) return reply(kNoSessionReply);
        manager_.drain();  // verdicts are async; settle before reporting
        return reply(
            format_session_stats(manager_.session_stats(session_id_)));
      }
      case FrameOp::kMetrics: {
        manager_.drain();
        return reply("METRICS " +
                     obs::to_kv_line(manager_.metrics_registry()));
      }
      case FrameOp::kTrace: {
        if (session_id_.empty()) return reply(kNoSessionReply);
        const std::uint32_t n = decode_trace_payload(frame.payload);
        if (n == 0) return reply("ERR TRACE n must be > 0");
        manager_.drain();
        return reply(format_trace_reply(
            session_id_, manager_.recent_decisions(session_id_, n)));
      }
      case FrameOp::kEvict: {
        if (session_id_.empty()) return reply(kNoSessionReply);
        manager_.evict_session(session_id_);
        return reply(format_evict_reply(manager_.session_stats(session_id_)));
      }
      case FrameOp::kBye: {
        if (session_id_.empty()) return reply(kNoSessionReply);
        const SessionStats stats = manager_.close_session(session_id_);
        closed_ = true;
        return {reply(format_bye_reply(stats)).bytes, true};
      }
      case FrameOp::kReply:
      case FrameOp::kError:
        return protocol_error("frame: server-side op " +
                              std::to_string(static_cast<int>(frame.op)) +
                              " sent by client");
    }
    return protocol_error("frame: unknown op " +
                          std::to_string(static_cast<int>(frame.op)));
  } catch (const std::runtime_error& e) {
    // Payload decoders throw runtime_error on malformed bytes — a framing
    // violation, not an application error: drop the connection.
    return protocol_error(e.what());
  } catch (const std::exception& e) {
    return reply(std::string("ERR ") + e.what());
  }
}

BinarySession::Output BinarySession::handle_hello(const Frame& frame) {
  if (!session_id_.empty()) {
    return reply("ERR session already bound to '" + session_id_ + "'");
  }
  const HelloRequest request = decode_hello_payload(frame.payload);
  const std::string id = request.session.empty()
                             ? manager_.next_session_id()
                             : request.session;
  manager_.open_session(id, request.model);
  session_id_ = id;
  trace_id_ = request.trace_id;
  return reply(format_hello_reply(id, request.model, trace_id_));
}

BinarySession::Output BinarySession::handle_event_batch(const Frame& frame) {
  if (session_id_.empty()) return reply(kNoSessionReply);
  const std::vector<trace::CallEvent> events =
      decode_event_batch_payload(frame.payload);
  std::uint64_t accepted = 0;
  std::uint64_t dropped = 0;
  std::uint64_t rejected = 0;
  for (trace::CallEvent event : events) {
    switch (manager_.submit(session_id_, std::move(event), trace_id_)) {
      case SubmitResult::kAccepted:
        ++accepted;
        break;
      case SubmitResult::kDroppedOldest:
        ++accepted;  // this event got in; an older one paid for it
        ++dropped;
        break;
      case SubmitResult::kRejected:
        ++rejected;
        break;
      case SubmitResult::kUnknownSession:
        return reply("ERR session vanished");
    }
  }
  if (frame.flags & kFlagNoReply) return {};
  return reply("OK n=" + std::to_string(accepted) +
               " dropped=" + std::to_string(dropped) +
               " rejected=" + std::to_string(rejected));
}

}  // namespace cmarkov::serve::net
