#include "src/serve/net/binary_session.hpp"

#include <stdexcept>
#include <utility>

namespace cmarkov::serve::net {

namespace {

/// Decodes one frame; throws std::runtime_error ("frame: …") when it is
/// malformed or carries an op a client may not send. An event batch is
/// only checked: its payload bytes become the request.
Request decode(Frame& frame) {
  switch (frame.op) {
    case FrameOp::kHello: {
      HelloRequest hello = decode_hello_payload(frame.payload);
      return Hello{std::move(hello.model), std::move(hello.session),
                   std::move(hello.trace_id)};
    }
    case FrameOp::kEventBatch:
      return Events{EventBatch::parse(std::move(frame.payload)), {}};
    case FrameOp::kStats:
      return Stats{};
    case FrameOp::kMetrics:
      return Metrics{};
    case FrameOp::kTrace:
      return Trace{decode_trace_payload(frame.payload)};
    case FrameOp::kEvict:
      return Evict{};
    case FrameOp::kBye:
      return Bye{};
    case FrameOp::kReply:
    case FrameOp::kError:
      throw std::runtime_error("frame: server-side op " +
                               std::to_string(static_cast<int>(frame.op)) +
                               " sent by client");
  }
  throw std::runtime_error("frame: unknown op " +
                           std::to_string(static_cast<int>(frame.op)));
}

}  // namespace

BinarySession::Output BinarySession::handle_frame(const Frame& frame) {
  return handle_frame(Frame(frame));
}

BinarySession::Output BinarySession::handle_frame(Frame&& frame) {
  Request request;
  try {
    request = decode(frame);
  } catch (const std::exception& e) {
    return {encode_frame(FrameOp::kError, 0, e.what()), true};
  }
  const Reply reply = conversation_.handle(std::move(request));
  if (frame.op == FrameOp::kEventBatch && reply.text.empty()) {
    if (frame.flags & kFlagNoReply) return {};
    return {encode_frame(FrameOp::kReply, 0,
                         "OK n=" + std::to_string(reply.accepted) +
                             " dropped=" + std::to_string(reply.dropped) +
                             " rejected=" + std::to_string(reply.rejected)),
            false};
  }
  return {encode_frame(FrameOp::kReply, 0, reply.text),
          frame.op == FrameOp::kBye && closed()};
}

}  // namespace cmarkov::serve::net
