// The CMKB codec of cmarkovd's conversation (conversation.hpp): one
// BinarySession serves one frame-protocol connection. It decodes each
// frame into a Request, hands it to its Conversation and encodes the
// Reply as a kReply frame carrying the text protocol's line — for an
// event batch, the one summary "OK n=<accepted> dropped=<d> rejected=<r>"
// (none under kFlagNoReply).
//
// Only a frame that does not decode (malformed payload, unknown or
// server-side op) answers one kError frame and asks the server to drop
// the connection — a client that misframes once is desynchronized for
// good. Everything the conversation answers, its errors included, is a
// kReply and the conversation continues.
#pragma once

#include <string>

#include "src/serve/conversation.hpp"
#include "src/serve/net/frame.hpp"

namespace cmarkov::serve::net {

class BinarySession {
 public:
  explicit BinarySession(SessionManager& manager) : conversation_(manager) {}

  struct Output {
    /// Encoded response frame(s) to send; may be empty (kFlagNoReply).
    std::string bytes;
    /// The connection must be closed once `bytes` is flushed.
    bool close = false;
  };

  /// Dispatches one decoded frame. Never throws.
  Output handle_frame(const Frame& frame);
  /// The same, taking the frame's payload: an event batch's bytes are
  /// queued as they are, with no copy (the event loop's path).
  Output handle_frame(Frame&& frame);

  /// Empty until HELLO succeeds.
  const std::string& session_id() const { return conversation_.session_id(); }

  /// True once BYE was processed (the session is closed and released).
  bool closed() const { return conversation_.closed(); }

 private:
  Conversation conversation_;
};

}  // namespace cmarkov::serve::net
