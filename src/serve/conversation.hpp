// One cmarkovd conversation, whatever the transport: HELLO binds a
// monitored session, EV/STATS/METRICS/TRACE/EVICT feed and report on it,
// BYE closes it. The text protocol (protocol.hpp) and CMKB
// (net/binary_session.hpp) are codecs around it: each decodes its bytes
// into a Request, hands it to Conversation::handle and encodes the Reply.
// This is the only serve code that calls SessionManager for a conversation
// (tools/check_conversation.sh), so the drains before a report, the submit
// tally, the reply spans and the session's "ERR …" replies exist once. An
// Events request is one frame: one SessionManager::submit_batch.
#pragma once

#include <string>
#include <variant>

#include "src/serve/session_manager.hpp"
#include "src/util/failpoint.hpp"

namespace cmarkov::serve {

/// Binds the conversation; an empty `session` lets the server assign one,
/// `tid` becomes the default trace id of every later event.
struct Hello {
  std::string model, session, tid;
};
/// One frame of events to submit, in its wire bytes; a non-empty `tid`
/// overrides HELLO's.
struct Events {
  EventBatch events;
  std::string tid;
};
struct Stats {};
struct Metrics {};
/// The session's `n` most recent decision records.
struct Trace {
  std::size_t n = 16;
};
struct Evict {};
/// Hot-swaps `model` for the detector saved at `path` (text protocol only).
struct Reload {
  std::string model, path;
};
/// Arms `name` with `spec`; an empty name lists every failpoint (text
/// protocol only).
struct Failpoint {
  std::string name;
  util::FailpointSpec spec;
};
struct Bye {};
using Request = std::variant<Hello, Events, Stats, Metrics, Trace, Evict,
                             Reload, Failpoint, Bye>;

struct Reply {
  /// The reply line(s): "OK …", "STATS v=1 …", "ERR …". Empty when an
  /// Events request reached its session: the codec renders the tally.
  std::string text;
  /// Events only: SubmitTally's counts.
  std::uint64_t accepted = 0, dropped = 0, rejected = 0;
};

/// Renders SessionStats as the one-line STATS reply body.
std::string format_session_stats(const SessionStats& stats);

/// Owns the session it opens: destroying the object (transport disconnect)
/// closes the session if BYE never arrived.
class Conversation {
 public:
  explicit Conversation(SessionManager& manager) : manager_(manager) {}
  ~Conversation();
  Conversation(const Conversation&) = delete;
  Conversation& operator=(const Conversation&) = delete;

  /// Serves one request. Never throws: every failure, a SessionManager
  /// exception included, becomes an "ERR …" reply.
  Reply handle(Request request);

  /// True once BYE was processed; every later request answers ERR.
  bool closed() const { return closed_; }
  /// Empty until HELLO succeeds.
  const std::string& session_id() const { return session_id_; }

 private:
  /// The bound session id; throws "no session (send HELLO first)".
  const std::string& bound() const;
  std::string serve(Hello& hello, Reply&);
  std::string serve(Events& batch, Reply& reply);
  std::string serve(Stats&, Reply&);
  std::string serve(Metrics&, Reply&);
  std::string serve(Trace& trace, Reply&);
  std::string serve(Evict&, Reply&);
  std::string serve(Reload& reload, Reply&);
  std::string serve(Failpoint& failpoint, Reply&);
  std::string serve(Bye&, Reply&);

  SessionManager& manager_;
  std::string session_id_;
  /// HELLO's tid; applied to events without their own.
  std::string trace_id_;
  bool closed_ = false;
};

}  // namespace cmarkov::serve
