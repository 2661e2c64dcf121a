// cmarkovd's transport-agnostic line protocol. One transport connection is
// one protocol conversation, which is one monitored session:
//
//   HELLO <model> [session-id] [tid=<id>] -> OK session=<id> model=<model>
//   EV <site> <callee> [sys|lib] [tid=<id>]
//                                    -> OK | OK dropped-oldest
//                                       | ERR rejected queue-full
//   STATS                            -> STATS v=1 session=... (drains first)
//   METRICS                          -> METRICS v=1 <name>=<value>...
//                                       (service-wide, from the registry)
//   TRACE [n]                        -> TRACE v=1 session=... n=<k> plus
//                                       k decision-record JSON lines
//   EVICT                            -> OK session=<id> evicted_dropped=<n>
//                                       (session frozen into the snapshot
//                                       store; queued events discarded and
//                                       counted; the next EV transparently
//                                       restores it)
//   RELOAD <model> <path>            -> OK model=<m> version=<v>
//                                       rebound=<k> (hot model swap; live
//                                       sessions rebind at a window
//                                       boundary, zero accepted events
//                                       lost)
//   BYE                              -> OK session=<id> alarms=<n>
//   FAILPOINT                        -> FAILPOINT v=1 n=<k> plus one
//                                       "<name> <spec> hits=<n>" line per
//                                       known failpoint (admin/chaos verb)
//   FAILPOINT <name> <spec>          -> OK failpoint=<name> spec=<spec>
//                                       (spec: off|always|once|every:N|
//                                       after:N; arms or disarms the
//                                       named fault-injection site)
//
// <site> is the calling context (caller function) of the event, <callee>
// the called function — mirroring the paper's context-sensitive
// observations. An optional trailing tid=<id> names a trace id: on HELLO
// it becomes the session default, on EV it overrides per event. Events
// carrying a trace id are always traced (sampling bypassed) and their
// replies echo the id (`OK tid=<id>`). Blank lines and "#" comment lines
// produce no response. Errors never throw out of handle_line; they render
// as "ERR <reason>". Full grammar and examples: docs/SERVING.md.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "src/serve/session_manager.hpp"

namespace cmarkov::serve {

/// Renders SessionStats as the one-line STATS reply body.
std::string format_session_stats(const SessionStats& stats);

// Replies shared by the text (ProtocolSession) and binary
// (net::BinarySession) conversations, rendered once so the two transports
// stay byte-identical.

/// Reply to any session verb sent before HELLO.
inline constexpr char kNoSessionReply[] = "ERR no session (send HELLO first)";

/// "OK session=<id> model=<model>", plus " tid=<id>" when one is set.
std::string format_hello_reply(const std::string& id, const std::string& model,
                               const std::string& trace_id);

/// "TRACE v=1 session=<id> n=<k>", then one decision-record JSON line each.
std::string format_trace_reply(const std::string& id,
                               const std::vector<obs::DecisionRecord>& records);

/// "OK session=<id> evicted_dropped=<n>".
std::string format_evict_reply(const SessionStats& stats);

/// "OK session=<id> alarms=<n> processed=<n>".
std::string format_bye_reply(const SessionStats& stats);

/// One protocol conversation. Owns the session it opens: destroying the
/// object (transport disconnect) closes the session if BYE never arrived.
class ProtocolSession {
 public:
  explicit ProtocolSession(SessionManager& manager);
  ~ProtocolSession();
  ProtocolSession(const ProtocolSession&) = delete;
  ProtocolSession& operator=(const ProtocolSession&) = delete;

  /// Handles one request line; returns the single response line, or an
  /// empty string for blank/comment lines. Never throws.
  std::string handle_line(std::string_view line);

  /// True once BYE was processed; further lines answer ERR.
  bool closed() const { return closed_; }

  /// Empty until HELLO succeeds.
  const std::string& session_id() const { return session_id_; }

 private:
  std::string handle_hello(std::vector<std::string> words);
  std::string handle_event(std::vector<std::string> words);
  std::string handle_trace(const std::vector<std::string>& words);
  std::string handle_evict();
  std::string handle_reload(const std::vector<std::string>& words);
  std::string handle_failpoint(const std::vector<std::string>& words);
  std::string handle_bye();

  SessionManager& manager_;
  std::string session_id_;
  /// HELLO's tid= value; applied to events without their own.
  std::string default_trace_id_;
  bool closed_ = false;
};

}  // namespace cmarkov::serve
