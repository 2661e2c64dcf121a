// The text codec of cmarkovd's conversation (conversation.hpp), served on
// stdin/stdout and on any TCP connection that does not open with the CMKB
// magic. ProtocolSession decodes each request line into a Request, hands it
// to its Conversation and encodes the Reply as one response:
//
//   HELLO <model> [session-id] [tid=<id>] -> OK session=<id> model=<model>
//   EV <site> <callee> [sys|lib] [tid=<id>]
//                           -> OK [dropped-oldest] | ERR rejected queue-full
//   STATS                   -> STATS v=1 session=... (settles first)
//   METRICS                 -> METRICS v=1 <name>=<value>... (service-wide)
//   TRACE [n]               -> TRACE v=1 session=... n=<k> + k JSON records
//   EVICT                   -> OK session=<id> evicted_dropped=<n>
//   RELOAD <model> <path>   -> OK model=<m> version=<v> rebound=<k>
//   FAILPOINT               -> FAILPOINT v=1 n=<k> + "<name> <spec> hits=<n>"
//   FAILPOINT <name> <spec> -> OK failpoint=<name> spec=<spec>
//   BYE                     -> OK session=<id> alarms=<n> processed=<n>
//
// <site> is the calling context (caller function) of the event, <callee>
// the called function — the paper's context-sensitive observation. A
// trailing tid=<id> names a trace id: on HELLO the session default, on EV
// a per-event override that the reply echoes (`OK tid=<id>`). Blank and
// "#" lines produce no response; a line that does not decode answers
// "ERR usage: …" or names what is wrong. docs/SERVING.md has the grammar.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>

#include "src/serve/conversation.hpp"

namespace cmarkov::serve {

class ProtocolSession {
 public:
  explicit ProtocolSession(SessionManager& manager) : conversation_(manager) {}

  /// Handles one request line; returns the single response line, or an
  /// empty string for blank/comment lines. Never throws.
  std::string handle_line(std::string_view line);

  /// True once BYE was processed; further lines answer ERR.
  bool closed() const { return conversation_.closed(); }

  /// Empty until HELLO succeeds.
  const std::string& session_id() const { return conversation_.session_id(); }

 private:
  Conversation conversation_;
};

/// Runs one protocol conversation over a line stream (cmarkovd's stdio
/// front-end, tests): reads request lines from `in`, writes one response
/// line per request to `out` (flushed per line). Returns after BYE or when
/// `in` reaches end of stream.
void serve_stream(SessionManager& manager, std::istream& in,
                  std::ostream& out);

}  // namespace cmarkov::serve
