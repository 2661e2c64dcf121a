#!/usr/bin/env sh
# Guards the single conversation: cmarkovd's text line protocol
# (src/serve/protocol.cpp) and CMKB frame protocol
# (src/serve/net/binary_session.cpp) are codecs only. They decode a request,
# hand it to serve::Conversation and encode its reply; conversation.cpp is
# the one place that calls SessionManager on behalf of a conversation. A
# session verb called from a codec fails this check, so the two transports
# cannot drift apart again.
#
# Within conversation.cpp, the service-wide drain() (every shard) is called
# exactly once, by serve(Metrics&), whose reply is service-wide. A session
# verb settles only its own shard with drain(id), so a neighbour's backlog
# can never hold up its reply.
#
# Wired into CTest as `check_conversation` (label: serve).
set -eu

repo_root="$(cd "$(dirname "$0")/.." && pwd)"

verbs='open_session|submit|submit_batch|drain|session_stats|recent_decisions|evict_session|close_session|reload_model|record_span'
bad="$(grep -nE "(\.|->|::)($verbs)[[:space:]]*\(" \
  "$repo_root/src/serve/protocol.cpp" \
  "$repo_root/src/serve/net/binary_session.cpp" || true)"

if [ -n "$bad" ]; then
  echo "error: the codecs may not call SessionManager session verbs;" >&2
  echo "serve them through serve::Conversation (src/serve/conversation.cpp):" >&2
  echo "$bad" >&2
  exit 1
fi
conversation="$repo_root/src/serve/conversation.cpp"
global_drains="$(awk '
  /^[^[:space:]].*Conversation::/ { fn = $0 }
  /(\.|->)drain[[:space:]]*\([[:space:]]*\)/ { print FNR ": " fn }
' "$conversation")"
if [ "$(printf '%s\n' "$global_drains" | grep -c .)" -ne 1 ] ||
   ! printf '%s\n' "$global_drains" | grep -q 'serve(Metrics&'; then
  echo "error: conversation.cpp must call the argument-less drain() exactly" >&2
  echo "once, in serve(Metrics&); session verbs use drain(id):" >&2
  echo "${global_drains:-(no call)}" >&2
  exit 1
fi
echo "ok: only the conversation calls SessionManager for a session"
echo "ok: only METRICS settles every shard"
