#!/usr/bin/env sh
# Guards the ExecContext API: thread counts flow through util::ExecContext
# (options.exec.threads), whose fields are the thread count and the two
# observability sinks (metrics, profile), never through raw `num_threads`
# *fields* on option structs. Function/constructor parameters named
# num_threads (WorkerPool, parallel_for, transform) remain legitimate, so
# the pattern matches only field declarations with a default initializer.
#
# Wired into CTest as `check_exec_context` (label: obs).
set -eu

repo_root="$(cd "$(dirname "$0")/.." && pwd)"

bad="$(grep -rnE '(std::size_t|size_t|int|unsigned)[[:space:]]+num_threads[[:space:]]*=[[:space:]]*[0-9]+[[:space:]]*;' \
  "$repo_root/src" --include='*.hpp' --include='*.h' || true)"

if [ -n "$bad" ]; then
  echo "error: raw num_threads field(s) found; route thread counts through" >&2
  echo "ExecContext (options.exec.threads) instead:" >&2
  echo "$bad" >&2
  exit 1
fi

# The deprecated PR-4 compatibility aliases were removed in PR 5; they must
# not come back in any form (declaration, definition, or call).
aliases="$(grep -rn 'set_num_threads' \
  "$repo_root/src" "$repo_root/tests" "$repo_root/tools" "$repo_root/bench" \
  --include='*.hpp' --include='*.h' --include='*.cpp' || true)"

if [ -n "$aliases" ]; then
  echo "error: set_num_threads is a removed deprecated alias; use" >&2
  echo "ExecContext (options.exec.threads) instead:" >&2
  echo "$aliases" >&2
  exit 1
fi
echo "ok: no raw num_threads fields in src/ headers, no set_num_threads aliases"
