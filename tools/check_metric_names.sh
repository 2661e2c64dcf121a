#!/usr/bin/env sh
# Lints every metric registered in src/ against the naming convention
# documented in docs/OBSERVABILITY.md:
#   - names start with "cmarkov_" and use only [a-zA-Z0-9_:];
#   - counters end in "_total", or "_total_w<i>" for per-worker/per-loop
#     sharded counters (the admin plane's /statusz instruments);
#   - histograms end in a unit suffix (_seconds, _micros, _bytes);
#   - gauges end in a unit suffix or one of the allowlisted dimensionless
#     kinds (_ratio, _open, _calls, _states, _clusters, _components,
#     _inertia, _delta, _level, _iterations) or the per-worker "_w<i>"
#     index suffix.
#
# The check is a line-based grep over registration call sites, so the
# instrument name literal must sit on the same line as its
# counter(/gauge(/histogram( call.
#
# A second pass protects the benchmark's METRICS keys: every cmarkov_*
# literal perfbench/serve.cpp passes to metric(metrics, ...) must be
# registered somewhere in src/ (after stripping a histogram's _count,
# _sum, _p50 or _p99 key suffix; a "..._w" literal is the per-shard prefix
# src/ registers as "..._w" + std::to_string(i)). Deleting an instrument
# the benchmark reads then fails here, not in a benchmark run.
#
# Wired into CTest as `check_metric_names` (label: obs).
set -eu

repo_root="$(cd "$(dirname "$0")/.." && pwd)"

matches="$(grep -rnoE '(counter|gauge|histogram)\([[:space:]]*"[^"]*"' \
  "$repo_root/src" --include='*.cpp' --include='*.hpp' || true)"

if [ -z "$matches" ]; then
  echo "error: no metric registrations found; the grep pattern has rotted" >&2
  exit 1
fi

printf '%s\n' "$matches" | awk '
{
  if (!match($0, /(counter|gauge|histogram)\([[:space:]]*"[^"]*"/)) next;
  call = substr($0, RSTART, RLENGTH);
  loc = substr($0, 1, RSTART - 1);
  sub(/:$/, "", loc);
  kind = substr(call, 1, index(call, "(") - 1);
  q = index(call, "\"");
  name = substr(call, q + 1, length(call) - q - 1);
  total += 1;

  if (name !~ /^cmarkov_[a-zA-Z0-9_:]+$/) {
    print loc ": " kind " \"" name "\" must start with cmarkov_ and use only [a-zA-Z0-9_:]";
    bad += 1;
  } else if (kind == "counter" && name !~ /(_total|_total_w[0-9]*)$/) {
    print loc ": counter \"" name "\" must end in _total (or _total_w<i> per shard/loop)";
    bad += 1;
  } else if (kind == "histogram" && name !~ /(_seconds|_micros|_bytes)$/) {
    print loc ": histogram \"" name "\" must end in a unit suffix (_seconds|_micros|_bytes)";
    bad += 1;
  } else if (kind == "gauge" && name !~ /(_seconds|_micros|_bytes|_ratio|_open|_calls|_states|_clusters|_components|_inertia|_delta|_level|_iterations|_w[0-9]*)$/) {
    print loc ": gauge \"" name "\" must end in a unit or allowlisted kind suffix";
    bad += 1;
  }
}
END {
  if (bad > 0) exit 1;
  print "ok: " total " metric name(s) follow the naming convention";
}
'

# Pass 2. Files are flattened to one line each, so calls split across
# lines still match.
flat_literals() {
  pattern="$1"
  shift
  for f in "$@"; do
    tr '\n' ' ' < "$f" | grep -oE "$pattern" || true
  done | grep -oE '"cmarkov_[a-zA-Z0-9_:]*"' | tr -d '"' | sort -u
}

registered="$(flat_literals \
  '(counter|gauge|histogram)\([[:space:]]*"cmarkov_[a-zA-Z0-9_:]*"' \
  $(find "$repo_root/src" -name '*.cpp' -o -name '*.hpp'))"
bench_keys="$(flat_literals \
  'metric\([[:space:]]*metrics,[[:space:]]*"cmarkov_[a-zA-Z0-9_:]*"' \
  "$repo_root/perfbench/serve.cpp")"

if [ -z "$bench_keys" ]; then
  echo "error: no METRICS keys found in perfbench/serve.cpp; the grep pattern has rotted" >&2
  exit 1
fi

missing=0
for key in $bench_keys; do
  base="$(printf '%s\n' "$key" | sed -E 's/_(count|sum|p50|p99)$//')"
  if ! printf '%s\n' "$registered" | grep -qxF -e "$key" -e "$base"; then
    echo "perfbench/serve.cpp: METRICS key \"$key\" is not registered in src/" >&2
    missing=$((missing + 1))
  fi
done
if [ "$missing" -gt 0 ]; then exit 1; fi
echo "ok: $(printf '%s\n' "$bench_keys" | wc -l | tr -d ' ') benchmark METRICS key(s) are registered in src/"
