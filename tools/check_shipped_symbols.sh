#!/usr/bin/env sh
# Guards the test-oracle boundary: the reference implementations built into
# the cmarkov_oracle library (src/CMakeLists.txt) must never be part of a
# shipped binary. The shipped binaries link cmarkov_production alone, so a
# production call into an oracle already fails to link; this check catches
# the other way in, an oracle library (or an oracle unit) added to a shipped
# binary's link. The oracle list is read from the archive itself: every
# global function it defines ("T" in nm), so a new oracle is covered the day
# it is added.
#
# Usage: check_shipped_symbols.sh <liboracle.a> <binary>...
# Wired into CTest as `check_shipped_symbols` (label: serve).
set -eu

oracle="$1"
shift

# nm -C lines are "<address> <type> <demangled name>"; undefined symbols
# have a blank address.
oracle_symbols="$(nm -C --defined-only "$oracle" \
  | sed -n 's/^[0-9a-f]* T //p' | sort -u)"
if [ -z "$oracle_symbols" ]; then
  echo "error: no global function found in $oracle" >&2
  exit 1
fi

status=0
for binary in "$@"; do
  symbols="$(nm -C "$binary" | sed 's/^[0-9a-f]* *[A-Za-z] //')"
  if [ -z "$symbols" ]; then
    echo "error: $binary has no symbol table to check" >&2
    status=1
    continue
  fi
  leaked="$(printf '%s\n' "$symbols" \
    | grep -Fx -e "$oracle_symbols" | sort -u || true)"
  if [ -n "$leaked" ]; then
    echo "error: $binary contains cmarkov_oracle functions, which only" >&2
    echo "tests, benches and examples may link:" >&2
    printf '%s\n' "$leaked" >&2
    status=1
  fi
done
[ "$status" -eq 0 ] || exit 1
echo "ok: no cmarkov_oracle function in $*"
