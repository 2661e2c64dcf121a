#!/usr/bin/env sh
# Guards kernel sharing in the serving tier: src/serve scores through one
# compiled core::ScoringKernel image per model version, which only the
# ModelRegistry compiles and every session of that version shares. A
# ScoringKernel::compile() call anywhere else in src/serve would build a
# private image per session. (That src/serve calls no reference recursion
# is enforced by the link: see tools/check_shipped_symbols.sh.)
#
# Wired into CTest as `check_scoring_kernel` (label: serve).
set -eu

repo_root="$(cd "$(dirname "$0")/.." && pwd)"

compiles="$(grep -rn 'ScoringKernel::compile' \
  "$repo_root/src/serve" --include='*.hpp' --include='*.h' --include='*.cpp' \
  | grep -v 'model_registry' || true)"

if [ -n "$compiles" ]; then
  echo "error: only ModelRegistry may compile kernel images in src/serve" >&2
  echo "(one shared image per model version, not one per session):" >&2
  echo "$compiles" >&2
  exit 1
fi
echo "ok: only ModelRegistry compiles ScoringKernel images in src/serve"
