#!/usr/bin/env sh
# Guards the PR-7 serve hot path: the serving tier scores exclusively
# through the compiled core::ScoringKernel (shared per model version by
# the ModelRegistry). Raw HMM scoring entry points — the ForwardResult
# matrix recursion and friends — allocate per window and bypass the
# flat-scratch kernel, so they must never appear in src/serve.
#
# Wired into CTest as `check_scoring_kernel` (label: serve).
set -eu

repo_root="$(cd "$(dirname "$0")/.." && pwd)"

bad="$(grep -rnE '(forward_scaled|backward_scaled|viterbi_decode|sequence_log_likelihood|sequence_probability|score_segment)[[:space:]]*\(' \
  "$repo_root/src/serve" --include='*.hpp' --include='*.h' --include='*.cpp' || true)"

if [ -n "$bad" ]; then
  echo "error: src/serve must score through core::ScoringKernel (shared" >&2
  echo "via ModelRegistry), never the raw HMM forward passes:" >&2
  echo "$bad" >&2
  exit 1
fi

# The serving tier must also not compile private kernels per session: the
# only compile() call sites are the registry (one image per model version)
# and core itself (standalone monitors without a serve tier).
compiles="$(grep -rn 'ScoringKernel::compile' \
  "$repo_root/src/serve" --include='*.hpp' --include='*.h' --include='*.cpp' \
  | grep -v 'model_registry' || true)"

if [ -n "$compiles" ]; then
  echo "error: only ModelRegistry may compile kernel images in src/serve" >&2
  echo "(one shared image per model version, not one per session):" >&2
  echo "$compiles" >&2
  exit 1
fi
echo "ok: src/serve scores only through the shared ScoringKernel"
