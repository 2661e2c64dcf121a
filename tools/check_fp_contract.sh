#!/usr/bin/env sh
# Guards the floating-point contract of the HMM recursions: the production
# passes (hmm::forward_pass, backward_pass, accumulate_expected_transitions)
# are bit-identical to the reference recursions only because the compiler
# may neither reassociate a sum nor fuse a multiply-add. So no build file
# may turn on any of:
#   - -ffast-math or -Ofast (reassociation, no signed zeros, ...);
#   - -ffp-contract=fast (fused multiply-add across statements);
#   - -march=, -mavx* or -mfma (an FMA unit the compiler would contract
#     onto under a GNU dialect);
#   - CXX_EXTENSIONS ON (gnu++20, where GCC's default is -ffp-contract=fast).
# The top-level CMakeLists.txt must also keep CMAKE_CXX_EXTENSIONS OFF,
# since CMake's own default is ON. Comments are ignored, so a build file
# may still explain why a flag is absent.
#
# Wired into CTest as `check_fp_contract` (label: train).
set -eu

repo_root="$(cd "$(dirname "$0")/.." && pwd)"

bad=""
for file in $(find "$repo_root" \
    \( -name .git -o -name build -o -name 'build-*' -o -name .bench_build \) \
    -prune -o -name CMakeLists.txt -print); do
  hits="$(sed 's/#.*//' "$file" \
    | grep -nE -e '-ffast-math|-Ofast|-ffp-contract=fast|-march=|-mavx|-mfma' \
        -e 'CXX_EXTENSIONS[[:space:]]+"?(ON|on|On|TRUE|true|YES|yes|1)"?([^A-Za-z0-9_]|$)' \
    || true)"
  if [ -n "$hits" ]; then
    bad="$bad$(echo "$hits" | sed "s|^|$file:|")
"
  fi
done

if [ -n "$bad" ]; then
  echo "error: a build file breaks the floating-point contract of the" >&2
  echo "bit-identical HMM recursions (no reassociation, no FMA contraction):" >&2
  printf '%s' "$bad" >&2
  exit 1
fi

if ! sed 's/#.*//' "$repo_root/CMakeLists.txt" \
    | grep -qE 'set\(CMAKE_CXX_EXTENSIONS[[:space:]]+OFF\)'; then
  echo "error: the top-level CMakeLists.txt must set CMAKE_CXX_EXTENSIONS" >&2
  echo "OFF; CMake's default (gnu++20) lets GCC contract multiply-adds" >&2
  exit 1
fi
echo "ok: no build file relaxes the floating-point contract"
