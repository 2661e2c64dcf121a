#!/usr/bin/env sh
# Guards the floating-point contract of the HMM recursions: the production
# passes (hmm::forward_pass, backward_pass, accumulate_expected_transitions)
# are bit-identical to the reference recursions only because the compiler
# may neither reassociate a sum nor fuse a multiply and an add into one FMA
# (which rounds once where the reference rounds twice). GCC contracts
# a*b+c into an FMA whenever the target has one, under ISO -std=c++20 as
# much as under gnu++20: its default is -ffp-contract=fast in C++ either
# way. (GCC 12.2 compiling forward_backward.cpp -O3 -mavx512f emits 165
# vfmadd instructions, and parallel_training_test's bitwise checks of the
# forward and backward passes fail.) So:
#   - no build file may turn on -ffast-math or -Ofast (reassociation, no
#     signed zeros, ...), -ffp-contract=fast, -march=, -mavx* or -mfma;
#   - src/CMakeLists.txt must compile hmm/forward_backward.cpp (the
#     production passes) and hmm/forward_reference.cpp (the reference
#     recursions, in the cmarkov_oracle library) with -ffp-contract=off in
#     every build, sanitizer builds included: each one's
#     set_source_files_properties call stands outside any if();
#   - a target or target_clones attribute (or #pragma GCC target) under
#     src/ may name only "avx2" and "default": no "fma", "avx512*" or
#     "arch=", each of which brings an FMA unit with it;
#   - the top-level CMakeLists.txt must keep CMAKE_CXX_EXTENSIONS OFF
#     (CMake's own default is ON), and no build file may turn it on.
# Comments are ignored, so a build file may still explain why a flag is
# absent.
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

# The units that must round like the reference recursions: the production
# passes and the reference recursions themselves. For each, its
# set_source_files_properties call with its nesting depth in if() blocks:
# "<depth> <text of the whole call>".
for unit in hmm/forward_backward.cpp hmm/forward_reference.cpp; do
  call="$(sed 's/#.*//' "$repo_root/src/CMakeLists.txt" | awk -v unit="$unit" '
    /^[[:space:]]*if[[:space:]]*\(/ { depth++ }
    /^[[:space:]]*endif[[:space:]]*\(/ { depth-- }
    /set_source_files_properties\(/ && index($0, "(" unit) > 0 {
      grab = 1; open = 0; text = ""; at = depth + 0
    }
    grab {
      text = text " " $0
      line = $0
      open += gsub(/\(/, "", line)
      line = $0
      open -= gsub(/\)/, "", line)
      if (open <= 0) { print at, text; grab = 0 }
    }')"
  case "$call" in
    "0 "*-ffp-contract=off*) ;;
    *)
      echo "error: src/CMakeLists.txt must compile $unit" >&2
      echo "with -ffp-contract=off in every build (one" >&2
      echo "set_source_files_properties call outside any if()); found:" >&2
      echo "${call:-(no such call)}" >&2
      exit 1
      ;;
  esac
done

# Every target("...") / target_clones("...") attribute or #pragma GCC
# target under src/, and each comma-separated option it names.
targets="$(grep -rnoE 'target(_clones)?[[:space:]]*\([[:space:]]*"[^)]*\)' \
    "$repo_root/src" --include='*.cpp' --include='*.hpp' --include='*.h' \
  || true)"
bad_targets="$(printf '%s\n' "$targets" | while IFS= read -r hit; do
  [ -n "$hit" ] || continue
  options="$(printf '%s\n' "${hit#*:*:}" | grep -oE '"[^"]*"' | tr -d '"' \
    | tr ',' '\n')"
  for option in $options; do
    case "$option" in
      avx2 | default) ;;
      *) echo "$hit" ;;
    esac
  done
done)"
if [ -n "$bad_targets" ]; then
  echo "error: a target attribute under src/ names something other than" >&2
  echo "avx2 or default (no fma, avx512* or arch=: each can contract" >&2
  echo "a multiply-add into an FMA):" >&2
  printf '%s\n' "$bad_targets" | sort -u >&2
  exit 1
fi
echo "ok: no build file or target attribute relaxes the floating-point contract"
