#!/usr/bin/env bash
# Census of production code that neither shipped binary reaches. Builds a
# separate tree with -ffunction-sections (one section per function), links
# cmarkov and cmarkovd with --gc-sections --print-gc-sections, and prints
#   - the functions of cmarkov_production whose sections both links
#     discarded, as "<object>: <function>", and
#   - the cmarkov_production archive members that neither link pulled in.
# A function listed here has no caller in either binary; whether something
# else (tests, benches, examples, perfbench) still calls it is a grep away.
#
# Caveat: the list holds false positives. A function whose every call was
# inlined within its own unit (or an inline function emitted out of line
# where nothing needed the copy) loses only its out-of-line section, and
# the constructor and destructor variants (C1/C2, D0/D1/D2) are separate
# sections, one of which is routinely unused while the other is reached.
# Check each hit by grep before deleting it. Not run by ctest.
#
# Usage:
#   tools/census_unreached.sh                       # build-census/
#   BUILD_DIR=/tmp/census tools/census_unreached.sh
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build-census}"

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS="-ffunction-sections" \
  -DCMAKE_EXE_LINKER_FLAGS="-Wl,--gc-sections,--print-gc-sections,-t,-t" \
  > /dev/null
if ! cmake --build "$BUILD_DIR" -j"$(nproc)" --target cmarkov_production \
    > "$BUILD_DIR/census-build.log" 2>&1; then
  tail -n 40 "$BUILD_DIR/census-build.log" >&2
  exit 1
fi

# Relink each binary alone so its log holds only its own link.
links=()
for target in cmarkov_cli cmarkovd; do
  rm -f "$BUILD_DIR/tools/cmarkov" "$BUILD_DIR/tools/cmarkovd"
  log="$BUILD_DIR/census-$target.log"
  cmake --build "$BUILD_DIR" --target "$target" > "$log" 2>&1
  links+=("$log")
done

# "<object> <symbol>" of every discarded function section of the library:
# ld prints "removing unused section '.text.<symbol>' in file
# '<dir>/libcmarkov_production.a(<object>)'". COMDAT sections (inline and
# template functions, any unit may emit them) carry a "[<group>]" suffix
# and are skipped, as is the ".cold" suffix of a function's cold part.
discarded() {
  sed -n "s/.*removing unused section '\.text\.\([^'[]*\)' in file '[^']*libcmarkov_production\.a(\([^)]*\))'.*/\2 \1/p" \
    "$1" | sed -e 's/ \(unlikely\|hot\|startup\)\./ /' -e 's/\.cold$//' \
    | sort -u
}
# Archive members a link pulled in; ld -t -t prints "(<archive>)<object>".
pulled() {
  sed -n 's/^(.*libcmarkov_production\.a)\(.*\)$/\1/p' "$1" | sort -u
}

echo "== cmarkov_production functions neither binary reaches"
comm -12 <(discarded "${links[0]}") <(discarded "${links[1]}") \
  | while read -r object symbol; do
      printf '%s: %s\n' "$object" "$(printf '%s\n' "$symbol" | c++filt)"
    done

echo "== cmarkov_production members neither binary links"
members="$(ar t "$BUILD_DIR/src/libcmarkov_production.a" | sort -u)"
comm -23 <(printf '%s\n' "$members") \
  <(sort -u <(pulled "${links[0]}") <(pulled "${links[1]}"))
