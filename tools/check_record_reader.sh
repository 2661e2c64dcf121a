#!/usr/bin/env sh
# Guards the one reader of persisted state: detector models and trainer
# states (src/core/model_io.cpp) and session snapshots
# (src/serve/session_snapshot.cpp) are decoded only through
# util::RecordReader (src/util/record_reader.{hpp,cpp}), whose count rule
# refuses a count before anything is allocated for it. Stream extraction
# (`>>` on an istream), std::getline and the strto* family read past that
# rule, so this check fails if either file uses them again.
#
# Wired into CTest as `check_record_reader` (label: robust).
set -eu

repo_root="$(cd "$(dirname "$0")/.." && pwd)"

# `>>` followed by a name is extraction; `>> 4` is a shift.
bad="$(grep -nE '>>[[:space:]]*[A-Za-z_(]|getline|strto[a-z]+[[:space:]]*\(' \
  "$repo_root/src/core/model_io.cpp" \
  "$repo_root/src/serve/session_snapshot.cpp" || true)"

if [ -n "$bad" ]; then
  echo "error: persisted state is decoded only through util::RecordReader;" >&2
  echo "no stream extraction, getline or strto* in its decoders:" >&2
  echo "$bad" >&2
  exit 1
fi
echo "ok: util::RecordReader is the only parser of persisted state"
