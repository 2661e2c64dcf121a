#!/usr/bin/env sh
# Guards the training and forward-recursion API: all training goes through
# the stateful hmm::Trainer (fit / partial_fit), and every production
# forward pass runs hmm::forward_pass over one table layout.
# Removed symbols may not appear anywhere (declaration, definition, or call
# site), so they cannot quietly come back:
#   - baum_welch_train: the old free training entry point;
#   - the Trainer's kernel cache of transposed matrices, replaced by the
#     ForwardTables layout the scoring kernel also compiles;
#   - the scoring kernel's options struct for pruned mode, which nothing
#     turned on and which had no unconditional error bound.
# The pattern brackets the first letter of the last two names so that this
# file, which must spell them, does not match itself.
#
# Wired into CTest as `check_trainer_api` (label: train).
set -eu

repo_root="$(cd "$(dirname "$0")/.." && pwd)"

# The trailing guard keeps identifiers that merely share a prefix (the
# "baum_welch_training" benchmark label) out of scope: only the exact
# symbols are forbidden.
bad="$(grep -rnE '(baum_welch_train|[H]mmKernelCache|[K]ernelOptions)([^A-Za-z0-9_]|$)' \
  "$repo_root/src" "$repo_root/tests" "$repo_root/tools" \
  "$repo_root/bench" "$repo_root/examples" \
  --include='*.hpp' --include='*.h' --include='*.cpp' \
  | grep -v "^$repo_root/tools/check_trainer_api.sh:" || true)"

if [ -n "$bad" ]; then
  echo "error: train through hmm::Trainer (fit/partial_fit) and score" >&2
  echo "through hmm::forward_pass; removed symbols may not reappear:" >&2
  echo "$bad" >&2
  exit 1
fi
echo "ok: the removed training and kernel symbols are gone for good"
