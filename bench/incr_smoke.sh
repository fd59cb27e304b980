#!/usr/bin/env bash
# Incremental-pipeline smoke test, run on every `dune runtest`: a
# scripted 3-edit session over a 12-kernel frontend program, at jobs=1
# and jobs=4.  The acceptance contract:
#
#   - the cold evaluation recomputes every kernel (nothing pre-warmed);
#   - each edit recompiles and reschedules exactly the one dirty
#     kernel — every other kernel replays its compiled loop from the
#     stage memo and its schedule from the store (metrics are derived
#     from the schedule on every evaluation);
#   - the final incremental metrics are byte-identical to a cold
#     evaluation of the same program (--verify, sched_seconds
#     scrubbed);
#   - modulo the banner's jobs= field, stdout is byte-identical at
#     jobs=1 and jobs=4 (stage classification is serial, so all counts
#     are jobs-independent);
#   - with --cache DIR the schedules persist in the store's shards (the
#     stage memo itself stays in-process and writes no file): a fresh
#     process re-evaluating the program against the same directory
#     answers every schedule from the store, recomputes nothing and
#     still verifies.
set -eu

case "$1" in
  */*) explore="$1" ;;
  *) explore="./$1" ;;
esac

dir=$(mktemp -d "${TMPDIR:-/tmp}/hcrf-incr-smoke.XXXXXX")
trap 'rm -rf "$dir"' EXIT

run () {
  "$explore" incr -c 4C32 --kernels 12 --edits 3 --verify --jobs "$1"
}

run 1 > "$dir/j1.txt"
run 4 > "$dir/j4.txt"

grep -q '^cold: .* recomputed=12 ' "$dir/j1.txt" ||
  { echo "incr smoke: cold run did not recompute every kernel" >&2
    cat "$dir/j1.txt" >&2; exit 1; }

# each edit recompiles and reschedules exactly its one dirty kernel
[ "$(grep -c '^edit [0-9]*: .*frontend_recomputed=1 .* recomputed=1 ' \
      "$dir/j1.txt")" = 3 ] ||
  { echo "incr smoke: an edit recomputed more than its dirty cone" >&2
    cat "$dir/j1.txt" >&2; exit 1; }
[ "$(grep -c '^  dirty: k[0-9][0-9][0-9]$' "$dir/j1.txt")" = 3 ] ||
  { echo "incr smoke: an edit dirtied more than one loop" >&2
    cat "$dir/j1.txt" >&2; exit 1; }

grep -q '^verify: ok' "$dir/j1.txt" ||
  { echo "incr smoke: incremental metrics differ from a cold run" >&2
    cat "$dir/j1.txt" >&2; exit 1; }

# jobs determinism: the jobs= field is the only legitimate difference
sed 's/jobs=[0-9]*//' "$dir/j1.txt" > "$dir/j1.filtered"
sed 's/jobs=[0-9]*//' "$dir/j4.txt" > "$dir/j4.filtered"
cmp "$dir/j1.filtered" "$dir/j4.filtered" ||
  { echo "incr smoke: jobs=4 output differs from jobs=1" >&2; exit 1; }

# cross-process persistence through the schedule store
"$explore" incr -c 4C32 --kernels 12 --edits 3 --cache "$dir/store" \
  > "$dir/p1.txt"
"$explore" incr -c 4C32 --kernels 12 --edits 0 --verify \
  --cache "$dir/store" > "$dir/p2.txt"
grep -q '^cold: .* store_hits=12 recomputed=0 ' "$dir/p2.txt" &&
  grep -q '^verify: ok' "$dir/p2.txt" ||
  { echo "incr smoke: a fresh process did not replay the persisted session" >&2
    cat "$dir/p2.txt" >&2; exit 1; }
if [ -n "$(find "$dir" -name 'memo.v*' -print -quit)" ]; then
  echo "incr smoke: the stage memo wrote a file" >&2
  find "$dir" -name 'memo.v*' >&2; exit 1
fi

echo "incr smoke: ok (3-edit session, one dirty kernel per edit, bytes match cold, jobs-invariant, persists across processes)"
