#!/usr/bin/env bash
# Tracing smoke test, run on every `dune runtest`: tab6 once untraced
# and once with a JSONL trace over 2 worker domains.  Tracing must not
# change the benchmark output (the trace line aside), the trace
# file must validate against the versioned schema, and replaying it
# through `hcrf_explore trace` must reproduce the live counter totals.
set -eu

# dune passes executables as paths relative to the rule's cwd
abspath () { case "$1" in */*) printf '%s\n' "$1" ;; *) printf './%s\n' "$1" ;; esac }
bench=$(abspath "$1")
explore=$(abspath "$2")

dir=$(mktemp -d "${TMPDIR:-/tmp}/hcrf-trace-smoke.XXXXXX")
trap 'rm -rf "$dir"' EXIT

HCRF_LOOPS=20 HCRF_JOBS=2 "$bench" quick tab6 > plain.txt
HCRF_LOOPS=20 HCRF_JOBS=2 HCRF_TRACE="$dir/run.jsonl" "$bench" quick tab6 \
  > traced.txt

grep -q '^trace: .' traced.txt ||
  { echo "trace smoke: traced run printed no counter totals" >&2; exit 1; }

# the trace-counter line is the only legitimate difference between the
# two runs
grep -v '^trace:' plain.txt  > plain.filtered
grep -v '^trace:' traced.txt > traced.filtered
cmp plain.filtered traced.filtered ||
  { echo "trace smoke: tracing changed the benchmark output" >&2; exit 1; }

# the recorded file passes the schema checker...
"$explore" trace "$dir/run.jsonl" > replayed.txt
grep -q '^valid: ' replayed.txt ||
  { echo "trace smoke: trace file failed schema validation" >&2; exit 1; }

# ...and replays to exactly the live totals
grep '^trace: ' traced.txt   > live.totals
grep '^trace: ' replayed.txt > replayed.totals
cmp live.totals replayed.totals ||
  { echo "trace smoke: replayed totals differ from the live run" >&2; exit 1; }

echo "trace smoke: ok (output unchanged, schema valid, replay matches)"
