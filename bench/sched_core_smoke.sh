#!/usr/bin/env bash
# Scheduler-core smoke test, run on every `dune runtest`: a small cold
# workbench (tab6, 20 loops, serial) byte-compared against the golden
# output committed when the data-oriented core replaced the original
# functional one.  Any behavioural drift in the scheduler — a different
# eject victim, a different spill choice, a different II — changes some
# table cell and fails the comparison.  main.exe prints no timing,
# so the raw bytes are compared.  An unknown section name must be
# refused (exit 2), not silently ignored.
set -eu

# dune passes the executable as a path relative to the rule's cwd
case "$1" in
  */*) exe="$1" ;;
  *) exe="./$1" ;;
esac
golden="$2"

HCRF_LOOPS=20 HCRF_JOBS=1 "$exe" quick tab6 > sched_core.txt

cmp "$golden" sched_core.txt ||
  { echo "sched-core smoke: output drifted from the committed golden" >&2
    diff "$golden" sched_core.txt | head -40 >&2 || true
    exit 1; }

status=0
"$exe" tabb6 > sched_core_unknown.txt 2>&1 || status=$?
[ "$status" = 2 ] ||
  { echo "sched-core smoke: unknown section exited $status, not 2" >&2
    cat sched_core_unknown.txt >&2; exit 1; }

echo "sched-core smoke: ok (tab6@20 byte-identical to golden, unknown section refused)"
