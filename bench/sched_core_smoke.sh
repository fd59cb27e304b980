#!/usr/bin/env bash
# Scheduler-core smoke test, run on every `dune runtest`: a small cold
# workbench (tab6, 20 loops, serial) byte-compared against the golden
# output committed when the data-oriented core replaced the original
# functional one.  Any behavioural drift in the scheduler — a different
# eject victim, a different spill choice, a different II — changes some
# table cell and fails the comparison.  Two more goldens pin what the
# aggregates can hide: Figure 6 at 20 loops (real memory with binding
# prefetch, so the stall simulation too) and the full placement — every
# node's cycle and cluster — of each built-in kernel on S64, 4C32S16
# and 8C16S16, plus 4C32S16 under prefetch, then on the organizations
# those miss: flat clustered 4C32 and 2C64 (Move reuse) and
# constrained ports (4C16S16@r2w1).  A fourth
# pins how hard the engine worked: the counters-only trace line of the
# tab6 run (ii_try, eject, place, spill and copy counts), which a
# changed eject victim moves even when the schedules land the same.
# main.exe and hcrf_explore print no timing, so the raw bytes are
# compared.  An unknown section name must be refused (exit 2), not
# silently ignored.
#
#   sched_core_smoke.sh MAIN_EXE GOLDEN_TAB6 EXPLORE_EXE GOLDEN_FIG6 \
#     GOLDEN_SCHEDULES GOLDEN_TRACE
set -eu

# dune passes the executables as paths relative to the rule's cwd
path() { case "$1" in */*) echo "$1" ;; *) echo "./$1" ;; esac; }
exe="$(path "$1")"
golden="$2"
explore="$(path "$3")"
golden_fig6="$4"
golden_schedules="$5"
golden_trace="$6"

same() {
  cmp "$1" "$2" ||
    { echo "sched-core smoke: $2 drifted from the committed golden" >&2
      diff "$1" "$2" | head -40 >&2 || true
      exit 1; }
}

HCRF_LOOPS=20 HCRF_JOBS=1 "$exe" quick tab6 > sched_core.txt
same "$golden" sched_core.txt

HCRF_LOOPS=20 HCRF_JOBS=1 HCRF_TRACE= "$exe" quick tab6 |
  grep '^trace:' > sched_core_trace.txt
same "$golden_trace" sched_core_trace.txt

HCRF_LOOPS=20 HCRF_JOBS=1 "$exe" quick fig6 > sched_core_fig6.txt
same "$golden_fig6" sched_core_fig6.txt

kernels="daxpy dot vscale saxpy3 fir5 stencil3 tridiag horner cmul norm2
  dist2d vdiv prefix_sum tree8 matvec_inner lll5 twin_acc normalize broadcast8"
{
  for c in S64 4C32S16 8C16S16; do
    for k in $kernels; do "$explore" schedule -k "$k" -c "$c" --dump; done
  done
  for k in $kernels; do
    "$explore" schedule -k "$k" -c 4C32S16 --memory prefetch --dump
  done
  for c in 4C32 2C64 4C16S16@r2w1; do
    for k in $kernels; do "$explore" schedule -k "$k" -c "$c" --dump; done
  done
} > sched_core_schedules.txt
same "$golden_schedules" sched_core_schedules.txt

status=0
"$exe" tabb6 > sched_core_unknown.txt 2>&1 || status=$?
[ "$status" = 2 ] ||
  { echo "sched-core smoke: unknown section exited $status, not 2" >&2
    cat sched_core_unknown.txt >&2; exit 1; }

echo "sched-core smoke: ok (tab6@20, its trace counts, fig6@20 and kernel placements byte-identical to goldens, unknown section refused)"
