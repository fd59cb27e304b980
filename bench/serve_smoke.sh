#!/usr/bin/env bash
# Serving smoke test, run on every `dune runtest`: boot an hcrf_serve
# daemon on a loopback unix socket, fire a 1000-request storm from 4
# concurrent clients at it, and check the acceptance contract:
#
#   - every warm response comes from a cache tier: the storm moves no
#     engine computation counter (computed=0);
#   - entries are byte-identical to a direct local Runner.compute_entry
#     (--verify; scheduler wall-clock scrubbed);
#   - a malformed frame is refused without taking the daemon down;
#   - a storm with no clients or no loops is refused up front (non-zero
#     exit at once, nothing sent);
#   - SIGTERM drains cleanly (final stats line, exit 0, socket gone);
#   - the drain line's counters are the daemon's counted Serve notes:
#     with counters-only tracing (HCRF_TRACE=) each equals its serve.*
#     key on the drain "trace:" line.
set -eu

case "$1" in
  */*) serve="$1" ;;
  *) serve="./$1" ;;
esac
case "$2" in
  */*) explore="$2" ;;
  *) explore="./$2" ;;
esac

dir=$(mktemp -d "${TMPDIR:-/tmp}/hcrf-serve-smoke.XXXXXX")
sock="$dir/serve.sock"
cleanup () {
  [ -n "${daemon_pid:-}" ] && kill "$daemon_pid" 2> /dev/null || true
  rm -rf "$dir"
}
trap cleanup EXIT

HCRF_TRACE= "$serve" --addr "$sock" --cache "$dir/cache" --lru 64 --jobs 2 \
  > "$dir/daemon.log" 2>&1 &
daemon_pid=$!

for _ in $(seq 1 100); do
  [ -S "$sock" ] && break
  kill -0 "$daemon_pid" 2> /dev/null ||
    { echo "serve smoke: daemon died at startup" >&2
      cat "$dir/daemon.log" >&2; exit 1; }
  sleep 0.1
done
[ -S "$sock" ] ||
  { echo "serve smoke: daemon socket never appeared" >&2; exit 1; }

"$explore" serve-bench --addr "$sock" -c 4C32 -n 20 -r 1000 --clients 4 \
  --verify --malformed > bench_out.txt

grep -q 'malformed: daemon survived' bench_out.txt ||
  { echo "serve smoke: malformed-frame check missing" >&2
    cat bench_out.txt >&2; exit 1; }
grep -q '^storm: computed=0 ' bench_out.txt ||
  { echo "serve smoke: warm storm invoked the engine" >&2
    cat bench_out.txt >&2; exit 1; }
grep -q '^verify: ok' bench_out.txt ||
  { echo "serve smoke: daemon responses differ from the local runner" >&2
    cat bench_out.txt >&2; exit 1; }

# degenerate storms: each storm thread steps by --clients and wraps
# modulo --loops, so either at 0 must be refused before any request
for bad in "--clients 0" "--loops 0"; do
  status=0
  timeout 10 "$explore" serve-bench --addr "$sock" -c 4C32 -r 10 $bad \
    > "$dir/bad_out.txt" 2> "$dir/bad_err.txt" || status=$?
  [ "$status" -ne 0 ] && [ "$status" -ne 124 ] && [ ! -s "$dir/bad_out.txt" ] ||
    { echo "serve smoke: serve-bench $bad exited $status instead of refusing" >&2
      cat "$dir/bad_out.txt" "$dir/bad_err.txt" >&2; exit 1; }
done

# graceful drain: SIGTERM, clean exit, final stats, socket removed
kill -TERM "$daemon_pid"
wait "$daemon_pid" ||
  { echo "serve smoke: daemon exited non-zero on SIGTERM" >&2
    cat "$dir/daemon.log" >&2; exit 1; }
daemon_pid=""
grep -q 'hcrf_serve: drained;' "$dir/daemon.log" ||
  { echo "serve smoke: no drain stats line" >&2
    cat "$dir/daemon.log" >&2; exit 1; }
[ ! -e "$sock" ] ||
  { echo "serve smoke: socket file left behind after drain" >&2; exit 1; }

# one count, two readers: the stats fields and the traced serve.*
# counters come from the same notes (a key absent from the trace is 0)
drain=$(grep 'hcrf_serve: drained;' "$dir/daemon.log")
trace=$(grep '^trace: ' "$dir/daemon.log") ||
  { echo "serve smoke: no trace line after drain" >&2
    cat "$dir/daemon.log" >&2; exit 1; }
for pair in requests:request lru_hits:lru_hit tier2_hits:disk_hit \
  computed:computed coalesced:coalesced rejected:reject; do
  field=${pair%%:*}
  key=${pair#*:}
  want=$(echo "$drain" | grep -o " $field=[0-9]*" | cut -d= -f2)
  got=$(echo "$trace" | grep -o " serve\.$key=[0-9]*" | cut -d= -f2)
  [ -n "$want" ] && [ "${got:-0}" = "$want" ] ||
    { echo "serve smoke: drain $field=$want but trace serve.$key=${got:-0}" >&2
      cat "$dir/daemon.log" >&2; exit 1; }
done

# entries must have landed in the sharded store layout
find "$dir/cache" -mindepth 2 -name '*.hcrf' | grep -q . ||
  { echo "serve smoke: no sharded cache entries written" >&2; exit 1; }

echo "serve smoke: ok (1000-request storm warm, verified, malformed survived, empty storms refused, drained, stats = trace counts)"
