#!/usr/bin/env bash
# Access-port sweep smoke test, run on every `dune runtest`: the
# generalized-hierarchy `ports --access` ladder (uniform, then r6w4
# down to r2w1) over a 12-loop suite, for two representative
# organizations — hierarchical and flat clustered.  The acceptance
# contract:
#
#   - the concatenated sweep tables are byte-identical to the committed
#     golden (bench/golden_ports.txt): any drift in ΣII or %MII at any
#     swept port count is a behavioural change of the port-constrained
#     scheduler and must be re-goldened deliberately;
#   - the first sweep is byte-identical at jobs=1 and jobs=4;
#   - a malformed notation or a flat organization's lp/sp sweep is
#     refused with a plain error and exit code, no uncaught exception.
#
# The golden's first sweep (4C16S16) pins the same six ΣII points as
# the committed BENCH_ports.json.
set -eu

case "$1" in
  */*) explore="$1" ;;
  *) explore="./$1" ;;
esac
golden_txt="$2"

dir=$(mktemp -d "${TMPDIR:-/tmp}/hcrf-ports-smoke.XXXXXX")
trap 'rm -rf "$dir"' EXIT

: > "$dir/summary.txt"
for cfg in 4C16S16 4C32; do
  "$explore" ports -c "$cfg" --access -n 12 >> "$dir/summary.txt"
done

cmp "$dir/summary.txt" "$golden_txt" ||
  { echo "ports smoke: sweep tables drifted from bench/golden_ports.txt" >&2
    diff "$golden_txt" "$dir/summary.txt" >&2 || true; exit 1; }

# jobs determinism on the first sweep
"$explore" ports -c 4C16S16 --access -n 12 -j 4 > "$dir/j4.txt"
head -8 "$dir/summary.txt" > "$dir/j1.txt"
cmp "$dir/j1.txt" "$dir/j4.txt" ||
  { echo "ports smoke: jobs=4 sweep differs from jobs=1" >&2; exit 1; }

# Refusals are plain errors, never an uncaught exception: a malformed
# notation in -c, --flat or --hier is a usage error (exit 124) naming
# the notation, and the lp/sp sweep of a flat organization exits 1.
refused() {
  want="$1"; pattern="$2"; shift 2
  status=0
  "$explore" "$@" > "$dir/refused.txt" 2>&1 || status=$?
  [ "$status" = "$want" ] && grep -q -- "$pattern" "$dir/refused.txt" &&
    ! grep -q 'internal error' "$dir/refused.txt" ||
    { echo "ports smoke: '$*' exited $status, not $want with '$pattern'" >&2
      cat "$dir/refused.txt" >&2; exit 1; }
}
refused 124 'invalid notation "4C16S16-Q"' schedule -k daxpy -c 4C16S16-Q
refused 124 'third register-file level' ports -c 4C16S16-L3:64 --access -n 1
refused 124 'invalid notation "4Cx"' scarcity --flat 4Cx -n 1
refused 124 'invalid notation "2C32Sx"' scarcity --hier 2C32Sx -n 1
refused 1 'needs a hierarchical configuration' ports -c 4C32 -n 1

echo "ports smoke: ok (2 organizations x 6 port points, bytes match golden, jobs-invariant, bad notations refused)"
