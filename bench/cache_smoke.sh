#!/usr/bin/env bash
# Schedule-cache smoke test, run on every `dune runtest`: tab6 twice
# against the same fresh HCRF_CACHE directory.  The second run must be
# served from the cache (hits > 0, no misses) and — the cache-counter
# line aside — print byte-identical output.
set -eu

# dune passes the executable as a path relative to the rule's cwd
case "$1" in
  */*) exe="$1" ;;
  *) exe="./$1" ;;
esac
dir=$(mktemp -d "${TMPDIR:-/tmp}/hcrf-cache-smoke.XXXXXX")
trap 'rm -rf "$dir"' EXIT

run () { HCRF_LOOPS=20 HCRF_JOBS=2 HCRF_CACHE="$dir" "$exe" quick tab6; }

run > cold.txt
run > warm.txt

grep '^cache: ' cold.txt | grep -q ' hits=0 ' ||
  { echo "cache smoke: cold run unexpectedly hit" >&2; exit 1; }
grep '^cache: ' warm.txt | grep -Eq 'hits=[1-9]' ||
  { echo "cache smoke: warm run had no hits" >&2; exit 1; }
grep '^cache: ' warm.txt | grep -q 'misses=0 ' ||
  { echo "cache smoke: warm run recomputed entries" >&2; exit 1; }

# the cache-counter line is the only legitimate difference between the
# two runs
grep -v '^cache:' cold.txt > cold.filtered
grep -v '^cache:' warm.txt > warm.filtered
cmp cold.filtered warm.filtered ||
  { echo "cache smoke: warm output differs from cold" >&2; exit 1; }

echo "cache smoke: ok (warm run fully cached, output identical)"
