#!/bin/sh
# Examples smoke: seven examples must print their golden stdout byte for
# byte, and a malformed color_dimacs flag must exit 2 (usage), never
# crash.
#
#   sh ci/examples_smoke.sh ./build
#
# The argument is the directory that holds the example binaries. The
# goldens in ci/examples_golden/ are the stdout of each example
# (color_dimacs: its built-in demo); a change that moves a coloring, a
# round count or a bit count shows up here. Outputs land in a mktemp -d
# directory removed on exit.
set -u
BIN=${1:?usage: examples_smoke.sh path/to/example-binaries}
GOLDEN=$(cd "$(dirname "$0")" && pwd)/examples_golden
OUT=$(mktemp -d)
trap 'rm -rf "$OUT"' EXIT
fail=0

for name in quickstart frequency_allocation rack_maintenance \
    tdma_scheduling network_decomposition edge_coloring color_dimacs; do
  "$BIN/$name" > "$OUT/$name.out" 2> "$OUT/$name.err"
  code=$?
  if [ "$code" -ne 0 ]; then
    echo "FAIL: $name exited $code"
    cat "$OUT/$name.err"
    fail=1
  elif ! cmp -s "$OUT/$name.out" "$GOLDEN/$name.out"; then
    echo "FAIL: $name differs from ci/examples_golden/$name.out"
    diff "$GOLDEN/$name.out" "$OUT/$name.out"
    fail=1
  fi
done

# color_dimacs parses its flags with the job-line grammar.
"$BIN/color_dimacs" --cluster-size abc > /dev/null 2>&1
code=$?
if [ "$code" -ne 2 ]; then
  echo "FAIL: color_dimacs --cluster-size abc exited $code, want 2"
  fail=1
fi

if [ "$fail" -ne 0 ]; then
  echo "examples_smoke: FAILED"
  exit 1
fi
echo "examples_smoke: ok"
