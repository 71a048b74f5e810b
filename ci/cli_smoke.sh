#!/bin/sh
# ccg_cli smoke: six reproducers must print their golden stdout byte for
# byte, and bad command lines must exit 2 (usage), never crash.
#
#   sh ci/cli_smoke.sh ./build/ccg_cli
#
# The goldens in ci/cli_golden/ are the stdout of each command; a change
# that moves a coloring, a round count or a bit count shows up here.
# Outputs land in a mktemp -d directory removed on exit.
set -u
CLI=${1:?usage: cli_smoke.sh path/to/ccg_cli}
GOLDEN=$(cd "$(dirname "$0")" && pwd)/cli_golden
OUT=$(mktemp -d)
trap 'rm -rf "$OUT"' EXIT
fail=0

golden() {  # golden <name> <flags...>: exit 0 and the golden stdout
  name=$1
  shift
  "$CLI" "$@" > "$OUT/$name.out" 2> "$OUT/$name.err"
  code=$?
  if [ "$code" -ne 0 ]; then
    echo "FAIL: $name exited $code"
    cat "$OUT/$name.err"
    fail=1
  elif ! cmp -s "$OUT/$name.out" "$GOLDEN/$name.out"; then
    echo "FAIL: $name differs from ci/cli_golden/$name.out"
    diff "$GOLDEN/$name.out" "$OUT/$name.out"
    fail=1
  fi
}

usage_error() {  # usage_error <what> <flags...>: exit 2, so no signal
  what=$1
  shift
  "$CLI" "$@" > /dev/null 2>&1
  code=$?
  if [ "$code" -ne 2 ]; then
    echo "FAIL: $what exited $code, want 2"
    fail=1
  fi
}

golden relay --gen planted --delta 64 --cliques 8 --ext 1 --anti 2 --seed 2
golden star --gen planted --delta 128 --cliques 4 --ext 16 --anti 4 \
  --sparse 200 --layout star --cluster-size 3 --algo high --seed 11
golden caveman_gk --gen caveman --cliques 8 --size 32 --bridges 2 \
  --finisher gk
golden grid_distance3 --gen grid --w 20 --h 12 --distance 3
golden gnm_edge --gen gnm --n 600 --m 3000 --edge-coloring
golden gnp_tree --gen gnp --n 500 --p 0.05 --layout tree --cluster-size 5 \
  --links-per-edge 2 --seed 9

# Recipes outside a generator's domain are invalid instances.
usage_error "chunglu gamma 1.5" --gen chunglu --n 100 --gamma 1.5
usage_error "gnm over-full" --gen gnm --n 10
usage_error "caveman one clique" --gen caveman --cliques 1
usage_error "planted tiny block" --gen planted --delta 4 --cliques 2 \
  --ext 12 --anti 2
usage_error "unknown flag" --gen gnm --frob 1
usage_error "--repeat" --gen gnm --n 100 --repeat 3
usage_error "missing --gen" --n 100

if [ "$fail" -ne 0 ]; then
  echo "cli_smoke: FAILED"
  exit 1
fi
echo "cli_smoke: ok"
