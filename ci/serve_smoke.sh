#!/usr/bin/env sh
# Server determinism smoke: stream the CI manifest through ccg_serve at
# several --workers values and require byte-identical output — the full
# response stream, accepted lines and drained no-timing report alike.
# Then re-run with a steal-point delay failpoint armed (perturbing who
# steals what) and require the output to still match, and feed the
# bad-request corpus line by line expecting the strict stdio exit code 2
# and never a crash. Outputs go to a temporary directory that is removed
# on exit. Run from the repo root:
#   ci/serve_smoke.sh [path/to/ccg_serve]
set -u
SERVE="${1:-./build/ccg_serve}"
fail=0
OUT="$(mktemp -d)" || exit 1
trap 'rm -rf "$OUT"' EXIT

SEED="$(python3 ci/serve_client.py --print-seed bench/smoke.manifest)" || exit 1
python3 ci/serve_client.py bench/smoke.manifest > "$OUT/serve_stream.txt" || exit 1

# Byte-identical responses across worker counts.
for w in 1 2 8; do
  "$SERVE" --seed "$SEED" --workers "$w" < "$OUT/serve_stream.txt" \
    > "$OUT/serve_w$w.txt" 2>/dev/null
  code=$?
  if [ "$code" -ne 0 ]; then
    echo "FAIL: ccg_serve --workers $w exited $code (want 0)"
    fail=1
  fi
done
diff "$OUT/serve_w1.txt" "$OUT/serve_w2.txt" || { echo "FAIL: serve output differs w1 vs w2"; fail=1; }
diff "$OUT/serve_w1.txt" "$OUT/serve_w8.txt" || { echo "FAIL: serve output differs w1 vs w8"; fail=1; }
grep -q '^report-begin$' "$OUT/serve_w1.txt" || { echo "FAIL: no drained report in serve output"; fail=1; }

# Steal schedules must not leak into the report: delay every steal
# decision by 1ms and compare against the unperturbed stream.
CCG_FAILPOINTS="server.steal=delay:1" \
  "$SERVE" --seed "$SEED" --workers 8 < "$OUT/serve_stream.txt" \
  > "$OUT/serve_steal.txt" 2>/dev/null
code=$?
if [ "$code" -ne 0 ]; then
  echo "FAIL: steal-delay serve exited $code (want 0)"
  fail=1
fi
diff "$OUT/serve_w1.txt" "$OUT/serve_steal.txt" || { echo "FAIL: steal delays perturbed the serve output"; fail=1; }

# Fault drill: a persistent job fault with retries exhausted and
# degradation on still serves every job (flagged degraded) and still
# drains a deterministic report.
for w in 1 8; do
  CCG_FAILPOINTS="svc.job.run=throw" \
    "$SERVE" --seed "$SEED" --workers "$w" --max-retries 1 --degrade \
    < "$OUT/serve_stream.txt" > "$OUT/serve_drill_w$w.txt" 2>/dev/null
  code=$?
  if [ "$code" -ne 0 ]; then
    echo "FAIL: degradation drill --workers $w exited $code (want 0)"
    fail=1
  fi
done
diff "$OUT/serve_drill_w1.txt" "$OUT/serve_drill_w8.txt" || { echo "FAIL: drill output differs across workers"; fail=1; }
grep -q '"degraded": true' "$OUT/serve_drill_w1.txt" || { echo "FAIL: drill report not degraded"; fail=1; }

# Bad requests: every corpus line alone must be rejected with the strict
# stdio exit code 2 — a structured error, never a crash.
lineno=0
while IFS= read -r line || [ -n "$line" ]; do
  lineno=$((lineno + 1))
  [ -n "$line" ] || continue
  printf '%s\n' "$line" | "$SERVE" >/dev/null 2>&1
  code=$?
  if [ "$code" -ne 2 ]; then
    echo "FAIL: bad_server_lines.txt:$lineno exited $code (want 2): $line"
    fail=1
  fi
done < tests/corpus/bad_server_lines.txt

if [ "$fail" -eq 0 ]; then
  echo "serve smoke: all checks passed"
fi
exit "$fail"
