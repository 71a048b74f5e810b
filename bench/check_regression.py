#!/usr/bin/env python3
"""Bench-regression gate for BENCH_pipeline.json.

Compares a freshly measured pipeline bench against a reference JSON and
fails (exit 1) when the end-to-end mean regresses past the threshold:

    fresh_total_mean > threshold * reference_total

Both totals are mean-estimator figures compared like-with-like: each
side prefers ``total_mean_ns`` (schema v2), falls back to summing
per-instance ``mean_ns`` (schema v1 carries those too), and the
reference finally falls back to ``total_wall_ns`` for minimal JSONs.

CI runs this against the pre-CSR seed baseline with --normalize-micro:
when both JSONs carry the try_color_round micro figure, the reference
total is scaled by fresh_micro/ref_micro, a same-binary machine-speed
proxy that cancels most of the runner-vs-reference-machine speed gap
(the residual confound is intentional changes to the primitive itself,
which shift the gate by their own small ratio). When --normalize-micro
is requested but either JSON lacks the micro figure, the script FAILS
(exit 2) rather than silently gating on raw, machine-speed-confounded
totals; pass --allow-unnormalized to opt into the raw comparison.
Locally, point it at a previous BENCH_pipeline.json for a tight
same-machine gate:

    python3 bench/check_regression.py fresh.json BENCH_pipeline.json

With --same-colorings the gate also fails when any reference instance's
``h_rounds`` or ``coloring_fnv1a`` (the hash of its t=1 coloring) differs
in the fresh JSON, or is missing from either side. CI passes it against
the committed BENCH_pipeline.json, so a perf-only change must keep every
coloring, and an algorithm change must recommit the JSON.

Serving fresh files dispatch on their "bench" tag instead: "serving"
gates the warm scheduler-path allocation counters (fast, auto, low),
report determinism across worker counts, and (loosely,
--serving-factor) jobs/sec and per-class p95 latency against a
committed BENCH_serving.json reference.
"""

import argparse
import json
import sys


def total_mean_ns(doc: dict) -> float:
    if isinstance(doc.get("total_mean_ns"), (int, float)):
        return float(doc["total_mean_ns"])
    instances = doc.get("instances", [])
    if instances and all("mean_ns" in r for r in instances):
        return float(sum(r["mean_ns"] for r in instances))
    raise KeyError("no total_mean_ns / per-instance mean_ns in JSON")


def reference_total_ns(doc: dict) -> float:
    try:
        return total_mean_ns(doc)  # like-with-like: mean vs mean
    except KeyError:
        pass
    total = doc.get("total_wall_ns")
    if not isinstance(total, (int, float)) or total <= 0:
        raise KeyError("no usable total in reference JSON")
    return float(total)


def micro_ns_per_op(doc: dict, name: str = "try_color_round") -> float | None:
    for row in doc.get("micro", []):
        if row.get("name") == name:
            value = row.get("ns_per_op")
            if isinstance(value, (int, float)) and value > 0:
                return float(value)
    return None


def check_colorset_speedup(fresh: dict, min_speedup: float) -> bool:
    """Gate the word-parallel palette micros within the fresh JSON.

    The first-free / intersect pairs compare the former color-by-color
    scan against the ColorSet word walk on the same machine in the same
    process, so no reference JSON or machine normalization is involved.
    Returns False on a violated floor; JSONs predating the palette
    micros (no such entries) skip the gate with a note.
    """
    ok = True
    any_present = False
    for scan_name, fast_name in (
        ("first_free_scan", "first_free_colorset"),
        ("palette_intersect_scan", "palette_intersect_colorset"),
    ):
        scan = micro_ns_per_op(fresh, scan_name)
        fast = micro_ns_per_op(fresh, fast_name)
        if scan is None or fast is None:
            continue
        any_present = True
        ratio = scan / fast
        verdict = "OK" if ratio >= min_speedup else "REGRESSION"
        print(
            f"palette micro gate: {scan_name} {scan:.2f} ns/op vs "
            f"{fast_name} {fast:.2f} ns/op -> speedup {ratio:.1f}x "
            f"(floor {min_speedup:.1f}x) {verdict}"
        )
        if ratio < min_speedup:
            ok = False
    if not any_present:
        print("palette micro gate: no palette micro figures (pre-ColorSet "
              "JSON); skipped")
    return ok


def check_same_colorings(fresh: dict, reference: dict) -> bool:
    """Gate H-rounds and coloring hashes per instance against a reference.

    Every instance of the reference must appear in the fresh JSON with the
    same ``h_rounds`` and ``coloring_fnv1a``; a missing instance or key
    fails, since a comparison that cannot be made must not pass.
    """
    fresh_rows = {r.get("name"): r for r in fresh.get("instances", [])}
    ref_rows = reference.get("instances", [])
    if not ref_rows:
        print("coloring gate: reference has no instances REGRESSION")
        return False
    ok = True
    for ref in ref_rows:
        name = ref.get("name")
        row = fresh_rows.get(name)
        for key in ("h_rounds", "coloring_fnv1a"):
            want = ref.get(key)
            got = row.get(key) if row is not None else None
            same = want is not None and got == want
            verdict = "OK" if same else "REGRESSION"
            print(f"coloring gate [{name}] {key}: {got} vs reference "
                  f"{want} {verdict}")
            ok = ok and same
    return ok


def check_serving(fresh: dict, reference: dict, factor: float,
                  max_allocs: float) -> bool:
    """Gate a BENCH_serving.json against the committed reference.

    Three independent checks: the warm fast path must stay exactly
    allocation-free under the server scheduler and auto/low within
    ``max_allocs`` allocations per job, the drained no-timing
    report must have been byte-identical across the worker sweep (the
    bench aborts on a mismatch, but the flag is re-checked here so a
    hand-edited JSON can't pass), and the machine-confounded throughput
    and latency figures must stay within a generous ``factor`` of the
    reference: jobs/sec no worse than reference/factor, per-class p95 no
    worse than factor * reference. ``factor`` is deliberately loose —
    CI runners vary widely — and set <= 0 disables the cross-machine
    comparison while keeping the alloc and determinism gates.
    """
    ok = check_steady_allocs(fresh, max_allocs)
    det = fresh.get("deterministic_across_workers")
    verdict = "OK" if det is True else "REGRESSION"
    print(f"serving determinism gate: deterministic_across_workers = "
          f"{det} {verdict}")
    if det is not True:
        ok = False
    if factor <= 0:
        print("serving throughput/latency gate disabled "
              "(--serving-factor <= 0)")
        return ok

    def w1_jobs_per_sec(doc: dict) -> float | None:
        for row in doc.get("by_workers", []):
            if row.get("workers") == 1:
                value = row.get("jobs_per_sec")
                if isinstance(value, (int, float)) and value > 0:
                    return float(value)
        return None

    fresh_jps = w1_jobs_per_sec(fresh)
    ref_jps = w1_jobs_per_sec(reference)
    if fresh_jps is not None and ref_jps is not None:
        floor = ref_jps / factor
        verdict = "OK" if fresh_jps >= floor else "REGRESSION"
        print(f"serving throughput gate: {fresh_jps:.1f} jobs/sec vs "
              f"reference {ref_jps:.1f} (floor {floor:.1f}) {verdict}")
        if fresh_jps < floor:
            ok = False
    else:
        print("serving throughput gate: missing w=1 jobs_per_sec; skipped")
    ref_p95 = {
        row.get("algo"): float(row["p95_ns"])
        for row in reference.get("slo_classes", [])
        if row.get("count", 0) > 0
        and isinstance(row.get("p95_ns"), (int, float))
        and row["p95_ns"] > 0
    }
    for row in fresh.get("slo_classes", []):
        algo = row.get("algo")
        if row.get("count", 0) <= 0 or algo not in ref_p95:
            continue
        p95 = float(row["p95_ns"])
        ceiling = factor * ref_p95[algo]
        verdict = "OK" if p95 <= ceiling else "REGRESSION"
        print(f"serving p95 gate [{algo}]: {p95 / 1e6:.2f} ms vs "
              f"reference {ref_p95[algo] / 1e6:.2f} ms "
              f"(ceiling {ceiling / 1e6:.2f}) {verdict}")
        if p95 > ceiling:
            ok = False
    return ok


def check_steady_allocs(fresh: dict, max_allocs: float) -> bool:
    """Gate warm scheduler-path allocations in a BENCH_serving.json.

    The fast path must be exactly allocation-free; the auto (full
    high-degree pipeline) and low paths must stay within the budget. A
    JSON predating the auto/low counters (no such keys) gates only on the
    keys it carries.
    """
    ok = True
    any_present = False
    for key, budget in (
        ("fast_steady_allocs_per_job", 0.0),
        ("auto_steady_allocs_per_job", max_allocs),
        ("low_steady_allocs_per_job", max_allocs),
    ):
        value = fresh.get(key)
        if not isinstance(value, (int, float)):
            continue
        any_present = True
        verdict = "OK" if value <= budget else "REGRESSION"
        print(
            f"steady-alloc gate: {key} = {value:.1f} "
            f"(budget {budget:.0f}) {verdict}"
        )
        if value > budget:
            ok = False
    if not any_present:
        print("steady-alloc gate: no *_steady_allocs_per_job figures; "
              "skipped")
    return ok


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("fresh", help="freshly measured BENCH_pipeline.json")
    ap.add_argument("reference", help="reference JSON with total_wall_ns")
    ap.add_argument(
        "--threshold",
        type=float,
        default=1.15,
        help="fail when fresh mean > threshold * reference (default 1.15)",
    )
    ap.add_argument(
        "--normalize-micro",
        action="store_true",
        help="scale the reference total by the try_color_round micro "
        "ratio (machine-speed proxy for cross-machine CI gating)",
    )
    ap.add_argument(
        "--min-colorset-speedup",
        type=float,
        default=4.0,
        help="minimum required speedup of the ColorSet palette micros "
        "over their color-by-color reference scans, measured within the "
        "fresh JSON (default 4.0; set 0 to disable)",
    )
    ap.add_argument(
        "--max-steady-allocs",
        type=float,
        default=64.0,
        help="for BENCH_serving.json fresh files: maximum allowed "
        "auto/low warm allocations per job (fast must be exactly 0; "
        "default 64)",
    )
    ap.add_argument(
        "--serving-factor",
        type=float,
        default=3.0,
        help="for BENCH_serving.json fresh files: allowed machine-speed "
        "slack vs the serving reference — jobs/sec may drop to "
        "reference/factor, per-class p95 may grow to factor * reference "
        "(default 3.0; <= 0 keeps only the alloc and determinism gates)",
    )
    ap.add_argument(
        "--same-colorings",
        action="store_true",
        help="for BENCH_pipeline.json fresh files: also fail when any "
        "reference instance's h_rounds or coloring_fnv1a differs in the "
        "fresh JSON (or is missing from either)",
    )
    ap.add_argument(
        "--allow-unnormalized",
        action="store_true",
        help="with --normalize-micro: fall back to comparing raw totals "
        "when a micro figure is missing, instead of failing (a raw "
        "cross-machine comparison gates on machine speed, not on the "
        "code, so the fallback must be opted into explicitly)",
    )
    args = ap.parse_args()

    with open(args.fresh) as f:
        fresh = json.load(f)
    with open(args.reference) as f:
        reference = json.load(f)

    # This gate understands the pipeline and serving benches. Any other
    # *fresh* file is ignored, not crashed on, so CI can glob BENCH*.json
    # without special-casing. A non-pipeline *reference* against a
    # pipeline fresh file is a misconfigured baseline, and silently
    # skipping it would disable the gate — fail loudly instead.
    fresh_kind = fresh.get("bench")
    if fresh_kind == "serving":
        # Serving JSONs gate against a committed serving reference; a
        # non-serving reference is a misconfigured baseline, and gating
        # against it silently would disable the latency/throughput
        # checks — fail loudly.
        if reference.get("bench") != "serving":
            print(
                f"ERROR: reference JSON is bench "
                f"'{reference.get('bench')}', not a serving baseline — "
                "check the baseline path"
            )
            return 2
        return 0 if check_serving(fresh, reference, args.serving_factor,
                                  args.max_steady_allocs) else 1
    if fresh_kind is not None and fresh_kind != "pipeline":
        print(
            f"ignoring fresh JSON: bench '{fresh_kind}' is not gated by "
            "this script (pipeline and serving only)"
        )
        return 0
    ref_kind = reference.get("bench")
    if ref_kind is not None and ref_kind != "pipeline":
        print(
            f"ERROR: reference JSON is bench '{ref_kind}', not a "
            "pipeline baseline — check the baseline path"
        )
        return 2

    fresh_ns = total_mean_ns(fresh)
    ref_ns = reference_total_ns(reference)
    if args.normalize_micro:
        fresh_micro = micro_ns_per_op(fresh)
        ref_micro = micro_ns_per_op(reference)
        if fresh_micro and ref_micro:
            scale = fresh_micro / ref_micro
            ref_ns *= scale
            print(
                f"machine normalization: micro {ref_micro:.2f} -> "
                f"{fresh_micro:.2f} ns/op, reference scaled x{scale:.3f}"
            )
        else:
            missing = [
                name
                for name, value in (("fresh", fresh_micro),
                                    ("reference", ref_micro))
                if not value
            ]
            if not args.allow_unnormalized:
                print(
                    "ERROR: --normalize-micro requested but the "
                    f"try_color_round micro figure is missing from: "
                    f"{', '.join(missing)} JSON. An unnormalized "
                    "cross-machine gate passes/fails on machine speed "
                    "alone; pass --allow-unnormalized to compare raw "
                    "totals anyway."
                )
                return 2
            print(
                f"machine normalization requested but micro figures "
                f"missing ({', '.join(missing)}); comparing raw totals "
                "(--allow-unnormalized)"
            )
    ratio = fresh_ns / ref_ns
    verdict = "OK" if ratio <= args.threshold else "REGRESSION"
    print(
        f"bench gate: fresh mean {fresh_ns / 1e6:.1f} ms vs reference "
        f"{ref_ns / 1e6:.1f} ms -> ratio {ratio:.3f} "
        f"(threshold {args.threshold:.2f}) {verdict}"
    )
    by_threads = fresh.get("by_threads_total", [])
    for row in by_threads:
        print(
            f"  threads={row['threads']}: total "
            f"{row['total_wall_ns'] / 1e6:.1f} ms "
            f"(speedup vs t=1: {row.get('speedup_vs_t1', 0):.2f}x)"
        )
    micro_ok = True
    if args.min_colorset_speedup > 0:
        micro_ok = check_colorset_speedup(fresh, args.min_colorset_speedup)
    colorings_ok = True
    if args.same_colorings:
        colorings_ok = check_same_colorings(fresh, reference)
    return 0 if ratio <= args.threshold and micro_ok and colorings_ok else 1


if __name__ == "__main__":
    sys.exit(main())
