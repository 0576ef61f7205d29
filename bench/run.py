"""Run one workload of the inls benchmark and print its metrics.

    python3 bench/run.py --workload radial_bubble --seed 1 --seconds 30 --trace 0

Prints the environment, every correctness check and every metric with its
unit. The last line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics named in
BENCHMARK.json with ``--trace 0``, its per-layer metrics with ``--trace 1``.
Workload configs, the seed range and the layer-to-metric mapping are in
bench/workloads.json.
"""
from __future__ import annotations

import argparse
import json

import environment

# ROADMAP "Baseline" rows a traced run reproduces: span, grid kind, unit,
# scale, table entry
BASELINE_ROWS = (
    ("dynamics.radial_cn_step", "radial", "us", 1e6, "140 us at N=512"),
    ("dynamics.strang_step", "tensor", "ms", 1e3, "54 ms/step end to end at 64^3"),
    ("diagnostics.make_record", "radial", "us", 1e6, "156 us, radial"),
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    environment.cap_threads()
    environment.import_inls()
    import harness  # only now: NumPy reads the thread caps when it loads

    bench = json.loads((environment.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    spec = harness.load_spec()
    if args.workload not in spec["workloads"]:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(spec['workloads'])}")
    wl = spec["workloads"][args.workload]
    trace = bool(args.trace)

    result = harness.measure(args.workload, args.seed, args.seconds, trace)
    checks = result.checks
    grid = wl["config"]["grid"]
    print(f"workload {args.workload}  seed {args.seed}  c = {result.c}  trace {args.trace}")
    print(f"  {grid['kind']} grid, {grid['points']} points; why: {wl['why']}")
    print("environment " + json.dumps(environment.stamp(), sort_keys=True))
    for label, phase in (("untraced", result.untraced), ("traced", result.traced)):
        if phase.iterations:
            print(
                f"{label}: {len(phase.iterations)} iterations, wall run_s median "
                f"{phase.median(lambda i: i.run_s)!r} s, setup_s median "
                f"{phase.median(lambda i: i.setup_s)!r} s; probe {len(phase.probes)} units, "
                f"slowdown {phase.slowdown!r} against {harness.PROBE_REF_S} s"
            )
    for name, (attempted, failed, detail) in checks.tally.items():
        verdict = "FAIL" if failed else "pass"
        note = f"  first failure: {detail}" if failed else ""
        print(f"check [{verdict}] {name}: {attempted - failed}/{attempted}{note}")
    failed_frac = checks.failed / max(1, checks.attempted)
    print(f"failed_frac = {failed_frac} ({checks.failed}/{checks.attempted} checks)")

    if trace:
        values, declared = harness.per_layer(result), bench["per_layer"]
        for span, kind, unit, scale, table in BASELINE_ROWS:
            median = result.tracer.median_duration(span)
            if median is not None and kind == grid["kind"]:
                print(
                    f"baseline {span} total p50 = {median * scale:.1f} {unit} "
                    f"({grid['points']} points; ROADMAP table: {table})"
                )
    else:
        values, declared = harness.end_to_end(result), bench["end_to_end"]
    metrics = {}
    for m in declared:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"metric {m['name']} = {values[m['name']]!r} {m['unit']}")
    print(
        json.dumps(
            {
                "correct": checks.failed == 0 and checks.attempted > 0,
                "attempted": max(1, checks.attempted),
                "failed": checks.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
