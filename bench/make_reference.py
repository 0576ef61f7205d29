"""Record the reference final mass and H1 of every workload at every initial
scale the seeds can select, into bench/reference.json.

    python3 bench/make_reference.py [workload ...]

Run it only when the numerical scheme changes on purpose; the benchmark
compares every run against this file. It also prints each run's termination,
classifier case, step count and energy drift, to show that the whole scale
range keeps the workload's expected behaviour.
"""
from __future__ import annotations

import json
import shutil
import sys

import environment


def main(argv) -> int:
    environment.cap_threads()
    environment.import_inls()
    import harness

    spec = harness.load_spec()
    path = harness.BENCH_DIR / "reference.json"
    reference = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    sc = spec["scale_c"]
    for name in argv or list(spec["workloads"]):
        entries = []
        for k in range(sc["count"]):
            c = round(sc["first"] + sc["step"] * k, 10)
            work_dir = harness.WORK_DIR / f"reference-{name}"
            try:
                workload = harness.Workload(name, c, spec, work_dir)
                prep, _ = workload.setup()
                _, series = workload.run(prep, harness.Checks())
            finally:
                shutil.rmtree(work_dir, ignore_errors=True)
            print(
                f"{name} c={c} {series.termination} {series.case} steps={series.steps} "
                f"energy_drift_rel={harness.energy_drift(series):.6e}",
                flush=True,
            )
            entries.append({"c": c, "mass": series.mass[-1], "h1": series.h1[-1]})
        reference[name] = entries
        path.write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
