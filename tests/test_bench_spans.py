"""The benchmark's tracer sees every layer its ``dynamics.run`` workloads list.

``bench/tracer.py`` wraps ``inls`` functions, and the SciPy kernels they call,
at their module attributes. A change that stops calling one (a direct LAPACK
``gtsv`` call in place of ``scipy.linalg.solve_banded``, say) drops that span
silently. Here tiny versions of those workloads (radial N = 64, tensor 16^3,
10 steps) run under the tracer, set up by the benchmark's own harness, and
every span ``bench/workloads.json`` lists for them must be recorded. The
benchmark files are imported, never changed.
"""
import copy
import importlib
import json
from pathlib import Path

import pytest

from inls import dynamics

BENCH = Path(__file__).resolve().parent.parent / "bench"
SPEC = json.loads((BENCH / "workloads.json").read_text(encoding="utf-8"))
TINY_POINTS = {"radial": 64, "tensor": 16}


@pytest.mark.parametrize(
    "name", [name for name, wl in SPEC["workloads"].items() if wl["entry"] == "dynamics.run"]
)
def test_tracer_records_every_listed_span(name, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    harness = importlib.import_module("harness")
    workload = SPEC["workloads"][name]
    config = copy.deepcopy(workload["config"])
    config["grid"]["points"] = TINY_POINTS[config["grid"]["kind"]]
    config["time"]["t_end"] = 10 * config["time"]["dt_init"]
    tracer = harness.Tracer()
    with tracer.installed():
        prep = harness.setup_library(config, SPEC["scale_c"]["first"])
        outcome = dynamics.run(prep.sim, prep.u0)
    assert outcome.termination == "completed" and outcome.steps == 10
    counts = tracer.counts()
    assert [span for span in workload["spans"] if not counts.get(span)] == []
