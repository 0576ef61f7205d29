"""Workloads, correctness checks and metrics of the inls benchmark.

Each workload is closed-loop: one caller runs one simulation at a time, set
up cold, through the public API of ``inls``. Functions are always called
through their module attribute (``dynamics.run``, ``cli.main``) so that the
tracer's and the self-test's replacements are seen.
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from inls import cli, diagnostics, dynamics, exponents, grids, ground_state

from environment import ROOT
from tracer import Tracer

BENCH_DIR = ROOT / "bench"
WORK_DIR = ROOT / ".bench"

MASS_DRIFT_MAX = 1e-12  # conservation oracle: discrete mass is kept to roundoff
# Final mass and H1 must match this commit's values to these relative
# tolerances: loose enough for a reordering of floating-point operations,
# tight enough that any change to the scheme or the step sequence shows.
REF_RTOL_MASS = 1e-11
REF_RTOL_H1 = 1e-9
# Machine-speed probe. On a shared 2-vCPU Xeon VM, CPU speed drifts by up to
# +-20% over minutes with the host's load, and no statistic of one run
# removes that. Before each iteration the benchmark times a fixed kernel,
# independent of inls, for PROBE_SHARE of the previous iteration's length.
# Time metrics are scaled by PROBE_REF_S / (median probe time), i.e. to a
# machine on which the probe takes PROBE_REF_S, its median on that VM.
PROBE_SHARE = 0.05
PROBE_REF_S = 3.0e-3


def load_spec() -> dict:
    return json.loads((BENCH_DIR / "workloads.json").read_text(encoding="utf-8"))


def load_reference() -> dict:
    return json.loads((BENCH_DIR / "reference.json").read_text(encoding="utf-8"))


def scale_for_seed(spec: dict, seed: int):
    """(index, c) of the initial scale that ``seed`` selects."""
    sc = spec["scale_c"]
    k = random.Random(seed).randrange(sc["count"])
    return k, round(sc["first"] + sc["step"] * k, 10)


class Checks:
    """Pass/fail tally per named correctness check."""

    def __init__(self):
        self.tally = {}  # name -> [attempted, failed, first failure detail]

    def record(self, name: str, ok: bool, detail: str = "") -> None:
        entry = self.tally.setdefault(name, [0, 0, ""])
        entry[0] += 1
        if not ok:
            entry[1] += 1
            entry[2] = entry[2] or detail

    @property
    def attempted(self) -> int:
        return sum(e[0] for e in self.tally.values())

    @property
    def failed(self) -> int:
        return sum(e[1] for e in self.tally.values())


@dataclass
class Iteration:
    setup_s: float
    run_s: float
    steps: int
    energy_drift_rel: float


@dataclass
class Phase:
    """The iterations of one half of a run and the probe times around them."""

    iterations: list = field(default_factory=list)
    probes: list = field(default_factory=list)

    def median(self, metric) -> float:
        """Median of ``metric(iteration)``, or 0 when a failed run left
        nothing to measure."""
        values = [metric(i) for i in self.iterations]
        return statistics.median(values) if values else 0.0

    @property
    def slowdown(self) -> float:
        """Median probe time over its reference: above 1 on a slow machine."""
        return statistics.median(self.probes) / PROBE_REF_S if self.probes else 1.0


@dataclass
class Result:
    c: float
    checks: Checks
    untraced: Phase = field(default_factory=Phase)
    traced: Phase = field(default_factory=Phase)
    tracer: Tracer = field(default_factory=Tracer)


def probe_unit() -> float:
    """Seconds for one unit of the probe: small NumPy operations in a Python
    loop, the per-step overhead regime of the radial stepper."""
    a = np.linspace(0.1, 1.0, 2048) + 0.5j
    t0 = time.perf_counter()
    for _ in range(100):
        b = a * np.abs(a) ** 1.5
        d = np.empty_like(b)
        d[:-1] = b[1:] - b[:-1]
        d[-1] = -b[-1]
        float(np.sum(np.abs(d) ** 2))
    return time.perf_counter() - t0


def probe(seconds: float, samples: list) -> None:
    """Append probe unit times for about ``seconds``; at least one."""
    end = time.perf_counter() + seconds
    samples.append(probe_unit())
    while time.perf_counter() < end:
        samples.append(probe_unit())


def clear_caches() -> None:
    """Empty every ``functools`` cache in ``inls`` so set-up is paid cold,
    as it is by a user starting a fresh process."""
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "inls" or name.startswith("inls.")):
            for obj in list(vars(module).values()):
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


# ---------------------------------------------------------------- set-up

@dataclass
class Prepared:
    sim: dynamics.SimConfig
    u0: grids.Field
    gs: ground_state.GroundStateQuantities


def _params(config: dict) -> exponents.CriticalityParams:
    par = config["params"]
    if par["sigma"] != "auto":
        raise ValueError("benchmark workloads use the critical power (sigma 'auto')")
    return exponents.CriticalityParams(
        n=par["n"],
        s=Fraction(par["s"]),
        b=Fraction(par["b"]),
        sigma=exponents.CRITICAL,
        lambda_sign="focusing" if par["lambda"] < 0 else "defocusing",
    )


def _ground_state(params, epsilon):
    profile = ground_state.GroundStateProfile(n=params.n, b=float(params.b), epsilon=epsilon)
    gs = ground_state.compute_quantities(profile)
    for criterion in exponents.CRITERIA:
        exponents.hypothesis_report(criterion, params)
    return profile, gs


def setup_library(config: dict, c: float) -> Prepared:
    params = _params(config)
    gr, tm = config["grid"], config["time"]
    n = params.n
    if gr["kind"] == "radial":
        grid = grids.GridSpec.radial(n, gr["r_max"], gr["points"])
    else:
        grid = grids.GridSpec.tensor(n, gr["extent"], gr["points"])
    sim = dynamics.SimConfig(
        params=params,
        grid=grid,
        weight=grids.PotentialWeight(b=float(params.b), delta=config["weight"]["delta"]),
        lam=config["params"]["lambda"],
        dt_init=tm["dt_init"],
        t_end=tm["t_end"],
        dt_min=tm["dt_min"],
        blowup_ratio=tm["blowup_ratio"],
        safety=tm["safety"],
        record_every=tm["record_every"],
    )
    profile, gs = _ground_state(params, float(config["initial"]["epsilon"]))
    u0 = ground_state.sample_on_grid(profile, grid, scale=c)
    return Prepared(sim=sim, u0=u0, gs=gs)


def setup_cli(config_path: Path):
    config = cli.load_config(config_path)
    config.build_initial_field()
    _ground_state(config.params, float(config.initial["epsilon"]))


def write_cli_config(config: dict, c: float, out_dir: Path) -> Path:
    raw = json.loads(json.dumps(config))
    raw["initial"]["scale_c"] = c
    raw["output"]["directory"] = str(out_dir)
    path = out_dir.parent / "config.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    return path


# ---------------------------------------------------------------- runs

@dataclass
class Series:
    """What a run produced, in one form for library and CLI runs."""

    termination: str
    steps: int
    mass: list
    energy: list
    h1: list
    case: str


def read_library_run(prep: Prepared, outcome, c: float) -> Series:
    symmetry = "radial" if prep.sim.grid.kind == "radial" else "finite_variance"
    case = diagnostics.classify_blowup(
        diagnostics.ScaledGroundState(c), prep.sim, prep.gs, symmetry
    ).case
    recs = outcome.series
    return Series(
        termination=outcome.termination,
        steps=outcome.steps,
        mass=[r.mass for r in recs],
        energy=[r.energy for r in recs],
        h1=[math.sqrt(r.h1dot_sq) for r in recs],
        case=case,
    )


def check_cli_run(code: int, out_dir: Path, checks: Checks) -> Series:
    """Check the files of one ``inls simulate`` run and read its series."""
    checks.record("cli exit code 0", code == cli.EXIT_OK, f"exit code {code}")
    run_dirs = list(out_dir.iterdir())
    checks.record("cli one run directory", len(run_dirs) == 1, f"{len(run_dirs)} directories")
    run_dir = run_dirs[0]
    try:
        report = json.loads((run_dir / "report.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        report = {}
        checks.record("cli report.json parses", False, str(exc))
    else:
        checks.record("cli report.json parses", True)
    with open(run_dir / "series.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header, rows = rows[0], rows[1:]
    checks.record(
        "cli series.csv header is CSV_COLUMNS",
        tuple(header) == tuple(diagnostics.CSV_COLUMNS),
        f"header {header}",
    )
    records = report.get("run", {}).get("records")
    checks.record(
        "cli series.csv has one row per record",
        records == len(rows),
        f"{len(rows)} rows, report says {records}",
    )
    files = report.get("files", {})
    checks.record(
        "cli field dumps written",
        all((run_dir / files.get(k, "-")).is_file() for k in ("field_initial", "field_final")),
        f"files {files}",
    )
    col = {name: header.index(name) for name in ("mass", "energy", "h1dot_sq")}
    shutil.rmtree(run_dir)
    return Series(
        termination=report.get("run", {}).get("termination", "missing"),
        steps=report.get("run", {}).get("steps", 0),
        mass=[float(r[col["mass"]]) for r in rows],
        energy=[float(r[col["energy"]]) for r in rows],
        h1=[math.sqrt(float(r[col["h1dot_sq"]])) for r in rows],
        case=report.get("classification", {}).get("case", "missing"),
    )


def check_series(wl: dict, s: Series, ref: dict, checks: Checks) -> float:
    """Record the checks every workload shares; return the energy drift."""
    checks.record("termination completed", s.termination == "completed", s.termination)
    checks.record("classification no_verdict", s.case == "no_verdict", s.case)
    m0 = s.mass[0]
    mass_drift = max(abs(m - m0) for m in s.mass) / m0
    checks.record(
        f"mass drift <= {MASS_DRIFT_MAX:g}", mass_drift <= MASS_DRIFT_MAX, f"{mass_drift:.3e}"
    )
    if "h1_ratio_max" in wl:
        ratio = max(s.h1) / s.h1[0]
        checks.record(
            f"H1 ratio <= {wl['h1_ratio_max']:g}", ratio <= wl["h1_ratio_max"], f"{ratio:.6f}"
        )
    for name, value, rtol in (("mass", s.mass[-1], REF_RTOL_MASS), ("h1", s.h1[-1], REF_RTOL_H1)):
        err = abs(value - ref[name]) / abs(ref[name])
        checks.record(
            f"final {name} matches reference (rtol {rtol:g})",
            err <= rtol,
            f"{value!r} vs {ref[name]!r}, rel err {err:.3e}",
        )
    return energy_drift(s)


def energy_drift(s: Series) -> float:
    """Maximum of |E(t) - E(0)| / |E(0)| over the recorded series."""
    e0 = s.energy[0]
    return max(abs(e - e0) for e in s.energy) / abs(e0)


class Workload:
    """One named workload at one initial scale: cold set-up and one run."""

    def __init__(self, name: str, c: float, spec: dict, work_dir: Path):
        self.name, self.c = name, c
        self.wl = spec["workloads"][name]
        self.cli = self.wl["entry"] == "cli.main"
        if self.cli:
            self.out_dir = work_dir / "runs"
            self.out_dir.mkdir(parents=True, exist_ok=True)
            self.config_path = write_cli_config(self.wl["config"], c, self.out_dir)

    def setup(self):
        clear_caches()
        t0 = time.perf_counter()
        prep = setup_cli(self.config_path) if self.cli else setup_library(self.wl["config"], self.c)
        return prep, time.perf_counter() - t0

    def run(self, prep, checks: Checks):
        """One run; returns (wall seconds of the run call, Series)."""
        if self.cli:
            with contextlib.redirect_stdout(io.StringIO()):
                t0 = time.perf_counter()
                code = cli.main(["simulate", str(self.config_path)])
                run_s = time.perf_counter() - t0
            return run_s, check_cli_run(code, self.out_dir, checks)
        t0 = time.perf_counter()
        outcome = dynamics.run(prep.sim, prep.u0)
        run_s = time.perf_counter() - t0
        return run_s, read_library_run(prep, outcome, self.c)


def iterate(workload: Workload, ref: dict, checks: Checks) -> Iteration:
    prep, setup_s = workload.setup()
    run_s, series = workload.run(prep, checks)
    drift = check_series(workload.wl, series, ref, checks)
    return Iteration(setup_s=setup_s, run_s=run_s, steps=series.steps, energy_drift_rel=drift)


def _loop(workload, ref, checks, budget_s, phase: Phase, tracer=None) -> bool:
    """Probe and iterate until one more iteration would overrun ``budget_s``;
    at least once.

    Returns False when an iteration raised (recorded as a failed check).
    """
    start = time.perf_counter()
    lengths = []
    while True:
        t0 = time.perf_counter()
        probe(PROBE_SHARE * (lengths[-1] if lengths else 0.0), phase.probes)
        if tracer is not None:
            tracer.run_id = len(phase.iterations)
        try:
            phase.iterations.append(iterate(workload, ref, checks))
        except Exception as exc:  # a crash is a failed run, reported, not fatal
            traceback.print_exc(file=sys.stderr)
            checks.record("iteration completes", False, f"{type(exc).__name__}: {exc}")
            return False
        lengths.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(lengths) > budget_s:
            return True


def measure(name: str, seed: int, seconds: float, trace: bool) -> Result:
    """Run workload ``name`` for about ``seconds``.

    Untraced, all of the time is measured untraced. Traced, the first half
    is untraced (for the overhead baseline) and the second half traced.
    """
    spec = load_spec()
    k, c = scale_for_seed(spec, seed)
    ref = load_reference()[name][k]
    checks = Checks()
    result = Result(c=c, checks=checks)
    work_dir = WORK_DIR / f"work-{name}-{seed}"
    shutil.rmtree(work_dir, ignore_errors=True)
    try:
        workload = Workload(name, c, spec, work_dir)
        budget = seconds / 2 if trace else seconds
        ok = _loop(workload, ref, checks, budget, result.untraced)
        if trace and ok:
            with result.tracer.installed():
                _loop(workload, ref, checks, budget, result.traced, result.tracer)
            counts = result.tracer.counts()
            for span in spec["workloads"][name]["spans"]:
                checks.record(
                    "every expected layer span recorded", counts.get(span, 0) > 0, f"no '{span}' span"
                )
            WORK_DIR.mkdir(exist_ok=True)
            result.tracer.write(WORK_DIR / f"spans-{name}.csv")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return result


def end_to_end(result: Result) -> dict:
    """End-to-end metrics; times are scaled to the probe's reference speed."""
    phase = result.untraced
    slowdown = phase.slowdown
    return {
        "run_s": phase.median(lambda i: i.run_s) / slowdown,
        "steps_per_s": phase.median(lambda i: i.steps / i.run_s) * slowdown,
        "setup_s": phase.median(lambda i: i.setup_s) / slowdown,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "energy_drift_rel": phase.median(lambda i: i.energy_drift_rel),
    }


def per_layer(result: Result) -> dict:
    """Per-layer metrics of the traced iterations, plus the tracing overhead:
    the traced over the untraced run_s, each scaled by its own probes, less 1."""
    traced = result.traced
    wall = sum(i.setup_s + i.run_s for i in traced.iterations)
    m = result.tracer.layer_metrics(len(traced.iterations), wall)
    before = result.untraced.median(lambda i: i.run_s) / result.untraced.slowdown
    after = traced.median(lambda i: i.run_s) / traced.slowdown
    m["trace.overhead_frac"] = after / before - 1.0 if before and after else 0.0
    return m
