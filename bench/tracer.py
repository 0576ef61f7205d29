"""Outside-in span tracer for the benchmark's traced runs.

The tracer wraps public functions of ``inls``, and the SciPy kernels those
functions call, at every module attribute through which a caller looks them
up. It records one span per call and restores the originals on exit, so the
package itself is never edited and untraced runs pay nothing.

A span is ``[name, parent, run, start, end, value]``: ``parent`` indexes the
enclosing span (-1 at top level), ``run`` numbers the workload iteration and
``value`` holds what an after-hook extracted (bytes written, a clamp flag).
Self time is a span's duration minus the durations of its direct children.
"""
from __future__ import annotations

import csv
import functools
import sys
import time
from contextlib import contextmanager

import numpy as np
import scipy.fft
import scipy.linalg

from inls import cli, diagnostics, dynamics, exponents, grids, ground_state

MODULES = ("exponents", "ground_state", "grids", "dynamics", "diagnostics", "cli")
STEPPERS = ("dynamics.radial_cn_step", "dynamics.strang_step")


def _file_size(position):
    def after(args, result):
        with open(args[position], "rb") as fh:
            return float(fh.seek(0, 2))

    return after


def _clamped(args, result):
    return float(result < args[1].dt_init)


def _targets():
    """(span name, owning module, attribute, after-hook) for every wrapped call.

    FFT spans are named ``fft``; they count towards the layer that called them.
    """
    return [
        ("cli.main", cli, "main", None),
        ("cli.load_config", cli, "load_config", None),
        ("cli.write_series_csv", cli, "write_series_csv", _file_size(0)),
        ("dynamics.run", dynamics, "run", None),
        ("dynamics.radial_cn_step", dynamics, "radial_cn_step", None),
        ("dynamics.strang_step", dynamics, "strang_step", None),
        ("dynamics.adapt_dt", dynamics, "adapt_dt", _clamped),
        ("dynamics.tridiag_solve", scipy.linalg, "solve_banded", None),
        ("fft", scipy.fft, "fftn", None),
        ("fft", scipy.fft, "ifftn", None),
        ("grids.hs_norm", grids, "hs_norm", None),
        ("grids.dump_field", grids, "dump_field", _file_size(1)),
        ("diagnostics.make_record", diagnostics, "make_record", None),
        ("ground_state.compute_quantities", ground_state, "compute_quantities", None),
        ("ground_state.sample_on_grid", ground_state, "sample_on_grid", None),
        ("exponents.hypothesis_report", exponents, "hypothesis_report", None),
    ]


def _bindings(module, attr):
    """Every (module, name) that binds the object ``module.attr``: the owner
    plus each ``inls`` module that imported it by name."""
    original = getattr(module, attr)
    found = [(module, attr)]
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "inls" or mod_name.startswith("inls.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is original and (mod, key) != (module, attr):
                found.append((mod, key))
    return original, found


@contextmanager
def patched(replacements):
    """Replace functions for the duration of the block.

    ``replacements`` is a list of ``(module, attr, make_wrapper)``; each
    binding of the original is replaced by ``make_wrapper(original)``.
    """
    undo = []
    try:
        for module, attr, make_wrapper in replacements:
            original, bindings = _bindings(module, attr)
            wrapper = make_wrapper(original)
            for owner, key in bindings:
                undo.append((owner, key, original))
                setattr(owner, key, wrapper)
        yield
    finally:
        for owner, key, original in reversed(undo):
            setattr(owner, key, original)


class Tracer:
    def __init__(self):
        self.spans = []
        self.run_id = 0
        self._stack = []

    def _wrap(self, name, fn, after):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, self.run_id, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            span[3] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
            if after is not None:
                span[5] = after(args, result)
            return result

        return traced

    def installed(self):
        return patched(
            [
                (module, attr, functools.partial(self._wrap, name, after=after))
                for name, module, attr, after in _targets()
            ]
        )

    def counts(self) -> dict:
        out = {}
        for span in self.spans:
            out[span[0]] = out.get(span[0], 0) + 1
        return out

    def write(self, path) -> None:
        """Write the spans as CSV, times in seconds from the first span."""
        t0 = self.spans[0][3] if self.spans else 0.0
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["span", "name", "parent", "run", "start_s", "end_s", "value"])
            for index, (name, parent, run, start, end, value) in enumerate(self.spans):
                writer.writerow(
                    [index, name, parent, run, f"{start - t0:.9f}", f"{end - t0:.9f}",
                     "" if value is None else value]
                )

    def layer_metrics(self, iterations: int, wall_s: float) -> dict:
        """Per-layer metrics over all traced iterations.

        ``wall_s`` is the traced wall time of those iterations (set-up and
        run); module shares are self time over it. Layers a workload never
        calls read 0.
        """
        names = np.array([s[0] for s in self.spans], dtype=object)
        parent = np.array([s[1] for s in self.spans], dtype=np.int64)
        dur = np.array([s[4] - s[3] for s in self.spans], dtype=float)
        nested = parent >= 0
        self_t = dur - np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        parent_name = np.where(nested, names[np.maximum(parent, 0)], "")

        def mask(name):
            return names == name

        def pct(values, q, scale):
            return float(np.percentile(values, q)) * scale if values.size else 0.0

        def hook_values(name):
            return np.array([s[5] for s in self.spans if s[0] == name], dtype=float)

        def ratio(num, den):
            return float(num / den) if den else 0.0

        steps = int(sum(np.count_nonzero(mask(s)) for s in STEPPERS))
        runs = int(np.count_nonzero(mask("dynamics.run")))
        fft = mask("fft")
        cn, strang = mask("dynamics.radial_cn_step"), mask("dynamics.strang_step")
        adapt = hook_values("dynamics.adapt_dt")
        hs = mask("grids.hs_norm")
        hyp = mask("exponents.hypothesis_report")
        m = {
            "dynamics.radial_cn_step.self_us_p50": pct(self_t[cn], 50, 1e6),
            "dynamics.radial_cn_step.self_us_p99": pct(self_t[cn], 99, 1e6),
            "dynamics.tridiag_solve.us_p50": pct(dur[mask("dynamics.tridiag_solve")], 50, 1e6),
            "dynamics.strang_step.self_ms_p50": pct(self_t[strang], 50, 1e3),
            "dynamics.strang_step.fft_calls_per_step": ratio(
                np.count_nonzero(fft & (parent_name == "dynamics.strang_step")),
                np.count_nonzero(strang),
            ),
            "dynamics.adapt_dt.us_p50": pct(dur[mask("dynamics.adapt_dt")], 50, 1e6),
            "dynamics.adapt_dt.clamped_frac": float(adapt.mean()) if adapt.size else 0.0,
            "dynamics.run.self_s": pct(self_t[mask("dynamics.run")], 50, 1.0),
            "dynamics.steps": ratio(steps, runs),
            "grids.hs_norm.us_p50": pct(dur[hs], 50, 1e6),
            "grids.hs_norm.calls_per_step": ratio(np.count_nonzero(hs), steps),
            "grids.hs_norm.fft_calls_per_step": ratio(
                np.count_nonzero(fft & (parent_name == "grids.hs_norm")), steps
            ),
            "grids.dump_field.ms": pct(dur[mask("grids.dump_field")], 50, 1e3),
            "grids.dump_field.bytes": pct(hook_values("grids.dump_field"), 50, 1.0),
            "diagnostics.make_record.self_us_p50": pct(
                self_t[mask("diagnostics.make_record")], 50, 1e6
            ),
            "diagnostics.records_per_step": ratio(
                np.count_nonzero(mask("diagnostics.make_record")), steps
            ),
            "cli.write_series_csv.ms": pct(dur[mask("cli.write_series_csv")], 50, 1e3),
            "cli.series_bytes": pct(hook_values("cli.write_series_csv"), 50, 1.0),
            "cli.load_config.ms": pct(dur[mask("cli.load_config")], 50, 1e3),
            "cli.main.self_s": pct(self_t[mask("cli.main")], 50, 1.0),
            "ground_state.compute_quantities.ms": pct(
                dur[mask("ground_state.compute_quantities")], 50, 1e3
            ),
            "ground_state.sample_on_grid.ms": pct(dur[mask("ground_state.sample_on_grid")], 50, 1e3),
            "exponents.hypothesis_report.us": pct(dur[hyp], 50, 1e6),
            "exponents.hypothesis_report.calls": ratio(np.count_nonzero(hyp), iterations),
        }
        # an FFT belongs to the layer that called it
        owner = np.where(fft, parent_name, names)
        module = np.array([str(o).split(".")[0] for o in owner], dtype=object)
        for name in MODULES:
            m[f"{name}.self_share"] = ratio(float(self_t[module == name].sum()), wall_s)
        return m

    def median_duration(self, name: str):
        """Median total duration of the spans called ``name``, or None."""
        durs = [s[4] - s[3] for s in self.spans if s[0] == name]
        return float(np.median(durs)) if durs else None
