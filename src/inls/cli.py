"""Command-line surface: parameter checks, admissible pairs, ground-state
constants, simulation runs, and virial reports.

Exit codes: 0 ok, 1 usage/parse, 2 hypothesis-fail, 4 runtime-numeric
(3, once quadrature failure, is retired).
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import datetime
import hashlib
import json
import math
import sys
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, NamedTuple, Optional

import numpy as np

from . import diagnostics, dynamics, exponents, grids, ground_state
from .diagnostics import CSV_COLUMNS
from .exponents import CRITICAL, INF, CriticalityParams, fmt
from .grids import Field, GridSpec, PotentialWeight

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_HYPOTHESIS = 2
EXIT_RUNTIME = 4

MAX_DENOMINATOR = 10**6


class ConfigError(ValueError):
    pass


def parse_rational(value) -> Fraction:
    """Rationals cross the CLI as 'p/q' strings; plain decimals are accepted
    only when exactly representable with denominator <= 10^6."""
    if isinstance(value, bool):
        raise ConfigError(f"boolean is not a rational value: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        frac = Fraction(repr(value))
        if frac.denominator > MAX_DENOMINATOR:
            raise ConfigError(
                f"decimal {value!r} is not exactly a rational with denominator <= 1e6; "
                "write it as 'p/q'"
            )
        return frac
    if isinstance(value, str):
        try:
            frac = Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"cannot parse rational {value!r}: {exc}") from exc
        if "/" not in value and frac.denominator > MAX_DENOMINATOR:
            raise ConfigError(
                f"decimal {value!r} needs denominator > 1e6; write it as 'p/q'"
            )
        return frac
    raise ConfigError(f"cannot parse rational from {type(value).__name__}")


# ---------------------------------------------------------------- run config
#
# A parser takes one JSON value and returns it parsed or raises ValueError,
# which _parse_section prefixes with the key's name.  Range checks stay with
# the objects built from the values (SimConfig, GridSpec, ...).

def _accept(ok, what: str):
    """A parser that returns the value unchanged when ``ok(value)`` holds."""

    def parse(value):
        if not ok(value):
            raise ValueError(f"must be {what}, got {value!r}")
        return value

    return parse


# _integer refuses floats and booleans rather than truncating them
_integer = _accept(lambda value: type(value) is int and value >= 1, "an integer >= 1")
_text = _accept(lambda value: isinstance(value, str), "a string")


def _choice(*options):
    return _accept(lambda value: value in options, f"one of {', '.join(options)}")


def _number(value) -> float:
    """A finite JSON number, or a string float() reads as one; null, booleans,
    other types, NaN and infinities are refused."""
    try:
        if isinstance(value, bool) or not isinstance(value, (int, float, str)):
            raise ValueError
        number = float(value)
        if not math.isfinite(number):
            raise ValueError
    except (ValueError, OverflowError):
        raise ValueError(f"must be a finite number, got {value!r}") from None
    return number


def _rational(value) -> Fraction:
    """An exact rational (``parse_rational``) that the run's floats can hold."""
    frac = parse_rational(value)
    if abs(frac) > sys.float_info.max:
        raise ValueError(f"{value!r} is too large for a float")
    return frac


def _or_auto(parse):
    return lambda value: "auto" if value == "auto" else parse(value)


def _scale_factor(value) -> float:
    return diagnostics.ScaledGroundState(_number(value)).c


def _epsilon(value) -> float:
    return ground_state.check_epsilon(_number(value))


_REQUIRED = object()
_REFUSED = object()


class _Key(NamedTuple):
    """One config key.  ``default`` is what an absent key takes (or _REQUIRED);
    ``echo=False`` shows it in ``canonical()`` only when given.  With
    ``when=(selector, value)`` the key is required where the section's
    selector has that value, and takes ``default`` elsewhere (_REFUSED: the
    key is rejected there)."""

    parse: Callable
    default: Any = _REQUIRED
    echo: bool = True
    when: Optional[tuple] = None


# The one config schema: sections and keys in canonical order.  The grid and
# time keys are the field names of GridSpec and SimConfig; RunConfig writes
# the resolved sigma, delta and dt_min back into the parsed values.
_SCHEMA = {
    "params": {
        "n": _Key(_integer),
        "s": _Key(_rational),
        "b": _Key(_rational),
        "sigma": _Key(_or_auto(_rational)),
        "lambda": _Key(_number),
    },
    "grid": {
        "kind": _Key(_choice("tensor", "radial")),
        "points": _Key(_integer),
        "extent": _Key(_number, _REFUSED, when=("kind", "tensor")),
        "r_max": _Key(_number, _REFUSED, when=("kind", "radial")),
    },
    "weight": {"delta": _Key(_or_auto(_number), "auto")},
    "time": {
        "dt_init": _Key(_number),
        "dt_min": _Key(_number, None),  # None: dt_init * 1e-8
        "t_end": _Key(_number),
        "record_every": _Key(_integer, dynamics.SimConfig.record_every),
        "blowup_ratio": _Key(_number, dynamics.SimConfig.blowup_ratio),
        "safety": _Key(_number, dynamics.SimConfig.safety),
    },
    "initial": {
        "type": _Key(_choice("gaussian", "ground_state_scaled", "file")),
        "amplitude": _Key(_number, 1.0, echo=False),
        "width": _Key(_number, 1.0, echo=False),
        "scale_c": _Key(_scale_factor, 1.0, echo=False),
        "epsilon": _Key(_epsilon, 1.0, echo=False),
        "path": _Key(_text, None, echo=False, when=("type", "file")),
    },
    "output": {
        "directory": _Key(lambda value: Path(_text(value)), Path("runs")),
        "dump_fields": _Key(_accept(lambda value: isinstance(value, bool), "true or false"), False),
    },
}


def _check_object(data, allowed, what: str):
    if not isinstance(data, dict):
        raise ConfigError(f"{what} must be a JSON object")
    unknown = set(data) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) in {what}: {', '.join(sorted(unknown))}")


def _parse_section(section: str, data) -> dict:
    """Every key of one section, parsed or defaulted, in schema order."""
    keys = _SCHEMA[section]
    _check_object(data, keys, f"section '{section}'")
    values = {}
    for key, spec in keys.items():
        default = spec.default
        if spec.when is not None:
            selector, match = spec.when
            if values[selector] == match:
                default = _REQUIRED
        if key in data:
            if default is _REFUSED:
                raise ConfigError(f"{section}.{key} is refused unless {selector} is {match}")
            try:
                values[key] = spec.parse(data[key])
            except ValueError as exc:
                raise ConfigError(f"{section}.{key}: {exc}") from None
        elif default is _REQUIRED:
            raise ConfigError(f"{section}.{key} is required")
        elif default is not _REFUSED:
            values[key] = default
    return values


class RunConfig:
    """Parsed, validated run configuration with a canonical echo form."""

    def __init__(self, raw: dict):
        _check_object(raw, _SCHEMA, "config")
        self._values = {name: _parse_section(name, raw.get(name, {})) for name in _SCHEMA}
        self._given = {name: set(raw.get(name, {})) for name in _SCHEMA}
        par, weight, time = (self._values[section] for section in ("params", "weight", "time"))
        self.lam = par["lambda"]
        try:
            self.params = CriticalityParams(
                n=par["n"],
                s=par["s"],
                b=par["b"],
                sigma=CRITICAL if par["sigma"] == "auto" else par["sigma"],
                lambda_sign="focusing" if self.lam < 0 else "defocusing",
            )
            par["sigma"] = self.params.sigma_value
            self.grid = GridSpec(n=par["n"], **self._values["grid"])
            if weight["delta"] == "auto":
                weight["delta"] = self.grid.spacing if grids.geometry(self.grid).origin_node else 0.0
            self.weight = PotentialWeight(b=float(par["b"]), delta=weight["delta"])
            if time["dt_min"] is None:
                time["dt_min"] = time["dt_init"] * 1e-8
            self.sim = dynamics.SimConfig(
                params=self.params, grid=self.grid, weight=self.weight, lam=self.lam, **time
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        self.initial = self._values["initial"]
        self.out_dir = self._values["output"]["directory"]
        self.dump_fields = self._values["output"]["dump_fields"]

    def canonical(self) -> dict:
        """Canonical echo: the parsed config with sigma, delta and dt_min
        resolved, rationals and the directory as strings, and only the
        initial-data keys the config gave."""
        return {
            section: {
                key: str(value) if isinstance(value, (Fraction, Path)) else value
                for key, value in values.items()
                if key in self._given[section] or _SCHEMA[section][key].echo
            }
            for section, values in self._values.items()
        }

    def profile(self) -> ground_state.GroundStateProfile:
        """The bubble W of the config's n, b and initial.epsilon."""
        return ground_state.GroundStateProfile(
            n=self.params.n, b=self.params.b, epsilon=self.initial["epsilon"]
        )

    def build_initial_field(self) -> Field:
        init = self.initial
        if init["type"] == "gaussian":
            try:
                return grids.gaussian_field(self.grid, init["amplitude"], init["width"])
            except ValueError as exc:
                raise ConfigError(f"initial.width: {exc}") from exc
        if init["type"] == "ground_state_scaled":
            field = ground_state.sample_on_grid(self.profile(), self.grid, scale=init["scale_c"])
            peak = float(np.abs(field.values).max())  # its square enters every diagnostic
            if peak * peak < np.finfo(float).tiny:
                raise ConfigError(f"the sampled bubble underflows (max |u0| = {peak:.3g})")
            return field
        field, _ = grids.load_field(init["path"])
        if field.grid != self.grid:
            raise ConfigError("field dump grid does not match config grid")
        return field


def load_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return RunConfig(raw)


# ------------------------------------------------------------------ commands

def _verdict_lines(verdict) -> list:
    lines = [f"criterion {verdict.criterion}: {'HOLDS' if verdict.holds else 'FAILS'}"]
    for check in verdict.checks:
        lines.append(f"  [{'pass' if check.passed else 'FAIL'}] {check.name}  ({check.values})")
    return lines


def cmd_check(args) -> int:
    try:
        n = args.n
        s = parse_rational(args.s)
        b = parse_rational(args.b)
        sigma = CRITICAL if args.sigma is None else parse_rational(args.sigma)
        if sigma == CRITICAL and not s < Fraction(n, 2):
            print(
                f"cannot resolve the critical power: s = {fmt(s)} >= n/2 = {fmt(Fraction(n, 2))}; "
                "the scaling-critical exponent is infinite there. Pass --sigma explicitly."
            )
            return EXIT_HYPOTHESIS
        params = CriticalityParams(n=n, s=s, b=b, sigma=sigma)
    except (ConfigError, ValueError) as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    verdicts = {}
    for criterion in exponents.CRITERIA:
        verdicts[criterion] = exponents.hypothesis_report(criterion, params)
        for line in _verdict_lines(verdicts[criterion]):
            print(line)

    sig = exponents.critical_power(n, s, b)
    print(f"critical power sigma_s = {fmt(sig)}")
    try:
        r, eps = exponents.working_exponent(params)
        gamma_r = exponents.gamma_of(r, n)
        print(f"working exponent r = {fmt(r)}  gamma(r) = {fmt(gamma_r)}  epsilon = {fmt(eps)}")
        pairs = [Fraction(2), r]
        if n >= 3:
            pairs.append(Fraction(2 * n, n - 2))
        print("admissible pairs (p, gamma(p)):")
        for p in pairs:
            print(_pair_line(p, n))
    except exponents.HypothesisViolation as exc:
        print(f"working exponent unavailable: {exc}")

    region = exponents.region_comparison(params)
    print(
        f"region: {region.classification}  "
        f"(baseline bound = {fmt(region.baseline_bound)}, extended bound = {fmt(region.extended_bound)})"
    )
    return EXIT_OK if verdicts[args.theorem].holds else EXIT_HYPOTHESIS


def _pair_line(p, n: int) -> str:
    """One row of an admissible-pair table; gamma is none below p = 2."""
    gamma = exponents.gamma_of(p, n) if (p is INF or p >= 2) else None
    return f"  p = {fmt(p):>8}  gamma = {fmt(gamma):>8}  admissible = {exponents.is_admissible(p, n)}"


def cmd_pairs(args) -> int:
    try:
        if args.n < 1:
            raise ConfigError("dimension n must be a positive integer")
        ps = []
        for text in args.p or (["2", "2n/(n-2)"] if args.n >= 3 else ["2"]):
            if text in ("inf", "infinity"):
                ps.append(INF)
            elif text == "2n/(n-2)":
                if args.n < 3:
                    raise ConfigError(f"p = 2n/(n-2) needs n >= 3, got n = {args.n}")
                ps.append(Fraction(2 * args.n, args.n - 2))
            else:
                ps.append(parse_rational(text))
    except ConfigError as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(f"n = {args.n}")
    for p in ps:
        print(_pair_line(p, args.n))
    return EXIT_OK


def _ground_state_payload(n, b: Fraction, eps):
    """The bubble's constants, with b and sigma1 = (4-2b)/(n-2) exact."""
    profile = ground_state.GroundStateProfile(n, b, eps)
    base = ground_state.compute_quantities(profile)
    doubled = ground_state.compute_quantities(dataclasses.replace(profile, epsilon=2 * eps))
    pohozaev = abs(base.h1dot_sq - base.potential_integral) / base.h1dot_sq
    spread = abs(base.c_hs - doubled.c_hs) / base.c_hs
    return {
        "n": n,
        "b": fmt(b),
        "epsilon": eps,
        "sigma1": profile.sigma1,
        "h1dot_sq": base.h1dot_sq,
        "potential_integral": base.potential_integral,
        "c_hs": base.c_hs,
        "energy": base.energy,
        "pohozaev_residual": pohozaev,
        "c_hs_epsilon_spread": spread,
    }


def cmd_ground_state(args) -> int:
    try:
        payload = _ground_state_payload(args.n, parse_rational(args.b), args.eps)
    except ValueError as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    lines = [f"{key:>24} = {value}" for key, value in payload.items()]
    if args.json:  # written before any output: a refused path prints nothing
        try:
            Path(args.json).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
        except OSError as exc:
            print(f"cannot write {args.json}: {exc}", file=sys.stderr)
            return EXIT_USAGE
        lines.append(f"wrote {args.json}")
    print("\n".join(lines))
    return EXIT_OK


def _run_directory(base: Path, canonical: dict) -> Path:
    stamp = datetime.datetime.now(datetime.timezone.utc).strftime("%Y%m%dT%H%M%S%f")
    digest = hashlib.sha256(json.dumps(canonical).encode("utf-8")).hexdigest()[:12]
    path = base / f"{stamp}-{digest}"
    suffix = 0
    while path.exists():
        suffix += 1
        path = base / f"{stamp}-{digest}-{suffix}"
    path.mkdir(parents=True)
    return path


def write_series_csv(path, records):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for record in records:
            writer.writerow(record.csv_row())


def cmd_simulate(args) -> int:
    try:
        grids.thread_count()  # a bad INLS_THREADS stops the run before it starts
        config = load_config(args.config)
        u0 = config.build_initial_field()
        verdicts = {
            criterion: exponents.hypothesis_report(criterion, config.params)
            for criterion in exponents.CRITERIA
        }
        # the classification, before any run directory exists: it reads only
        # the initial data, and c W data whose energy leaves the float range
        # is refused here
        threshold = None
        if verdicts["blowup_criterion"].holds and config.lam < 0:
            gs = ground_state.compute_quantities(config.profile())
            if config.initial["type"] == "ground_state_scaled":
                data = diagnostics.ScaledGroundState(config.initial["scale_c"])
            else:
                data = u0
            symmetry = grids.geometry(config.grid).symmetry
            threshold = diagnostics.classify_blowup(data, config.sim, gs, symmetry)
        canonical = config.canonical()
        run_dir = _run_directory(config.out_dir, canonical)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:
        print(f"config error: not enough memory for this grid: {exc}", file=sys.stderr)
        return EXIT_USAGE

    meta = {
        "b": float(config.params.b),
        "delta": config.weight.delta,
        "sigma": config.sim.sigma,
        "lambda": config.lam,
    }
    if config.dump_fields:
        grids.dump_field(u0, run_dir / "field_initial.bin", meta)

    outcome = dynamics.run(config.sim, u0)
    write_series_csv(run_dir / "series.csv", outcome.series)
    if config.dump_fields:
        grids.dump_field(outcome.final_field, run_dir / "field_final.bin", meta)

    report = {
        "config": canonical,
        "verdicts": {
            name: {
                "holds": v.holds,
                "checks": [dataclasses.asdict(c) for c in v.checks],
            }
            for name, v in verdicts.items()
        },
        "run": {
            "termination": outcome.termination,
            "t_final": outcome.t_final,
            "steps": outcome.steps,
            "records": len(outcome.series),
        },
        "files": {"series": "series.csv"},
    }
    if config.dump_fields:
        report["files"]["field_initial"] = "field_initial.bin"
        report["files"]["field_final"] = "field_final.bin"

    if threshold is not None:
        report["classification"] = dataclasses.asdict(threshold)

    (run_dir / "report.json").write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"run directory: {run_dir}")
    print(f"termination: {outcome.termination} at t = {outcome.t_final}")
    if "classification" in report:
        print(f"blow-up classification: {report['classification']['case']}")
    if outcome.termination == "non_finite":
        return EXIT_RUNTIME
    return EXIT_OK


def cmd_virial_report(args) -> int:
    try:
        with open(args.series, "r", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            rows = list(reader)
    except (OSError, StopIteration) as exc:
        print(f"cannot read series: {exc}", file=sys.stderr)
        return EXIT_USAGE
    required = ("t", "variance", "virial_rhs")
    if any(col not in header for col in required):
        print(f"series is missing columns {required}", file=sys.stderr)
        return EXIT_USAGE
    if len(rows) < 3:
        print("need >= 3 samples for a second difference", file=sys.stderr)
        return EXIT_USAGE
    idx = {name: header.index(name) for name in required}
    try:
        t = np.array([float(row[idx["t"]]) for row in rows])
        v = np.array([float(row[idx["variance"]]) for row in rows])
        rhs = np.array([float(row[idx["virial_rhs"]]) for row in rows])
    except (ValueError, IndexError) as exc:
        print(f"series has non-numeric or absent cells: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if not (np.all(np.isfinite(t)) and np.all(np.diff(t) > 0)):
        print("series t must be finite and strictly increasing", file=sys.stderr)
        return EXIT_USAGE

    if args.t_max is not None:
        keep = t <= args.t_max
        t, v, rhs, rows = t[keep], v[keep], rhs[keep], [r for r, k in zip(rows, keep) if k]
        if len(rows) < 3:
            print("need >= 3 samples inside the window", file=sys.stderr)
            return EXIT_USAGE

    d2 = diagnostics.second_difference(t, v)
    eps_mach = np.finfo(float).eps
    residual = np.abs(d2 - rhs) / np.maximum(np.abs(rhs), eps_mach)

    out_path = Path(args.series).with_suffix(".virial.csv")
    try:
        with open(out_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(header + ["d2_variance_dt2", "rel_residual"])
            for row, dd, res in zip(rows, d2, residual):
                extra = ["", ""] if math.isnan(dd) else [dd, res]
                writer.writerow(row + extra)
    except OSError as exc:
        print(f"cannot write {out_path}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(f"wrote {out_path}")
    print(f"max rel_residual = {np.max(residual[1:-1])}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="inls",
        description="Weighted nonlinear Schrodinger laboratory: exponent checks, "
        "ground-state constants, and time-domain experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="evaluate criticality and hypothesis predicates")
    p_check.add_argument("--n", type=int, required=True)
    p_check.add_argument("--s", required=True)
    p_check.add_argument("--b", required=True)
    p_check.add_argument("--sigma", default=None, help="rational power; omit for the critical power")
    p_check.add_argument(
        "--theorem",
        default="critical_lwp",
        choices=exponents.CRITERIA,
        help="criterion governing the exit code",
    )
    p_check.set_defaults(func=cmd_check)

    p_pairs = sub.add_parser("pairs", help="admissible-pair table")
    p_pairs.add_argument("--n", type=int, required=True)
    p_pairs.add_argument("--p", action="append", help="repeatable; rational, 'inf', or '2n/(n-2)'")
    p_pairs.set_defaults(func=cmd_pairs)

    p_gs = sub.add_parser("ground-state", help="sharp-constant quantities of the explicit bubble")
    p_gs.add_argument("--n", type=int, required=True)
    p_gs.add_argument("--b", required=True)
    p_gs.add_argument("--eps", type=float, default=1.0)
    p_gs.add_argument("--json", default=None, help="also write a JSON record here")
    p_gs.set_defaults(func=cmd_ground_state)

    p_sim = sub.add_parser("simulate", help="run a configured time evolution")
    p_sim.add_argument("config")
    p_sim.set_defaults(func=cmd_simulate)

    p_vir = sub.add_parser("virial-report", help="second-difference check of a series.csv")
    p_vir.add_argument("series")
    p_vir.add_argument("--t-max", type=float, default=None, help="restrict to t <= t_max")
    p_vir.set_defaults(func=cmd_virial_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
