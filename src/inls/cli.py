"""Command-line surface: parameter checks, admissible pairs, ground-state
constants, simulation runs, and virial reports.

Exit codes: 0 ok, 1 usage/parse, 2 hypothesis-fail, 3 quadrature-fail,
4 runtime-numeric.
"""
from __future__ import annotations

import argparse
import csv
import datetime
import hashlib
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import diagnostics, dynamics, exponents, grids, ground_state
from .diagnostics import CSV_COLUMNS
from .exponents import CRITICAL, INF, CriticalityParams, fmt
from .grids import Field, GridSpec, PotentialWeight

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_HYPOTHESIS = 2
EXIT_QUADRATURE = 3
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


def format_float(x: float) -> str:
    return f"{x:.17g}"


def _json_text(obj, indent=0) -> str:
    """JSON with every float rendered at 17 significant digits."""
    pad = " " * indent
    inner = " " * (indent + 2)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(
            f"{inner}{json.dumps(str(k))}: {_json_text(v, indent + 2)}" for k, v in obj.items()
        )
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = ",\n".join(f"{inner}{_json_text(v, indent + 2)}" for v in obj)
        return "[\n" + items + "\n" + pad + "]"
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, float):
        return format_float(obj)
    if isinstance(obj, int):
        return str(obj)
    return json.dumps(obj)


# ---------------------------------------------------------------- run config

_SECTION_KEYS = {
    "params": {"n", "s", "b", "sigma", "lambda"},
    "grid": {"kind", "extent", "r_max", "points"},
    "weight": {"delta"},
    "time": {"dt_init", "dt_min", "t_end", "record_every", "blowup_ratio", "safety"},
    "initial": {"type", "amplitude", "width", "scale_c", "path", "epsilon"},
    "output": {"directory", "dump_fields"},
}


def _check_keys(section: str, data: dict):
    unknown = set(data) - _SECTION_KEYS[section]
    if unknown:
        raise ConfigError(f"unknown key(s) in '{section}': {', '.join(sorted(unknown))}")


def _positive_int(value, name: str) -> int:
    """A JSON integer >= 1; floats and booleans are refused, not truncated."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ConfigError(f"{name} must be an integer >= 1, got {value!r}")
    return value


def _number(value, name: str) -> float:
    """A finite JSON number, or a string float() reads as one; null, booleans,
    other types, NaN and infinities are refused."""
    try:
        if isinstance(value, bool) or not isinstance(value, (int, float, str)):
            raise ValueError
        number = float(value)
        if not math.isfinite(number):
            raise ValueError
    except (ValueError, OverflowError):
        raise ConfigError(f"{name} must be a finite number, got {value!r}") from None
    return number


class RunConfig:
    """Parsed, validated run configuration with a canonical echo form."""

    def __init__(self, raw: dict):
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        unknown = set(raw) - set(_SECTION_KEYS)
        if unknown:
            raise ConfigError(f"unknown section(s): {', '.join(sorted(unknown))}")
        for section in ("params", "grid", "time", "initial"):
            if section not in raw:
                raise ConfigError(f"missing section '{section}'")

        par = dict(raw["params"])
        _check_keys("params", par)
        for key in ("n", "s", "b", "sigma", "lambda"):
            if key not in par:
                raise ConfigError(f"params.{key} is required")
        n = par["n"]
        if not isinstance(n, int):
            raise ConfigError("params.n must be an integer")
        s = parse_rational(par["s"])
        b = parse_rational(par["b"])
        sigma = par["sigma"]
        if sigma == "auto":
            sigma = CRITICAL
        else:
            sigma = parse_rational(sigma)
        lam = _number(par["lambda"], "params.lambda")
        sign = "focusing" if lam < 0 else "defocusing"
        try:
            self.params = CriticalityParams(n=n, s=s, b=b, sigma=sigma, lambda_sign=sign)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        self.lam = lam

        gr = dict(raw["grid"])
        _check_keys("grid", gr)
        kind = gr.get("kind")
        if kind == "tensor":
            if "extent" not in gr:
                raise ConfigError("tensor grid needs 'extent'")
            extent = _number(gr["extent"], "grid.extent")
            points = _positive_int(gr.get("points"), "grid.points")
            self.grid = GridSpec.tensor(n, extent, points)
        elif kind == "radial":
            if "r_max" not in gr:
                raise ConfigError("radial grid needs 'r_max'")
            r_max = _number(gr["r_max"], "grid.r_max")
            points = _positive_int(gr.get("points"), "grid.points")
            self.grid = GridSpec.radial(n, r_max, points)
        else:
            raise ConfigError("grid.kind must be 'tensor' or 'radial'")

        wt = dict(raw.get("weight", {"delta": "auto"}))
        _check_keys("weight", wt)
        delta = wt.get("delta", "auto")
        if delta == "auto":
            delta = self.grid.spacing if self.grid.kind == "tensor" else 0.0
        self.weight = PotentialWeight(b=float(b), delta=_number(delta, "weight.delta"))

        tm = dict(raw["time"])
        _check_keys("time", tm)
        for key in ("dt_init", "t_end"):
            if key not in tm:
                raise ConfigError(f"time.{key} is required")
        dt_init = _number(tm["dt_init"], "time.dt_init")
        self.sim = dynamics.SimConfig(
            params=self.params,
            grid=self.grid,
            weight=self.weight,
            lam=lam,
            dt_init=dt_init,
            t_end=_number(tm["t_end"], "time.t_end"),
            dt_min=_number(tm.get("dt_min", dt_init * 1e-8), "time.dt_min"),
            blowup_ratio=_number(tm.get("blowup_ratio", 1e3), "time.blowup_ratio"),
            safety=_number(tm.get("safety", 0.5), "time.safety"),
            record_every=_positive_int(tm.get("record_every", 1), "time.record_every"),
        )

        init = dict(raw["initial"])
        _check_keys("initial", init)
        itype = init.get("type")
        if itype not in ("gaussian", "ground_state_scaled", "file"):
            raise ConfigError("initial.type must be gaussian, ground_state_scaled, or file")
        for key in ("amplitude", "width", "scale_c", "epsilon"):
            if key in init:
                init[key] = _number(init[key], f"initial.{key}")
        self.initial = init

        out = dict(raw.get("output", {}))
        _check_keys("output", out)
        self.out_dir = Path(out.get("directory", "runs"))
        dump_fields = out.get("dump_fields", False)
        if not isinstance(dump_fields, bool):
            raise ConfigError(f"output.dump_fields must be true or false, got {dump_fields!r}")
        self.dump_fields = dump_fields

    def canonical(self) -> dict:
        """Canonical echo: sigma resolved to its exact rational string."""
        grid = {"kind": self.grid.kind, "points": self.grid.points}
        if self.grid.kind == "tensor":
            grid["extent"] = self.grid.extent
        else:
            grid["r_max"] = self.grid.r_max
        initial = {"type": self.initial["type"]}
        for key in ("amplitude", "width", "scale_c", "epsilon"):
            if key in self.initial:
                initial[key] = self.initial[key]
        if "path" in self.initial:
            initial["path"] = str(self.initial["path"])
        return {
            "params": {
                "n": self.params.n,
                "s": str(self.params.s),
                "b": str(self.params.b),
                "sigma": str(self.params.sigma_value),
                "lambda": self.lam,
            },
            "grid": grid,
            "weight": {"delta": self.weight.delta},
            "time": {
                "dt_init": self.sim.dt_init,
                "dt_min": self.sim.dt_min,
                "t_end": self.sim.t_end,
                "record_every": self.sim.record_every,
                "blowup_ratio": self.sim.blowup_ratio,
                "safety": self.sim.safety,
            },
            "initial": initial,
            "output": {"directory": str(self.out_dir), "dump_fields": self.dump_fields},
        }

    def build_initial_field(self) -> Field:
        itype = self.initial["type"]
        if itype == "gaussian":
            return grids.gaussian_field(
                self.grid,
                amplitude=self.initial.get("amplitude", 1.0),
                width=self.initial.get("width", 1.0),
            )
        if itype == "ground_state_scaled":
            profile = ground_state.GroundStateProfile(
                n=self.params.n,
                b=float(self.params.b),
                epsilon=self.initial.get("epsilon", 1.0),
            )
            return ground_state.sample_on_grid(
                profile, self.grid, scale=self.initial.get("scale_c", 1.0)
            )
        field, _ = grids.load_field(self.initial["path"])
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
            print(
                f"  p = {fmt(p):>8}  gamma = {fmt(exponents.gamma_of(p, n)):>8}  "
                f"admissible = {exponents.is_admissible(p, n)}"
            )
    except exponents.HypothesisViolation as exc:
        print(f"working exponent unavailable: {exc}")

    region = exponents.region_comparison(params)
    print(
        f"region: {region.classification}  "
        f"(baseline bound = {fmt(region.baseline_bound)}, extended bound = {fmt(region.extended_bound)})"
    )
    return EXIT_OK if verdicts[args.theorem].holds else EXIT_HYPOTHESIS


def cmd_pairs(args) -> int:
    try:
        ps = []
        for text in args.p or ["2", "2n/(n-2)"]:
            if text in ("inf", "infinity"):
                ps.append(INF)
            elif text == "2n/(n-2)":
                if args.n >= 3:
                    ps.append(Fraction(2 * args.n, args.n - 2))
            else:
                ps.append(parse_rational(text))
    except ConfigError as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(f"n = {args.n}")
    for p in ps:
        admissible = exponents.is_admissible(p, args.n)
        gamma = exponents.gamma_of(p, args.n) if (p is INF or p >= 2) else None
        print(f"  p = {fmt(p):>8}  gamma = {fmt(gamma):>8}  admissible = {admissible}")
    return EXIT_OK


def _ground_state_payload(n, b, eps, tol):
    quad = ground_state.QuadratureSpec(tol=tol)
    base = ground_state.compute_quantities(ground_state.GroundStateProfile(n, b, eps), quad)
    doubled = ground_state.compute_quantities(ground_state.GroundStateProfile(n, b, 2 * eps), quad)
    pohozaev = abs(base.h1dot_sq - base.potential_integral) / base.h1dot_sq
    spread = abs(base.c_hs - doubled.c_hs) / base.c_hs
    return {
        "n": n,
        "b": b,
        "epsilon": eps,
        "sigma1": base.profile.sigma1,
        "h1dot_sq": base.h1dot_sq,
        "potential_integral": base.potential_integral,
        "c_hs": base.c_hs,
        "energy": base.energy,
        "pohozaev_residual": pohozaev,
        "c_hs_epsilon_spread": spread,
    }


def cmd_ground_state(args) -> int:
    try:
        payload = _ground_state_payload(args.n, args.b, args.eps, args.tol)
    except ground_state.QuadratureError as exc:
        print(f"quadrature failure: {exc}", file=sys.stderr)
        return EXIT_QUADRATURE
    except ValueError as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    for key, value in payload.items():
        text = format_float(value) if isinstance(value, float) else str(value)
        print(f"{key:>24} = {text}")
    if args.json:
        Path(args.json).write_text(_json_text(payload) + "\n", encoding="utf-8")
        print(f"wrote {args.json}")
    return EXIT_OK


def _run_directory(base: Path, canonical: dict) -> Path:
    stamp = datetime.datetime.now(datetime.timezone.utc).strftime("%Y%m%dT%H%M%S%f")
    digest = hashlib.sha256(_json_text(canonical).encode("utf-8")).hexdigest()[:12]
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
        config = load_config(args.config)
        u0 = config.build_initial_field()
    except (ConfigError, ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    canonical = config.canonical()
    run_dir = _run_directory(config.out_dir, canonical)
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

    verdicts = {
        criterion: exponents.hypothesis_report(criterion, config.params)
        for criterion in exponents.CRITERIA
    }
    report = {
        "config": canonical,
        "verdicts": {
            name: {
                "holds": v.holds,
                "checks": [
                    {"name": c.name, "passed": c.passed, "values": c.values} for c in v.checks
                ],
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

    blowup_scope = verdicts["blowup_criterion"].holds and config.lam < 0
    if blowup_scope:
        profile = ground_state.GroundStateProfile(
            n=config.params.n,
            b=float(config.params.b),
            epsilon=config.initial.get("epsilon", 1.0),
        )
        gs = ground_state.compute_quantities(profile)
        symmetry = "radial" if config.grid.kind == "radial" else "finite_variance"
        if config.initial["type"] == "ground_state_scaled":
            data = diagnostics.ScaledGroundState(config.initial.get("scale_c", 1.0))
        else:
            data = u0
        threshold = diagnostics.classify_blowup(data, config.sim, gs, symmetry)
        report["classification"] = {
            "case": threshold.case,
            "symmetry": threshold.symmetry,
            "e0": threshold.e0,
            "h1_0": threshold.h1_0,
            "e_w": threshold.e_w,
            "h1_w": threshold.h1_w,
            "delta": threshold.delta,
        }

    (run_dir / "report.json").write_text(_json_text(report) + "\n", encoding="utf-8")
    print(f"run directory: {run_dir}")
    print(f"termination: {outcome.termination} at t = {format_float(outcome.t_final)}")
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
    except ValueError as exc:
        print(f"series has non-numeric or absent cells: {exc}", file=sys.stderr)
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
    with open(out_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header + ["d2_variance_dt2", "rel_residual"])
        for row, dd, res in zip(rows, d2, residual):
            extra = ["", ""] if math.isnan(dd) else [format_float(dd), format_float(res)]
            writer.writerow(row + extra)
    interior = residual[1:-1]
    print(f"wrote {out_path}")
    print(f"max rel_residual = {format_float(float(np.max(interior)))}")
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
    p_gs.add_argument("--b", type=float, required=True)
    p_gs.add_argument("--eps", type=float, default=1.0)
    p_gs.add_argument("--tol", type=float, default=1e-12)
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
