import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from inls import cli, diagnostics, dynamics
from inls.cli import (
    EXIT_HYPOTHESIS,
    EXIT_OK,
    EXIT_USAGE,
    ConfigError,
    RunConfig,
    load_config,
    parse_rational,
)
from inls.diagnostics import CSV_COLUMNS, DiagnosticsRecord
from fractions import Fraction


def base_config(tmp_path, **overrides):
    raw = {
        "params": {"n": 2, "s": "1/2", "b": "1/2", "sigma": "auto", "lambda": 0.0},
        "grid": {"kind": "tensor", "extent": 20.0, "points": 64},
        "weight": {"delta": "auto"},
        "time": {"dt_init": 2e-3, "dt_min": 1e-10, "t_end": 0.02, "record_every": 1},
        "initial": {"type": "gaussian", "amplitude": 0.5641895835477563, "width": 1.0},
        "output": {"directory": str(tmp_path / "runs"), "dump_fields": True},
    }
    raw.update(overrides)
    return raw


def write_config(tmp_path, raw, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(raw), encoding="utf-8")
    return path


class TestRationalParsing:
    def test_fraction_string(self):
        assert parse_rational("18/7") == Fraction(18, 7)

    def test_exact_decimal(self):
        assert parse_rational(0.5) == Fraction(1, 2)
        assert parse_rational("0.25") == Fraction(1, 4)

    def test_rejects_inexact_decimal(self):
        with pytest.raises(ConfigError):
            parse_rational(0.1 + 0.2)  # denominator far beyond 1e6

    def test_integer(self):
        assert parse_rational(3) == Fraction(3)


class TestConfigHandling:
    def test_round_trip_canonical(self, tmp_path):
        raw = base_config(tmp_path)
        config = RunConfig(raw)
        canonical = config.canonical()
        again = RunConfig(canonical).canonical()
        assert canonical == again

    def test_auto_sigma_resolved_exactly(self, tmp_path):
        config = RunConfig(base_config(tmp_path))
        # n=2, s=1/2: (4-1)/(2-1) = 3
        assert config.canonical()["params"]["sigma"] == "3"

    def test_unknown_key_rejected(self, tmp_path):
        raw = base_config(tmp_path)
        raw["time"]["cadence"] = 5
        with pytest.raises(ConfigError) as err:
            RunConfig(raw)
        assert "cadence" in str(err.value)

    def test_unknown_section_rejected(self, tmp_path):
        raw = base_config(tmp_path)
        raw["extras"] = {}
        with pytest.raises(ConfigError):
            RunConfig(raw)

    def test_auto_delta(self, tmp_path):
        config = RunConfig(base_config(tmp_path))
        assert config.weight.delta == pytest.approx(20.0 / 64)
        radial = base_config(tmp_path)
        radial["params"]["n"] = 3
        radial["grid"] = {"kind": "radial", "r_max": 10.0, "points": 128}
        assert RunConfig(radial).weight.delta == 0.0


# Integers stay small so that a mutated grid that validates stays cheap to
# build (RunConfig evaluates the weight on the grid).
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-1000, 1000)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=8)
    | st.sampled_from(["auto", "tensor", "radial", "file", "1/2", "nan", "1e400"]),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=10,
)


def _valid_configs():
    tensor = base_config(Path(), output={"dump_fields": True})
    radial = {
        "params": {"n": 3, "s": 1, "b": "1/2", "sigma": "auto", "lambda": -1.0},
        "grid": {"kind": "radial", "r_max": 16.0, "points": 64},
        "time": {"dt_init": 1e-3, "t_end": 0.01, "blowup_ratio": 50.0, "safety": 0.25},
        "initial": {"type": "ground_state_scaled", "scale_c": 0.5, "epsilon": 1.0},
    }
    return [tensor, radial]


@st.composite
def config_inputs(draw):
    """Arbitrary JSON, or a valid config with one section or key replaced by
    arbitrary JSON or deleted."""
    if draw(st.booleans()):
        return draw(JSON_VALUES)
    raw = json.loads(json.dumps(draw(st.sampled_from(_valid_configs()))))
    section = draw(st.sampled_from(["params", "grid", "weight", "time", "initial", "output"]))
    keys = sorted(raw.get(section, {})) + ["extent", "r_max", "path", "dt_min"]
    key = draw(st.none() | st.sampled_from(keys))
    target, name = (raw, section) if key is None else (raw.setdefault(section, {}), key)
    if draw(st.booleans()):
        target.pop(name, None)
    else:
        target[name] = draw(JSON_VALUES)
    return raw


class TestConfigProperty:
    @settings(max_examples=300, deadline=None)
    @given(raw=config_inputs())
    def test_config_is_accepted_or_refused_cleanly(self, raw):
        try:
            RunConfig(raw)
            return
        except ConfigError:
            pass
        cwd = os.getcwd()
        with tempfile.TemporaryDirectory() as work:
            path = Path(work) / "config.json"
            path.write_text(json.dumps(raw), encoding="utf-8")
            err, out = io.StringIO(), io.StringIO()
            os.chdir(work)
            try:
                with contextlib.redirect_stderr(err), contextlib.redirect_stdout(out):
                    code = cli.main(["simulate", str(path)])
            finally:
                os.chdir(cwd)
            assert code == EXIT_USAGE
            assert err.getvalue().startswith("config error:")
            assert os.listdir(work) == ["config.json"]


class TestCheckCommand:
    def test_reference_holds(self, capsys):
        code = cli.main(["check", "--n", "3", "--s", "1", "--b", "1"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "critical power sigma_s = 2" in out
        assert "working exponent r = 18/7" in out
        assert "gamma(r) = 6" in out

    def test_b_too_large_fails(self, capsys):
        code = cli.main(["check", "--n", "3", "--s", "1", "--b", "7/4"])
        out = capsys.readouterr().out
        assert code == EXIT_HYPOTHESIS
        assert "3/2" in out  # the violated bound is reported exactly

    def test_supercritical_s_explains(self, capsys):
        code = cli.main(["check", "--n", "2", "--s", "3", "--b", "1/2"])
        out = capsys.readouterr().out
        assert code == EXIT_HYPOTHESIS
        assert "critical power" in out

    def test_parse_failure(self, capsys):
        code = cli.main(["check", "--n", "3", "--s", "x/y", "--b", "1"])
        assert code == EXIT_USAGE


class TestPairsCommand:
    def test_defaults(self, capsys):
        code = cli.main(["pairs", "--n", "3"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "admissible = True" in out

    def test_explicit_values(self, capsys):
        code = cli.main(["pairs", "--n", "1", "--p", "inf", "--p", "2"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "inf" in out

    @pytest.mark.parametrize("n", ["0", "-1"])
    def test_dimension_below_one_refused(self, n, capsys):
        code = cli.main(["pairs", "--n", n, "--p", "3"])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert captured.out == ""
        assert captured.err.startswith("parameter error:")

    def test_critical_pair_below_three_refused(self, capsys):
        # asked for by name, the row was dropped and the exit code was 0
        code = cli.main(["pairs", "--n", "2", "--p", "2", "--p", "2n/(n-2)"])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert captured.out == ""
        assert captured.err.startswith("parameter error:") and "n >= 3" in captured.err

    def test_default_list_omits_critical_pair_below_three(self, capsys):
        code = cli.main(["pairs", "--n", "2"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert out.count("p = ") == 1 and "p =        2" in out


class TestGroundStateCommand:
    def test_report(self, capsys, tmp_path):
        json_path = tmp_path / "gs.json"
        code = cli.main(
            ["ground-state", "--n", "3", "--b", "0.5", "--eps", "1.0", "--json", str(json_path)]
        )
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "pohozaev_residual" in out
        payload = json.loads(json_path.read_text())
        assert payload["pohozaev_residual"] < 1e-8
        assert payload["c_hs_epsilon_spread"] < 1e-8

    def test_near_b_two_report(self, tmp_path, capsys):
        json_path = tmp_path / "gs.json"
        code = cli.main(["ground-state", "--n", "6", "--b", "1.9", "--json", str(json_path)])
        capsys.readouterr()
        assert code == EXIT_OK
        payload = json.loads(json_path.read_text())
        assert payload["pohozaev_residual"] < 1e-12
        assert payload["c_hs_epsilon_spread"] < 1e-12

    @pytest.mark.parametrize("spelling", ["19/10", "1.9"])
    def test_rational_b(self, tmp_path, capsys, spelling):
        # sigma1 = (4 - 2b)/(n - 2) = 1/20 is formed exactly, then rounded once
        json_path = tmp_path / "gs.json"
        code = cli.main(["ground-state", "--n", "6", "--b", spelling, "--json", str(json_path)])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "                       b = 19/10\n" in out
        assert "                  sigma1 = 0.05\n" in out
        payload = json.loads(json_path.read_text())
        assert payload["b"] == "19/10"
        assert payload["sigma1"] == 0.05
        # the constants use that sigma1, not the float formula's
        pot, h1 = payload["potential_integral"], payload["h1dot_sq"]
        assert payload["energy"] == 0.5 * h1 - pot / 2.05
        assert payload["c_hs"] == pot ** (1.0 / 2.05) / math.sqrt(h1)

    @pytest.mark.parametrize("spelling", ["1/0", "abc", "0.1234567"])
    def test_malformed_b_is_parameter_error(self, capsys, spelling):
        code = cli.main(["ground-state", "--n", "6", "--b", spelling])
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert err.startswith("parameter error:")

    def test_overflowing_bubble_is_parameter_error(self, capsys):
        code = cli.main(["ground-state", "--n", "7", "--b", "1.99"])
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert err.startswith("parameter error:")
        assert "GroundStateProfile(n=7, b=199/100, epsilon=1.0)" in err  # the exact b, as p/q

    def test_bad_tolerance_is_usage_error(self, capsys):
        # there is no --tol option: the bubble constants are in closed form
        code = cli.main(["ground-state", "--n", "3", "--b", "0.5", "--tol", "0"])
        assert code == EXIT_USAGE

    def test_bad_parameters(self, capsys):
        code = cli.main(["ground-state", "--n", "2", "--b", "0.5"])
        assert code == EXIT_USAGE


class TestSimulateCommand:
    def test_free_gaussian_run(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config(tmp_path))
        code = cli.main(["simulate", str(path)])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "termination: completed" in out
        run_dir = next((tmp_path / "runs").iterdir())
        series = run_dir / "series.csv"
        report = json.loads((run_dir / "report.json").read_text())
        assert report["run"]["termination"] == "completed"
        with open(series) as fh:
            header = next(csv.reader(fh))
        assert tuple(header) == CSV_COLUMNS
        # field dumps round trip
        from inls.grids import load_field

        initial, meta = load_field(run_dir / "field_initial.bin")
        assert meta["lambda"] == 0.0
        assert initial.grid.points == 64

    def test_series_header_is_the_documented_text(self, tmp_path, capsys):
        # the column names and order of README's series.csv contract, as
        # literal text: CSV_COLUMNS is derived from the record's fields
        path = write_config(tmp_path, base_config(tmp_path))
        assert cli.main(["simulate", str(path)]) == EXIT_OK
        run_dir = next((tmp_path / "runs").iterdir())
        header = (run_dir / "series.csv").read_text().splitlines()[0]
        assert header == (
            "t,mass,energy,h1dot_sq,weighted_potential,variance,virial_rhs,"
            "localized_virial,boundary_mass_fraction,dt,max_amp"
        )

    def test_unknown_key_exits_one(self, tmp_path, capsys):
        raw = base_config(tmp_path)
        raw["grid"]["padding"] = 2
        path = write_config(tmp_path, raw)
        code = cli.main(["simulate", str(path)])
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert "padding" in err

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("output", "dump_fields", "false"),
            ("output", "dump_fields", 0),
            ("time", "record_every", 2.7),
            ("time", "record_every", 3.0),
            ("time", "record_every", 0),
            ("time", "record_every", True),
        ],
    )
    def test_no_silent_coercion(self, tmp_path, capsys, section, key, value):
        raw = base_config(tmp_path)
        raw[section][key] = value
        path = write_config(tmp_path, raw)
        code = cli.main(["simulate", str(path)])
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert err.startswith("config error:") and f"{section}.{key}" in err
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("time", "t_end", "inf"),  # never terminated
            ("time", "t_end", "nan"),  # reported completion at t = 0
            ("time", "dt_init", "nan"),
            ("time", "dt_min", "-inf"),
            ("params", "lambda", "nan"),  # made a run directory, then non_finite
            ("params", "lambda", None),
            ("grid", "points", 64.7),
            ("grid", "points", None),
            ("grid", "extent", None),
            ("grid", "extent", "wide"),
            ("grid", "extent", "inf"),
            ("initial", "amplitude", None),  # traceback from the canonical echo
            ("params", "n", True),  # ran as n = 1
            ("params", "b", "1e400"),  # OverflowError traceback
            ("grid", "r_max", 16.0),  # ignored on a tensor grid
            ("initial", "path", [1]),  # TypeError traceback
            ("initial", "path", 5),  # opened file descriptor 5
            ("output", "directory", 5),  # TypeError traceback
            ("initial", "width", 0.0),  # divide by zero, then exit 4
            ("initial", "width", -1.0),  # ran as width 1
            ("initial", "scale_c", 0.0),  # ScaledGroundState traceback after the run
            ("initial", "scale_c", -0.5),
            ("initial", "epsilon", 0.0),  # a traceback after blow-up-scope runs
            ("initial", "epsilon", -1.0),
        ],
    )
    def test_bad_run_numbers_exit_one(self, tmp_path, capsys, section, key, value):
        raw = base_config(tmp_path)
        raw[section][key] = value
        path = write_config(tmp_path, raw)
        code = cli.main(["simulate", str(path)])
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert err.startswith("config error:") and f"{section}.{key}" in err
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("builder", ["radius_sq_values", "gaussian_field"])
    def test_memory_error_exits_one(self, tmp_path, capsys, monkeypatch, builder):
        # stands in for numpy's _ArrayMemoryError on an oversized grid (e.g.
        # points 4096 in 3-d); nothing is really allocated
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 512. GiB")

        monkeypatch.setattr(cli.grids, builder, exhausted)
        cli.grids.weight_values.cache_clear()  # cold, as for a grid no run has used
        path = write_config(tmp_path, base_config(tmp_path))
        code = cli.main(["simulate", str(path)])
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert err.startswith("config error:") and "512. GiB" in err
        assert not (tmp_path / "runs").exists()

    # "abc" and "1.5" gave a ValueError traceback at the first FFT, after the
    # run directory existed; "0" and "-3" were silently taken as 1
    @pytest.mark.parametrize("value", ["abc", "1.5", "0", "-3"])
    def test_bad_thread_count_exits_one(self, tmp_path, capsys, monkeypatch, value):
        monkeypatch.setenv("INLS_THREADS", value)
        path = write_config(tmp_path, base_config(tmp_path))
        code = cli.main(["simulate", str(path)])
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert err == (
            f"config error: INLS_THREADS must be a positive integer, got {value!r}\n"
        )
        assert not (tmp_path / "runs").exists()

    def test_thread_count_is_read(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("INLS_THREADS", "2")
        assert cli.grids.thread_count() == 2
        path = write_config(tmp_path, base_config(tmp_path))
        assert cli.main(["simulate", str(path)]) == EXIT_OK
        run_dir = next((tmp_path / "runs").iterdir())
        assert (run_dir / "report.json").exists()

    @pytest.mark.parametrize("dt_min", [0.0, -1.0])
    def test_non_positive_dt_min_refused_before_run(self, tmp_path, capsys, dt_min):
        # w |u|^sigma of this Gaussian overflows, so the step falls to dt_min:
        # a dt_min <= 0 let a dt = 0 step through (a ZeroDivisionError
        # traceback), and below 0 dt_underflow could never fire
        raw = base_config(tmp_path)
        raw["params"] = {"n": 3, "s": 1, "b": "1/2", "sigma": "auto", "lambda": -1.0}
        raw["grid"] = {"kind": "radial", "r_max": 16.0, "points": 64}
        raw["time"]["dt_min"] = dt_min
        raw["initial"] = {"type": "gaussian", "amplitude": 1e110, "width": 1.0}
        code = cli.main(["simulate", str(write_config(tmp_path, raw))])
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert err.startswith("config error:") and "dt_min must be positive" in err
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("scale_c", [1e100, 4e61])
    def test_overflowing_scaled_energy_refused_before_run(self, tmp_path, capsys, scale_c):
        # E(cW) = (c^2/2 - c^5/5) |W|_H1^2 at n = 3, b = 1/2: c^5 overflows at
        # 1e100, and the product at 4e61; the classifier raised OverflowError
        # after the run, leaving a run directory without report.json
        raw = base_config(tmp_path)
        raw["params"] = {"n": 3, "s": 1, "b": "1/2", "sigma": "auto", "lambda": -1.0}
        raw["grid"] = {"kind": "radial", "r_max": 24.0, "points": 64}
        raw["initial"] = {"type": "ground_state_scaled", "scale_c": scale_c}
        code = cli.main(["simulate", str(write_config(tmp_path, raw))])
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert err.startswith("config error:") and "floating-point range" in err
        assert not (tmp_path / "runs").exists()

    def test_overflowing_field_energy_refused_before_run(self, tmp_path, capsys):
        # w |u|^5 of this Gaussian overflows: the run directory got
        # "e0": -Infinity as a negative_energy verdict
        raw = base_config(tmp_path)
        raw["params"] = {"n": 3, "s": 1, "b": "1/2", "sigma": "auto", "lambda": -1.0}
        raw["grid"] = {"kind": "radial", "r_max": 16.0, "points": 64}
        raw["initial"] = {"type": "gaussian", "amplitude": 1e110, "width": 1.0}
        code = cli.main(["simulate", str(write_config(tmp_path, raw))])
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert err.startswith("config error:") and "floating-point range" in err
        assert not (tmp_path / "runs").exists()

    def test_energy_critical_scale_refused_before_run(self, tmp_path, capsys):
        raw = base_config(tmp_path)
        raw["params"] = {"n": 3, "s": 1, "b": "1/2", "sigma": "auto", "lambda": -1.0}
        raw["grid"] = {"kind": "radial", "r_max": 24.0, "points": 512}
        raw["initial"] = {"type": "ground_state_scaled", "scale_c": 0.0}
        path = write_config(tmp_path, raw)
        code = cli.main(["simulate", str(path)])
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert err.startswith("config error:") and "initial.scale_c" in err
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize(
        "overrides, named",
        [
            ({"params": 3}, "'params'"),
            ({"time": [1, 2]}, "'time'"),
            ({"weight": None}, "'weight'"),
            ({"output": None}, "'output'"),
            ({"initial": {"type": "file"}}, "initial.path"),
            (
                {
                    "params": {"n": 3, "s": "1/2", "b": "1/2", "sigma": "auto", "lambda": 0.0},
                    "grid": {"kind": "radial", "r_max": 16.0, "extent": 16.0, "points": 64},
                },
                "grid.extent",
            ),
        ],
    )
    def test_malformed_sections_exit_one(self, tmp_path, capsys, overrides, named):
        raw = base_config(tmp_path, **overrides)
        path = write_config(tmp_path, raw)
        code = cli.main(["simulate", str(path)])
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert err.startswith("config error:") and named in err
        assert not (tmp_path / "runs").exists()

    def test_malformed_dump_header_exits_one(self, tmp_path, capsys):
        dump_path = tmp_path / "bad_header.bin"
        dump_path.write_bytes(b'{"foo": 1}\n' + bytes(16 * 64 * 64))
        raw = base_config(tmp_path)
        raw["initial"] = {"type": "file", "path": str(dump_path)}
        path = write_config(tmp_path, raw)
        code = cli.main(["simulate", str(path)])
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert err.startswith("config error:") and "header" in err
        assert not (tmp_path / "runs").exists()

    def test_missing_points_exits_one(self, tmp_path, capsys):
        raw = base_config(tmp_path)
        raw["grid"] = {"kind": "radial", "r_max": 16.0}
        raw["params"]["n"] = 3
        path = write_config(tmp_path, raw)
        code = cli.main(["simulate", str(path)])
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert err.startswith("config error:") and "grid.points" in err
        assert not (tmp_path / "runs").exists()

    def test_rerun_never_overwrites(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config(tmp_path))
        assert cli.main(["simulate", str(path)]) == EXIT_OK
        assert cli.main(["simulate", str(path)]) == EXIT_OK
        capsys.readouterr()
        assert len(list((tmp_path / "runs").iterdir())) == 2

    def test_blowup_scope_attaches_classification(self, tmp_path, capsys):
        raw = base_config(tmp_path)
        raw["params"] = {"n": 3, "s": 1, "b": "1/2", "sigma": "auto", "lambda": -1.0}
        raw["grid"] = {"kind": "radial", "r_max": 24.0, "points": 512}
        raw["time"] = {"dt_init": 1e-3, "dt_min": 1e-12, "t_end": 0.01, "record_every": 5}
        raw["initial"] = {"type": "ground_state_scaled", "scale_c": 0.5, "epsilon": 1.0}
        path = write_config(tmp_path, raw)
        code = cli.main(["simulate", str(path)])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "blow-up classification: no_verdict" in out
        run_dir = next((tmp_path / "runs").iterdir())
        report = json.loads((run_dir / "report.json").read_text())
        assert report["classification"]["case"] == "no_verdict"
        assert report["verdicts"]["blowup_criterion"]["holds"] is True

    def _focusing_n7(self, tmp_path, b, initial):
        raw = base_config(tmp_path)
        raw["params"] = {"n": 7, "s": 1, "b": b, "sigma": "auto", "lambda": -1.0}
        raw["grid"] = {"kind": "radial", "r_max": 16.0, "points": 128}
        raw["time"] = {"dt_init": 1e-3, "dt_min": 1e-12, "t_end": 0.01, "record_every": 5}
        raw["initial"] = initial
        return write_config(tmp_path, raw)

    def test_n7_near_b_two_is_classified(self, tmp_path, capsys):
        path = self._focusing_n7(
            tmp_path, "19/10", {"type": "gaussian", "amplitude": 0.5, "width": 1.0}
        )
        code = cli.main(["simulate", str(path)])
        capsys.readouterr()
        assert code == EXIT_OK
        run_dir = next((tmp_path / "runs").iterdir())
        report = json.loads((run_dir / "report.json").read_text())
        assert report["verdicts"]["blowup_criterion"]["holds"] is True
        assert report["classification"]["case"] == "no_verdict"
        assert math.isfinite(report["classification"]["e_w"])

    @pytest.mark.parametrize(
        "initial",
        [
            {"type": "gaussian", "amplitude": 0.5, "width": 1.0},
            {"type": "ground_state_scaled", "scale_c": 0.5},
        ],
        ids=["gaussian", "ground_state_scaled"],
    )
    def test_overflowing_bubble_refused_before_run(self, tmp_path, capsys, initial):
        path = self._focusing_n7(tmp_path, "199/100", initial)
        code = cli.main(["simulate", str(path)])
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert err.startswith("config error:") and "bubble" in err
        assert not (tmp_path / "runs").exists()

    def test_underflowing_bubble_refused_before_run(self, tmp_path, capsys):
        # core radius eps^(1/(2-b)) = 1e-200, far inside the first node:
        # max |u0| is 3.9e-158, so |u0|^2 and the mass underflow
        raw = base_config(tmp_path)
        raw["params"] = {"n": 6, "s": 1, "b": "199/100", "sigma": "auto", "lambda": 1.0}
        raw["grid"] = {"kind": "radial", "r_max": 16.0, "points": 64}
        raw["time"] = {"dt_init": 1e-3, "dt_min": 1e-12, "t_end": 0.01, "record_every": 5}
        raw["initial"] = {"type": "ground_state_scaled", "scale_c": 0.5, "epsilon": 0.01}
        code = cli.main(["simulate", str(write_config(tmp_path, raw))])
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert err.startswith("config error:") and "underflows" in err
        assert not (tmp_path / "runs").exists()

    def test_non_finite_exits_four(self, tmp_path, capsys):
        from inls.grids import Field, GridSpec, dump_field

        grid = GridSpec.tensor(2, 20.0, 64)
        values = np.full(grid.shape, np.nan, dtype=complex)
        bad = Field(grid, values)
        dump_path = tmp_path / "bad_field.bin"
        dump_field(bad, dump_path, {"b": 0.5, "delta": 0.3125, "sigma": 2.0, "lambda": 0.0})
        raw = base_config(tmp_path)
        raw["initial"] = {"type": "file", "path": str(dump_path)}
        path = write_config(tmp_path, raw)
        code = cli.main(["simulate", str(path)])
        capsys.readouterr()
        assert code == 4

    def test_file_initial_round_trip(self, tmp_path, capsys):
        # run once with dumps, then restart from the final field
        first = write_config(tmp_path, base_config(tmp_path))
        assert cli.main(["simulate", str(first)]) == EXIT_OK
        capsys.readouterr()
        run_dir = next((tmp_path / "runs").iterdir())
        raw = base_config(tmp_path)
        raw["initial"] = {"type": "file", "path": str(run_dir / "field_final.bin")}
        raw["output"]["directory"] = str(tmp_path / "runs2")
        second = write_config(tmp_path, raw, name="config2.json")
        assert cli.main(["simulate", str(second)]) == EXIT_OK


class TestVirialReportCommand:
    def test_free_run_residual(self, tmp_path, capsys):
        raw = base_config(tmp_path)
        raw["time"]["t_end"] = 0.1
        path = write_config(tmp_path, raw)
        assert cli.main(["simulate", str(path)]) == EXIT_OK
        capsys.readouterr()
        run_dir = next((tmp_path / "runs").iterdir())
        code = cli.main(["virial-report", str(run_dir / "series.csv")])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        residual = float(out.split("max rel_residual = ")[1].strip())
        assert residual <= 1e-3
        augmented = run_dir / "series.virial.csv"
        with open(augmented) as fh:
            header = next(csv.reader(fh))
        assert header[-2:] == ["d2_variance_dt2", "rel_residual"]

    def test_too_few_rows(self, tmp_path, capsys):
        path = tmp_path / "short.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_COLUMNS)
            writer.writerow(["0.0"] + ["1.0"] * (len(CSV_COLUMNS) - 1))
            writer.writerow(["0.1"] + ["1.0"] * (len(CSV_COLUMNS) - 1))
        code = cli.main(["virial-report", str(path)])
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert "3 samples" in err

    def test_short_row(self, tmp_path, capsys):
        path = tmp_path / "short_row.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "variance", "virial_rhs"])
            for k in range(4):
                writer.writerow([str(k * 0.1), "1.0", "2.0"][: 2 if k == 2 else 3])
        code = cli.main(["virial-report", str(path)])
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert "absent cells" in err

    def test_missing_columns(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "mass"])
            for k in range(4):
                writer.writerow([str(k * 0.1), "1.0"])
        assert cli.main(["virial-report", str(path)]) == EXIT_USAGE


class TestReportFormatting:
    def test_json_record_is_the_text_lines(self, tmp_path, capsys):
        # both write a float as its shortest round-trip text, an integral
        # one with its ".0"
        json_path = tmp_path / "gs.json"
        code = cli.main(["ground-state", "--n", "3", "--b", "1/2", "--json", str(json_path)])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        printed = dict(line.strip().split(" = ") for line in out.splitlines() if " = " in line)
        text = json_path.read_text(encoding="utf-8")
        assert printed == json.loads(text, parse_float=str, parse_int=str)
        assert printed["epsilon"] == "1.0" and printed["sigma1"] == "3.0"


def _numbers(value, path=()):
    """(path, number) of every int or float in a parsed JSON value."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _numbers(item, path + (key,))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from _numbers(item, path + (index,))
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        yield path, value


_CELL = st.one_of(
    st.none(),
    st.floats(allow_nan=False),
    st.floats(allow_nan=False).map(np.float64),  # what numpy reductions return
)


class TestNumberContract:
    """Every float that ``inls simulate`` writes to series.csv, report.json
    and its run lines is the shortest text that reads back to the value it
    had in memory (``repr``), written by ``csv`` and ``json``."""

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(*[_CELL] * len(CSV_COLUMNS)), min_size=1, max_size=4))
    @example([(-0.0, 5e-324, -2.5e-310, 1.7e308, -1.7e308, 1.0, None, -3.0, 2.0**60, None, 1e22)])
    def test_series_cells_read_back_bit_for_bit(self, rows):
        with tempfile.TemporaryDirectory() as work:
            path = Path(work) / "series.csv"
            cli.write_series_csv(path, [DiagnosticsRecord(*row) for row in rows])
            with open(path, newline="", encoding="utf-8") as fh:
                header, *written = csv.reader(fh)
        assert header == list(CSV_COLUMNS)
        read = [tuple(None if cell == "" else float(cell).hex() for cell in row) for row in written]
        assert read == [tuple(None if x is None else x.hex() for x in row) for row in rows]

    def test_written_floats_are_the_shared_format(self, tmp_path, capsys, monkeypatch):
        # focusing c W data, so the report has a classification; the last
        # step is short and off the record cadence
        raw = base_config(tmp_path)
        raw["params"] = {"n": 3, "s": 1, "b": "1/2", "sigma": "auto", "lambda": -1.0}
        raw["grid"] = {"kind": "radial", "r_max": 24.0, "points": 256}
        raw["time"] = {"dt_init": 1e-3, "dt_min": 1e-12, "t_end": 0.0105, "record_every": 3}
        raw["initial"] = {"type": "ground_state_scaled", "scale_c": 0.5, "epsilon": 1.0}
        kept = {}

        def keep(module, name):
            function = getattr(module, name)

            def call(*args):
                kept[name] = function(*args)
                return kept[name]

            monkeypatch.setattr(module, name, call)

        keep(dynamics, "run")
        keep(diagnostics, "classify_blowup")
        assert cli.main(["simulate", str(write_config(tmp_path, raw))]) == EXIT_OK
        outcome, threshold = kept["run"], kept["classify_blowup"]
        assert outcome.steps == 11 and len(outcome.series) == 5

        run_dir = next((tmp_path / "runs").iterdir())
        with open(run_dir / "series.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))[1:]
        assert len(rows) == len(outcome.series)
        for row, record in zip(rows, outcome.series):
            for cell, name in zip(row, CSV_COLUMNS, strict=True):
                value = getattr(record, name)
                if value is None:
                    assert cell == "", name
                else:
                    assert cell == repr(float(value)) and float(cell) == value, name

        report = json.loads((run_dir / "report.json").read_text(encoding="utf-8"))
        expected = {("run", "t_final"): outcome.t_final}
        for key, value in dataclasses.asdict(threshold).items():
            if isinstance(value, float):
                expected["classification", key] = value
        canonical = RunConfig(raw).canonical()
        for section, values in canonical.items():
            for key, value in values.items():
                if isinstance(value, float):
                    expected["config", section, key] = value
        assert ("config", "params", "lambda") in expected  # an integral float, -1.0
        numbers = dict(_numbers(report))
        for path, value in expected.items():
            number = numbers.pop(path)
            assert type(number) is float and number == value, path
        # what is left are the counts: steps, records, n, points, ...
        assert all(type(number) is int for number in numbers.values()), numbers

        out = capsys.readouterr().out
        assert f"termination: completed at t = {float(outcome.t_final)!r}\n" in out
