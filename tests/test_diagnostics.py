import csv
import io
import math
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.optimize import brentq

from inls.diagnostics import (
    CSV_COLUMNS,
    DiagnosticsRecord,
    ScaledGroundState,
    classify_blowup,
    cylindrical_phi_R,
    energy,
    localized_virial,
    make_record,
    phi_R_weight,
    second_difference,
    theta_cutoff,
)
from inls.dynamics import SimConfig, run
from inls.exponents import CRITICAL, CriticalityParams, ExponentError, HypothesisViolation
from inls.grids import (
    Field,
    GridSpec,
    PotentialWeight,
    gaussian_field,
    geometry,
    hs_norm,
    mass,
    nonlinear_density,
    radius_sq_values,
    weight_values,
)
from inls.ground_state import GroundStateProfile, compute_quantities
from paper_checks import g_threshold


@pytest.fixture(scope="module")
def gs_quantities():
    return compute_quantities(GroundStateProfile(3, 0.5, 1.0))


class TestEnergy:
    def test_free_energy_is_kinetic(self, free_2d_config):
        u = gaussian_field(free_2d_config.grid, 1.0, 1.0)
        assert energy(u, free_2d_config) == pytest.approx(
            0.5 * hs_norm(u, 1) ** 2, rel=1e-14
        )

    def test_zero_field(self, free_2d_config):
        grid = free_2d_config.grid
        assert energy(Field(grid, np.zeros(grid.shape)), free_2d_config) == 0.0

    def test_large_amplitude_focusing_negative(self, focusing_radial_config):
        u = gaussian_field(focusing_radial_config.grid, 3.0, 1.0 / math.sqrt(2.0))
        assert energy(u, focusing_radial_config) < 0


def virial_rhs(u, cfg):
    return make_record(u, cfg, dt=cfg.dt_init).virial_rhs


def variance(u, cfg):
    return make_record(u, cfg, dt=cfg.dt_init).variance


class TestVirialRhs:
    def test_free_case_is_kinetic_multiple(self, free_2d_config):
        u = gaussian_field(free_2d_config.grid, 1.0, 1.0)
        assert virial_rhs(u, free_2d_config) == pytest.approx(
            8.0 * hs_norm(u, 1) ** 2, rel=1e-14
        )

    def test_zero_field(self, focusing_radial_config):
        grid = focusing_radial_config.grid
        assert virial_rhs(Field(grid, np.zeros(grid.points)), focusing_radial_config) == 0.0

    def test_energy_rearrangement_identity(self, focusing_radial_config):
        # 8|u|_H1^2 - 4(n sig + 2b)/(sig+2) P = 4(n sig + 2b) E - 2(n sig - 4 + 2b)|u|_H1^2
        cfg = focusing_radial_config
        u = gaussian_field(cfg.grid, 1.3, 0.8)
        n, sig, b = cfg.grid.n, cfg.sigma, float(cfg.params.b)
        lhs = virial_rhs(u, cfg)
        rhs = 4 * (n * sig + 2 * b) * energy(u, cfg) - 2 * (n * sig - 4 + 2 * b) * hs_norm(u, 1) ** 2
        assert lhs == pytest.approx(rhs, rel=1e-12)


class TestThetaCutoff:
    def test_quadratic_region(self):
        value, deriv, second = theta_cutoff(0.5)
        assert (value, deriv, second) == (0.25, 1.0, 2.0)

    def test_c1_matching_at_one(self):
        below = theta_cutoff(1.0 - 1e-12)
        above = theta_cutoff(1.0 + 1e-12)
        assert below[0] == pytest.approx(above[0], abs=1e-11)
        assert below[1] == pytest.approx(above[1], abs=1e-11)

    def test_plateau(self):
        assert theta_cutoff(3.0) == (2.0, 0.0, 0.0)
        assert theta_cutoff(2.0)[0] == 2.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            theta_cutoff(-0.1)

    @given(st.floats(min_value=0.0, max_value=10.0, allow_nan=False))
    def test_pointwise_properties(self, r):
        value, deriv, second = theta_cutoff(r)
        assert second <= 2.0
        assert deriv >= 0.0
        assert 0.0 <= value <= min(r * r, 2.0) + 1e-12

    @given(
        st.floats(min_value=0.0, max_value=10.0),
        st.floats(min_value=0.0, max_value=10.0),
    )
    def test_monotone(self, a, b):
        lo, hi = sorted((a, b))
        assert theta_cutoff(lo)[0] <= theta_cutoff(hi)[0] + 1e-12


class TestLocalizedWeights:
    def test_quadratic_inside(self):
        x = np.array([0.0, 1.0, 2.5, 5.0])
        assert np.allclose(phi_R_weight(x, 5.0), x ** 2)

    def test_plateau_outside(self):
        assert phi_R_weight(25.0, 5.0) == pytest.approx(2 * 25.0)

    def test_requires_r_above_one(self):
        with pytest.raises(ValueError):
            phi_R_weight(1.0, 0.5)

    def test_cylindrical_axis(self):
        assert cylindrical_phi_R(0.0, 3.0, 5.0) == pytest.approx(9.0)

    def test_dominated_by_square(self):
        x = np.linspace(0, 30, 301)
        assert np.all(phi_R_weight(x, 4.0) <= x ** 2 + 1e-12)


class TestLocalizedVirial:
    def test_large_radius_recovers_variance(self, free_2d_config):
        u = gaussian_field(free_2d_config.grid, 1.0, 1.0)
        R = free_2d_config.grid.extent  # quadratic region covers the box
        assert localized_virial(u, R) == pytest.approx(variance(u, free_2d_config), rel=1e-10)

    def test_zero_field(self, free_2d_config):
        grid = free_2d_config.grid
        assert localized_virial(Field(grid, np.zeros(grid.shape)), 5.0) == 0.0

    def test_radial_grid_support(self, focusing_radial_config):
        u = gaussian_field(focusing_radial_config.grid, 1.0, 1.0)
        R = 2 * focusing_radial_config.grid.r_max
        assert localized_virial(u, R) == pytest.approx(
            variance(u, focusing_radial_config), rel=1e-12
        )

    def test_bounded_by_variance(self, free_2d_config):
        u = gaussian_field(free_2d_config.grid, 1.0, 2.0)
        assert localized_virial(u, 2.0) <= variance(u, free_2d_config) + 1e-12


class TestThresholdFunction:
    def test_zero(self, gs_quantities):
        assert g_threshold(0.0, gs_quantities) == 0.0

    def test_value_at_bubble_norm(self, gs_quantities):
        h1w = math.sqrt(gs_quantities.h1dot_sq)
        assert g_threshold(h1w, gs_quantities) == pytest.approx(
            gs_quantities.energy, rel=1e-6
        )

    def test_rejects_negative(self, gs_quantities):
        with pytest.raises(ValueError):
            g_threshold(-1.0, gs_quantities)


class TestClassifier:
    def test_scaled_above_threshold(self, focusing_radial_config, gs_quantities):
        report = classify_blowup(
            ScaledGroundState(1.2), focusing_radial_config, gs_quantities, "radial"
        )
        assert report.case == "below_ground_state_above_norm"
        assert report.e0 / gs_quantities.h1dot_sq == pytest.approx(0.222336, abs=1e-12)
        assert report.e_w / gs_quantities.h1dot_sq == pytest.approx(0.3, rel=1e-8)
        assert report.h1_0 == pytest.approx(1.2 * report.h1_w, rel=1e-14)
        assert report.delta == pytest.approx(1.0 - 0.222336 / 0.3, rel=1e-6)

    def test_scaled_below_threshold(self, focusing_radial_config, gs_quantities):
        report = classify_blowup(
            ScaledGroundState(0.5), focusing_radial_config, gs_quantities, "radial"
        )
        assert report.case == "no_verdict"
        assert report.delta is None

    def test_negative_energy_field(self, focusing_radial_config, gs_quantities):
        u0 = gaussian_field(focusing_radial_config.grid, 3.0, 1.0 / math.sqrt(2.0))
        report = classify_blowup(u0, focusing_radial_config, gs_quantities, "finite_variance")
        assert report.case == "negative_energy"

    def test_rejects_field_with_non_finite_energy(self, focusing_radial_config, gs_quantities):
        # w |u|^5 overflows at amplitude 1e110: E(u0) = -inf was reported
        # as negative_energy
        u0 = gaussian_field(focusing_radial_config.grid, 1e110, 1.0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="floating-point range"):
                classify_blowup(u0, focusing_radial_config, gs_quantities, "radial")

    def test_rejects_noncritical_sigma(self, gs_quantities):
        grid = GridSpec.radial(3, 12.0, 64)
        params = CriticalityParams(
            n=3, s=Fraction(1), b=Fraction(1, 2), sigma=Fraction(2), lambda_sign="focusing"
        )
        cfg = SimConfig(
            params=params,
            grid=grid,
            weight=PotentialWeight(b=0.5, delta=0.0),
            lam=-1.0,
            dt_init=1e-3,
            t_end=1.0,
            dt_min=1e-9,
        )
        with pytest.raises(ValueError):
            classify_blowup(ScaledGroundState(1.2), cfg, gs_quantities, "radial")

    def test_rejects_defocusing(self, focusing_radial_config, gs_quantities):
        cfg = replace(focusing_radial_config, lam=1.0)
        with pytest.raises(ValueError):
            classify_blowup(ScaledGroundState(1.2), cfg, gs_quantities, "radial")

    def test_cylindrical_gate(self, focusing_radial_config, gs_quantities):
        # b = 1/2 < 4 - n = 1 rejects the cylindrical symmetry claim
        with pytest.raises(ValueError):
            classify_blowup(
                ScaledGroundState(1.2), focusing_radial_config, gs_quantities, "cylindrical"
            )

    def test_rejects_misspelt_symmetry(self, focusing_radial_config, gs_quantities):
        # a misspelling must not pass for a symmetry without the b >= 4-n gate
        with pytest.raises(ExponentError, match="unknown symmetry 'Cylindrical'"):
            classify_blowup(
                ScaledGroundState(1.2), focusing_radial_config, gs_quantities, "Cylindrical"
            )

    def test_rejects_bubble_of_another_equation(self, focusing_radial_config):
        # an n = 4, b = 1/4 bubble against an n = 3, b = 1/2 run: its E(W) and
        # |W|_H1 belong to another equation
        other = compute_quantities(GroundStateProfile(4, 0.25, 1.0))
        with pytest.raises(ValueError, match="ground state"):
            classify_blowup(ScaledGroundState(1.2), focusing_radial_config, other, "radial")
        # epsilon may differ: the bubble's family is fixed by (n, b)
        wider = compute_quantities(GroundStateProfile(3, 0.5, 2.0))
        classify_blowup(ScaledGroundState(1.2), focusing_radial_config, wider, "radial")

    def test_rejects_b_outside_blowup_criterion(self, focusing_radial_config):
        # n = 3, b = 7/4: sigma = (4-2b)/(n-2) = 1/2 is energy-critical, but
        # b >= min(2, n/2) = 3/2 is outside the paper's blow-up criterion
        params = CriticalityParams(
            n=3, s=Fraction(1), b=Fraction(7, 4), sigma=CRITICAL, lambda_sign="focusing"
        )
        cfg = replace(focusing_radial_config, params=params, weight=PotentialWeight(b=1.75))
        gs = compute_quantities(GroundStateProfile(3, 1.75, 1.0))
        with pytest.raises(HypothesisViolation, match=r"0 < b < min\(2, n/2\)"):
            classify_blowup(ScaledGroundState(1.2), cfg, gs, "radial")

    def test_verdict_boundaries_by_bisection(self, focusing_radial_config, gs_quantities):
        def case_of(c):
            return classify_blowup(
                ScaledGroundState(c), focusing_radial_config, gs_quantities, "radial"
            ).case

        # norm boundary at c = 1
        lo, hi = 0.5, 1.5
        assert case_of(lo) == "no_verdict"
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if case_of(mid) == "no_verdict":
                lo = mid
            else:
                hi = mid
        assert hi - lo < 1e-12
        assert abs(0.5 * (lo + hi) - 1.0) < 1e-6

        # energy-sign boundary where E(cW) crosses zero
        sig1 = gs_quantities.profile.sigma1
        c_star = ((sig1 + 2) / 2.0) ** (1.0 / sig1)
        lo, hi = 1.2, 2.0
        assert case_of(lo) == "below_ground_state_above_norm"
        assert case_of(hi) == "negative_energy"
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if case_of(mid) == "below_ground_state_above_norm":
                lo = mid
            else:
                hi = mid
        bisected = 0.5 * (lo + hi)
        # independent root-finder on the scaled-energy polynomial
        root = brentq(lambda c: 0.5 * c ** 2 - c ** (sig1 + 2) / (sig1 + 2), 1.05, 3.0)
        assert abs(bisected - root) < 1e-6
        assert root == pytest.approx(c_star, rel=1e-12)


def _old_record_fields(u, cfg, h1sq):
    """The per-quantity formulas ``make_record`` used before the one-pass
    record: |u| by hypot and one density array per integral."""
    grid = u.grid

    def integrate(density):
        if grid.kind == "tensor":
            return float(np.sum(density) * grid.cell_measure)
        return float(np.sum(density * geometry(grid).weights))

    v = u.values
    density = np.abs(v) ** 2
    pot = integrate(weight_values(grid, cfg.weight) * np.abs(v) ** (cfg.sigma + 2.0))
    if grid.kind == "tensor":
        shell = np.zeros(grid.shape, dtype=bool)
        for c in geometry(grid).mesh:
            shell |= np.abs(c) >= 0.45 * grid.extent
        outer = float(np.sum(density[shell]) * grid.cell_measure)
    else:
        shell = geometry(grid).radii >= 0.9 * grid.r_max
        outer = float(np.sum((density * geometry(grid).weights)[shell]))
    total = integrate(density)
    n, sig, b = grid.n, cfg.sigma, float(cfg.params.b)
    return {
        "mass": float(np.dot(geometry(grid).weights, v.real**2 + v.imag**2))
        if grid.kind == "radial"
        else total,
        "energy": 0.5 * h1sq + cfg.lam / (sig + 2.0) * pot,
        "weighted_potential": pot,
        "variance": integrate(radius_sq_values(grid) * density),
        "virial_rhs": 8.0 * h1sq + 4.0 * cfg.lam * (n * sig + 2.0 * b) / (sig + 2.0) * pot,
        "boundary_mass_fraction": 0.0 if total == 0.0 else outer / total,
        "max_amp": float(np.max(np.abs(v))),
    }


def _record_config(kind, n, sigma):
    if kind == "radial":
        grid, delta = GridSpec.radial(n, 10.0, 256), 0.0
    else:
        grid = GridSpec.tensor(n, 12.0, 32)
        delta = grid.spacing
    params = CriticalityParams(
        n=n, s=Fraction(1, 2), b=Fraction(1, 2), sigma=sigma, lambda_sign="focusing"
    )
    return SimConfig(
        params=params,
        grid=grid,
        weight=PotentialWeight(b=0.5, delta=delta),
        lam=-1.0,
        dt_init=1e-3,
        t_end=0.1,
        dt_min=1e-12,
    )


def _record_field(grid):
    """A wide, phase-twisted, noisy Gaussian with mass in the outer shell."""
    rng = np.random.default_rng(grid.n)
    width = 0.5 * grid.r_max if grid.kind == "radial" else 0.3 * grid.extent
    u = gaussian_field(grid, 1.7, width)
    noise = rng.normal(size=grid.shape) + 1j * rng.normal(size=grid.shape)
    rsq = radius_sq_values(grid)
    return Field(grid, u.values * np.exp(0.3j * rsq) * (1.0 + 0.05 * noise))


_RECORD_CASES = [
    (kind, n, sigma)
    for kind, dims in (("radial", (3, 4, 5)), ("tensor", (1, 2, 3)))
    for n in dims
    for sigma in (Fraction(2), Fraction(3), Fraction(4, 3))  # even, odd, ** path
]


class TestRecords:
    @pytest.mark.parametrize("kind, n, sigma", _RECORD_CASES)
    def test_one_pass_matches_old_formulas(self, kind, n, sigma):
        cfg = _record_config(kind, n, sigma)
        u = _record_field(cfg.grid)
        record = make_record(u, cfg, dt=1e-3)
        assert record.h1dot_sq == hs_norm(u, 1) ** 2
        old = _old_record_fields(u, cfg, record.h1dot_sq)
        assert 0.01 < old["boundary_mass_fraction"] < 0.9
        for name, expected in old.items():
            assert abs(getattr(record, name) - expected) <= 1e-14 * abs(expected), name

    @pytest.mark.parametrize("kind, n, sigma", _RECORD_CASES)
    def test_single_quantities_equal_record(self, kind, n, sigma):
        # run takes a non-record step's live mass from grids.mass and a
        # record step's from the record; energy() and a passed-in density
        # give the record's own numbers
        cfg = _record_config(kind, n, sigma)
        u = _record_field(cfg.grid)
        record = make_record(u, cfg, dt=cfg.dt_init)
        assert record.mass == mass(u)
        assert record.energy == energy(u, cfg)
        density = nonlinear_density(u, cfg.weight, cfg.sigma)
        assert make_record(u, cfg, cfg.dt_init, density=density) == record

    @pytest.mark.parametrize("kind", ["radial", "tensor"])
    def test_run_records_use_the_current_density(self, kind):
        # a run's records take the potential from the stepper's carried
        # density; a stale one (a step behind) is off by O(dt)
        cfg = replace(_record_config(kind, 3, Fraction(2)), t_end=0.02)
        outcome = run(cfg, gaussian_field(cfg.grid, 1.0, 1.0))
        assert outcome.termination == "completed" and outcome.steps == 20
        last = outcome.series[-1]
        fresh = make_record(outcome.final_field, cfg, last.dt)
        if kind == "radial":
            assert last == fresh
            return
        # the tensor density is taken before the unit-modulus half-phase
        for name in CSV_COLUMNS:
            expected = getattr(fresh, name)
            if name in ("energy", "weighted_potential", "virial_rhs"):
                assert abs(getattr(last, name) - expected) <= 1e-14 * abs(expected), name
            else:
                assert getattr(last, name) == expected, name

    @pytest.mark.parametrize("kind, n", [("radial", 3), ("tensor", 2)])
    def test_zero_field(self, kind, n):
        cfg = _record_config(kind, n, Fraction(2))
        u = Field(cfg.grid, np.zeros(cfg.grid.shape))
        record = make_record(u, cfg, dt=1e-3)
        assert record.boundary_mass_fraction == 0.0 and record.max_amp == 0.0
        assert record.mass == record.variance == record.weighted_potential == 0.0
        assert record.energy == record.virial_rhs == 0.0

    def test_peak_memory_not_above_old_formulas(self):
        cfg = _record_config("tensor", 3, Fraction(2))
        u = _record_field(cfg.grid)
        h1sq = hs_norm(u, 1) ** 2
        peaks = []
        for compute in (
            lambda: _old_record_fields(u, cfg, h1sq),
            lambda: make_record(u, cfg, 1e-3, h1sq),
        ):
            compute()  # warm every cache first
            tracemalloc.start()
            compute()
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        old_peak, new_peak = peaks
        assert new_peak <= old_peak

    def test_csv_row_cells(self):
        values = dict(
            t=0.1, mass=1.0 / 3.0, energy=-2.5e-300, h1dot_sq=float("inf"),
            weighted_potential=-0.0, variance=None, virial_rhs=7.0, localized_virial=None,
            boundary_mass_fraction=0.0, dt=1e-3, max_amp=float("nan"),
        )
        row = DiagnosticsRecord(**values).csv_row()
        # the cells are the record's values; csv.writer writes a float as its
        # shortest round-trip text and None as an empty cell
        assert all(cell is values[name] for cell, name in zip(row, CSV_COLUMNS, strict=True))
        text = io.StringIO()
        csv.writer(text).writerow(row)
        assert text.getvalue() == "0.1,0.3333333333333333,-2.5e-300,inf,-0.0,,7.0,,0.0,0.001,nan\r\n"

    def test_record_energy_identity(self, defocusing_2d_config):
        u = gaussian_field(defocusing_2d_config.grid, 1.0, 1.0)
        record = make_record(u, defocusing_2d_config, dt=1e-3)
        cfg = defocusing_2d_config
        recombined = 0.5 * record.h1dot_sq + cfg.lam / (cfg.sigma + 2.0) * record.weighted_potential
        assert record.energy == pytest.approx(recombined, abs=4 * np.finfo(float).eps * abs(record.energy))

    def test_record_columns(self, defocusing_2d_config):
        u = gaussian_field(defocusing_2d_config.grid, 1.0, 1.0)
        record = make_record(u, defocusing_2d_config, dt=1e-3)
        row = record.csv_row()
        assert len(row) == len(CSV_COLUMNS)
        assert row[CSV_COLUMNS.index("localized_virial")] is None  # absent

    def test_max_amp(self, defocusing_2d_config):
        u = gaussian_field(defocusing_2d_config.grid, 2.5, 1.0)
        record = make_record(u, defocusing_2d_config, dt=1e-3)
        assert record.max_amp == pytest.approx(2.5, rel=1e-12)


class TestVirialConsistency:
    def test_free_virial_law(self, free_2d_config):
        # variance(t) = variance(0) + 4 t^2 |u0|_H1^2 for real free data
        cfg = replace(free_2d_config, t_end=0.5, record_every=1, dt_init=2e-3)
        u0 = gaussian_field(cfg.grid, math.pi ** -0.5, 1.0)
        h1sq = hs_norm(u0, 1) ** 2
        outcome = run(cfg, u0)
        assert outcome.termination == "completed"
        v0 = outcome.series[0].variance
        for record in outcome.series:
            law = v0 + 4.0 * record.t ** 2 * h1sq
            assert record.variance == pytest.approx(law, rel=1e-4)
            assert record.boundary_mass_fraction < 1e-6

    def test_second_difference_matches_rhs_focusing(self):
        # off-center data keeps the regularized origin out of the support,
        # so the power-weight identity closes at the discrete level
        grid = GridSpec.tensor(2, 24.0, 256)
        params = CriticalityParams(
            n=2, s=Fraction(1, 2), b=Fraction(1, 2), sigma=Fraction(2), lambda_sign="focusing"
        )
        cfg = SimConfig(
            params=params,
            grid=grid,
            weight=PotentialWeight(b=0.5, delta=grid.spacing),
            lam=-1.0,
            dt_init=1e-3,
            t_end=0.12,
            dt_min=1e-12,
            record_every=1,
        )
        u0 = gaussian_field(grid, 1.0, 1.0, center=(3.0, 0.0))
        outcome = run(cfg, u0)
        assert outcome.termination == "completed"
        t = np.array([r.t for r in outcome.series])
        v = np.array([r.variance for r in outcome.series])
        rhs = np.array([r.virial_rhs for r in outcome.series])
        d2 = second_difference(t, v)
        residual = np.abs(d2[1:-1] - rhs[1:-1]) / np.abs(rhs[1:-1])
        assert np.max(residual) <= 1e-3

    def test_second_difference_exact_on_quadratic(self):
        t = np.array([0.0, 0.1, 0.25, 0.5, 0.6])  # nonuniform
        v = 3.0 - 2.0 * t + 4.5 * t ** 2
        d2 = second_difference(t, v)
        assert np.allclose(d2[1:-1], 9.0, rtol=1e-12)
        assert np.isnan(d2[0]) and np.isnan(d2[-1])
