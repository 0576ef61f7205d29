import dataclasses
import gc
import math
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import numpy.linalg as la
import pytest
import scipy.fft
import scipy.linalg

from inls import dynamics, exponents, grids, ground_state
from inls.diagnostics import make_record
from inls.dynamics import (
    SimConfig,
    StepState,
    adapt_dt,
    nonlinear_density,
    radial_cn_step,
    run,
    settle,
    start_state,
    strang_step,
)
from inls.exponents import CRITICAL, CriticalityParams
from inls.grids import (
    Field,
    GridSpec,
    PotentialWeight,
    gaussian_field,
    geometry,
    hs_norm,
    mass,
    weight_values,
)
from paper_checks import wavenumber_sq_values


class TestStrangStep:
    def test_free_semigroup_property(self, free_2d_config):
        u0 = gaussian_field(free_2d_config.grid, 1.0, 1.0)
        twice = strang_step(strang_step(u0, free_2d_config, 0.01)[0], free_2d_config, 0.01)[0]
        once = strang_step(u0, free_2d_config, 0.02)[0]
        assert la.norm(twice.values - once.values) / la.norm(once.values) < 1e-13

    def test_single_mode_phase(self, free_2d_config):
        grid = free_2d_config.grid
        xs = geometry(grid).mesh
        xi = (2 * math.pi * 3 / grid.extent, 2 * math.pi * 1 / grid.extent)
        u = Field(grid, np.exp(1j * (xi[0] * xs[0] + xi[1] * xs[1])))
        dt = 0.0173
        stepped = strang_step(u, free_2d_config, dt)[0]
        expected = u.values * np.exp(-1j * dt * (xi[0] ** 2 + xi[1] ** 2))
        assert np.max(np.abs(stepped.values - expected)) < 1e-12

    def test_mass_preserved_per_step(self, defocusing_2d_config):
        u = gaussian_field(defocusing_2d_config.grid, 1.0, 1.0)
        m0 = mass(u)
        stepped = strang_step(u, defocusing_2d_config, 1e-3)[0]
        assert abs(mass(stepped) - m0) / m0 < 1e-12

    def test_free_time_reversal(self, free_2d_config):
        u0 = gaussian_field(free_2d_config.grid, 1.0, 1.0)
        back = strang_step(strang_step(u0, free_2d_config, 0.02)[0], free_2d_config, -0.02)[0]
        assert la.norm(back.values - u0.values) / la.norm(u0.values) < 1e-12

    @pytest.mark.parametrize("lam", [1.0, -1.0])
    @pytest.mark.parametrize("n, points, extent", [(2, 64, 16.0), (3, 32, 12.0)])
    def test_nonlinear_time_reversal(self, n, points, extent, lam):
        # the half-phases keep |u|, so S(-dt) undoes S(dt) exactly; a step
        # that reused the carried factor built for +dt at -dt would miss u0
        # by ~5e-3
        grid = GridSpec.tensor(n, extent, points)
        params = CriticalityParams(
            n=n, s=Fraction(n - 1, 2), b=Fraction(1, 2), sigma=Fraction(2) if n == 2 else CRITICAL
        )
        cfg = SimConfig(
            params=params,
            grid=grid,
            weight=PotentialWeight(b=0.5, delta=grid.spacing),
            lam=lam,
            dt_init=1e-2,
            t_end=1.0,
            dt_min=1e-12,
        )
        u0 = gaussian_field(grid, 1.0, 1.0)
        u, state = u0, None
        for dt in [1e-2] * 20 + [-1e-2] * 20:
            u, state = strang_step(u, cfg, dt, state)
        assert np.max(np.abs(u.values - u0.values)) <= 1e-12 * np.max(np.abs(u0.values))

    def test_rejects_radial_grid(self, focusing_radial_config):
        u = gaussian_field(focusing_radial_config.grid, 1.0, 1.0)
        with pytest.raises(ValueError):
            strang_step(u, focusing_radial_config, 1e-3)

    def test_self_convergence_order(self, defocusing_2d_config):
        def final(dt):
            u = gaussian_field(defocusing_2d_config.grid, 1.0, 1.0)
            for _ in range(round(0.1 / dt)):
                u = strang_step(u, defocusing_2d_config, dt)[0]
            return u.values

        coarse, mid, fine = final(4e-3), final(2e-3), final(1e-3)
        order = math.log2(la.norm(coarse - mid) / la.norm(mid - fine))
        assert 1.8 <= order <= 2.2


class TestUnitPhase:
    """``_unit_phase`` builds exp(i theta) from tan(theta/2); cos + i sin is
    the oracle."""

    @pytest.mark.parametrize("bound", [1e-6, 0.5, 3.2, 1e4])
    def test_matches_cos_and_sin(self, bound):
        theta = np.random.default_rng(7).uniform(-bound, bound, 100_000)
        half = 0.5 * theta
        factor = dynamics._unit_phase(half)
        assert not np.array_equal(half, 0.5 * theta)  # consumed as scratch
        assert np.max(np.abs(factor.real - np.cos(theta))) <= 1e-15
        assert np.max(np.abs(factor.imag - np.sin(theta))) <= 1e-15
        assert np.max(np.abs(np.abs(factor) ** 2 - 1.0)) <= 2e-15

    def test_modulus_error_as_small_as_cos_and_sin(self):
        # the rms of |e|^2 - 1 drives the mass random walk of a long run;
        # cos = 2/(1 + t^2) - 1 would quadruple it
        theta = np.random.default_rng(11).uniform(-0.5, 0.5, 100_000)
        factor = dynamics._unit_phase(0.5 * theta)

        def rms(re, im):
            return np.sqrt(np.mean((re * re + im * im - 1.0) ** 2))

        assert rms(factor.real, factor.imag) <= 1.25 * rms(np.cos(theta), np.sin(theta))

    def test_exact_at_zero_and_pi(self):
        theta = np.array([0.0, math.pi, -math.pi])
        factor = dynamics._unit_phase(0.5 * theta)
        assert np.array_equal(factor.real, [1.0, -1.0, -1.0])
        assert np.array_equal(factor.imag, np.sin(theta))

    def test_non_finite_angle_gives_nan(self):
        with np.errstate(invalid="ignore"):
            factor = dynamics._unit_phase(np.array([math.nan, math.inf, -math.inf]))
        assert np.all(np.isnan(factor.real)) and np.all(np.isnan(factor.imag))

    def test_callers_fold_the_halving_bit_for_bit(self):
        # -0.25 dt lam and -0.5 dt are exact halves of the full multipliers
        cfg = _focusing_3d_config()
        dt = 7e-4
        density = nonlinear_density(gaussian_field(cfg.grid, 1.0, 1.0), cfg)
        halved = 0.5 * (density * (-0.5 * dt * cfg.lam))
        assert np.array_equal(dynamics._half_phase(density, cfg, dt), dynamics._unit_phase(halved))
        dynamics._kinetic_propagator.cache_clear()
        xi = geometry(cfg.grid).wavenumber_axis
        halved = 0.5 * (-dt * xi**2)
        axis, _ = dynamics._kinetic_propagator(cfg.grid, dt)
        assert np.array_equal(axis, dynamics._unit_phase(halved))

    def test_half_phase_allocates_only_its_output(self):
        cfg = _focusing_3d_config()  # 32^3
        density = nonlinear_density(gaussian_field(cfg.grid, 1.0, 1.0), cfg)
        angle = np.empty(cfg.grid.shape)
        tracemalloc.start()
        try:
            factor = dynamics._half_phase(density, cfg, 1e-3, angle)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= factor.nbytes + 4096  # bytes: no full-size temporary

    def test_half_phase_into_out_allocates_no_field(self):
        cfg = _focusing_3d_config()  # 32^3
        density = nonlinear_density(gaussian_field(cfg.grid, 1.0, 1.0), cfg)
        angle = np.empty(cfg.grid.shape)
        buf = np.empty(cfg.grid.shape, dtype=np.complex128)
        tracemalloc.start()
        try:
            factor = dynamics._half_phase(density, cfg, 1e-3, angle, buf)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert factor is buf and peak <= 4096  # bytes: not even its output
        assert np.array_equal(factor, dynamics._half_phase(density, cfg, 1e-3))

    def test_long_run_mass_drift(self):
        # 3,000 focusing steps at 16^3 with dt switching every 7 steps, so
        # both the carried and the rebuilt factors and propagators are used
        cfg = replace(_focusing_3d_config(), grid=GridSpec.tensor(3, 12.0, 16))
        u = gaussian_field(cfg.grid, 1.0, 2.0)  # reads 2.4e-13 with cos + i sin
        m0 = mass(u)
        state = None
        drift = 0.0
        for k in range(3000):
            u, state = strang_step(u, cfg, 1e-3 if (k // 7) % 2 else 7e-4, state)
            drift = max(drift, abs(mass(u) - m0) / m0)
        assert drift <= 5e-13


class TestRadialStep:
    def test_zero_field_fixed_point(self, focusing_radial_config):
        grid = focusing_radial_config.grid
        u = Field(grid, np.zeros(grid.points))
        stepped, _ = radial_cn_step(u, focusing_radial_config, 1e-3)
        assert np.all(stepped.values == 0)

    def test_mass_conservation(self, focusing_radial_config):
        u = gaussian_field(focusing_radial_config.grid, 0.5, 1.0)
        m0 = mass(u)
        state = None
        for _ in range(200):
            u, state = radial_cn_step(u, focusing_radial_config, 1e-3, state)
        assert abs(mass(u) - m0) / m0 < 1e-11

    def test_self_convergence_order_smooth(self):
        # regularized weight keeps the semi-discrete flow nonstiff so the
        # dt-refinement study sits in the asymptotic second-order regime
        grid = GridSpec.radial(3, 12.0, 1024)
        params = CriticalityParams(
            n=3, s=Fraction(1), b=Fraction(1, 2), sigma=CRITICAL, lambda_sign="focusing"
        )
        cfg = SimConfig(
            params=params,
            grid=grid,
            weight=PotentialWeight(b=0.5, delta=0.5),
            lam=-1.0,
            dt_init=1e-3,
            t_end=0.2,
            dt_min=1e-12,
        )

        def final(dt):
            u = gaussian_field(grid, 1.0, 1.0)
            state = None
            for _ in range(round(0.2 / dt)):
                u, state = radial_cn_step(u, cfg, dt, state)
            return u.values

        coarse, mid, fine = final(2e-3), final(1e-3), final(5e-4)
        order = math.log2(la.norm(coarse - mid) / la.norm(mid - fine))
        assert 1.8 <= order <= 2.2

    def test_rejects_tensor_grid(self, free_2d_config):
        u = gaussian_field(free_2d_config.grid, 1.0, 1.0)
        with pytest.raises(ValueError):
            radial_cn_step(u, free_2d_config, 1e-3)


class TestAdaptDt:
    def test_zero_field_gives_dt_init(self, focusing_radial_config):
        grid = focusing_radial_config.grid
        u = Field(grid, np.zeros(grid.points))
        cfg = focusing_radial_config
        assert adapt_dt(start_state(u, cfg), cfg) == cfg.dt_init

    def test_free_run_gives_dt_init(self, free_2d_config):
        u = gaussian_field(free_2d_config.grid, 100.0, 1.0)
        assert adapt_dt(start_state(u, free_2d_config), free_2d_config) == free_2d_config.dt_init

    def test_amplitude_scaling(self, focusing_radial_config):
        cfg = replace(focusing_radial_config, dt_init=10.0)
        u = gaussian_field(cfg.grid, 5.0, 1.0)
        doubled = Field(cfg.grid, 2.0 * u.values)
        dt1 = adapt_dt(start_state(u, cfg), cfg)
        dt2 = adapt_dt(start_state(doubled, cfg), cfg)
        assert dt2 == pytest.approx(dt1 * 2.0 ** -cfg.sigma, rel=1e-12)

    def test_clamped_at_dt_min(self, focusing_radial_config):
        cfg = replace(focusing_radial_config, dt_min=1e-4)
        u = gaussian_field(cfg.grid, 1e4, 1.0)
        assert adapt_dt(start_state(u, cfg), cfg) == cfg.dt_min


class TestRun:
    def test_free_gaussian_completes(self, free_2d_config):
        cfg = replace(free_2d_config, t_end=1.0, record_every=100)
        u0 = gaussian_field(cfg.grid, math.pi ** -0.5, 1.0)
        outcome = run(cfg, u0)
        assert outcome.termination == "completed"
        assert outcome.t_final >= cfg.t_end * (1 - 1e-12)
        masses = [r.mass for r in outcome.series]
        assert abs(masses[-1] - masses[0]) / masses[0] < 1e-9
        times = [r.t for r in outcome.series]
        assert all(a < b for a, b in zip(times, times[1:]))

    def test_energy_drift_smooth_run(self, defocusing_2d_config):
        cfg = replace(defocusing_2d_config, t_end=0.5, record_every=50)
        u0 = gaussian_field(cfg.grid, 1.0, 1.0)
        outcome = run(cfg, u0)
        assert outcome.termination == "completed"
        energies = [r.energy for r in outcome.series]
        assert abs(energies[-1] - energies[0]) / abs(energies[0]) < 1e-6

    def test_dt_underflow_forced(self, focusing_radial_config):
        cfg = replace(focusing_radial_config, dt_init=1e-3, dt_min=0.9e-3)
        u0 = gaussian_field(cfg.grid, 50.0, 1.0)  # violent data pins dt at once
        outcome = run(cfg, u0)
        assert outcome.termination == "dt_underflow"

    def test_blowup_detection(self):
        grid = GridSpec.radial(3, 16.0, 256)
        params = CriticalityParams(
            n=3, s=Fraction(1), b=Fraction(1, 2), sigma=CRITICAL, lambda_sign="focusing"
        )
        cfg = SimConfig(
            params=params,
            grid=grid,
            weight=PotentialWeight(b=0.5, delta=0.0),
            lam=-1.0,
            dt_init=2e-3,
            t_end=1.0,
            dt_min=1e-15,
            blowup_ratio=5.0,
            record_every=100,
        )
        u0 = gaussian_field(grid, 3.0, 1.0 / math.sqrt(2.0))
        outcome = run(cfg, u0)
        assert outcome.termination == "blowup_detected"
        h1_first = math.sqrt(outcome.series[0].h1dot_sq)
        h1_last = math.sqrt(outcome.series[-1].h1dot_sq)
        assert h1_last >= 5.0 * h1_first
        assert outcome.t_final < 1.0

    def test_gauge_covariance(self, defocusing_2d_config):
        cfg = replace(defocusing_2d_config, t_end=0.05)
        u0 = gaussian_field(cfg.grid, 1.0, 1.0)
        rotated = Field(cfg.grid, u0.values * np.exp(0.41j))
        out_a = run(cfg, u0)
        out_b = run(cfg, rotated)
        diff = np.abs(out_a.final_field.values) - np.abs(out_b.final_field.values)
        assert np.max(np.abs(diff)) < 1e-12

    def test_grid_mismatch_rejected(self, free_2d_config):
        other = GridSpec.tensor(2, 10.0, 32)
        with pytest.raises(ValueError):
            run(free_2d_config, gaussian_field(other, 1.0, 1.0))

    @pytest.mark.parametrize("record_every", [1, 3, 7])
    def test_last_row_carries_the_step_taken(self, record_every):
        # ten steps of dt_init, then a short step of 0.005 to t_end: on and
        # off the record cadence, the last row's dt is that step's size
        cfg = _radial_config(lam=1.0, dt_init=0.01, t_end=0.105, record_every=record_every)
        u0 = gaussian_field(cfg.grid, 0.5, 1.0)
        t_prev = run(replace(cfg, record_every=1), u0).series[-2].t
        outcome = run(cfg, u0)
        assert outcome.termination == "completed" and outcome.steps == 11
        last = outcome.series[-1]
        assert last.t == outcome.t_final == cfg.t_end
        assert last.dt == last.t - t_prev == pytest.approx(0.005, rel=1e-12)
        assert [r.dt for r in outcome.series[1:-1]] == [0.01] * (10 // record_every)


class TestSimConfigValidation:
    def test_dt_ordering(self, free_2d_config):
        with pytest.raises(ValueError):
            replace(free_2d_config, dt_min=1.0)

    def test_safety_range(self, free_2d_config):
        with pytest.raises(ValueError):
            replace(free_2d_config, safety=1.0)

    def test_blowup_ratio_range(self, free_2d_config):
        with pytest.raises(ValueError):
            replace(free_2d_config, blowup_ratio=1.0)

    @pytest.mark.parametrize("name", ["lam", "dt_init", "t_end", "dt_min"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_run_numbers_finite(self, free_2d_config, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            replace(free_2d_config, **{name: value})

    @pytest.mark.parametrize("value", [2.5, True, 0, -1])
    def test_record_every_refused(self, free_2d_config, value):
        # as the CLI schema: not truncated, not read as 1
        with pytest.raises(ValueError, match="record_every must be a positive integer"):
            replace(free_2d_config, record_every=value)

    def test_record_every_accepted(self, free_2d_config):
        assert replace(free_2d_config, record_every=3).record_every == 3

    def test_grid_dimension_must_match_params(self, free_2d_config):
        # records take n from the grid: a 3-d box under 2-d params would
        # report a wrong virial_rhs
        with pytest.raises(ValueError, match="grid.n = 3 differs from params.n = 2"):
            replace(free_2d_config, grid=GridSpec.tensor(3, 20.0, 16))

    def test_weight_b_must_match_params(self, free_2d_config):
        # the stepper takes b from the weight, records and the hypothesis
        # checks from params
        weight = PotentialWeight(b=0.75, delta=free_2d_config.weight.delta)
        with pytest.raises(ValueError, match="weight.b = 0.75 differs from params.b = 1/2"):
            replace(free_2d_config, weight=weight)


# -- oracles: the steppers as first written, before per-run constants were
# cached and the phases built from real angles ------------------------------

def _reference_radial_step(v, cfg, dt, phi):
    grid = cfg.grid
    density = weight_values(grid, cfg.weight) * np.abs(v) ** cfg.sigma
    if phi is None:
        phi = density
    phi_next = 2.0 * density - phi
    upper, diag, lower = geometry(grid).bands.real  # solve_banded rows
    m_diag = diag - cfg.lam * phi_next
    half = 0.5j * dt
    rhs = v + half * (m_diag * v)
    rhs[:-1] += half * upper[1:] * v[1:]
    rhs[1:] += half * lower[:-1] * v[:-1]
    ab = np.zeros((3, grid.points), dtype=np.complex128)
    ab[0, 1:] = -half * upper[1:]
    ab[1, :] = 1.0 - half * m_diag
    ab[2, :-1] = -half * lower[:-1]
    return scipy.linalg.solve_banded((1, 1), ab, rhs), phi_next


def _reference_strang_step(v, cfg, dt):
    grid = cfg.grid
    w = weight_values(grid, cfg.weight)
    if cfg.lam != 0.0:
        v = v * np.exp(-0.5j * dt * cfg.lam * w * np.abs(v) ** cfg.sigma)
    vhat = scipy.fft.fftn(v)
    vhat *= np.exp(-1j * dt * wavenumber_sq_values(grid))
    v = scipy.fft.ifftn(vhat)
    if cfg.lam != 0.0:
        v = v * np.exp(-0.5j * dt * cfg.lam * w * np.abs(v) ** cfg.sigma)
    return v


def _focusing_3d_config():
    grid = GridSpec.tensor(3, 12.0, 32)
    params = CriticalityParams(
        n=3, s=Fraction(1), b=Fraction(1, 2), sigma=CRITICAL, lambda_sign="focusing"
    )
    return SimConfig(
        params=params,
        grid=grid,
        weight=PotentialWeight(b=0.5, delta=0.25),
        lam=-1.0,
        dt_init=1e-3,
        t_end=0.1,
        dt_min=1e-12,
    )


class TestMatchesOriginalSteppers:
    def test_radial_step_with_varying_dt(self):
        grid = GridSpec.radial(3, 16.0, 512)
        params = CriticalityParams(
            n=3, s=Fraction(1), b=Fraction(1, 2), sigma=CRITICAL, lambda_sign="focusing"
        )
        cfg = SimConfig(
            params=params,
            grid=grid,
            weight=PotentialWeight(b=0.5, delta=0.0),
            lam=-1.0,
            dt_init=1e-3,
            t_end=1.0,
            dt_min=1e-12,
        )
        # The Cayley form rounds differently from the matrix-product form, so
        # each step is compared from the same input: from step ~100 on the
        # fixed-dt collapse is under-resolved and amplifies any rounding
        # difference between two whole trajectories by orders of magnitude.
        v, phi_ref = gaussian_field(grid, 1.5, 1.0).values, None
        for k in range(200):
            dt = 1e-3 * (1.0 + 0.5 * math.sin(0.7 * k))
            u = Field(grid, v)
            u, state = radial_cn_step(u, cfg, dt, StepState(nonlinear_density(u, cfg), phi_ref))
            v, phi_ref = _reference_radial_step(v, cfg, dt, phi_ref)
            assert la.norm(u.values - v) / la.norm(v) <= 1e-12, f"differs at step {k}"
            assert la.norm(state.phi - phi_ref) / la.norm(phi_ref) <= 1e-12
            assert mass(u) == pytest.approx(mass(Field(grid, v)), rel=1e-14, abs=0.0)

    def test_whole_radial_run(self):
        # run against the oracle driven by the run's own dt sequence: the
        # oracle refreshes its density and phi from its own field every step
        grid = GridSpec.radial(3, 16.0, 256)
        params = CriticalityParams(
            n=3, s=Fraction(1), b=Fraction(1, 2), sigma=CRITICAL, lambda_sign="focusing"
        )
        cfg = SimConfig(
            params=params,
            grid=grid,
            weight=PotentialWeight(b=0.5, delta=0.0),
            lam=-1.0,
            dt_init=0.05,
            t_end=3.0,
            dt_min=1e-12,
            safety=0.2,
        )
        u0 = gaussian_field(grid, 1.2, 1.0)
        outcome = run(cfg, u0)
        assert outcome.termination == "completed"
        assert outcome.steps >= 100 and len(outcome.series) == outcome.steps + 1
        dts = [record.dt for record in outcome.series[1:]]
        v, phi = u0.values.copy(), None
        for dt in dts:
            v, phi = _reference_radial_step(v, cfg, dt, phi)
        assert la.norm(outcome.final_field.values - v) / la.norm(v) <= 1e-12
        assert len(set(dts)) > 10  # the step size really adapted

    def test_radial_step_leaves_input_unmodified(self, focusing_radial_config):
        cfg = focusing_radial_config
        u = gaussian_field(cfg.grid, 1.5, 1.0)
        before = u.values.copy()
        density = nonlinear_density(u, cfg)
        phi = 0.9 * density
        out, _ = radial_cn_step(u, cfg, 1e-3, StepState(density, phi))
        assert np.array_equal(u.values, before)
        assert out.values is not u.values
        out, _ = radial_cn_step(u, cfg, 1e-3)
        assert np.array_equal(u.values, before)

    def test_strang_matches_complex_exp_2d_defocusing(self, defocusing_2d_config):
        cfg = defocusing_2d_config
        u = gaussian_field(cfg.grid, 1.0, 1.0)
        v = u.values.copy()
        for _ in range(1000):
            v = _reference_strang_step(v, cfg, 1e-3)
            u = strang_step(u, cfg, 1e-3)[0]
        assert la.norm(u.values - v) / la.norm(v) <= 1e-12

    def test_strang_matches_complex_exp_3d_focusing(self):
        cfg = _focusing_3d_config()
        u = gaussian_field(cfg.grid, 1.0, 1.0)
        v = u.values.copy()
        for k in range(20):
            dt = 1e-3 if k % 5 else 7e-4  # a dt change rebuilds the propagator
            v = _reference_strang_step(v, cfg, dt)
            u = strang_step(u, cfg, dt)[0]
        assert la.norm(u.values - v) / la.norm(v) <= 1e-12

    def test_critical_power_resolved_once_per_run(self, monkeypatch):
        calls = []
        original = exponents.critical_power

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(exponents, "critical_power", counting)
        grid = GridSpec.radial(3, 12.0, 256)
        params = CriticalityParams(
            n=3, s=Fraction(1), b=Fraction(1, 2), sigma=CRITICAL, lambda_sign="focusing"
        )
        cfg = SimConfig(
            params=params,
            grid=grid,
            weight=PotentialWeight(b=0.5, delta=0.0),
            lam=-1.0,
            dt_init=1e-3,
            t_end=0.1,
            dt_min=1e-12,
            record_every=10,
        )
        outcome = run(cfg, gaussian_field(grid, 0.5, 1.0))
        assert outcome.termination == "completed"
        assert outcome.steps == 100
        assert len(calls) <= 1


def test_radial_nan_initial_field_ends_non_finite(focusing_radial_config):
    grid = focusing_radial_config.grid
    values = gaussian_field(grid, 0.5, 1.0).values
    values[grid.points // 3] = np.nan
    outcome = run(focusing_radial_config, Field(grid, values))
    assert outcome.termination == "non_finite"
    assert outcome.steps == 0


# -- the tensor run hands each step's trailing half-phase to the next step --

def _spy(monkeypatch, name):
    """Route calls of ``dynamics.<name>`` through a recorder of their
    positional arguments."""
    calls = []
    original = getattr(dynamics, name)

    def recording(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(dynamics, name, recording)
    return calls


def _reference_run(cfg, u0, dts):
    v = u0.values.copy()
    for dt in dts:
        v = _reference_strang_step(v, cfg, dt)
    return v


def _deferring_state(u, cfg):
    """``run``'s state before its first step: each step leaves its trailing
    half-phase owed."""
    state = start_state(u, cfg)
    state.owed = 0.0
    return state


class TestCarriedHalfPhase:
    """``run`` carries each tensor step's trailing half-phase into the next
    step as a debt (``StepState.owed``), paid with the next leading
    half-phase or by ``settle``."""

    def test_step_then_settle_bitwise_equal_to_direct_call(self):
        cfg = _focusing_3d_config()
        u = gaussian_field(cfg.grid, 1.0, 1.0)
        whole, whole_state = strang_step(u, cfg, 1e-3)
        assert whole_state.owed is None  # a direct call defers nothing
        state = _deferring_state(u, cfg)
        deferred, state = strang_step(u, cfg, 1e-3, state)
        assert state.owed == 1e-3
        assert _same_bits(state.density, whole_state.density)
        # the owed half-phase is exactly what separates it from the whole step
        lacking = np.exp(-0.5j * 1e-3 * cfg.lam * nonlinear_density(whole, cfg))
        assert np.max(np.abs(deferred.values * lacking - whole.values)) <= 1e-14
        assert np.max(np.abs(deferred.values - whole.values)) > 1e-6
        settle(deferred, cfg, state)
        assert state.owed == 0.0 and state.owned is deferred.values
        assert _same_bits(deferred.values, whole.values)
        settle(deferred, cfg, state)  # nothing owed: a no-op
        assert _same_bits(deferred.values, whole.values)

    @pytest.mark.parametrize("dts", [[1e-3] * 4, [1e-3, 7e-4, 7e-4, 1e-3]], ids=["same", "changing"])
    def test_owed_phase_joins_the_next_leading_one(self, dts):
        # exp(-i lam (owed + dt)/2 w|u|^sigma) in one phase: whole steps to
        # rounding, whatever the dts, and the owed dt is the last one taken
        cfg = _focusing_3d_config()
        u0 = gaussian_field(cfg.grid, 1.0, 1.0)
        deferred, state = u0, _deferring_state(u0, cfg)
        whole, whole_state = u0, None
        for dt in dts:
            deferred, state = strang_step(deferred, cfg, dt, state)
            whole, whole_state = strang_step(whole, cfg, dt, whole_state)
            assert state.owed == dt
        settle(deferred, cfg, state)
        scale = np.max(np.abs(whole.values))
        assert np.max(np.abs(deferred.values - whole.values)) <= 1e-14 * scale
        assert not _same_bits(deferred.values, whole.values)  # one phase, not two

    def test_run_matches_reference_3d_shortened_final_step(self, monkeypatch):
        cfg = replace(_focusing_3d_config(), t_end=0.0205)
        u0 = gaussian_field(cfg.grid, 1.0, 1.0)
        steps = _spy(monkeypatch, "strang_step")
        outcome = run(cfg, u0)
        dts = [args[2] for args in steps]
        assert outcome.termination == "completed"
        assert len(set(dts[:-1])) == 1 and dts[-1] == pytest.approx(5e-4)
        v = _reference_run(cfg, u0, dts)
        assert la.norm(outcome.final_field.values - v) / la.norm(v) <= 1e-12

    def test_run_matches_reference_2d_adaptive_dt(self, defocusing_2d_config, monkeypatch):
        cfg = replace(defocusing_2d_config, t_end=0.05)
        u0 = gaussian_field(cfg.grid, 20.0, 0.5)
        steps = _spy(monkeypatch, "strang_step")
        outcome = run(cfg, u0)
        dts = [args[2] for args in steps]
        assert outcome.termination == "completed"
        changes = sum(a != b for a, b in zip(dts, dts[1:]))
        assert 3 <= changes < len(dts) - 3  # dt both changes and stays
        v = _reference_run(cfg, u0, dts)
        assert la.norm(outcome.final_field.values - v) / la.norm(v) <= 1e-12

    @pytest.mark.parametrize(
        "kind, stepper, phases_per_run",
        # tensor: one phase per step and one per settle, on the 10 record steps
        [("tensor", "strang_step", 110), ("radial", "radial_cn_step", 0)],
        ids=["tensor", "radial"],
    )
    def test_one_density_and_one_factor_per_step(self, kind, stepper, phases_per_run, monkeypatch):
        densities = _spy(monkeypatch, "nonlinear_density")
        phases = _spy(monkeypatch, "_apply_half_phase")
        dt = 2.0**-10  # exact in binary, so t reaches t_end without a short step
        base = _focusing_3d_config() if kind == "tensor" else _blowup_radial_config(blowup_ratio=1e3)
        cfg = replace(base, dt_init=dt, t_end=100 * dt, record_every=10)
        steps = _spy(monkeypatch, stepper)
        outcome = run(cfg, gaussian_field(cfg.grid, 1.0, 1.0))
        dts = [args[2] for args in steps]
        assert outcome.termination == "completed"
        assert outcome.steps == 100 and set(dts) == {dt}
        assert (len(densities), len(phases)) == (101, phases_per_run)

    def test_capped_dt_run_makes_one_phase_per_step(self, defocusing_2d_config, monkeypatch):
        # the data of test_run_matches_reference_2d_adaptive_dt: a step whose
        # dt differs from the last one built two phases with a carried factor
        cfg = replace(defocusing_2d_config, t_end=0.05, record_every=10)
        u0 = gaussian_field(cfg.grid, 20.0, 0.5)
        steps = _spy(monkeypatch, "strang_step")
        phases = _spy(monkeypatch, "_apply_half_phase")
        outcome = run(cfg, u0)
        dts = [args[2] for args in steps]
        assert outcome.termination == "completed"
        assert sum(a != b for a, b in zip(dts, dts[1:])) >= 3
        settles = len(outcome.series) - 1  # one per record after the initial one
        assert len(phases) == outcome.steps + settles
        # each step's dt is paid in full: half leading, half owed and paid
        # with the next leading phase or by a settle
        assert sum(args[3] for args in phases) == pytest.approx(2.0 * sum(dts), rel=1e-12)
        v = _reference_run(cfg, u0, dts)
        assert la.norm(outcome.final_field.values - v) / la.norm(v) <= 1e-12

    @pytest.mark.parametrize("termination", ["completed", "blowup_detected", "dt_underflow"])
    def test_every_termination_returns_a_settled_field(self, termination, monkeypatch):
        # no record step but the last: a field still owing its half-phase
        # would miss the reference by ~1e-3 relative
        base = replace(_focusing_3d_config(), record_every=1000)
        cfg, amplitude = {
            "completed": (replace(base, t_end=0.0205), 1.0),
            # the check runs on every step and fires on step 56
            "blowup_detected": (replace(base, blowup_ratio=1.2), 2.0),
            # adapt_dt asks for 5e-3 and is clamped to dt_min: 9 steps
            "dt_underflow": (replace(base, dt_init=0.01, dt_min=6e-3, safety=0.01, t_end=1.0), 1.0),
        }[termination]
        u0 = gaussian_field(cfg.grid, amplitude, 1.0)
        steps = _spy(monkeypatch, "strang_step")
        outcome = run(cfg, u0)
        assert outcome.termination == termination and outcome.steps > 5
        assert len(outcome.series) == (1 if termination == "dt_underflow" else 2)
        v = _reference_run(cfg, u0, [args[2] for args in steps])
        assert la.norm(outcome.final_field.values - v) / la.norm(v) <= 1e-12

    def test_deferred_step_and_settle_allocate_no_full_size_array(self):
        cfg = _focusing_3d_config()  # 32^3
        u = gaussian_field(cfg.grid, 1.0, 1.0)
        state = _deferring_state(u, cfg)
        for dt in (1e-3, 7e-4):  # own the field, fill the propagator cache
            u, state = strang_step(u, cfg, dt, state)
        # one slab's real angle and complex factor, and one plane of the
        # kinetic propagator; a full-size real array is 16 slabs' worth
        slab = u.values.nbytes // 8
        bound = slab // 2 + slab + u.values[0].nbytes + 4096

        def traced(action):
            tracemalloc.start()
            try:
                return action(), tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        (u, state), peak = traced(lambda: strang_step(u, cfg, 7e-4, state))
        assert peak <= bound and state.owed == 7e-4
        _, peak = traced(lambda: settle(u, cfg, state))
        assert peak <= bound and state.owed == 0.0


def test_bubble_run_peak_memory_above_set_up():
    # 64^3 tensor3d_bubble data: the run's peak is on a record step, the one
    # field buffer that its steps overwrite (4 MiB), the density and the
    # record's |u|^2 (2 MiB each): 8.27 MiB measured.  The 0.73 MiB margin
    # is a third of the smallest full-size array.  A carried half-phase
    # factor and a full-size real angle made it 12.3 MiB, a separate output
    # field per step 16.2 MiB, and a full-size propagator 20.1 MiB
    for module in (grids, dynamics, ground_state):
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()
    gc.collect()
    tracemalloc.start()
    try:
        cfg = replace(
            _focusing_3d_config(),
            grid=GridSpec.tensor(3, 16.0, 64),
            t_end=0.02,
            record_every=10,
        )
        profile = ground_state.GroundStateProfile(n=3, b=Fraction(1, 2), epsilon=1.0)
        u0 = ground_state.sample_on_grid(profile, cfg.grid, scale=0.5)
        set_up = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        outcome = run(cfg, u0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert outcome.termination == "completed" and outcome.steps == 20
    assert peak - set_up <= 9 * 2**20


def test_tensor_run_retains_only_weight_and_propagator():
    # a 3-d run caches one full-size table, the weight; the kinetic
    # propagator is kept per axis and for one axis-0 plane, and coordinates
    # and |x|^2, |xi|^2 stay per-axis or transient
    cfg = replace(_focusing_3d_config(), t_end=0.0205, record_every=5)  # 32^3
    u0 = gaussian_field(cfg.grid, 1.0, 1.0)
    for module in (grids, dynamics):
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()
    gc.collect()
    tracemalloc.start()
    try:
        outcome = run(cfg, u0)
        assert outcome.termination == "completed"
        del outcome
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    weight = weight_values(cfg.grid, cfg.weight)
    plane = np.empty(cfg.grid.shape[1:], dtype=np.complex128)
    assert retained <= weight.nbytes + plane.nbytes + 64 * 1024


def _exact_propagator(grid, dt):
    """exp(-i dt |xi|^2) of the float dt and wavenumbers, its angle formed
    in extended precision from dense meshes, and that angle's magnitude."""
    axis = 2.0 * math.pi * scipy.fft.fftfreq(grid.points, d=grid.spacing)
    angle = np.zeros(grid.shape, dtype=np.longdouble)
    for c in np.meshgrid(*([axis.astype(np.longdouble)] * grid.n), indexing="ij"):
        angle += c**2
    angle *= -np.longdouble(dt)
    exact = np.cos(angle).astype(float) + 1j * np.sin(angle).astype(float)
    return exact, float(np.max(np.abs(angle)))


@pytest.mark.parametrize(
    "grid",
    [
        pytest.param(GridSpec.tensor(n, extent, points), id=f"tensor{n}d-N{points}-L{label}")
        for n in (1, 2, 3)
        for points in (8, 16, 64, 128)
        for extent, label in ((16.0, "16"), (10.0, "10"), (2.0 * math.pi, "2pi"))
    ],
)
def test_kinetic_propagator_equals_the_dense_formula(grid):
    # each axis factor is the unit phase of -dt xi^2 bit for bit; their
    # product is exp(-i dt |xi|^2) to 1e-15 plus one ulp of its largest
    # angle, within which the float angle itself is uncertain
    xi = geometry(grid).wavenumber_axis
    for dt in (1e-3, 7e-4, 0.0173):
        axis, plane = dynamics._kinetic_propagator(grid, dt)
        expected = dynamics._unit_phase(xi**2 * (-0.5 * dt))
        assert np.array_equal(axis.view(np.uint64), expected.view(np.uint64))
        assert plane.size == grid.points ** min(grid.n, 2)  # no 3-d table
        assert np.array_equal(plane, np.outer(axis, axis).ravel() if grid.n > 1 else axis)
        assert not axis.flags.writeable and not plane.flags.writeable
        exact, largest = _exact_propagator(grid, dt)
        product = plane if grid.n < 3 else axis[:, None] * plane
        assert np.max(np.abs(product.reshape(grid.shape) - exact)) <= 1e-15 + np.spacing(largest)


@pytest.mark.parametrize(
    "grid",
    [GridSpec.tensor(3, 16.0, 32), GridSpec.tensor(2, 10.0, 128), GridSpec.tensor(1, 8.0, 16)],
)
def test_free_flight_multiplies_in_the_exact_propagator(grid):
    rng = np.random.default_rng(3)
    vhat = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    expected = vhat * _exact_propagator(grid, 1e-3)[0]
    dynamics._free_flight(vhat, grid, 1e-3)
    assert np.max(np.abs(vhat - expected)) <= 1e-14 * np.max(np.abs(expected))


def test_kinetic_propagator_rebuild_allocates_under_1_mib():
    grid = GridSpec.tensor(3, 16.0, 64)
    dynamics._kinetic_propagator.cache_clear()
    grids.geometry(grid).wavenumber_axis
    tracemalloc.start()
    try:
        dynamics._kinetic_propagator(grid, 1e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("kind", ["tensor", "radial"])
def test_adapt_dt_reads_cfg_second_once_per_step(kind, monkeypatch):
    # the benchmark tracer reads each call's clamp from args[1].dt_init
    base = _focusing_3d_config() if kind == "tensor" else _blowup_radial_config(blowup_ratio=1e3)
    cfg = replace(base, t_end=0.01, record_every=3)
    calls = _spy(monkeypatch, "adapt_dt")
    outcome = run(cfg, gaussian_field(cfg.grid, 1.0, 1.0))
    assert outcome.termination == "completed" and outcome.steps > 1
    assert len(calls) == outcome.steps
    assert all(args[1] is cfg for args in calls)


@pytest.mark.parametrize("kind", ["tensor", "radial"])
def test_run_looks_up_make_record_once_per_record(kind, monkeypatch):
    # the benchmark tracer's diagnostics.make_record span wraps the module
    # attribute, so run must read it there at call time
    from inls import diagnostics

    base = _focusing_3d_config() if kind == "tensor" else _blowup_radial_config()
    cfg = replace(base, lam=0.0, t_end=20 * base.dt_init, record_every=1)
    calls = []
    original = diagnostics.make_record

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(diagnostics, "make_record", counting)
    outcome = run(cfg, gaussian_field(cfg.grid, 1.0, 1.0))
    assert outcome.termination == "completed" and outcome.steps == 20
    assert len(calls) == len(outcome.series) == 21


# -- the blow-up check is skipped where the grid bound proves it cannot fire --

def _every_step_check_run(cfg, u0):
    """``run`` with the exact blow-up check on every step: the reference
    for the skip.  It shares the stepping, records and final-step rule.
    A tensor step leaves its trailing half-phase owed, as in ``run``; the
    field is settled in place where ``run`` settles it (on record steps,
    on steps whose check the grid bound does not rule out, and at the
    end), so that both trajectories round alike, and every other step is
    checked on a settled copy."""
    from inls.diagnostics import make_record

    u = Field(grid=u0.grid, values=u0.values.copy(), time_tag=0.0)
    h1_0 = hs_norm(u, 1)
    rho = geometry(u.grid).norm_bound
    state = _deferring_state(u, cfg)
    records = [make_record(u, cfg, dt=cfg.dt_init, density=state.density)]
    t, steps, pinned = 0.0, 0, 0
    t_stop = cfg.t_end * (1.0 - 1e-12)
    step = strang_step if cfg.grid.kind == "tensor" else radial_cn_step
    termination = "completed"
    while t < t_stop:
        dt = adapt_dt(state, cfg)
        if dt <= cfg.dt_min:
            pinned += 1
            if pinned >= 10:
                termination = "dt_underflow"
                break
        else:
            pinned = 0
        final = abs(cfg.t_end - t - dt) <= 1e-9 * dt
        dt_step = dt if final else min(dt, cfg.t_end - t)
        u, state = step(u, cfg, dt_step, state)
        if not np.all(np.isfinite(u.values)):
            termination = "non_finite"
            break
        t = cfg.t_end if final else t + dt_step
        u.time_tag = t
        steps += 1
        recorded = steps % cfg.record_every == 0 or t >= t_stop
        if recorded or h1_0 > 0.0 and rho * mass(u) >= 0.5 * (cfg.blowup_ratio * h1_0) ** 2:
            settle(u, cfg, state)
            h1 = hs_norm(u, 1)
        else:
            copy = Field(u.grid, u.values.copy(), t)
            settle(copy, cfg, replace(state))
            h1 = hs_norm(copy, 1)
        if recorded:
            records.append(make_record(u, cfg, dt_step, h1 * h1, state.density))
        if h1_0 > 0.0 and h1 >= cfg.blowup_ratio * h1_0:
            termination = "blowup_detected"
            if not recorded:
                records.append(make_record(u, cfg, dt_step, h1 * h1, state.density))
            break
    settle(u, cfg, state)
    return dynamics.RunOutcome(termination, t, records, u, steps)


def _blowup_radial_config(**changes):
    grid = GridSpec.radial(3, 16.0, 256)
    params = CriticalityParams(
        n=3, s=Fraction(1), b=Fraction(1, 2), sigma=CRITICAL, lambda_sign="focusing"
    )
    cfg = SimConfig(
        params=params,
        grid=grid,
        weight=PotentialWeight(b=0.5, delta=0.0),
        lam=-1.0,
        dt_init=2e-3,
        t_end=1.0,
        dt_min=1e-15,
        blowup_ratio=5.0,
        record_every=100,
    )
    return replace(cfg, **changes)


def _detection_ceiling(cfg, u0):
    """The blow-up ratio above which ``run`` skips the check on every step
    that writes no record: sqrt(2 rho_h M) / h1_0."""
    return math.sqrt(2.0 * geometry(cfg.grid).norm_bound * mass(u0)) / hs_norm(u0, 1)


class TestSkippedBlowupCheck:
    def _assert_same_run(self, cfg, u0, monkeypatch):
        expected = _every_step_check_run(cfg, u0)
        calls = _spy(monkeypatch, "hs_norm")
        outcome = run(cfg, u0)
        assert outcome.termination == expected.termination
        assert (outcome.steps, outcome.t_final) == (expected.steps, expected.t_final)
        assert np.array_equal(outcome.final_field.values, expected.final_field.values)
        assert outcome.series == expected.series
        return outcome, len(calls)

    def test_3d_focusing_run_skips_the_check(self, monkeypatch):
        cfg = replace(_focusing_3d_config(), record_every=10)
        u0 = gaussian_field(cfg.grid, 1.0, 1.0)
        assert cfg.blowup_ratio > 10 * _detection_ceiling(cfg, u0)
        outcome, calls = self._assert_same_run(cfg, u0, monkeypatch)
        assert outcome.termination == "completed" and outcome.steps == 100
        assert calls <= len(outcome.series) + 1

    def test_3d_focusing_run_checks_steps_without_a_record(self, monkeypatch):
        # below the ceiling the check runs, and settles the field, on every
        # step; blow-up is detected on step 56, which writes no record
        cfg = replace(_focusing_3d_config(), blowup_ratio=1.2, record_every=10)
        u0 = gaussian_field(cfg.grid, 2.0, 1.0)
        assert cfg.blowup_ratio < _detection_ceiling(cfg, u0)
        settles = _spy(monkeypatch, "settle")
        outcome, calls = self._assert_same_run(cfg, u0, monkeypatch)
        assert outcome.termination == "blowup_detected"
        assert outcome.steps == 56 and outcome.steps % cfg.record_every != 0
        assert calls == outcome.steps + 1  # the bound never held
        assert len(settles) == outcome.steps + 1  # every step, and the end

    def test_detection_lands_on_the_same_step(self, monkeypatch):
        cfg = _blowup_radial_config()
        u0 = gaussian_field(cfg.grid, 3.0, 1.0 / math.sqrt(2.0))
        assert cfg.blowup_ratio < _detection_ceiling(cfg, u0)
        outcome, calls = self._assert_same_run(cfg, u0, monkeypatch)
        assert outcome.termination == "blowup_detected"
        assert calls == outcome.steps + 1  # the bound never held

    @pytest.mark.parametrize("side", [1.0 + 1e-6, 1.0 - 1e-6], ids=["above", "below"])
    def test_ratio_at_the_ceiling(self, side, monkeypatch):
        cfg = _blowup_radial_config(t_end=0.2, record_every=7)
        u0 = gaussian_field(cfg.grid, 1.5, 1.0)
        cfg = replace(cfg, blowup_ratio=side * _detection_ceiling(cfg, u0))
        outcome, calls = self._assert_same_run(cfg, u0, monkeypatch)
        assert outcome.termination == "completed"
        if side > 1.0:
            # h1_0 and one per record step, the last step among them
            k = cfg.record_every
            assert calls == 1 + outcome.steps // k + (outcome.steps % k != 0)
        else:
            assert calls == 1 + outcome.steps


def test_constant_dt_run_builds_one_propagator(monkeypatch):
    # 0.1 / 1e-3 steps: float accumulation of t leaves the last step a few
    # ulps short of dt, which is taken whole
    cfg = replace(_focusing_3d_config(), record_every=10)
    densities = _spy(monkeypatch, "nonlinear_density")
    phases = _spy(monkeypatch, "_apply_half_phase")
    dynamics._kinetic_propagator.cache_clear()
    outcome = run(cfg, gaussian_field(cfg.grid, 1.0, 1.0))
    assert outcome.termination == "completed" and outcome.steps == 100
    assert outcome.t_final == cfg.t_end == outcome.final_field.time_tag
    assert dynamics._kinetic_propagator.cache_info().misses == 1
    # one phase per step and one per settle, on the 10 record steps
    assert (len(densities), len(phases)) == (101, 110)


# -- run reads the live mass as its finiteness check ------------------------

def _inject_after_call(monkeypatch, name, call, value):
    """Route ``dynamics.<name>`` through a wrapper that writes ``value`` into
    one entry of the field returned by its ``call``-th call."""
    original = getattr(dynamics, name)
    count = []

    def injecting(*args, **kwargs):
        result = original(*args, **kwargs)
        count.append(None)
        if len(count) == call:
            result[0].values.flat[3] = value
        return result

    monkeypatch.setattr(dynamics, name, injecting)


_BAD_ENTRIES = {
    "nan": complex(np.nan, 0.0),
    "inf": complex(np.inf, 0.0),
    "minus_inf_imag": complex(0.0, -np.inf),
    "huge": complex(1e200, 0.0),  # finite, but its square overflows the mass
}


class TestLiveMassFiniteness:
    """A non-finite entry ends the run on the step that made it, as the
    exact per-step scan did; a huge finite entry, which overflows the mass,
    is not mistaken for one and ends the run as it did before.  The bad
    entry lands on the 5th step: with ``record_every`` 3 a step that writes
    no record, with 5 and 1 a record step, whose mass comes from its record.
    """

    @staticmethod
    def _assert_outcome(outcome, entry, record_every):
        # the huge entry overflows the H1 seminorm: detected on its own step,
        # which appends a record; a non-finite step appends none
        if entry == "huge":
            assert (outcome.termination, outcome.steps) == ("blowup_detected", 5)
            assert len(outcome.series) == 2 + 4 // record_every
            assert outcome.series[-1].t == outcome.t_final
        else:
            assert (outcome.termination, outcome.steps) == ("non_finite", 4)
            assert len(outcome.series) == 1 + 4 // record_every
            assert all(math.isfinite(r.mass) for r in outcome.series)
            assert outcome.series[-1].t <= outcome.t_final
            if record_every == 1:
                assert outcome.series[-1].t == outcome.t_final

    def _radial(self, entry, record_every, monkeypatch):
        cfg = _blowup_radial_config(t_end=0.02, blowup_ratio=1e3, record_every=record_every)
        _inject_after_call(monkeypatch, "radial_cn_step", 5, _BAD_ENTRIES[entry])
        outcome = run(cfg, gaussian_field(cfg.grid, 0.5, 1.0))
        self._assert_outcome(outcome, entry, record_every)

    def _tensor(self, entry, record_every, monkeypatch):
        cfg = replace(_focusing_3d_config(), t_end=0.01, record_every=record_every)
        _inject_after_call(monkeypatch, "strang_step", 5, _BAD_ENTRIES[entry])
        outcome = run(cfg, gaussian_field(cfg.grid, 1.0, 1.0))
        # the spectral H1 seminorm overflows to inf, as on the radial grid
        self._assert_outcome(outcome, entry, record_every)

    @pytest.mark.parametrize("entry", sorted(_BAD_ENTRIES))
    def test_radial(self, entry, monkeypatch):
        self._radial(entry, 3, monkeypatch)

    @pytest.mark.parametrize("entry", sorted(_BAD_ENTRIES))
    def test_tensor(self, entry, monkeypatch):
        self._tensor(entry, 3, monkeypatch)

    @pytest.mark.parametrize("record_every", [5, 1])
    @pytest.mark.parametrize("entry", sorted(_BAD_ENTRIES))
    def test_radial_on_a_record_step(self, entry, record_every, monkeypatch):
        self._radial(entry, record_every, monkeypatch)

    @pytest.mark.parametrize("record_every", [5, 1])
    @pytest.mark.parametrize("entry", sorted(_BAD_ENTRIES))
    def test_tensor_on_a_record_step(self, entry, record_every, monkeypatch):
        self._tensor(entry, record_every, monkeypatch)


# -- per-run constants are resolved once, per-step quantities taken once ----

@pytest.mark.parametrize("kind", ["tensor", "radial"])
def test_fractions_are_converted_once_per_run(kind, monkeypatch):
    conversions = []
    original = Fraction.__float__

    def counting(self):
        conversions.append(self)
        return original(self)

    monkeypatch.setattr(Fraction, "__float__", counting)
    counts = []
    for steps in (10, 50):
        # each config holds a new CriticalityParams, none of whose floats is
        # converted yet
        base = _focusing_3d_config() if kind == "tensor" else _blowup_radial_config()
        cfg = replace(base, t_end=steps * base.dt_init, blowup_ratio=1e3, record_every=1)
        u0 = gaussian_field(cfg.grid, 0.5, 1.0)
        del conversions[:]
        outcome = run(cfg, u0)
        assert outcome.termination == "completed" and outcome.steps == steps
        counts.append(len(conversions))
    assert counts[1] <= counts[0]


@pytest.mark.parametrize("record_every", [1, 3])
@pytest.mark.parametrize("kind", ["tensor", "radial"])
def test_run_takes_mass_only_on_steps_without_a_record(kind, record_every, monkeypatch):
    base = _focusing_3d_config() if kind == "tensor" else _blowup_radial_config()
    cfg = replace(base, t_end=20 * base.dt_init, blowup_ratio=1e3, record_every=record_every)
    masses = _spy(monkeypatch, "mass")
    outcome = run(cfg, gaussian_field(cfg.grid, 0.5, 1.0))
    assert outcome.termination == "completed" and outcome.steps == 20
    # the last step writes a record whether or not it is on the cadence
    assert len(masses) == 20 - 20 // record_every - (20 % record_every != 0)
    # a record step's live mass is its record's, grids.mass bit for bit
    assert outcome.series[-1].mass == mass(outcome.final_field)


# -- ownership: a tensor step overwrites only the field its state made -------

def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def _small_tensor_config(n, lam):
    grid = GridSpec.tensor(n, 12.0, 32 if n == 3 else 64)
    params = CriticalityParams(
        n=n, s=Fraction(n - 1, 2), b=Fraction(1, 2), sigma=Fraction(2) if n == 2 else CRITICAL
    )
    return SimConfig(
        params=params,
        grid=grid,
        weight=PotentialWeight(b=0.5, delta=grid.spacing),
        lam=lam,
        dt_init=1e-3,
        t_end=0.01,
        dt_min=1e-12,
    )


_OWNERSHIP_CASES = [
    pytest.param(n, lam, id=f"tensor{n}d-lam{lam:+g}") for n in (2, 3) for lam in (-1.0, 0.0, 1.0)
]


class TestStepOwnership:
    """The tensor twin of ``test_radial_step_leaves_input_unmodified``: a
    Strang step writes only into the values of the field that its state's
    last step returned."""

    @pytest.mark.parametrize("n, lam", _OWNERSHIP_CASES)
    def test_input_it_did_not_make_is_left_unmodified(self, n, lam):
        cfg = _small_tensor_config(n, lam)
        u = gaussian_field(cfg.grid, 1.5, 1.0)
        before = u.values.copy()
        out, _ = strang_step(u, cfg, 1e-3)
        assert _same_bits(u.values, before) and not np.shares_memory(out.values, u.values)
        # a state that owns another field: the output of a step from w
        w = gaussian_field(cfg.grid, 1.0, 0.8)
        made, state = strang_step(w, cfg, 1e-3)
        assert state.owned is made.values
        out, _ = strang_step(u, cfg, 1e-3, state)
        assert _same_bits(u.values, before) and not np.shares_memory(out.values, u.values)
        # an equal copy of the owned values is not owned
        _, state = strang_step(w, cfg, 1e-3)
        twin = Field(cfg.grid, state.owned.copy())
        before = twin.values.copy()
        out, _ = strang_step(twin, cfg, 1e-3, state)
        assert _same_bits(twin.values, before)
        assert not np.shares_memory(out.values, twin.values)

    @pytest.mark.parametrize("n, lam", _OWNERSHIP_CASES)
    def test_owned_field_is_stepped_in_place_as_a_copy_would_be(self, n, lam):
        cfg = _small_tensor_config(n, lam)
        u0 = gaussian_field(cfg.grid, 1.5, 1.0)
        owned, state = u0, None
        copied, copy_state = u0, None
        for k, dt in enumerate([1e-3] * 3 + [7e-4] * 3):
            out, state = strang_step(owned, cfg, dt, state)
            assert np.shares_memory(out.values, owned.values) == (k > 0)
            owned = out
            copy = Field(cfg.grid, copied.values.copy(), copied.time_tag)
            copied, copy_state = strang_step(copy, cfg, dt, copy_state)
            assert not np.shares_memory(copied.values, copy.values)
            assert _same_bits(owned.values, copied.values), f"step {k}"
        assert _same_bits(u0.values, gaussian_field(cfg.grid, 1.5, 1.0).values)


def _plane_stride_is_padded(values):
    """True when ``values`` is a 3-d field whose axis-0 planes are each one
    contiguous run but lie further apart than N^2 values."""
    points = values.shape[-1]
    inner = (points * values.itemsize, values.itemsize)
    return values.strides[1:] == inner and values.strides[0] > points**2 * values.itemsize


def _assert_equal_but_for_the_mass_sum(got, want, names):
    """Every named attribute of ``got`` equals ``want``'s, except the mass
    and the boundary fraction divided by it: the one sum whose order
    follows the memory layout (``TensorGeometry.mass``'s einsum over N^3
    positive terms), which rounds apart by a few 1e-15 relative."""
    for name in names:
        x, y = getattr(got, name), getattr(want, name)
        if name in ("mass", "boundary_mass_fraction"):
            assert x == pytest.approx(y, rel=1e-14, abs=0.0), name
        else:
            assert x == y, name


_LAYOUT_CASES = [
    pytest.param(n, lam, id=f"tensor{n}d-lam{lam:+g}") for n in (1, 2, 3) for lam in (-1.0, 0.0, 1.0)
]


class TestPaddedFieldBuffer:
    """A 3-d run's one field buffer pads each axis-0 plane, so its planes
    are not a power of two apart; 1-d and 2-d buffers are C-contiguous.
    The layout changes no bit of any step."""

    @pytest.mark.parametrize("n, lam", _LAYOUT_CASES)
    def test_step_and_run_buffers_follow_the_layout_rule(self, n, lam, monkeypatch):
        cfg = replace(_small_tensor_config(n, lam), t_end=5e-3, record_every=2)
        u0 = gaussian_field(cfg.grid, 1.5, 1.0)
        out, state = strang_step(u0, cfg, 1e-3)  # a field it did not make
        steps = _spy(monkeypatch, "strang_step")
        outcome = run(cfg, u0)
        assert outcome.termination == "completed" and len(steps) == outcome.steps == 5
        for values in (state.owned, out.values, outcome.final_field.values):
            if n == 3:
                assert _plane_stride_is_padded(values) and not values.flags.c_contiguous
            else:
                assert values.flags.c_contiguous

    @pytest.mark.parametrize("lam", [-1.0, 0.0, 1.0])
    def test_3d_steps_equal_contiguous_steps_bit_for_bit(self, lam, monkeypatch):
        # the same steps with dynamics._field_buffer giving C-contiguous
        # arrays, the layout of 1-d and 2-d grids
        cfg = replace(_small_tensor_config(3, lam), t_end=0.0135, record_every=3)
        u0 = gaussian_field(cfg.grid, 1.5, 1.0)
        dts = [1e-3, 1e-3, 7e-4, 7e-4, 1e-3]

        def steps():
            whole, whole_state = u0, None
            deferred, state = u0, _deferring_state(u0, cfg)
            fields = []
            for dt in dts:
                whole, whole_state = strang_step(whole, cfg, dt, whole_state)
                deferred, state = strang_step(deferred, cfg, dt, state)
                fields.append(whole.values.copy())
            settle(deferred, cfg, state)
            outcome = run(cfg, u0)
            return fields + [deferred.values, outcome.final_field.values], outcome.series

        padded, padded_records = steps()
        assert _plane_stride_is_padded(padded[-1])
        monkeypatch.setattr(
            dynamics, "_field_buffer", lambda grid: np.empty(grid.shape, dtype=np.complex128)
        )
        contiguous, contiguous_records = steps()
        assert contiguous[-1].flags.c_contiguous
        for k, (a, b) in enumerate(zip(padded, contiguous, strict=True)):
            assert _same_bits(a, b), k
        # the records' masses round apart here, by 3.4e-15 relative at most
        assert len(padded_records) == len(contiguous_records) == 6
        for a, b in zip(padded_records, contiguous_records):
            _assert_equal_but_for_the_mass_sum(a, b, [f.name for f in dataclasses.fields(a)])

    @pytest.mark.parametrize("points", [16, 32, 64])
    def test_observables_of_a_padded_field_equal_those_of_its_copy(self, points):
        # bit for bit, except the mass sum, its boundary fraction and
        # hs_norm(u, 0) = sqrt(mass)
        grid = GridSpec.tensor(3, 12.0, points)
        cfg = replace(
            _small_tensor_config(3, -1.0), grid=grid, weight=PotentialWeight(0.5, grid.spacing)
        )
        rng = np.random.default_rng(points)
        values = gaussian_field(grid, 1.5, 1.0).values * np.exp(1j * rng.standard_normal(grid.shape))
        padded = dynamics._field_buffer(grid)
        padded[...] = values
        assert _plane_stride_is_padded(padded)
        u, copy = Field(grid, padded, 0.25), Field(grid, values, 0.25)
        assert _same_bits(nonlinear_density(u, cfg), nonlinear_density(copy, cfg))
        for s in (1, 0.5, 2):
            assert hs_norm(u, s) == hs_norm(copy, s), s
        assert hs_norm(u, 0) == pytest.approx(hs_norm(copy, 0), rel=1e-14)
        density = nonlinear_density(copy, cfg)
        got, want = grids.moments(u, density), grids.moments(copy, density)
        _assert_equal_but_for_the_mass_sum(got, want, grids.Moments._fields)
        got, want = make_record(u, cfg, 1e-3), make_record(copy, cfg, 1e-3)
        _assert_equal_but_for_the_mass_sum(got, want, [f.name for f in dataclasses.fields(got)])


def _radial_config(**changes):
    return _blowup_radial_config(blowup_ratio=1e3, **changes)


@pytest.mark.parametrize("kind", ["tensor", "radial"])
def test_run_leaves_u0_and_returns_a_field_of_its_own(kind):
    base = _focusing_3d_config() if kind == "tensor" else _radial_config()
    cfg = replace(base, t_end=20 * base.dt_init, record_every=7)
    u0 = gaussian_field(cfg.grid, 1.0, 1.0)
    before = u0.values.copy()
    outcome = run(cfg, u0)
    assert outcome.termination == "completed" and outcome.steps == 20
    assert _same_bits(u0.values, before) and u0.time_tag == 0.0
    assert not np.shares_memory(outcome.final_field.values, u0.values)


@pytest.mark.parametrize("kind, stepper", [("tensor", "strang_step"), ("radial", "radial_cn_step")])
def test_run_without_a_step_returns_a_copy_of_u0(kind, stepper, monkeypatch):
    def failing(u, cfg, dt, state):
        raise FloatingPointError("no step")

    monkeypatch.setattr(dynamics, stepper, failing)
    base = _focusing_3d_config() if kind == "tensor" else _radial_config()
    u0 = gaussian_field(base.grid, 1.0, 1.0)
    outcome = run(base, u0)
    assert outcome.termination == "non_finite" and outcome.steps == 0
    assert not np.shares_memory(outcome.final_field.values, u0.values)
    assert _same_bits(outcome.final_field.values, u0.values)


def test_nan_initial_field_run_returns_a_field_of_its_own(focusing_radial_config):
    grid = focusing_radial_config.grid
    values = gaussian_field(grid, 0.5, 1.0).values
    values[grid.points // 3] = np.nan
    u0 = Field(grid, values)
    before = u0.values.copy()
    outcome = run(focusing_radial_config, u0)
    assert outcome.termination == "non_finite" and outcome.steps == 0
    assert not np.shares_memory(outcome.final_field.values, u0.values)
    assert _same_bits(u0.values, before)


# -- oracle (ROADMAP item 20): global phase invariance of a whole run --------

_PHASE_RUNS = [
    pytest.param("tensor", -1.0, id="tensor3d-focusing"),
    pytest.param("tensor", 1.0, id="tensor3d-defocusing"),
    pytest.param("radial", -1.0, id="radial-focusing"),
]


@pytest.mark.parametrize("kind, lam", _PHASE_RUNS)
def test_run_commutes_with_a_global_phase(kind, lam):
    # the equation and every observable are invariant under u -> e^{i theta} u,
    # so run(e^{i theta} u0) is e^{i theta} run(u0) record by record
    if kind == "tensor":
        cfg = replace(_focusing_3d_config(), lam=lam, t_end=0.02, record_every=4)  # 32^3
        u0 = gaussian_field(cfg.grid, 1.5, 1.0)
    else:
        cfg = replace(_radial_config(), grid=GridSpec.radial(3, 16.0, 512), t_end=0.1, record_every=5)
        u0 = gaussian_field(cfg.grid, 1.5, 1.0)
    rotation = np.exp(0.7j)
    plain = run(cfg, u0)
    rotated = run(cfg, Field(cfg.grid, u0.values * rotation))
    assert plain.termination == rotated.termination == "completed"
    assert plain.steps == rotated.steps > 10
    assert len(plain.series) == len(rotated.series) > 2
    for a, b in zip(plain.series, rotated.series):
        for name in ("mass", "energy", "h1dot_sq", "max_amp"):
            x, y = getattr(a, name), getattr(b, name)
            assert abs(x - y) <= 1e-12 * abs(x), (a.t, name, x, y)
    want = plain.final_field.values * rotation
    got = rotated.final_field.values
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


# -- oracle (ROADMAP item 20): critical scaling of a whole run ---------------
#
# At the critical power, u_L(t, x) = L^-alpha u(t / L^2, x / L) with
# alpha = (2 - b) / sigma solves the same equation with the weight's delta
# scaled by L.  With L a power of two the twin's grid, wavenumbers and
# times are exact multiples of the first run's, so its kinetic phases are
# the same bits; the runs differ by the rounding of L^-alpha and of the
# weight's power alone.

_L = 0.5


def _assert_scaling_twins(cfg, amplitude, width):
    """Run (cfg, Gaussian) and its twin under x -> L x, t -> L^2 t,
    u -> L^-alpha u, and compare them to 1e-12 relative."""
    grid = cfg.grid
    size = {"extent": _L * grid.extent} if grid.kind == "tensor" else {"r_max": _L * grid.r_max}
    n, alpha = grid.n, (2.0 - cfg.params.b_float) / cfg.sigma
    # the power of L that maps each record quantity to its twin's
    powers = {"t": 2.0, "dt": 2.0, "mass": n - 2.0 * alpha, "variance": n + 2.0 - 2.0 * alpha}
    invariant = ("energy", "h1dot_sq", "weighted_potential", "virial_rhs")
    powers.update(dict.fromkeys(invariant, n - 2.0 - 2.0 * alpha))  # 0 at the critical power
    powers["max_amp"] = -alpha
    twin = replace(
        cfg,
        grid=replace(grid, **size),
        weight=replace(cfg.weight, delta=_L * cfg.weight.delta),
        dt_init=_L**2 * cfg.dt_init,
        dt_min=_L**2 * cfg.dt_min,
        t_end=_L**2 * cfg.t_end,
    )
    plain = run(cfg, gaussian_field(cfg.grid, amplitude, width))
    scaled = run(twin, gaussian_field(twin.grid, _L**-alpha * amplitude, _L * width))
    assert plain.termination == scaled.termination == "completed"
    assert plain.steps == scaled.steps > 10
    assert len(plain.series) == len(scaled.series) > 2
    assert scaled.t_final == _L**2 * plain.t_final
    for a, b in zip(plain.series, scaled.series):
        for name, power in powers.items():
            want, got = _L**power * getattr(a, name), getattr(b, name)
            assert abs(got - want) <= 1e-12 * abs(want), (a.t, name, want, got)
        # a share of the mass: compared as such, not relative to itself
        assert abs(b.boundary_mass_fraction - a.boundary_mass_fraction) <= 1e-12
    want = _L**-alpha * plain.final_field.values
    got = scaled.final_field.values
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    return plain


@pytest.mark.parametrize("lam", [-1.0, 1.0], ids=["focusing", "defocusing"])
def test_tensor_run_commutes_with_critical_scaling(lam):
    # 32^3; amplitude 3 makes adapt_dt cut the step below dt_init
    cfg = replace(_focusing_3d_config(), lam=lam, dt_init=0.01, t_end=0.1, record_every=3)
    plain = _assert_scaling_twins(cfg, 3.0, 1.0)
    assert min(r.dt for r in plain.series) < cfg.dt_init


def test_radial_defocusing_run_commutes_with_critical_scaling():
    cfg = _radial_config(
        grid=GridSpec.radial(3, 16.0, 2048), lam=1.0, dt_init=0.01, t_end=0.2, record_every=5
    )
    plain = _assert_scaling_twins(cfg, 1.5, 1.0)
    assert min(r.dt for r in plain.series) < cfg.dt_init


def test_radial_focusing_run_commutes_with_critical_scaling():
    cfg = _radial_config(grid=GridSpec.radial(3, 16.0, 2048), t_end=0.05, record_every=10)
    plain = _assert_scaling_twins(cfg, 1.5, 1.0)
    # stopped while the data concentrates, before max|u| doubles
    assert plain.series[0].max_amp < plain.series[-1].max_amp < 2.0 * plain.series[0].max_amp
