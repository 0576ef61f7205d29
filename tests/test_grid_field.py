import dataclasses
import math
import os
import pickle
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import inls
from inls import dynamics, grids
from inls.grids import (
    Field,
    GridSpec,
    PotentialWeight,
    abs_power,
    dump_field,
    gaussian_field,
    geometry,
    hs_norm,
    load_field,
    mass,
    moments,
    radius_sq_values,
    sphere_area,
    weight_values,
    weighted_quadratic,
)
from inls.ground_state import GroundStateProfile, sample_on_grid, w_eval
from paper_checks import wavenumber_sq_values


def normalized_gaussian(grid):
    return gaussian_field(grid, amplitude=math.pi ** (-grid.n / 4.0), width=1.0)


def variance(u):
    """The record's variance; the density feeds only the potential."""
    return moments(u, np.zeros(u.grid.shape)).variance


def boundary_mass_fraction(u):
    return moments(u, np.zeros(u.grid.shape)).boundary_mass_fraction


def weighted_potential(u, weight, sigma):
    """The record's weighted potential, from the density w |u|^sigma."""
    density = abs_power(u.values, sigma) * weight_values(u.grid, weight)
    return moments(u, density).weighted_potential


class TestGridSpec:
    def test_tensor_validation(self):
        with pytest.raises(ValueError):
            GridSpec.tensor(4, 10.0, 64)
        with pytest.raises(ValueError):
            GridSpec.tensor(2, 10.0, 100)  # not a power of two
        with pytest.raises(ValueError):
            GridSpec.tensor(2, 10.0, 4)

    def test_radial_validation(self):
        with pytest.raises(ValueError):
            GridSpec.radial(2, 10.0, 64)
        grid = GridSpec.radial(3, 8.0, 64)
        r = geometry(grid).radii
        assert r[0] == pytest.approx(grid.spacing / 2)  # no origin node
        assert r[-1] == pytest.approx(8.0 - grid.spacing / 2)

    def test_field_shape_check(self):
        grid = GridSpec.tensor(2, 10.0, 16)
        with pytest.raises(ValueError):
            Field(grid, np.zeros(16, dtype=complex))

    def test_other_kinds_size_refused(self):
        # it would enter equality and the hash, but no dump records it
        with pytest.raises(ValueError, match="tensor grid takes no r_max"):
            GridSpec("tensor", 2, 16, extent=8.0, r_max=5.0)
        with pytest.raises(ValueError, match="radial grid takes no extent"):
            GridSpec("radial", 3, 64, extent=8.0, r_max=5.0)


class TestThreadCount:
    @pytest.fixture(autouse=True)
    def _unset(self, monkeypatch):
        monkeypatch.delenv(grids.THREADS_ENV, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)

    def test_defaults_to_the_affinity_mask(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert grids.thread_count() == 1

    def test_cpu_count_without_an_affinity_mask(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert grids.thread_count() == 8


class TestValueHashes:
    """GridSpec and PotentialWeight key every lru_cache table and take their
    hash once, at construction, from fields whose hash is not salted."""

    @pytest.mark.parametrize(
        "a, b",
        [(GridSpec.radial(3, 32.0, 2048), GridSpec("radial", 3, 2048, r_max=32)),
         (GridSpec.tensor(2, 10.0, 16), GridSpec.tensor(2, 10.0, 16)),
         (PotentialWeight(b=0.5, delta=0.25), PotentialWeight(b=0.5, delta=0.25))],
        ids=["radial", "tensor", "weight"],
    )
    def test_equal_values_hash_equal(self, a, b):
        assert a is not b and a == b and hash(a) == hash(b)

    @pytest.mark.parametrize(
        "value, change",
        [(GridSpec.radial(3, 32.0, 2048), {"points": 1024}),
         (GridSpec.tensor(3, 16.0, 64), {"extent": 12.0}),
         (PotentialWeight(b=0.5, delta=0.25), {"delta": 0.5})],
        ids=["radial", "tensor", "weight"],
    )
    def test_replace_and_pickle_keep_hash_and_eq(self, value, change):
        changed = dataclasses.replace(value, **change)
        assert changed != value and hash(changed) != hash(value)
        back = dataclasses.replace(changed, **{k: getattr(value, k) for k in change})
        assert back == value and hash(back) == hash(value)
        copied = pickle.loads(pickle.dumps(value))
        assert copied == value and hash(copied) == hash(value)
        assert {value: 1}[copied] == 1

    def test_hash_is_the_same_in_every_process(self):
        src = str(Path(inls.__file__).resolve().parent.parent)
        code = "from inls.grids import GridSpec; print(hash(GridSpec.radial(3, 32.0, 2048)))"
        hashes = set()
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
            out = subprocess.run(
                [sys.executable, "-c", code], env=env, capture_output=True, text=True,
                check=True, timeout=120,
            )
            hashes.add(int(out.stdout))
        assert hashes == {hash(GridSpec.radial(3, 32.0, 2048))}


class TestMass:
    def test_zero_field(self):
        grid = GridSpec.tensor(2, 10.0, 32)
        assert mass(Field(grid, np.zeros(grid.shape))) == 0.0

    def test_normalized_gaussian(self):
        for n in (1, 2, 3):
            grid = GridSpec.tensor(n, 20.0, 64)
            assert mass(normalized_gaussian(grid)) == pytest.approx(1.0, abs=1e-10)

    def test_radial_gaussian(self):
        grid = GridSpec.radial(3, 14.0, 4096)
        u = gaussian_field(grid, math.pi ** -0.75, 1.0)
        assert mass(u) == pytest.approx(1.0, rel=1e-6)

    def test_scaling_exact(self):
        grid = GridSpec.tensor(2, 10.0, 32)
        u = gaussian_field(grid, 1.0, 1.0)
        scaled = Field(grid, (2.0 - 1.0j) * u.values)
        assert mass(scaled) == pytest.approx(abs(2.0 - 1.0j) ** 2 * mass(u), rel=1e-14)


class TestSobolevNorm:
    def test_s_zero_is_mass(self):
        grid = GridSpec.tensor(2, 20.0, 64)
        u = gaussian_field(grid, 1.3, 0.9)
        assert hs_norm(u, 0) == pytest.approx(math.sqrt(mass(u)), rel=1e-14)

    def test_plane_wave_multiplier(self):
        grid = GridSpec.tensor(1, 8.0, 64)
        x = geometry(grid).mesh[0]
        xi0 = 2 * math.pi * 3 / 8.0
        u = Field(grid, np.exp(1j * xi0 * x))
        for s in (0.5, 1.0, 2.0):
            assert hs_norm(u, s) == pytest.approx(xi0 ** s * math.sqrt(mass(u)), rel=1e-12)

    def test_gaussian_gradient_analytic(self):
        # integral of |grad exp(-|x|^2/2)|^2 over R^3 is (3/2) pi^(3/2)
        grid = GridSpec.tensor(3, 20.0, 64)
        u = gaussian_field(grid, 1.0, 1.0)
        assert hs_norm(u, 1) ** 2 == pytest.approx(1.5 * math.pi ** 1.5, rel=1e-10)

    def test_radial_gradient_matches_tensor_value(self):
        grid = GridSpec.radial(3, 16.0, 4096)
        u = gaussian_field(grid, 1.0, 1.0)
        assert hs_norm(u, 1) ** 2 == pytest.approx(1.5 * math.pi ** 1.5, rel=1e-5)

    @pytest.mark.parametrize("s", [-1.0, math.nan, math.inf], ids=["negative", "nan", "inf"])
    @pytest.mark.parametrize(
        "grid", [GridSpec.tensor(2, 10.0, 16), GridSpec.radial(3, 8.0, 64)], ids=["tensor", "radial"]
    )
    def test_refuses_an_order_that_is_not_finite_and_nonnegative(self, grid, s):
        # a NaN or infinite order must not read as blow-up (an inf seminorm)
        with pytest.raises(ValueError, match="order s"):
            hs_norm(gaussian_field(grid, 1.0, 1.0), s)

    def test_radial_rejects_fractional(self):
        grid = GridSpec.radial(3, 8.0, 64)
        u = gaussian_field(grid, 1.0, 1.0)
        with pytest.raises(ValueError):
            hs_norm(u, 0.5)

    def test_parseval(self):
        grid = GridSpec.tensor(2, 12.0, 64)
        rng = np.random.default_rng(7)
        u = Field(grid, rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape))
        import scipy.fft

        uhat = scipy.fft.fftn(u.values)
        spectral = float(np.sum(np.abs(uhat) ** 2)) * grid.cell_measure / u.values.size
        assert spectral == pytest.approx(mass(u), rel=1e-12)

    def test_monotone_under_refinement(self):
        values = []
        for points in (32, 64, 128):
            grid = GridSpec.tensor(2, 18.0, points)
            values.append(hs_norm(gaussian_field(grid, 1.0, 1.0), 1.5))
        # converges monotonically for a smooth fixed profile
        assert abs(values[2] - values[1]) <= abs(values[1] - values[0])

    def test_multiplier_composition(self):
        grid = GridSpec.tensor(2, 12.0, 64)
        u = gaussian_field(grid, 1.0, 1.2)
        lap = laplacian_apply(u)
        assert hs_norm(lap, 1.0) == pytest.approx(hs_norm(u, 3.0), rel=1e-12)

    def test_phase_invariance(self):
        grid = GridSpec.tensor(2, 12.0, 32)
        u = gaussian_field(grid, 1.0, 1.0)
        rotated = Field(grid, u.values * np.exp(1j * 0.73))
        assert mass(rotated) == pytest.approx(mass(u), rel=1e-15)
        assert hs_norm(rotated, 1) == pytest.approx(hs_norm(u, 1), rel=1e-14)
        assert variance(rotated) == pytest.approx(variance(u), rel=1e-15)


def _hs_norm_formula(u, s):
    """The seminorm as first written, with full-size temporaries."""
    grid = u.grid
    if grid.kind == "tensor":
        uhat = np.fft.fftn(u.values)
        density = wavenumber_sq_values(grid) ** s * np.abs(uhat) ** 2
        return math.sqrt(float(np.sum(density) * grid.cell_measure / u.values.size))
    v = u.values
    diff = np.empty_like(v)
    diff[:-1] = v[1:] - v[:-1]
    diff[-1] = -v[-1]
    f = geometry(grid).conductances
    return math.sqrt(float(sphere_area(grid.n) * np.sum(f * np.abs(diff) ** 2) / grid.spacing))


class TestSobolevNormInPlace:
    @pytest.mark.parametrize(
        "grid, s",
        [
            pytest.param(GridSpec.tensor(n, 12.0, points), s, id=f"tensor{n}d-s{s}")
            for n, points in ((2, 64), (3, 32))
            for s in (0.5, 1, 2)
        ]
        + [pytest.param(GridSpec.radial(3, 16.0, 512), 1, id="radial-s1")],
    )
    def test_matches_formula_and_leaves_field(self, grid, s):
        rng = np.random.default_rng(7)
        u = gaussian_field(grid, 1.3, 1.0)
        u = Field(grid, u.values * np.exp(0.4j * rng.standard_normal(grid.shape)))
        before = u.values.copy()
        expected = _hs_norm_formula(u, s)
        assert hs_norm(u, s) == pytest.approx(expected, rel=1e-13)
        assert np.array_equal(u.values, before)


def _dense_h1_sq(v, grid):
    """Sum of |xi|^2 |uhat|^2 against the dense |xi|^2 table."""
    uhat = scipy.fft.fftn(v)
    return float(np.sum(wavenumber_sq_values(grid) * np.abs(uhat) ** 2)) * (
        grid.cell_measure / v.size
    )


class TestBlockedH1:
    """hs_sq(v, 1) on tensor grids sums blocked FFTs, never a full-size
    spectrum; the dense |xi|^2 sum is its oracle."""

    @pytest.mark.parametrize(
        "grid",
        [
            pytest.param(GridSpec.tensor(n, 12.0, points), id=f"tensor{n}d-N{points}")
            for n, sizes in ((1, (8, 16, 256)), (2, (8, 16, 64)), (3, (8, 16, 32)))
            for points in sizes
        ],
    )
    def test_equals_the_dense_spectral_sum(self, grid):
        rng = np.random.default_rng(grid.n * grid.points)
        window = gaussian_field(grid, 1.3, 0.2 * grid.extent).values
        noise = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
        x = geometry(grid).mesh
        fields = [
            window * noise,
            gaussian_field(grid, 1.0, 1.0).values,
            np.exp(1j * 2 * math.pi * sum((k + 1) * c for k, c in enumerate(x)) / grid.extent)
            * np.ones(grid.shape),
        ]
        for v in fields:
            dense = _dense_h1_sq(v, grid)
            assert abs(geometry(grid).hs_sq(v, 1) - dense) <= 1e-14 * dense

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_overflowing_field_gives_inf(self, n):
        # finite values whose squared transform overflows: the mean's zero
        # weight times inf is NaN, which a finite field turns into inf
        grid = GridSpec.tensor(n, 12.0, 16)
        v = gaussian_field(grid, 1e200, 1.0).values
        assert np.all(np.isfinite(v))
        assert geometry(grid).hs_sq(v, 1) == math.inf
        v[1] = np.nan
        assert math.isnan(geometry(grid).hs_sq(v, 1))


class TestAbsPower:
    @pytest.mark.parametrize("p", [2, 3, 5, 2.5, 4 / 3])
    def test_within_four_ulp_of_pow(self, p):
        rng = np.random.default_rng(11)
        tiny = [0.0, 5e-324, 3e-320, 1e-310, 2.2250738585072014e-308, 1e-160, 1e-105, 1e-78]
        magnitudes = np.concatenate(
            (tiny, 10.0 ** rng.uniform(-60.0, 60.0, 2000), rng.uniform(0.0, 3.0, 2000))
        )
        values = magnitudes * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, magnitudes.size))
        values[:3] = magnitudes[:3]  # subnormals on the real axis, not split
        expected = np.abs(values) ** p
        got = abs_power(values, p)
        assert np.all(np.abs(got - expected) <= 4.0 * np.spacing(expected))
        out, scratch = np.empty(values.shape), np.empty(values.shape)
        assert abs_power(values, p, out, scratch) is out
        assert np.array_equal(out, got)  # both ways of calling round alike
        assert np.array_equal(abs_power(values, p, out), got)


class TestMassSumOfSquares:
    @pytest.mark.parametrize(
        "grid",
        [GridSpec.tensor(3, 16.0, 64), GridSpec.tensor(2, 12.0, 64), GridSpec.radial(3, 32.0, 2048)],
        ids=["tensor3d", "tensor2d", "radial"],
    )
    def test_matches_hypot_formula(self, grid):
        rng = np.random.default_rng(11)
        u = gaussian_field(grid, 1.7, 1.5)
        u = Field(grid, u.values * np.exp(3j * rng.standard_normal(grid.shape)))
        density = np.abs(u.values) ** 2
        if grid.kind == "tensor":
            expected = float(np.sum(density) * grid.cell_measure)
        else:
            expected = float(np.sum(density * geometry(grid).weights))
        assert mass(u) == pytest.approx(expected, rel=1e-14)

    def test_non_contiguous_values(self):
        grid = GridSpec.tensor(2, 12.0, 16)
        rng = np.random.default_rng(5)
        values = rng.standard_normal((16, 32)) + 1j * rng.standard_normal((16, 32))
        u = Field(grid, values[:, ::2])
        assert mass(u) == pytest.approx(mass(Field(grid, u.values.copy())), rel=1e-15)

    @pytest.mark.parametrize(
        "grid",
        [GridSpec.tensor(1, 12.0, 512), GridSpec.tensor(2, 12.0, 128)]
        + [GridSpec.tensor(3, 12.0, points) for points in (16, 32, 64)],
        ids=["tensor1d", "tensor2d", "tensor3d-16", "tensor3d-32", "tensor3d-64"],
    )
    def test_contiguous_values_keep_the_flat_sum_bits(self, grid):
        # the n-d contraction of a C-contiguous array is the flat one's
        rng = np.random.default_rng(grid.points)
        for _ in range(3):
            v = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
            v *= np.exp(4.0 * rng.standard_normal(grid.shape))  # few terms dominate
            pairs = v.view(np.float64).ravel()
            flat = float(np.einsum("i,i->", pairs, pairs) * grid.cell_measure)
            assert geometry(grid).mass(v).hex() == flat.hex()

    def test_contiguous_field_is_read_in_place(self):
        grid = GridSpec.tensor(3, 12.0, 32)
        v = gaussian_field(grid, 1.0, 1.0).values
        geometry(grid).mass(v)  # builds nothing on a later call
        tracemalloc.start()
        try:
            geometry(grid).mass(v)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4096  # bytes; a copy is 512 KiB

    @pytest.mark.parametrize("shape", [(64,), (16, 8), (8, 4, 4)])
    def test_planewise_squares_equal_the_whole_array_formula(self, shape):
        # |u|^2 built one axis-0 plane at a time rounds as re^2 + im^2 does
        rng = np.random.default_rng(7)
        values = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        values *= np.exp(8.0 * rng.standard_normal(shape))
        for v in (values, values[..., ::-1]):  # contiguous and strided
            assert np.array_equal(grids._abs_sq(v), v.real**2 + v.imag**2)


# -- hs_norm(u, 1)**2 <= geometry(grid).norm_bound * mass(u) -----------------

_BOUND_GRIDS = [GridSpec.tensor(n, 10.0, 16) for n in (1, 2, 3)] + [
    GridSpec.radial(n, 10.0, 64) for n in (3, 4, 5)
]


class TestLaplacianNormBound:
    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(_BOUND_GRIDS),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.floats(min_value=0.0, max_value=4.0),
    )
    def test_bounds_h1_by_mass(self, grid, seed, damping):
        # damping 0 is white noise, rich in high modes; larger damping tilts
        # the field towards low modes (tensor) or the origin (radial)
        rng = np.random.default_rng(seed)
        values = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
        if grid.kind == "tensor":
            values = np.fft.ifftn(np.fft.fftn(values) * np.exp(-damping * wavenumber_sq_values(grid)))
        else:
            values *= np.exp(-damping * geometry(grid).radii)
        u = Field(grid, values)
        assert hs_norm(u, 1) ** 2 <= geometry(grid).norm_bound * mass(u) * (1 + 1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_tensor_nyquist_mode_attains_bound(self, n):
        grid = GridSpec.tensor(n, 10.0, 16)
        nyquist = np.ones(grid.shape, dtype=complex)
        for axis in np.indices(grid.shape):
            nyquist *= (-1.0) ** axis
        u = Field(grid, nyquist)
        ratio = hs_norm(u, 1) ** 2 / mass(u)
        assert ratio == pytest.approx(geometry(grid).norm_bound, rel=1e-12)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_radial_bound_within_a_tenth_of_top_eigenvalue(self, n):
        for points in (8, 64, 512):
            grid = GridSpec.radial(n, 10.0, points)
            bands = geometry(grid).bands.real
            lap = np.diag(bands[1]) + np.diag(bands[0, 1:], 1) + np.diag(bands[2, :-1], -1)
            # -Lap_h is self-adjoint in the node weights D, so D^1/2 (-Lap_h)
            # D^-1/2 is symmetric with the same eigenvalues
            root = np.sqrt(geometry(grid).weights)
            sym = -root[:, None] * lap / root[None, :]
            assert np.allclose(sym, sym.T, rtol=0.0, atol=1e-14 * np.abs(sym).max())
            top = np.linalg.eigvalsh(0.5 * (sym + sym.T))[-1]
            bound = geometry(grid).norm_bound
            assert top <= bound <= 1.1 * top, points


def _dense_axes(grid, spectral):
    """The axis arrays as first built: dense ``meshgrid`` copies."""
    if spectral:
        axis = 2.0 * math.pi * scipy.fft.fftfreq(grid.points, d=grid.spacing)
    else:
        axis = -0.5 * grid.extent + grid.spacing * np.arange(grid.points)
    return axis, np.meshgrid(*([axis] * grid.n), indexing="ij")


def _dense_sum_of_squares(grid, spectral, center=None):
    """|x|^2 or |xi|^2 as first built and cached: the dense meshes summed in
    axis order from zero; |x - center|^2 when a center is given."""
    out = np.zeros(grid.shape)
    for c, c0 in zip(_dense_axes(grid, spectral)[1], center or (0.0,) * grid.n):
        out += (c - c0) ** 2
    return out


def _fsum_reference(grid, spectral, density):
    """Sum of |x|^2 or |xi|^2 times ``density`` by ``math.fsum`` over the
    per-axis products, so no table of summed squares rounds it."""
    axis = _dense_axes(grid, spectral)[0]
    terms = []
    for k in range(grid.n):
        shape = [1] * density.ndim
        shape[k] = grid.points
        terms.extend((axis.reshape(shape) ** 2 * density).ravel().tolist())
    return math.fsum(terms)


def _separable_fields(grid):
    rng = np.random.default_rng(12 + grid.n)
    for width in (0.08 * grid.extent, 0.25 * grid.extent):
        window = gaussian_field(grid, 1.0, width).values
        noise = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
        yield Field(grid, window * noise)
    if grid.n == 3:
        yield sample_on_grid(GroundStateProfile(n=3, b=0.5, epsilon=1.0), grid, scale=0.5)


_SEPARABLE_GRIDS = [
    pytest.param(GridSpec.tensor(n, 16.0, points), id=f"tensor{n}d")
    for n, points in ((1, 256), (2, 64), (3, 32))
]


class TestSeparableTables:
    """Tensor grids cache no full-size |x|^2, |xi|^2 or coordinate mesh."""

    @pytest.mark.parametrize("grid", _SEPARABLE_GRIDS)
    def test_tables_equal_the_dense_construction(self, grid):
        rsq = _dense_sum_of_squares(grid, spectral=False)
        ksq = _dense_sum_of_squares(grid, spectral=True)
        assert np.array_equal(radius_sq_values(grid), rsq)
        assert np.array_equal(wavenumber_sq_values(grid), ksq)
        dense_mesh = _dense_axes(grid, False)[1]
        for sparse, dense in zip(np.broadcast_arrays(*geometry(grid).mesh), dense_mesh):
            assert np.array_equal(sparse, dense)
        for b, delta in ((0.5, 0.25), (1.0, 0.1), (2.0, 0.3), (4.0 / 3.0, 1.0), (0.0, 0.0)):
            expected = (rsq + delta**2) ** (-0.5 * b)
            assert np.array_equal(weight_values(grid, PotentialWeight(b, delta)), expected)
        xi = _dense_axes(grid, True)[0]
        for dt in (1e-3, 7e-4, 0.0173):  # the propagator is kept per axis
            expected = dynamics._unit_phase(-0.5 * dt * xi**2)
            assert np.array_equal(dynamics._kinetic_propagator(grid, dt)[0], expected)
        assert geometry(grid).norm_bound == float(ksq.max())

    @pytest.mark.parametrize("grid", _SEPARABLE_GRIDS)
    def test_h1_and_variance_against_fsum(self, grid):
        ksq = _dense_sum_of_squares(grid, spectral=True).ravel()
        rsq = _dense_sum_of_squares(grid, spectral=False).ravel()
        scale = grid.cell_measure / grid.points**grid.n
        for u in _separable_fields(grid):
            squares = np.square(scipy.fft.fftn(u.values).view(np.float64).reshape(-1, 2))
            # hs_norm's contraction against the full |xi|^2 table
            full = np.einsum("i,i->", ksq, squares[:, 0]) + np.einsum("i,i->", ksq, squares[:, 1])
            reference = _fsum_reference(grid, True, squares.reshape(grid.shape + (2,)))
            h1_ref = math.sqrt(reference * scale)
            allowed = max(abs(math.sqrt(full * scale) - h1_ref), 4e-15 * h1_ref)
            assert abs(hs_norm(u, 1) - h1_ref) <= allowed
            a2 = u.values.real**2 + u.values.imag**2
            full = np.einsum("i,i->", rsq, a2.ravel()) * grid.cell_measure
            reference = _fsum_reference(grid, False, a2) * grid.cell_measure
            allowed = max(abs(full - reference), 4e-15 * reference)
            assert abs(variance(u) - reference) <= allowed


def _bits(a):
    """The raw 64-bit words of a real or complex array, so -0.0 and 0.0 differ."""
    return np.ascontiguousarray(a).view(np.uint64)


_RADIAL_TABLE_GRIDS = [
    pytest.param(GridSpec.tensor(n, extent, points), id=f"tensor{n}d-N{points}-L{label}")
    for n in (1, 2, 3)
    for points in (8, 16, 64, 128)
    for extent, label in ((16.0, "16"), (10.0, "10"), (2.0 * math.pi, "2pi"))
]


class TestRadialTables:
    """Every table that depends on |x|^2 or |xi|^2 alone is built once per
    distinct per-axis square and gathered; it equals the full-size formula
    bit for bit."""

    @pytest.mark.parametrize("grid", _RADIAL_TABLE_GRIDS)
    def test_tables_equal_the_dense_formulas(self, grid):
        rsq = _dense_sum_of_squares(grid, spectral=False)
        ksq = _dense_sum_of_squares(grid, spectral=True)
        assert np.array_equal(_bits(radius_sq_values(grid)), _bits(rsq))
        assert np.array_equal(_bits(wavenumber_sq_values(grid)), _bits(ksq))
        for b, delta in ((0.5, 0.25), (4.0 / 3.0, 0.1)):
            expected = rsq.copy()
            expected += delta**2
            expected **= -0.5 * b
            table = grids.weight_values(grid, PotentialWeight(b, delta))
            assert np.array_equal(_bits(table), _bits(expected))
        for center in (None, (0.37, -1.1, 2.5)[: grid.n]):
            dense = _dense_sum_of_squares(grid, False, center)
            expected = (1.3 * np.exp(-dense / (2.0 * 0.7**2))).astype(np.complex128)
            values = gaussian_field(grid, 1.3, 0.7, center).values
            assert np.array_equal(_bits(values), _bits(expected))
        if grid.n == 3:
            profile = GroundStateProfile(n=3, b=0.5, epsilon=1.0)
            r = rsq.copy()
            np.sqrt(r, out=r)
            expected = (0.5 * w_eval(profile, r)).astype(complex)
            values = sample_on_grid(profile, grid, scale=0.5).values
            assert np.array_equal(_bits(values), _bits(expected))

    @pytest.mark.parametrize("grid", _RADIAL_TABLE_GRIDS)
    def test_fractional_sobolev_multiplier(self, grid):
        rng = np.random.default_rng(grid.points + grid.n)
        window = gaussian_field(grid, 1.0, 0.2 * grid.extent, (0.3,) * grid.n).values
        u = Field(grid, window * (rng.standard_normal(grid.shape) + 1j))
        uhat = scipy.fft.fftn(u.values.copy(), workers=grids.thread_count(), overwrite_x=True)
        pairs = uhat.view(np.float64)
        pairs *= pairs
        multiplier = _dense_sum_of_squares(grid, spectral=True)
        multiplier **= 0.5
        total = float(np.einsum("i,ik->", multiplier.ravel(), pairs.reshape(-1, 2)))
        expected = math.sqrt(total * grid.cell_measure / u.values.size)
        assert _bits(np.float64(hs_norm(u, 0.5))) == _bits(np.float64(expected))

    def test_unpaired_axis_squares(self):
        # x and -x pair up on an axis whose spacing is a power-of-two
        # fraction of 16; on a 2 pi box rounding leaves 44 of 64 distinct
        for extent, distinct in ((16.0, 33), (2.0 * math.pi, 44)):
            axis = _dense_axes(GridSpec.tensor(3, extent, 64), False)[0]
            assert np.unique(axis**2).size == distinct

    @pytest.mark.parametrize(
        "build",
        [
            lambda grid: gaussian_field(grid, 1.0, 1.0),
            lambda grid: sample_on_grid(GroundStateProfile(3, 0.5, 1.0), grid, 0.5),
        ],
        ids=["gaussian_field", "sample_on_grid"],
    )
    def test_allocates_its_output_and_at_most_1_mib(self, build):
        grid = GridSpec.tensor(3, 16.0, 64)
        geometry(grid).mesh
        tracemalloc.start()
        try:
            values = build(grid).values
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= values.nbytes + 2**20


_GEOMETRY_GRIDS = [
    pytest.param(GridSpec.radial(n, 10.0, points), id=f"radial{n}d-N{points}")
    for n in (3, 4, 6)
    for points in (64, 512)
]


class TestRadialGeometry:
    """One cached geometry holds the radial nodes, weights, spacing and face
    conductances; every radial table is built from it."""

    @pytest.mark.parametrize("grid", _GEOMETRY_GRIDS)
    def test_tables_equal_the_formulas_as_first_written(self, grid):
        n, points = grid.n, grid.points
        h = grid.r_max / points
        r = (np.arange(points) + 0.5) * h
        weights = sphere_area(n) * r ** (n - 1) * h
        f = n * h * np.cumsum(r ** (n - 1)) / ((np.arange(points) + 1.0) * h)
        denom = r ** (n - 1) * h * h
        upper = np.zeros(points)
        upper[:-1] = f[:-1] / denom[:-1]
        lower = np.zeros(points)
        lower[1:] = f[:-1] / denom[1:]
        diag = -(f + np.concatenate(([0.0], f[:-1]))) / denom
        geometry = grids.geometry(grid)
        assert grids.geometry(grid) is geometry
        assert geometry.spacing == h and geometry.n == n and geometry.r_max == grid.r_max
        assert np.array_equal(geometry.radii, r)
        assert np.array_equal(geometry.weights, weights)
        assert np.array_equal(geometry.conductances, f)
        bands = geometry.bands
        assert bands.dtype == np.complex128 and not np.any(bands.imag)
        assert np.array_equal(bands.real, [np.roll(upper, 1), diag, np.roll(lower, -1)])
        assert np.array_equal(geometry.variance_table, r**2 * weights)
        assert np.array_equal(
            geometry.shell_table, np.where(r >= 0.9 * grid.r_max, weights, 0.0)
        )
        assert np.array_equal(geometry.mesh[0], r)
        assert np.array_equal(radius_sq_values(grid), r**2)
        for b, delta in ((0.5, 0.0), (1.0, 0.1), (4.0 / 3.0, 1.0)):
            expected = (r**2 + delta**2) ** (-0.5 * b)
            assert np.array_equal(weight_values(grid, PotentialWeight(b, delta)), expected)
        expected = (1.3 * np.exp(-(r**2) / (2.0 * 0.7**2))).astype(np.complex128)
        assert np.array_equal(gaussian_field(grid, 1.3, 0.7).values, expected)
        coupling = np.sqrt(upper[:-1] * lower[1:])
        rows = np.abs(diag)
        rows[:-1] += coupling
        rows[1:] += coupling
        assert geometry.norm_bound == float(rows.max())
        for name in ("radii", "weights", "conductances", "bands", "variance_table", "shell_table"):
            assert not getattr(geometry, name).flags.writeable, name

    @pytest.mark.parametrize("grid", _GEOMETRY_GRIDS)
    def test_bands_self_adjoint_in_the_node_weights(self, grid):
        geometry = grids.geometry(grid)
        upper, lower = geometry.bands.real[0, 1:], geometry.bands.real[2, :-1]
        d = geometry.weights
        assert np.allclose(d[:-1] * upper, d[1:] * lower, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("grid", _GEOMETRY_GRIDS)
    def test_h1_seminorm_is_the_dirichlet_form_of_the_bands(self, grid):
        # hs_norm(u, 1)**2 = <u, -L_h u>_D, outer face included: the seminorm
        # and the operator read one boundary
        geometry = grids.geometry(grid)
        upper, diag, lower = geometry.bands.real
        rng = np.random.default_rng(grid.n * grid.points)
        for _ in range(3):
            v = rng.standard_normal(grid.points) + 1j * rng.standard_normal(grid.points)
            lap = diag * v
            lap[:-1] += upper[1:] * v[1:]
            lap[1:] += lower[:-1] * v[:-1]
            form = -np.vdot(v, geometry.weights * lap)
            assert abs(form.imag) <= 1e-12 * form.real
            assert hs_norm(Field(grid, v), 1) ** 2 == pytest.approx(form.real, rel=1e-12)


_CONTRACT_GRIDS = [
    pytest.param(GridSpec.radial(n, 12.0, 256), id=f"radial{n}d") for n in (3, 5)
] + [
    pytest.param(GridSpec.tensor(n, 12.0, points), id=f"tensor{n}d")
    for n, points in ((1, 64), (2, 32), (3, 16))
]


def _inline_blocked_h1(grid, v):
    """hs_sq(v, 1) on a tensor grid: N^(n-1) sum xi_0^2 |F_0 v|^2 over 8
    column blocks + N sum |xi'|^2 |F' v|^2 over 8 blocks of axis-0 planes
    (Parseval on the others)."""
    n, points, h = grid.n, grid.points, grid.extent / grid.points
    xi = 2.0 * math.pi * scipy.fft.fftfreq(points, d=h)
    workers = grids.thread_count()
    columns = v.reshape(points, -1)
    width = max(1, columns.shape[1] // 8)
    rows = np.zeros(points)
    for j in range(0, columns.shape[1], width):
        pairs = scipy.fft.fftn(columns[:, j : j + width], axes=(0,), workers=workers)
        pairs = pairs.view(np.float64)
        pairs *= pairs
        rows += pairs.sum(axis=1)
    total = points ** (n - 1) * float(np.sum(xi**2 * rows))
    if n > 1:
        rest = np.zeros([points] * (n - 1))
        for c in np.meshgrid(*([xi] * (n - 1)), indexing="ij"):
            rest += c**2
        cols = np.zeros(2 * rest.size)
        depth = max(1, points // 8)
        for i in range(0, points, depth):
            spectrum = scipy.fft.fftn(v[i : i + depth], axes=range(1, n), workers=workers)
            pairs = spectrum.view(np.float64).reshape(spectrum.shape[0], -1)
            pairs *= pairs
            cols += pairs.sum(axis=0)
        total += points * float(np.sum(rest.ravel() * cols.reshape(-1, 2).sum(axis=1)))
    return total * h**n / v.size


def _inline_members(grid, v, table):
    """Every geometry member as the grid-kind branches of ``grids`` wrote it
    inline before the geometries existed, for the field values ``v`` and
    a real ``table`` over the nodes."""
    a2 = v.real**2 + v.imag**2
    if grid.kind == "radial":
        n, points, h = grid.n, grid.points, grid.r_max / grid.points
        r = (np.arange(points) + 0.5) * h
        w = sphere_area(n) * r ** (n - 1) * h
        f = n * h * np.cumsum(r ** (n - 1)) / ((np.arange(points) + 1.0) * h)
        diff = np.empty_like(v)
        diff[:-1] = v[1:] - v[:-1]
        diff[-1] = -v[-1]
        pairs = np.square(diff.view(np.float64).reshape(-1, 2))
        denom = r ** (n - 1) * h * h
        diag = -(f + np.concatenate(([0.0], f[:-1]))) / denom
        coupling = np.sqrt(f[:-1] / denom[:-1] * (f[:-1] / denom[1:]))
        rows = np.abs(diag)
        rows[:-1] += coupling
        rows[1:] += coupling
        return {
            "mesh": (r,),
            "mass": float(np.dot(w, a2)),
            "integral": float(np.dot(w, table * a2)),
            "variance": float(np.dot(r**2 * w, a2)),
            "shell_mass": float(np.dot(np.where(r >= 0.9 * grid.r_max, w, 0.0), a2)),
            "hs_sq": {1: float(sphere_area(n) * np.dot(f, pairs).sum() / h)},
            "norm_bound": float(rows.max()),
            "origin_node": False,
            "symmetry": "radial",
        }
    n, points, h = grid.n, grid.points, grid.extent / grid.points
    cell = h**n
    axis = -0.5 * grid.extent + h * np.arange(points)
    xi = 2.0 * math.pi * scipy.fft.fftfreq(points, d=h)

    def split_sum(ax, a):
        # sum of |x|^2 (|xi|^2) times a, from the axis-0 and column marginals
        rest = np.zeros([points] * (n - 1))
        for c in np.meshgrid(*([ax] * (n - 1)), indexing="ij"):
            rest += c**2
        rest = rest.ravel()
        a = a.reshape(points, -1)
        cols = a.sum(axis=0).reshape(rest.size, -1)
        return float(np.sum(ax**2 * a.sum(axis=1)) + np.sum(rest[:, None] * cols))

    def spectral_pairs():
        uhat = scipy.fft.fftn(v.copy(), workers=grids.thread_count(), overwrite_x=True)
        pairs = uhat.view(np.float64)
        pairs *= pairs
        return pairs

    ksq = np.zeros(grid.shape)
    for c in np.meshgrid(*([xi] * n), indexing="ij"):
        ksq += c**2
    ksq **= 0.5
    half = float(np.einsum("i,ik->", ksq.ravel(), spectral_pairs().reshape(-1, 2)))
    core = np.flatnonzero(np.abs(axis) < 0.45 * grid.extent)
    core = slice(core[0], core[-1] + 1)
    shell = 0.0
    for k in range(n):
        for outer in (slice(0, core.start), slice(core.stop, None)):
            shell += np.sum(a2[(core,) * k + (outer,)])
    flat = np.ascontiguousarray(v).view(np.float64).ravel()
    return {
        "mesh": tuple(np.meshgrid(*([axis] * n), indexing="ij", sparse=True)),
        "mass": float(np.einsum("i,i->", flat, flat) * cell),
        "integral": float(np.einsum("i,i->", table.ravel(), a2.ravel()) * cell),
        "variance": split_sum(axis, a2) * cell,
        "shell_mass": float(shell * cell),
        "hs_sq": {1: _inline_blocked_h1(grid, v), 0.5: half * cell / v.size},
        "dense hs_sq 1": split_sum(xi, spectral_pairs()) * cell / v.size,
        "norm_bound": n * float(np.max(xi**2)),
        "origin_node": True,
        "symmetry": "finite_variance",
    }


class TestGeometryContract:
    """Both geometries have one set of members, and each member equals the
    formula it replaced bit for bit."""

    @pytest.mark.parametrize("grid", _CONTRACT_GRIDS)
    def test_members_equal_the_inline_formulas(self, grid):
        geo = geometry(grid)
        assert geometry(grid) is geo
        rng = np.random.default_rng(grid.n * grid.points)
        window = gaussian_field(grid, 1.3, 2.5).values
        v = window * (rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape))
        table = np.exp(4.0 * rng.standard_normal(grid.shape))  # few terms dominate each sum
        expected = _inline_members(grid, v, table)
        a2 = grids._abs_sq(v)
        for got, want in zip(geo.mesh, expected["mesh"], strict=True):
            assert np.array_equal(_bits(got), _bits(want))
        got = {
            "mass": geo.mass(v),
            "mass from a2": geo.mass(v, a2),
            "integral": geo.integral(table, a2),
            "variance": geo.variance(a2),
            "shell_mass": geo.shell_mass(a2),
            "norm_bound": geo.norm_bound,
        }
        got.update({f"hs_sq {s}": geo.hs_sq(v, s) for s in expected["hs_sq"]})
        want = {name: expected[name.split()[0]] for name in got if not name.startswith("hs")}
        want.update({f"hs_sq {s}": value for s, value in expected["hs_sq"].items()})
        for name, value in got.items():
            assert _bits(np.float64(value)) == _bits(np.float64(want[name])), name
        if "dense hs_sq 1" in expected:  # the full-spectrum sum it replaced
            dense = expected["dense hs_sq 1"]
            assert abs(got["hs_sq 1"] - dense) <= 1e-14 * dense
        assert geo.origin_node is expected["origin_node"]
        assert geo.symmetry == expected["symmetry"]

    @pytest.mark.parametrize(
        "grid",
        [
            pytest.param(GridSpec.tensor(2, 12.0, 32), id="tensor2d"),
            pytest.param(GridSpec.tensor(3, 12.0, 16), id="tensor3d"),
        ],
    )
    def test_hs_sq_1_pins_its_block_order(self, grid):
        # a random field spreads |grad u|^2 over many partial sums, so the
        # field above keeps its bits under blocks of N/4 as well.  Here one
        # xi_0 row carries nearly all of it: a sum over the columns of
        # N^2 |g|^2, with g within 1% of 1, that rounds by its blocking
        geo = geometry(grid)
        points = grid.points
        wave = np.exp(2j * np.pi * (points // 2 - 1) * np.arange(points) / points)
        rng = np.random.default_rng(grid.n)
        for k in range(16):
            v = np.multiply.outer(wave, 1.0 + 0.01 * rng.random(grid.shape[1:]))
            got, want = geo.hs_sq(v, 1), _inline_blocked_h1(grid, v)
            assert _bits(np.float64(got)) == _bits(np.float64(want)), k


class TestWeightedIntegrals:
    def test_zero_field(self):
        grid = GridSpec.radial(3, 8.0, 64)
        w = PotentialWeight(b=0.5, delta=0.0)
        assert weighted_potential(Field(grid, np.zeros(64)), w, 3.0) == 0.0

    def test_b_zero_reduces_to_plain_integral(self):
        grid = GridSpec.radial(3, 10.0, 512)
        u = gaussian_field(grid, 1.1, 1.0)
        w = PotentialWeight(b=0.0, delta=0.0)
        plain = float(np.sum(np.abs(u.values) ** 4 * geometry(grid).weights))
        assert weighted_potential(u, w, 2.0) == pytest.approx(plain, rel=1e-14)

    def test_radial_against_quad_oracle(self):
        grid = GridSpec.radial(3, 12.0, 4096)
        u = gaussian_field(grid, 1.0, 1.0)
        w = PotentialWeight(b=0.5, delta=0.0)
        sphere = 4 * math.pi

        def integrand(r):
            return r ** (2 - 0.5) * math.exp(-r ** 2 / 2) ** 5

        oracle, _ = quad(integrand, 0, np.inf)
        assert weighted_potential(u, w, 3.0) == pytest.approx(
            sphere * oracle, rel=1e-4
        )

    def test_tensor_needs_regularization(self):
        grid = GridSpec.tensor(2, 10.0, 32)
        u = gaussian_field(grid, 1.0, 1.0)
        with pytest.raises(ValueError):
            weighted_potential(u, PotentialWeight(b=0.5, delta=0.0), 2.0)
        value = weighted_potential(
            u, PotentialWeight(b=0.5, delta=grid.spacing), 2.0
        )
        assert value > 0


class TestVariance:
    def test_normalized_gaussian_second_moment(self):
        for n in (1, 2, 3):
            grid = GridSpec.tensor(n, 24.0, 64)
            assert variance(normalized_gaussian(grid)) == pytest.approx(n / 2, abs=1e-8)

    def test_zero_field(self):
        grid = GridSpec.tensor(1, 10.0, 32)
        assert variance(Field(grid, np.zeros(32))) == 0.0

    def test_translation_rule(self):
        # shifting concentrated data by a grid vector adds |a|^2 * mass
        grid = GridSpec.tensor(2, 24.0, 64)
        u = normalized_gaussian(grid)
        cells = 4
        a = cells * grid.spacing
        shifted = Field(grid, np.roll(u.values, cells, axis=0))
        expected = variance(u) + a ** 2 * mass(u)  # centered data: <x> = 0
        assert variance(shifted) == pytest.approx(expected, rel=1e-8)

    def test_weighted_quadratic_consistency(self):
        grid = GridSpec.tensor(2, 16.0, 32)
        u = gaussian_field(grid, 1.0, 1.0)
        assert weighted_quadratic(u, np.ones(grid.shape)) == pytest.approx(mass(u), rel=1e-14)
        assert weighted_quadratic(
            u, sum(ci ** 2 for ci in geometry(grid).mesh)
        ) == pytest.approx(variance(u), rel=1e-14)


def laplacian_apply(u):
    """The Laplacian as an oracle for the bands: spectral multiplier -|xi|^2
    on tensor grids; on radial grids the self-adjoint flux stencil of
    the geometry's bands, with zero flux through r = 0 and Dirichlet
    u = 0 at r_max, applied as a matrix product."""
    grid = u.grid
    if grid.kind == "tensor":
        out = scipy.fft.ifftn(-wavenumber_sq_values(grid) * scipy.fft.fftn(u.values))
        return Field(grid=grid, values=out, time_tag=u.time_tag)
    upper, diag, lower = geometry(grid).bands.real  # solve_banded rows
    v = u.values
    out = diag * v
    out[:-1] += upper[1:] * v[1:]
    out[1:] += lower[:-1] * v[:-1]
    return Field(grid=grid, values=out, time_tag=u.time_tag)


class TestLaplacian:
    def test_plane_wave_eigenfunction(self):
        grid = GridSpec.tensor(2, 8.0, 32)
        xs = geometry(grid).mesh
        xi = (2 * math.pi * 2 / 8.0, 2 * math.pi * 5 / 8.0)
        u = Field(grid, np.exp(1j * (xi[0] * xs[0] + xi[1] * xs[1])))
        lap = laplacian_apply(u)
        expected = -(xi[0] ** 2 + xi[1] ** 2) * u.values
        assert np.max(np.abs(lap.values - expected)) < 1e-10

    def test_constant_field(self):
        grid = GridSpec.tensor(1, 10.0, 32)
        lap = laplacian_apply(Field(grid, np.full(32, 2.5 + 0j)))
        assert np.max(np.abs(lap.values)) < 1e-12

    def test_radial_gaussian_accuracy(self):
        grid = GridSpec.radial(3, 12.0, 4096)
        r = geometry(grid).radii
        lap = laplacian_apply(Field(grid, np.exp(-r ** 2 / 2).astype(complex)))
        exact = (r ** 2 - 3) * np.exp(-r ** 2 / 2)
        assert np.max(np.abs(lap.values - exact)) < 5e-5

    def test_radial_quadratic_exact(self):
        grid = GridSpec.radial(4, 10.0, 256)
        r = geometry(grid).radii
        lap = laplacian_apply(Field(grid, (r ** 2).astype(complex)))
        # exact on quadratics away from the Dirichlet wall
        assert np.max(np.abs(lap.values[:-2] - 2 * grid.n)) < 1e-8

    def test_radial_convergence_order(self):
        errors = []
        for points in (1024, 2048):
            grid = GridSpec.radial(3, 12.0, points)
            r = geometry(grid).radii
            lap = laplacian_apply(Field(grid, np.exp(-r ** 2 / 2).astype(complex)))
            exact = (r ** 2 - 3) * np.exp(-r ** 2 / 2)
            w = geometry(grid).weights
            errors.append(math.sqrt(float(np.sum(np.abs(lap.values - exact) ** 2 * w))))
        order = math.log2(errors[0] / errors[1])
        assert 1.8 <= order <= 2.2


class TestBoundaryMonitor:
    def test_concentrated_data(self):
        grid = GridSpec.tensor(2, 24.0, 64)
        assert boundary_mass_fraction(normalized_gaussian(grid)) < 1e-6

    def test_shell_data(self):
        grid = GridSpec.radial(3, 10.0, 256)
        r = geometry(grid).radii
        ring = Field(grid, np.exp(-((r - 9.5) ** 2) * 20).astype(complex))
        assert boundary_mass_fraction(ring) > 0.9

    def test_zero_field(self):
        grid = GridSpec.tensor(2, 10.0, 16)
        assert boundary_mass_fraction(Field(grid, np.zeros(grid.shape))) == 0.0


class TestFieldDump:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        for grid in (GridSpec.tensor(2, 12.0, 16), GridSpec.radial(3, 8.0, 64)):
            values = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
            u = Field(grid, values, time_tag=0.375)
            meta = {"b": 0.5, "delta": 0.0, "sigma": 3.0, "lambda": -1.0}
            path = tmp_path / f"dump_{grid.kind}.bin"
            dump_field(u, path, meta)
            loaded, header = load_field(path)
            assert loaded.grid == grid
            assert loaded.time_tag == 0.375
            assert header["sigma"] == 3.0
            assert loaded.values.tobytes() == u.values.tobytes()  # bit-exact

    @pytest.mark.parametrize(
        "grid",
        [GridSpec.tensor(n, 8.0, 16) for n in (1, 2, 3)] + [GridSpec.radial(3, 5.0, 64)],
        ids=["tensor1d", "tensor2d", "tensor3d", "radial"],
    )
    def test_round_trip_returns_an_equal_grid(self, grid, tmp_path):
        path = tmp_path / "dump.bin"
        dump_field(gaussian_field(grid, 1.0, 1.0), path, {})
        loaded, _ = load_field(path)
        assert loaded.grid == grid and hash(loaded.grid) == hash(grid)
        assert (loaded.grid.extent, loaded.grid.r_max) == (grid.extent, grid.r_max)

    def test_strided_field_dumps_as_its_contiguous_copy(self, tmp_path):
        grid = GridSpec.tensor(3, 12.0, 32)
        rng = np.random.default_rng(4)
        strided = np.empty((32, 32 * 32 + 4), dtype=complex)[:, : 32 * 32].reshape(grid.shape)
        strided[...] = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
        contiguous = strided.copy()
        assert not strided.flags.c_contiguous and contiguous.flags.c_contiguous
        meta = {"b": 0.5, "delta": 0.25, "sigma": 3.0, "lambda": -1.0}
        dump_field(Field(grid, contiguous, 0.5), tmp_path / "contiguous.bin", meta)
        dump_field(Field(grid, strided, 0.5), tmp_path / "strided.bin", meta)
        data = (tmp_path / "strided.bin").read_bytes()
        assert data == (tmp_path / "contiguous.bin").read_bytes()
        loaded, _ = load_field(tmp_path / "strided.bin")
        assert loaded.values.tobytes() == contiguous.tobytes()

    def test_contiguous_field_is_dumped_without_a_copy(self, tmp_path):
        grid = GridSpec.tensor(3, 12.0, 32)
        u = gaussian_field(grid, 1.0, 1.0)
        meta = {"b": 0.5, "delta": 0.25, "sigma": 3.0, "lambda": -1.0}
        dump_field(u, tmp_path / "warm.bin", meta)
        tracemalloc.start()
        try:
            dump_field(u, tmp_path / "field.bin", meta)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < u.values[0].nbytes  # no copy of the field, not even of a plane

    def test_header_is_json_line(self, tmp_path):
        grid = GridSpec.radial(3, 8.0, 64)
        u = gaussian_field(grid, 1.0, 1.0)
        path = tmp_path / "dump.bin"
        dump_field(u, path, {"b": 0.5, "delta": 0.0, "sigma": 3.0, "lambda": -1.0})
        import json

        with open(path, "rb") as fh:
            header = json.loads(fh.readline().decode("utf-8"))
        assert header["kind"] == "radial"
        assert header["points"] == 64
