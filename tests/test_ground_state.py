import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import minimize_scalar

from inls.grids import GridSpec, geometry
from inls.ground_state import (
    GroundStateProfile,
    compute_quantities,
    sample_on_grid,
    sphere_area,
    w_eval,
)


def closed_form_h1(n: int, b: float) -> float:
    # Beta-function reduction of the bubble integrals (independent oracle):
    # substitute v = r^(2-b)/eps in either integral; both reduce to
    # S_{n-1} [(n-b)(n-2)]^a B(a, a)/(2-b) with a = (n-b)/(2-b).
    a = (n - b) / (2.0 - b)
    beta = math.gamma(a) ** 2 / math.gamma(2 * a)
    return sphere_area(n) * ((n - b) * (n - 2.0)) ** a * beta / (2.0 - b)


class TestProfileEvaluation:
    def test_peak_value_classic(self):
        # numerator [1*3*1]^(1/4), denominator 1
        assert w_eval(GroundStateProfile(3, 0.0, 1.0), 0.0) == pytest.approx(3 ** 0.25, rel=1e-15)

    def test_far_field_decay_rate(self):
        profile = GroundStateProfile(3, 0.0, 1.0)
        # decay r^-1 for n=3, b=0
        assert w_eval(profile, 1e6) * 1e6 == pytest.approx(profile.amplitude, rel=1e-5)

    def test_high_precision_point(self):
        # independent high-precision evaluation with mpmath
        profile = GroundStateProfile(4, 0.5, 2.0)
        with mpmath.workdps(50):
            num = (mpmath.mpf(2) * mpmath.mpf("3.5") * 2) ** (mpmath.mpf(2) / 3)
            den = (mpmath.mpf(2) + 1) ** (mpmath.mpf(2) / mpmath.mpf("1.5"))
            expected = float(num / den)
        assert w_eval(profile, 1.0) == pytest.approx(expected, rel=1e-14)

    def test_monotone_decreasing(self):
        profile = GroundStateProfile(5, 1.5, 0.7)
        r = np.linspace(0.0, 50.0, 400)
        values = w_eval(profile, r)
        assert np.all(np.diff(values) < 0)
        assert np.all(values > 0)

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            GroundStateProfile(2, 0.5)
        with pytest.raises(ValueError):
            GroundStateProfile(3, 2.0)
        with pytest.raises(ValueError):
            GroundStateProfile(3, 0.5, 0.0)


class TestSampleOnGrid:
    @pytest.mark.parametrize(
        "grid", [GridSpec.radial(4, 16.0, 64), GridSpec.tensor(2, 16.0, 16)], ids=["radial", "tensor"]
    )
    def test_refuses_a_grid_of_another_dimension(self, grid):
        with pytest.raises(ValueError, match="dimension"):
            sample_on_grid(GroundStateProfile(3, 0.5), grid)

    @pytest.mark.parametrize(
        "n, r_max, points", [(3, 32.0, 2048), (3, 16.0, 512), (4, 10.0, 64), (5, 7.3, 1000)]
    )
    def test_radial_samples_are_w_at_the_nodes_bit_for_bit(self, n, r_max, points):
        # the nodes are sampled at sqrt(r * r), which is r exactly
        grid = GridSpec.radial(n, r_max, points)
        profile = GroundStateProfile(n, 0.5, 1.0)
        r = geometry(grid).radii
        expected = (0.4995 * w_eval(profile, r)).astype(complex)
        values = sample_on_grid(profile, grid, 0.4995).values
        assert np.array_equal(values.view(np.uint64), expected.view(np.uint64))


class TestSigma1:
    """sigma1 is the exact critical power (4-2b)/(n-2) at s = 1, rounded once."""

    def test_exact_rational_b(self):
        profile = GroundStateProfile(6, Fraction(19, 10))
        assert profile.sigma1 == 0.05  # (4 - 2b)/(n - 2) in floats: 0.050000000000000044
        q = compute_quantities(profile)
        assert q.energy == 0.5 * q.h1dot_sq - q.potential_integral / 2.05
        assert q.c_hs == q.potential_integral ** (1.0 / 2.05) / math.sqrt(q.h1dot_sq)
        assert q.scaled(1.2)[0] == (0.5 * 1.2**2 - 1.2**2.05 / 2.05) * q.h1dot_sq

    def test_float_b_is_read_exactly(self):
        # a float b is the rational it stores: b = 0.5 gives sigma1 = 3, and
        # the float formulas of a Fraction profile see the float of b
        assert GroundStateProfile(3, 0.5).sigma1 == 3.0
        assert GroundStateProfile(6, 1.9).sigma1 == float((4 - 2 * Fraction(1.9)) / 4)
        exact, rounded = GroundStateProfile(4, Fraction(1, 3)), GroundStateProfile(4, 1 / 3)
        assert (exact.amplitude, exact.decay) == (rounded.amplitude, rounded.decay)


class TestQuantities:
    def test_matches_beta_closed_form(self):
        for n, b, eps in [(3, 0.0, 1.0), (3, 0.5, 3.0), (4, 1.0, 0.5), (5, 1.5, 2.0)]:
            q = compute_quantities(GroundStateProfile(n, b, eps))
            assert q.h1dot_sq == pytest.approx(closed_form_h1(n, b), rel=1e-11)
            assert q.potential_integral == pytest.approx(closed_form_h1(n, b), rel=1e-11)

    def test_matches_adaptive_quadrature_oracle(self):
        profile = GroundStateProfile(3, 0.5, 1.0)
        q = compute_quantities(profile)
        sig1 = profile.sigma1

        def pot_integrand(r):
            return r ** (3 - 1 - 0.5) * w_eval(profile, r) ** (sig1 + 2)

        oracle, _ = quad(pot_integrand, 0.0, np.inf, limit=400)
        assert q.potential_integral == pytest.approx(sphere_area(3) * oracle, rel=1e-9)

    def test_pohozaev_residual(self):
        q = compute_quantities(GroundStateProfile(3, 0.0, 1.0))
        assert abs(q.h1dot_sq - q.potential_integral) / q.h1dot_sq <= 1e-8

    def test_sharp_constant_epsilon_invariance(self):
        a = compute_quantities(GroundStateProfile(3, 0.5, 1.0))
        b = compute_quantities(GroundStateProfile(3, 0.5, 3.0))
        assert abs(a.c_hs - b.c_hs) / a.c_hs <= 1e-8

    def test_closed_form_chain(self):
        n, b = 3, 0.5
        q = compute_quantities(GroundStateProfile(n, b, 1.0))
        power = -2 * (n - b) / (2 - b)
        assert q.h1dot_sq == pytest.approx(q.c_hs ** power, rel=1e-6)
        assert q.energy == pytest.approx(
            (2 - b) / (2 * (n - b)) * q.c_hs ** power, rel=1e-6
        )

    def test_energy_positive(self):
        q = compute_quantities(GroundStateProfile(4, 0.25, 1.0))
        assert q.energy > 0
        assert q.energy == pytest.approx(
            0.5 * q.h1dot_sq - q.potential_integral / (q.profile.sigma1 + 2), rel=1e-14
        )

    @pytest.mark.parametrize("n, b", [(5, 1.9), (6, 1.9), (7, 1.9)])
    def test_matches_mpmath_near_b_two(self, n, b):
        # 40-digit quadrature of both kernels at eps = 1; the integrals do
        # not depend on eps (W_eps is a dilation of W_1 that keeps both)
        with mpmath.workdps(40):
            n_, b_ = mpmath.mpf(n), mpmath.mpf(b)
            q, k = 2 - b_, (n_ - 2) / (2 - b_)
            amp = ((n_ - b_) * (n_ - 2)) ** (k / 2)
            sig1 = (4 - 2 * b_) / (n_ - 2)
            area = 2 * mpmath.pi ** (n_ / 2) / mpmath.gamma(n_ / 2)
            pts = [0, mpmath.mpf("0.01"), 1, 100, mpmath.inf]
            h1 = area * mpmath.quad(
                lambda r: (amp * k * q * r ** (1 - b_) / (1 + r**q) ** (k + 1)) ** 2 * r ** (n_ - 1),
                pts,
            )
            pot = area * mpmath.quad(
                lambda r: r ** (n_ - 1 - b_) * (amp / (1 + r**q) ** k) ** (sig1 + 2), pts
            )
        for eps in (0.01, 1.0, 100.0):
            quantities = compute_quantities(GroundStateProfile(n, b, eps))
            assert quantities.h1dot_sq == pytest.approx(float(h1), rel=1e-12)
            assert quantities.potential_integral == pytest.approx(float(pot), rel=1e-12)

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    def test_pohozaev_and_epsilon_spread_at_roundoff(self, n):
        for b in (0.0, 0.25, 0.5, 1.0, 1.5, 1.9):
            qs = [compute_quantities(GroundStateProfile(n, b, eps)) for eps in (0.01, 1.0, 100.0)]
            for q in qs:
                assert abs(q.h1dot_sq - q.potential_integral) / q.h1dot_sq <= 1e-12
            c_hs = [q.c_hs for q in qs]
            assert (max(c_hs) - min(c_hs)) / c_hs[1] <= 1e-12

    def test_out_of_range_bubble_is_a_value_error(self):
        # n = 7, b = 1.99: the amplitude (eps * 5.01 * 5)^250 overflows at
        # eps = 1; at eps = 0.01 it is finite but both integrals overflow
        with pytest.raises(ValueError, match="amplitude"):
            GroundStateProfile(7, 1.99, 1.0)
        with pytest.raises(ValueError, match="integrals"):
            compute_quantities(GroundStateProfile(7, 1.99, 0.01))


class TestScaledEnergy:
    """E(cW) and |cW|_H1 from ``GroundStateQuantities.scaled``."""

    def test_unit_scale(self):
        q = compute_quantities(GroundStateProfile(3, 0.5, 1.0))
        e0, h1 = q.scaled(1.0)
        sig1 = q.profile.sigma1
        assert e0 == pytest.approx((0.5 - 1.0 / (sig1 + 2)) * q.h1dot_sq, rel=1e-15)
        assert e0 == pytest.approx(q.energy, rel=1e-14)  # the bubble's own energy
        assert h1 == q.h1dot

    def test_reference_value(self):
        # n=3, b=1/2 gives sigma1=3: 0.72 - 1.2^5/5 = 0.222336 exactly
        q = compute_quantities(GroundStateProfile(3, 0.5, 1.0))
        e0, h1 = q.scaled(1.2)
        assert e0 / q.h1dot_sq == pytest.approx(0.222336, abs=1e-12)
        # the classifier's operations in their order, so e0 keeps its bits
        assert e0 == (0.5 * 1.2**2 - 1.2**5.0 / 5.0) * q.h1dot_sq
        assert h1 == 1.2 * q.h1dot

    def test_small_scale_limit(self):
        q = compute_quantities(GroundStateProfile(3, 0.5, 1.0))
        e0, _ = q.scaled(1e-6)
        assert 0 < e0 / q.h1dot_sq < 1e-11

    def test_rejects_nonpositive(self):
        # the one check of c, which every outside c passes through
        from inls.diagnostics import ScaledGroundState

        for c in (0.0, -0.5, math.nan):
            with pytest.raises(ValueError, match="scale factor must be positive"):
                ScaledGroundState(c)


class TestThresholdGeometry:
    def test_threshold_peaks_at_bubble_norm(self):
        from paper_checks import g_threshold

        for n, b in [(3, 0.5), (4, 1.0), (5, 1.5)]:
            q = compute_quantities(GroundStateProfile(n, b, 1.0))
            h1w = math.sqrt(q.h1dot_sq)
            res = minimize_scalar(
                lambda y: -g_threshold(y, q),
                bracket=(0.1 * h1w, h1w, 5 * h1w),
                method="golden",
                options={"xtol": 1e-12},
            )
            assert res.x == pytest.approx(h1w, rel=1e-6)
            assert -res.fun == pytest.approx(q.energy, rel=1e-6)
