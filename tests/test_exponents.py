import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from inls.exponents import (
    CRITICAL,
    INF,
    CriticalityParams,
    ExponentError,
    HypothesisViolation,
    critical_power,
    fmt,
    gamma_of,
    hypothesis_report,
    is_admissible,
    region_comparison,
    working_exponent,
)
from paper_checks import dual_exponent_identity, holder_time_identity, sample_critical_params

F = Fraction


def params(n, s, b, sigma=CRITICAL, **kw):
    return CriticalityParams(n=n, s=F(s), b=F(b), sigma=sigma, **kw)


class TestCriticalPower:
    def test_reference_point(self):
        assert critical_power(3, F(1), F(1)) == F(2)

    def test_infinite_branch(self):
        assert critical_power(4, F(2), F(1, 2)) is INF

    def test_infinity_orders_exactly(self):
        huge = F(10**400, 3)  # beyond every finite float
        assert huge < INF and INF > huge and not INF < huge and INF != huge
        assert fmt(INF) == "inf"

    def test_hand_value(self):
        # (4 - 1)/(2 - 1) = 3, cross-checked by direct rational evaluation
        n, s, b = 2, F(1, 2), F(1, 2)
        expected = (4 - 2 * b) / (n - 2 * s)
        assert critical_power(n, s, b) == expected == F(3)

    def test_monotone_in_s(self):
        # strictly increasing in s on [0, n/2) for fixed n, b < 2
        n, b = 3, F(1, 2)
        values = [critical_power(n, F(k, 10), b) for k in range(0, 15)]
        assert all(x < y for x, y in zip(values, values[1:]))

    def test_rejects_negative_s(self):
        with pytest.raises(ValueError):
            critical_power(3, F(-1), F(1))

    def test_memo_keeps_refusing_floats_and_booleans(self):
        # memoised by type: a cached int or Fraction answers no bool or float
        assert critical_power(3, 1, 1) == critical_power(3, F(1), F(1, 1)) == F(2)
        for b in (True, 1.0):
            with pytest.raises(TypeError):
                critical_power(3, 1, b)

    def test_rejects_float(self):
        with pytest.raises(TypeError):
            critical_power(3, 0.5, F(1))


class TestGammaOf:
    def test_p_two_is_infinite(self):
        assert gamma_of(F(2), 3) is INF

    def test_endpoint(self):
        assert gamma_of(F(6), 3) == F(2)

    def test_working_point(self):
        assert gamma_of(F(18, 7), 3) == F(6)

    def test_p_infinite(self):
        assert gamma_of(INF, 1) == F(4)

    def test_rejects_small_p(self):
        with pytest.raises(ExponentError):
            gamma_of(F(3, 2), 3)

    def test_strictly_decreasing(self):
        n = 3
        ps = [F(2) + F(k, 10) for k in range(1, 41)]
        gs = [gamma_of(p, n) for p in ps]
        assert all(a > b for a, b in zip(gs, gs[1:]))


class TestAdmissibility:
    def test_upper_endpoint_included(self):
        assert is_admissible(F(6), 3)
        assert not is_admissible(F(7), 3)

    def test_infinity_only_in_1d(self):
        assert not is_admissible(INF, 2)
        assert is_admissible(INF, 1)

    def test_lower_endpoint(self):
        assert is_admissible(F(2), 1)


class TestWorkingExponent:
    def test_reference_point(self):
        r, eps = working_exponent(params(3, 1, 1))
        assert r == F(18, 7)
        assert eps is None

    def test_three_d_s_zero(self):
        # sigma = (4-1)/3 = 1; r = (2*3*1 + 6)/(3 + 2 + 0 - 1) = 12/4 = 3
        r, eps = working_exponent(params(3, 0, F(1, 2)))
        assert r == F(3)
        assert eps is None
        assert is_admissible(r, 3)

    def test_one_d_with_epsilon(self):
        p = params(1, 0, F(1, 4))
        assert p.sigma_value == F(7, 2)
        r, eps = working_exponent(p)
        assert eps == F(1, 4)  # half of min(3/4, 1/2)
        assert r == (F(7, 2) * 1 + 1) / (F(0) + 1 - F(1, 4) - F(1, 4))
        assert r == F(9)

    def test_gated_on_hypotheses(self):
        with pytest.raises(HypothesisViolation):
            working_exponent(params(3, 1, F(7, 4)))


class TestIdentities:
    def test_dual_identity_reference(self):
        assert dual_exponent_identity(params(3, 1, 1), F(18, 7))

    def test_dual_identity_four_d(self):
        p = params(4, 1, F(1, 2))
        assert p.sigma_value == F(3, 2)
        r, _ = working_exponent(p)
        assert dual_exponent_identity(p, r)

    def test_dual_identity_perturbed(self):
        assert not dual_exponent_identity(params(3, 1, 1), F(5, 2))

    def test_dual_identity_needs_three_d(self):
        with pytest.raises(ExponentError):
            dual_exponent_identity(params(2, 0, F(1, 2)), F(3))

    def test_holder_time_reference(self):
        # gamma(r) = 6, gamma(rbar) = gamma(6) = 2, so 1/2 = 3/6
        assert holder_time_identity(params(3, 1, 1), F(18, 7))

    def test_holder_time_gate(self):
        with pytest.raises(HypothesisViolation):
            holder_time_identity(params(3, 1, F(7, 4)), F(18, 7))

    def test_holder_time_three_d_s_zero(self):
        p = params(3, 0, F(1, 2))
        r, _ = working_exponent(p)
        assert holder_time_identity(p, r)

    def test_holder_time_rejects_inadmissible_r(self):
        with pytest.raises(ExponentError):
            holder_time_identity(params(3, 1, 1), F(7))


class TestHypothesisReport:
    def test_critical_lwp_holds(self):
        v = hypothesis_report("critical_lwp", params(3, 1, 1))
        assert v.holds
        assert len(v.checks) == 4

    def test_critical_lwp_b_too_large(self):
        v = hypothesis_report("critical_lwp", params(3, 1, F(7, 4)))
        assert not v.holds
        failed = [c for c in v.checks if not c.passed]
        assert any("b" in c.name for c in failed)
        assert "3/2" in [c for c in failed if "b" in c.name][0].values

    def test_no_short_circuit(self):
        # both s-range and b-range fail; every check is still present
        v = hypothesis_report("critical_lwp", params(3, F(3, 2), F(7, 4), sigma=F(1)))
        assert not v.holds
        assert len(v.checks) == 4

    def test_cylindrical_gate(self):
        v = hypothesis_report(
            "blowup_criterion", params(3, 1, F(1, 2)), symmetry="cylindrical"
        )
        assert not v.holds
        assert any(c.name == "b >= 4-n" and not c.passed for c in v.checks)

    def test_cylindrical_gate_passes_when_b_large(self):
        v = hypothesis_report(
            "blowup_criterion", params(4, 1, F(1), sigma=F(1)), symmetry="cylindrical"
        )
        assert v.holds

    def test_blowup_reference(self):
        v = hypothesis_report("blowup_criterion", params(3, 1, F(1, 2), sigma=F(3)))
        assert v.holds

    def test_subcritical(self):
        v = hypothesis_report("subcritical_lwp", params(3, 1, 1, sigma=F(1)))
        assert v.holds
        v2 = hypothesis_report("subcritical_lwp", params(3, 1, 1, sigma=F(2)))
        assert not v2.holds  # sigma equals the critical power

    def test_continuous_dependence_model_clause(self):
        # n=5, s=2, b=1/4: sigma = (4 - 1/2)/1 = 7/2, needs sigma >= ceil(s) = 2
        v = hypothesis_report("continuous_dependence", params(5, 2, F(1, 4)))
        assert v.holds
        # n=6, s=2, b=1: sigma = 1 < ceil(s): clause fails
        v2 = hypothesis_report("continuous_dependence", params(6, 2, 1))
        assert not v2.holds

    def test_continuous_dependence_polynomial_flag(self):
        p = params(6, 2, 1)  # sigma = 1, integer: polynomial branch accepts
        v = hypothesis_report("continuous_dependence", p, polynomial_f=True)
        assert v.holds

    def test_unknown_criterion(self):
        with pytest.raises(ExponentError):
            hypothesis_report("nonsense", params(3, 1, 1))

    def test_unknown_symmetry(self):
        # a misspelt "cylindrical" must not silently drop the b >= 4-n gate
        for criterion in ("blowup_criterion", "critical_lwp"):
            with pytest.raises(ExponentError, match="unknown symmetry 'Cylindrical'"):
                hypothesis_report(criterion, params(3, 1, F(1, 2)), symmetry="Cylindrical")
        for symmetry in (None, "finite_variance", "radial", "cylindrical", "none"):
            hypothesis_report("blowup_criterion", params(3, 1, F(1, 2)), symmetry=symmetry)


class TestRegionComparison:
    def test_extended_only_by_b(self):
        rep = region_comparison(params(3, 1, F(5, 4)))
        assert rep.classification == "extended_only"
        assert rep.baseline_bound == F(1)
        assert rep.extended_bound == F(3, 2)

    def test_extended_only_by_s(self):
        rep = region_comparison(params(5, 2, F(1, 2)))
        assert rep.classification == "extended_only"
        assert rep.baseline_bound is None

    def test_both(self):
        rep = region_comparison(params(3, 0, F(1, 2)))
        assert rep.classification == "both"


class TestExactArithmetic:
    @given(
        st.fractions(min_value=F(-100), max_value=F(100), max_denominator=997),
        st.fractions(min_value=F(-100), max_value=F(100), max_denominator=997),
    )
    def test_reciprocal_product(self, a, b):
        if a != 0 and b != 0:
            x = a / b
            assert x * (b / a) == 1

    @given(st.fractions(max_denominator=10**6))
    def test_normalization_idempotent(self, q):
        assert Fraction(q.numerator, q.denominator) == q
        assert math.gcd(q.numerator, q.denominator) == 1


class TestRandomTupleProperties:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(min_value=0, max_value=10**9))
    def test_working_exponent_properties(self, seed):
        rng = random.Random(seed)
        p = sample_critical_params(rng)
        r, eps = working_exponent(p)
        assert is_admissible(r, p.n)
        assert 1 / r > F(p.s, 1) / p.n
        assert holder_time_identity(p, r)
        if p.n >= 3:
            assert eps is None
            assert dual_exponent_identity(p, r)
        else:
            assert eps is not None
            assert 0 < eps < min(p.n - p.s - p.b, F(p.n, 2))
