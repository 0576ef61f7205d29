"""Exact rational arithmetic for the exponent relations of the weighted NLS.

Every quantity here is an integer, a ``fractions.Fraction``, or the infinity
marker ``INF`` (``math.inf``, which every Fraction compares below exactly).
The only other floats are the ``*_float`` views the time steppers read: the
admissibility and criticality relations are rational identities and are
checked exactly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Optional, Union

CRITICAL = "critical"

LAMBDA_SIGNS = ("focusing", "defocusing", "complex")

#: Symmetry classes the blow-up criterion may assume of the data.
SYMMETRY_CLASSES = ("finite_variance", "radial", "cylindrical", "none")

#: Hypothesis predicates exposed by :func:`hypothesis_report`.
CRITERIA = (
    "subcritical_lwp",        # subcritical local well-posedness
    "critical_lwp",           # critical local well-posedness (model nonlinearity)
    "continuous_dependence",  # critical standard continuous dependence
    "blowup_criterion",       # energy-critical focusing blow-up hypotheses
)


class ExponentError(ValueError):
    """Base error for exponent arithmetic."""


class HypothesisViolation(ExponentError):
    """Raised when a computation is gated on hypotheses that do not hold."""

    def __init__(self, verdict: "Verdict"):
        failed = [c.name for c in verdict.checks if not c.passed]
        super().__init__(
            f"hypotheses of {verdict.criterion} violated: " + "; ".join(failed)
        )


INF = math.inf

RationalLike = Union[int, str, Fraction]
ExtendedRational = Union[Fraction, float]  # a float only as INF


def as_rational(value: RationalLike) -> Fraction:
    """Coerce to an exact Fraction.  Floats are rejected: exactness is the
    module contract, and a binary float silently misrepresents most decimals."""
    if isinstance(value, bool):
        raise TypeError("booleans are not rational parameters")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(
        f"exact rational required, got {type(value).__name__}; "
        "pass an int, Fraction, or 'p/q' string"
    )


def fmt(value) -> str:
    """Render a rational or INF the way reports print it."""
    if value is INF:
        return "inf"
    if value is None:
        return "none"
    return str(value)


def is_even_integer(x: Fraction) -> bool:
    return x.denominator == 1 and x.numerator % 2 == 0


@dataclass(frozen=True)
class CriticalityParams:
    """The exact parameter tuple (n, s, b, sigma) plus the coupling character.

    ``sigma`` may be the marker ``"critical"``, in which case the power is
    resolved from (n, s, b); that requires s < n/2.
    """

    n: int
    s: Fraction
    b: Fraction
    sigma: Union[Fraction, str] = CRITICAL
    lambda_sign: str = "focusing"

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 1:
            raise ValueError("dimension n must be a positive integer")
        object.__setattr__(self, "s", as_rational(self.s))
        object.__setattr__(self, "b", as_rational(self.b))
        if self.s < 0:
            raise ValueError("regularity s must be >= 0")
        if self.b <= 0:
            raise ValueError("decay exponent b must be > 0")
        if self.sigma == CRITICAL:
            if not self.s < Fraction(self.n, 2):
                raise ValueError(
                    "critical sigma requires s < n/2 "
                    f"(got s = {fmt(self.s)}, n/2 = {fmt(Fraction(self.n, 2))})"
                )
        else:
            object.__setattr__(self, "sigma", as_rational(self.sigma))
            if self.sigma <= 0:
                raise ValueError("nonlinearity power sigma must be > 0")
        if self.lambda_sign not in LAMBDA_SIGNS:
            raise ValueError(f"lambda_sign must be one of {LAMBDA_SIGNS}")

    @cached_property
    def sigma_value(self) -> Fraction:
        """The nonlinearity power, resolving the critical marker (once per
        instance: the time steppers read it every step)."""
        if self.sigma == CRITICAL:
            return critical_power(self.n, self.s, self.b)  # finite: s < n/2
        return self.sigma

    @cached_property
    def sigma_float(self) -> float:
        """``sigma_value`` as a float, converted once per instance."""
        return float(self.sigma_value)

    @cached_property
    def b_float(self) -> float:
        """``b`` as a float, converted once per instance."""
        return float(self.b)


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    values: str


@dataclass(frozen=True)
class Verdict:
    """Outcome of a hypothesis predicate: one row per condition, no
    short-circuiting, exact values rendered in every row."""

    criterion: str
    holds: bool
    checks: tuple


@lru_cache(maxsize=64, typed=True)
def critical_power(n: int, s: Fraction, b: RationalLike) -> ExtendedRational:
    """Scaling-critical power (4-2b)/(n-2s) for s < n/2, INF for s >= n/2.
    Memoised (typed, so True is never taken for 1): a run's set-up asks for
    the same power from its params, its bubble's sigma1 and every
    hypothesis report, at ~14 us of Fraction arithmetic a call."""
    s = as_rational(s)
    b = as_rational(b)
    if s < 0:
        raise ValueError("requires s >= 0")
    if s >= Fraction(n, 2):
        return INF
    return (4 - 2 * b) / (n - 2 * s)


def gamma_of(p: ExtendedRational, n: int) -> ExtendedRational:
    """Time exponent gamma with 2/gamma = n/2 - n/p; INF at p = 2."""
    if p is INF:
        return Fraction(4, n)
    p = as_rational(p)
    if p < 2:
        raise ExponentError(f"p must be >= 2, got {fmt(p)}")
    if p == 2:
        return INF
    return (4 * p) / (n * (p - 2))


def is_admissible(p: ExtendedRational, n: int) -> bool:
    """Whether p lies in the n-dependent Strichartz range."""
    if p is INF:
        return n == 1
    p = as_rational(p)
    if p < 2:
        return False
    if n >= 3:
        return p <= Fraction(2 * n, n - 2)
    return True  # n = 2: [2, inf); n = 1: [2, inf], finite p always fine


def _epsilon_choice(n: int, s: Fraction, b: Fraction) -> Fraction:
    # midpoint of the admissible window 0 < eps < min(n - s - b, n/2)
    return Fraction(1, 2) * min(n - s - b, Fraction(n, 2))


def working_exponent(params: CriticalityParams):
    """Space exponent r of the contraction scheme, with the eps used for
    n <= 2 (eps = half of min(n-s-b, n/2)); requires the critical
    well-posedness hypotheses.

    Returns ``(r, epsilon_used)`` where ``epsilon_used`` is None for n >= 3.
    """
    verdict = hypothesis_report("critical_lwp", params)
    if not verdict.holds:
        raise HypothesisViolation(verdict)
    n, s, b = params.n, params.s, params.b
    sig = params.sigma_value
    if n >= 3:
        r = (2 * n * sig + 2 * n) / (n + 2 + 2 * sig * s - 2 * b)
        return r, None
    eps = _epsilon_choice(n, s, b)
    r = (sig * n + n) / (sig * s + n - b - eps)
    return r, eps


def _b_cap(n: int, s: Fraction) -> Fraction:
    return min(Fraction(2), n - s, 1 + Fraction(n - 2 * s, 2))


def hypothesis_report(
    criterion: str,
    params: CriticalityParams,
    polynomial_f: bool = False,
    symmetry: Optional[str] = None,
) -> Verdict:
    """Evaluate every hypothesis of the named criterion with exact values.

    All conditions are evaluated and reported even after the first failure.
    ``polynomial_f`` selects the polynomial-nonlinearity branch of the
    continuous-dependence criterion; ``symmetry``, None or one of
    ``SYMMETRY_CLASSES``, is the data's symmetry, and ``'cylindrical'`` adds
    the b >= 4-n gate of the blow-up criterion.
    """
    if criterion not in CRITERIA:
        raise ExponentError(f"unknown criterion {criterion!r}; expected one of {CRITERIA}")
    if symmetry is not None and symmetry not in SYMMETRY_CLASSES:
        raise ExponentError(f"unknown symmetry {symmetry!r}; expected one of {SYMMETRY_CLASSES}")
    n, s, b = params.n, params.s, params.b
    sig = params.sigma_value
    half = Fraction(n, 2)
    checks = []

    def add(name, ok, values):
        checks.append(Check(name, bool(ok), values))

    def add_b_cap():
        cap = _b_cap(n, s)
        add("0 < b < min(2, n-s, 1+(n-2s)/2)", 0 < b < cap, f"b = {fmt(b)}, bound = {fmt(cap)}")

    def add_critical_sigma():
        target = critical_power(n, s, b)
        add("sigma = (4-2b)/(n-2s)", sig == target, f"sigma = {fmt(sig)}, critical = {fmt(target)}")

    def add_even_model_case() -> bool:
        """The polynomial model case, when sigma is an even integer."""
        if is_even_integer(sig):
            add("model case: sigma even integer (polynomial)", True, f"sigma = {fmt(sig)}")
        return is_even_integer(sig)

    if criterion == "critical_lwp":
        add("0 <= s < n/2", 0 <= s < half, f"s = {fmt(s)}, n/2 = {fmt(half)}")
        add_b_cap()
        add_critical_sigma()
        if not add_even_model_case():
            floor_req = math.ceil(s) - 1
            add(
                "model case: sigma > ceil(s)-1",
                sig > floor_req,
                f"sigma = {fmt(sig)}, ceil(s)-1 = {floor_req}",
            )
    elif criterion == "subcritical_lwp":
        s_cap = min(Fraction(n), half + 1)
        add("0 <= s < min(n, n/2+1)", 0 <= s < s_cap, f"s = {fmt(s)}, bound = {fmt(s_cap)}")
        add_b_cap()
        target = critical_power(n, s, b)
        add(
            "0 < sigma < critical power",
            0 < sig and sig < target,
            f"sigma = {fmt(sig)}, critical = {fmt(target)}",
        )
    elif criterion == "continuous_dependence":
        add("0 < s < n/2", 0 < s < half, f"s = {fmt(s)}, n/2 = {fmt(half)}")
        add_b_cap()
        add_critical_sigma()
        if polynomial_f:
            ok = sig.denominator == 1 and sig >= 1
            add(
                "polynomial f: deg f = 1+sigma is an integer >= 2",
                ok,
                f"sigma = {fmt(sig)}",
            )
        elif not add_even_model_case():
            if s < 1:
                ok = sig > 1
                detail = f"0 < s < 1 requires sigma > 1; sigma = {fmt(sig)}"
            else:
                ok = sig >= math.ceil(s)
                detail = f"s >= 1 requires sigma >= ceil(s) = {math.ceil(s)}; sigma = {fmt(sig)}"
            add("model case regularity clause", ok, detail)
    else:  # blowup_criterion
        add("n >= 3", n >= 3, f"n = {n}")
        cap = min(Fraction(2), half)
        add("0 < b < min(2, n/2)", 0 < b < cap, f"b = {fmt(b)}, bound = {fmt(cap)}")
        if n >= 3:
            target = critical_power(n, 1, b)
            add(
                "sigma = (4-2b)/(n-2)",
                sig == target,
                f"sigma = {fmt(sig)}, energy-critical = {fmt(target)}",
            )
        else:
            add("sigma = (4-2b)/(n-2)", False, "undefined for n < 3")
        if symmetry == "cylindrical":
            add("b >= 4-n", b >= 4 - n, f"b = {fmt(b)}, 4-n = {4 - n}")

    holds = all(c.passed for c in checks)
    return Verdict(criterion=criterion, holds=holds, checks=tuple(checks))


@dataclass(frozen=True)
class RegionReport:
    """Coverage of (n, s, b) by the baseline admissible region
    (0 <= s <= 1, s < n/2, b < min(2, n-2s)) versus the extended region
    (0 <= s < n/2, b < min(2, n-s, 1+(n-2s)/2))."""

    baseline_bound: Optional[Fraction]
    extended_bound: Fraction
    classification: str


def region_comparison(params: CriticalityParams) -> RegionReport:
    n, s, b = params.n, params.s, params.b
    half = Fraction(n, 2)
    baseline_bound = min(Fraction(2), n - 2 * s) if s <= 1 and s < half else None
    extended_bound = _b_cap(n, s)
    in_baseline = baseline_bound is not None and 0 < b < baseline_bound
    in_extended = 0 <= s < half and 0 < b < extended_bound
    if in_baseline and in_extended:
        classification = "both"
    elif in_extended:
        classification = "extended_only"
    elif in_baseline:
        classification = "baseline_only"
    else:
        classification = "neither"
    return RegionReport(
        baseline_bound=baseline_bound,
        extended_bound=extended_bound,
        classification=classification,
    )
