"""Test-only checks of the library's numbers and test-data generators.

The paper's exponent identities (the dual-exponent and Hölder-in-time
relations of its contraction argument) and the threshold function g(y) are
checks of what ``inls`` computes, not run code, so they live with the tests;
``sample_critical_params`` draws test tuples and ``wavenumber_sq_values`` is
the tests' dense |xi|^2 reference.
"""
from __future__ import annotations

import random
from fractions import Fraction

import numpy as np

from inls.exponents import (
    CRITICAL,
    INF,
    CriticalityParams,
    ExponentError,
    ExtendedRational,
    HypothesisViolation,
    RationalLike,
    _b_cap,
    _epsilon_choice,
    as_rational,
    fmt,
    hypothesis_report,
    is_admissible,
)
from inls.grids import GridSpec, _radial_table, geometry
from inls.ground_state import GroundStateQuantities


def _inv_gamma(p: ExtendedRational, n: int) -> Fraction:
    # 1/gamma(p) = n/4 - n/(2p), with 1/gamma = 0 at p = 2 and n/4 at p = inf
    if p is INF:
        return Fraction(n, 4)
    p = as_rational(p)
    return Fraction(n, 4) - Fraction(n, 1) / (2 * p)


def dual_exponent_identity(params: CriticalityParams, r: RationalLike) -> bool:
    """Exact check of 1/rbar' = sigma*(1/r - s/n) + 1/r + b/n with
    rbar = 2n/(n-2); defined for n >= 3."""
    n = params.n
    if n < 3:
        raise ExponentError("dual exponent identity requires n >= 3")
    r = as_rational(r)
    s, b = params.s, params.b
    sig = params.sigma_value
    lhs = 1 - Fraction(n - 2, 2 * n)  # 1 - 1/rbar
    rhs = sig * (1 / r - Fraction(s, 1) / n) + 1 / r + Fraction(b, 1) / n
    return lhs == rhs


def holder_time_identity(params: CriticalityParams, r: RationalLike) -> bool:
    """Exact check of 1/gamma(rbar)' = (sigma+1)/gamma(r) with rbar fixed by
    the contraction construction (2n/(n-2) for n >= 3, n/eps for n <= 2)."""
    verdict = hypothesis_report("critical_lwp", params)
    if not verdict.holds:
        raise HypothesisViolation(verdict)
    r = as_rational(r)
    n = params.n
    if not is_admissible(r, n):
        raise ExponentError(f"r = {fmt(r)} is not admissible for n = {n}")
    if n >= 3:
        rbar: ExtendedRational = Fraction(2 * n, n - 2)
    else:
        eps = _epsilon_choice(n, params.s, params.b)
        rbar = Fraction(n, 1) / eps
    sig = params.sigma_value
    lhs = 1 - _inv_gamma(rbar, n)          # 1/gamma(rbar)'
    rhs = (sig + 1) * _inv_gamma(r, n)     # (sigma+1)/gamma(r)
    return lhs == rhs


def sample_critical_params(rng: random.Random, n_max: int = 6) -> CriticalityParams:
    """Draw one random parameter tuple satisfying the critical
    well-posedness hypotheses (rejection sampling, exact arithmetic)."""
    while True:
        n = rng.randint(1, n_max)
        den = rng.randint(1, 8)
        max_num = (n * den) // 2 if (n * den) % 2 else (n * den) // 2 - 1
        s = Fraction(rng.randint(0, max(max_num, 0)), den)
        if not s < Fraction(n, 2):
            continue
        cap = _b_cap(n, s)
        if cap <= 0:
            continue
        b = cap * Fraction(rng.randint(1, 63), 64)
        params = CriticalityParams(n=n, s=s, b=b, sigma=CRITICAL)
        if hypothesis_report("critical_lwp", params).holds:
            return params


def g_threshold(y: float, gs: GroundStateQuantities) -> float:
    """Threshold function g(y) = y^2/2 - (C^(sigma1+2)/(sigma1+2)) y^(sigma1+2)
    built from the sharp embedding constant; its maximizer is the bubble's
    H1 seminorm and the maximum equals the bubble's energy."""
    if y < 0:
        raise ValueError("argument must be >= 0")
    sig1 = gs.profile.sigma1
    return 0.5 * y**2 - gs.c_hs ** (sig1 + 2.0) / (sig1 + 2.0) * y ** (sig1 + 2.0)


def wavenumber_sq_values(grid: GridSpec) -> np.ndarray:
    """|xi|^2 at every wavenumber of a tensor grid, built on each call by
    ``_radial_table``; the caller owns the array."""
    return _radial_table([geometry(grid).wavenumber_axis] * grid.n)
