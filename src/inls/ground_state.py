"""Explicit ground-state bubble of the weighted energy-critical NLS and its
sharp embedding constant.

The profile is W(r) = [eps (n-b)(n-2)]^((n-2)/(4-2b)) / (eps + r^(2-b))^((n-2)/(2-b)).
It is the Hardy-Sobolev extremal (Lieb, Ann. of Math. 118 (1983) 349).  Both
radial integrals (Dirichlet seminorm and weighted potential) are Beta
functions, evaluated in closed form through math.lgamma.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .exponents import critical_power
from .grids import Field, radius_sq_values, sphere_area


def check_epsilon(epsilon: float) -> float:
    """The bubble's concentration parameter eps, which must be positive."""
    if not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon!r}")
    return epsilon


@dataclass(frozen=True)
class GroundStateProfile:
    """Parameters (n, b, eps) of the explicit bubble; sigma1 is derived.
    b is a float or an exact rational (int or Fraction); the profile's
    floating-point formulas read it as a float."""

    n: int
    b: float | Fraction
    epsilon: float = 1.0

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 3:
            raise ValueError("ground state requires integer dimension n >= 3")
        if not 0.0 <= self.b < 2.0:
            raise ValueError("decay exponent b must lie in [0, 2)")
        check_epsilon(self.epsilon)
        try:
            amplitude = self.amplitude
        except OverflowError:
            amplitude = math.inf
        if not amplitude < math.inf:
            raise ValueError(f"the amplitude of the bubble {self} overflows")

    def __str__(self):
        # as the dataclass repr, with an exact b as p/q rather than Fraction(p, q)
        return f"GroundStateProfile(n={self.n}, b={self.b}, epsilon={self.epsilon})"

    @property
    def sigma1(self) -> float:
        """The critical power (4-2b)/(n-2) at s = 1, exact before its one
        rounding to a float."""
        return float(critical_power(self.n, Fraction(1), Fraction(self.b)))

    @property
    def amplitude(self) -> float:
        # numerator constant of the profile
        n, b = self.n, float(self.b)
        return (self.epsilon * (n - b) * (n - 2.0)) ** ((n - 2.0) / (4.0 - 2.0 * b))

    @property
    def decay(self) -> float:
        # exponent k with W ~ amplitude * r^(-(n-2)) = amplitude * (r^(2-b))^(-k)
        return (self.n - 2.0) / (2.0 - float(self.b))


def w_eval(profile: GroundStateProfile, r):
    """Profile value at radius r >= 0 (scalar or array)."""
    r = np.asarray(r, dtype=float)
    q = 2.0 - float(profile.b)
    out = profile.amplitude / (profile.epsilon + r**q) ** profile.decay
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class GroundStateQuantities:
    """Derived scalars: Dirichlet seminorm squared, weighted potential
    integral, sharp embedding constant, and energy of the bubble."""

    profile: GroundStateProfile
    h1dot_sq: float
    potential_integral: float
    c_hs: float
    energy: float

    @property
    def h1dot(self) -> float:
        return math.sqrt(self.h1dot_sq)

    def scaled(self, c: float) -> tuple[float, float]:
        """``(E(cW), |cW|_H1)`` for data c*W, c > 0: the energy is
        (c^2/2 - c^(sigma1+2)/(sigma1+2)) |W|_H1^2, the equality of the two
        bubble integrals eliminating the potential term.  Raises ValueError
        when either leaves the floating-point range."""
        sig1 = self.profile.sigma1
        try:
            energy = (0.5 * c**2 - c ** (sig1 + 2.0) / (sig1 + 2.0)) * self.h1dot_sq
        except OverflowError:
            energy = math.inf
        h1 = float(c) * self.h1dot
        if not (math.isfinite(energy) and math.isfinite(h1)):
            raise ValueError(f"the energy of c W with c = {c!r} leaves the floating-point range")
        return energy, h1


def _bubble_integral(C: float, alpha: float, m: float, eps: float, q: float) -> float:
    """int_0^inf C r^alpha (eps + r^q)^-m dr = (C/q) eps^(a-m) B(a, m-a) with
    a = (alpha+1)/q: the substitution v = r^q/eps gives the Beta integral."""
    a = (alpha + 1.0) / q
    beta = math.exp(math.lgamma(a) + math.lgamma(m - a) - math.lgamma(m))
    return C / q * eps ** (a - m) * beta


def compute_quantities(profile: GroundStateProfile) -> GroundStateQuantities:
    """Evaluate the Dirichlet seminorm and weighted potential of the bubble in
    closed form and derive the sharp constant and energy.

    h1dot_sq = S_{n-1} int (W')^2 r^(n-1) dr
    potential_integral = S_{n-1} int r^(n-1-b) W^(sigma1+2) dr
    c_hs = potential_integral^(1/(sigma1+2)) / h1dot_sq^(1/2)
    energy = h1dot_sq/2 - potential_integral/(sigma1+2)

    The two integrals are equal (Pohozaev) but are evaluated from their own
    kernels, so their difference checks the arithmetic.  Raises ValueError
    when either is not a positive finite float.
    """
    n, b, eps = profile.n, float(profile.b), profile.epsilon
    q = 2.0 - b
    k = profile.decay
    A = profile.amplitude
    sig1 = profile.sigma1
    S = sphere_area(n)

    try:
        # (W')^2 r^(n-1) = A^2 k^2 q^2 r^(n+1-2b) (eps + r^q)^(-2k-2)
        h1 = S * _bubble_integral(A**2 * k**2 * q**2, n + 1.0 - 2.0 * b, 2.0 * k + 2.0, eps, q)
        # r^(n-1-b) W^(sigma1+2) = A^(sigma1+2) r^(n-1-b) (eps + r^q)^(-k(sigma1+2))
        pot = S * _bubble_integral(A ** (sig1 + 2.0), n - 1.0 - b, k * (sig1 + 2.0), eps, q)
    except OverflowError:
        h1 = pot = math.inf
    if not (0.0 < h1 < math.inf and 0.0 < pot < math.inf):
        raise ValueError(f"the bubble integrals of {profile} leave the floating-point range")

    c_hs = pot ** (1.0 / (sig1 + 2.0)) / math.sqrt(h1)
    energy = 0.5 * h1 - pot / (sig1 + 2.0)
    return GroundStateQuantities(
        profile=profile, h1dot_sq=h1, potential_integral=pot, c_hs=c_hs, energy=energy
    )


def sample_on_grid(profile: GroundStateProfile, grid, scale: float = 1.0):
    """Sample scale * W at |x| = sqrt(|x|^2) of every node, evaluated once
    per combination of distinct per-axis squares (on radial nodes
    sqrt(r * r) is r bit for bit)."""
    if grid.n != profile.n:
        raise ValueError("grid dimension must match the profile")
    values = radius_sq_values(
        grid, lambda rsq: scale * w_eval(profile, np.sqrt(rsq, out=rsq)), complex
    )
    return Field(grid=grid, values=values, time_tag=0.0)
