"""Explicit ground-state bubble of the weighted energy-critical NLS and its
sharp embedding constant.

The profile is W(r) = [eps (n-b)(n-2)]^((n-2)/(4-2b)) / (eps + r^(2-b))^((n-2)/(2-b)).
Both radial integrals (Dirichlet seminorm and weighted potential) are reduced
to composite Gauss-Legendre quadrature on log-spaced panels, with the head
(r -> 0) and tail (r -> inf) pieces summed analytically from binomial series
of the integrand rather than truncated.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to meet its tolerance."""


@lru_cache(maxsize=16)
def sphere_area(n: int) -> float:
    """Surface measure of the unit sphere in n dimensions (cached: the radial
    H1 seminorm reads it on every call)."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def check_epsilon(epsilon: float) -> float:
    """The bubble's concentration parameter eps, which must be positive."""
    if not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon!r}")
    return epsilon


@dataclass(frozen=True)
class GroundStateProfile:
    """Parameters (n, b, eps) of the explicit bubble; sigma1 is derived."""

    n: int
    b: float
    epsilon: float = 1.0

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 3:
            raise ValueError("ground state requires integer dimension n >= 3")
        if not 0.0 <= self.b < 2.0:
            raise ValueError("decay exponent b must lie in [0, 2)")
        check_epsilon(self.epsilon)

    @property
    def sigma1(self) -> float:
        return (4.0 - 2.0 * self.b) / (self.n - 2.0)

    @property
    def amplitude(self) -> float:
        # numerator constant of the profile
        return (self.epsilon * (self.n - self.b) * (self.n - 2.0)) ** (
            (self.n - 2.0) / (4.0 - 2.0 * self.b)
        )

    @property
    def decay(self) -> float:
        # exponent k with W ~ amplitude * r^(-(n-2)) = amplitude * (r^(2-b))^(-k)
        return (self.n - 2.0) / (2.0 - self.b)


def w_eval(profile: GroundStateProfile, r):
    """Profile value at radius r >= 0 (scalar or array)."""
    r = np.asarray(r, dtype=float)
    q = 2.0 - profile.b
    out = profile.amplitude / (profile.epsilon + r**q) ** profile.decay
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class QuadratureSpec:
    """Controls for the radial quadrature: either fix r_max or let the panel
    range be chosen from the profile's natural length scale."""

    r_min: Optional[float] = None
    r_max: Optional[float] = None
    tol: float = 1e-12
    max_refine: int = 6

    def __post_init__(self):
        if not self.tol > 0:
            raise ValueError("tolerance must be positive")
        if self.max_refine < 0:
            raise ValueError("max_refine must be >= 0")


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


# panels per decade before the first refinement doubles them, and the
# Gauss-Legendre points per panel
_PANELS_PER_DECADE = 4
_GL_NODES = 20


@lru_cache(maxsize=1)
def _gl_nodes():
    return np.polynomial.legendre.leggauss(_GL_NODES)


def _integrate_log_panels(f, r_lo: float, r_hi: float, panels: int) -> float:
    """Integrate f over [r_lo, r_hi] with per-panel Gauss-Legendre in log space."""
    t_lo, t_hi = math.log(r_lo), math.log(r_hi)
    edges = np.linspace(t_lo, t_hi, panels + 1)
    x, w = _gl_nodes()
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    t = mid[:, None] + half[:, None] * x[None, :]
    r = np.exp(t)
    vals = f(r) * r  # dr = r dt
    return float(np.sum(vals * w[None, :] * half[:, None]))


def _binomial_series(coeff_fn, m: float, ratio: float, limit: int = 80) -> float:
    """Sum_j c_j * coeff_fn(j) with c_j the (1+x)^-m binomial coefficients and
    |x| <= ratio controlling convergence; stops at relative 1e-18."""
    total = 0.0
    c = 1.0
    for j in range(limit):
        term = c * coeff_fn(j)
        total += term
        if j > 0 and abs(term) <= 1e-18 * max(abs(total), 1e-300):
            break
        c *= -(m + j) / (j + 1.0)
    return total


def _tail_integral(C: float, alpha: float, m: float, eps: float, q: float, R: float) -> float:
    """Analytic integral of C r^alpha (eps + r^q)^-m over [R, inf)."""
    def coeff(j):
        power = alpha + 1.0 - q * (m + j)
        return (eps**j) * R**power / (q * (m + j) - alpha - 1.0)

    return C * _binomial_series(coeff, m, eps * R ** (-q))


def _head_integral(C: float, alpha: float, m: float, eps: float, q: float, rho: float) -> float:
    """Analytic integral of C r^alpha (eps + r^q)^-m over (0, rho]."""
    def coeff(j):
        power = alpha + 1.0 + q * j
        return (eps ** (-j)) * rho**power / power

    return C * eps ** (-m) * _binomial_series(coeff, m, rho**q / eps)


def _kernel_integral(C, alpha, m, profile, quad) -> float:
    """Full integral over (0, inf) of C r^alpha (eps + r^(2-b))^-m."""
    eps, q = profile.epsilon, 2.0 - profile.b
    ell = eps ** (1.0 / q)  # natural core radius
    r_lo = quad.r_min if quad.r_min is not None else ell * 1e-6
    r_hi = quad.r_max if quad.r_max is not None else ell * 1e8
    decades = math.log10(r_hi / r_lo)

    def f(r):
        return C * r**alpha * (eps + r**q) ** (-m)

    head = _head_integral(C, alpha, m, eps, q, r_lo)
    tail = _tail_integral(C, alpha, m, eps, q, r_hi)

    ppd = _PANELS_PER_DECADE
    prev = None
    for _ in range(quad.max_refine + 1):
        panels = max(4, int(math.ceil(decades * ppd)))
        core = _integrate_log_panels(f, r_lo, r_hi, panels)
        total = head + core + tail
        if prev is not None and abs(total - prev) <= quad.tol * abs(total):
            return total
        prev = total
        ppd *= 2
    raise QuadratureError(
        f"quadrature did not converge to tol={quad.tol} after "
        f"{quad.max_refine} refinements"
    )


def compute_quantities(
    profile: GroundStateProfile, quad: Optional[QuadratureSpec] = None
) -> GroundStateQuantities:
    """Integrate the Dirichlet seminorm and weighted potential of the bubble
    and derive the sharp constant and energy.

    h1dot_sq = S_{n-1} int (W')^2 r^(n-1) dr
    potential_integral = S_{n-1} int r^(n-1-b) W^(sigma1+2) dr
    c_hs = potential_integral^(1/(sigma1+2)) / h1dot_sq^(1/2)
    energy = h1dot_sq/2 - potential_integral/(sigma1+2)
    """
    quad = quad or QuadratureSpec()
    n, b, eps = profile.n, profile.b, profile.epsilon
    q = 2.0 - b
    k = profile.decay
    A = profile.amplitude
    sig1 = profile.sigma1
    S = sphere_area(n)

    # (W')^2 r^(n-1) = A^2 k^2 q^2 r^(n+1-2b) (eps + r^q)^(-2k-2)
    h1 = S * _kernel_integral(A**2 * k**2 * q**2, n + 1.0 - 2.0 * b, 2.0 * k + 2.0, profile, quad)
    # r^(n-1-b) W^(sigma1+2) = A^(sigma1+2) r^(n-1-b) (eps + r^q)^(-k(sigma1+2))
    pot = S * _kernel_integral(A ** (sig1 + 2.0), n - 1.0 - b, k * (sig1 + 2.0), profile, quad)

    c_hs = pot ** (1.0 / (sig1 + 2.0)) / math.sqrt(h1)
    energy = 0.5 * h1 - pot / (sig1 + 2.0)
    return GroundStateQuantities(
        profile=profile,
        h1dot_sq=h1,
        potential_integral=pot,
        c_hs=c_hs,
        energy=energy,
    )


def scaled_energy_ratio(c: float, quantities: GroundStateQuantities):
    """For data c*W: (E(cW)/|W|_H1^2, |cW|_H1/|W|_H1), using the equality of
    the two bubble integrals to eliminate the potential term.

    Returns ``(energy_ratio, h1_ratio)`` = (c^2/2 - c^(sigma1+2)/(sigma1+2), c).
    """
    if not c > 0:
        raise ValueError("scale factor must be positive")
    sig1 = quantities.profile.sigma1
    energy_ratio = 0.5 * c**2 - c ** (sig1 + 2.0) / (sig1 + 2.0)
    return energy_ratio, float(c)


def sample_on_grid(profile: GroundStateProfile, grid, scale: float = 1.0):
    """Sample scale * W on a grid (radial nodes, or |x| on a tensor grid)."""
    from .grids import Field, radial_nodes, radius_sq_values

    if grid.kind == "radial":
        r = radial_nodes(grid)
    else:
        if grid.n != profile.n:
            raise ValueError("tensor grid dimension must match the profile")
        r = radius_sq_values(grid)
        np.sqrt(r, out=r)
    values = scale * w_eval(profile, r)
    return Field(grid=grid, values=values.astype(complex), time_tag=0.0)
