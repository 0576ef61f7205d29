"""Run observables: energy, virial quantities, localized cutoffs and the
blow-up classifier.

``make_record`` is the one place where a field's observables are combined,
and ``grids.moments`` the one pass over the field behind it: |u|^2 is formed
once as re^2 + im^2 and mass, variance, the outer-shell mass and the
weighted potential are dot products of it against cached weight tables (the
tensor variance: sums of its axis marginals; the potential: against the
density w |u|^sigma, which a run hands over from its stepper); max_amp is
sqrt(max |u|^2).
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass, fields
from typing import Optional, Union

import numpy as np

from .dynamics import SimConfig, nonlinear_density
from .exponents import HypothesisViolation, hypothesis_report
from .grids import Field, hs_norm, moments, radius_sq_values, weighted_quadratic
from .ground_state import GroundStateQuantities


@dataclass
class DiagnosticsRecord:
    """One row of ``series.csv``; the fields, in order, are its columns."""

    t: float
    mass: float
    energy: float
    h1dot_sq: float
    weighted_potential: float
    variance: Optional[float]
    virial_rhs: float
    localized_virial: Optional[float]
    boundary_mass_fraction: float
    dt: float
    max_amp: float

    def csv_row(self) -> tuple:
        """The row's cells: ``csv.writer`` writes a float as its shortest
        round-trip text and None as an empty cell."""
        return _CSV_CELLS(self)


CSV_COLUMNS = tuple(f.name for f in fields(DiagnosticsRecord))
_CSV_CELLS = operator.attrgetter(*CSV_COLUMNS)


def energy(u: Field, cfg: SimConfig) -> float:
    """Conserved energy of ``u``, as its record reports it."""
    return make_record(u, cfg, dt=cfg.dt_init).energy


def theta_cutoff(r):
    """C1 cutoff: r^2 on [0,1], -r^2+4r-2 on [1,2], plateau 2 beyond.

    Returns (value, first derivative, second derivative); the second
    derivative takes values {2, -2, 0}, so theta'' <= 2 everywhere.
    """
    r = np.asarray(r, dtype=float)
    scalar = r.ndim == 0
    r = np.atleast_1d(r)
    if np.any(r < 0):
        raise ValueError("theta is defined for r >= 0")
    value = np.where(r <= 1.0, r**2, np.where(r <= 2.0, -(r**2) + 4.0 * r - 2.0, 2.0))
    deriv = np.where(r <= 1.0, 2.0 * r, np.where(r <= 2.0, -2.0 * r + 4.0, 0.0))
    second = np.where(r <= 1.0, 2.0, np.where(r <= 2.0, -2.0, 0.0))
    if scalar:
        return float(value[0]), float(deriv[0]), float(second[0])
    return value, deriv, second


def phi_R_weight(x_norm, R: float):
    """Radial localized weight R^2 theta(|x|/R); equals |x|^2 inside |x| <= R
    and plateaus at 2 R^2 beyond 2R."""
    if not R > 1:
        raise ValueError("cutoff radius R must exceed 1")
    value, _, _ = theta_cutoff(np.asarray(x_norm, dtype=float) / R)
    return R**2 * value


def cylindrical_phi_R(y_norm, x_last, R: float):
    """Cylindrical localized weight R^2 theta(|y|/R) + x_n^2 on the split
    x = (y, x_n)."""
    return phi_R_weight(y_norm, R) + np.asarray(x_last, dtype=float) ** 2


def localized_virial(u: Field, R: float) -> float:
    """Integral of phi_R(x) |u|^2."""
    table = radius_sq_values(u.grid, lambda rsq: phi_R_weight(np.sqrt(rsq), R))
    return weighted_quadratic(u, table)


def make_record(
    u: Field,
    cfg: SimConfig,
    dt: float,
    h1sq: Optional[float] = None,
    density: Optional[np.ndarray] = None,
) -> DiagnosticsRecord:
    """One series row.  ``h1sq`` is |u|_H1^2 and ``density`` is w |u|^sigma
    of ``u`` (a run's ``state.density``) when the caller has them.

    With P the weighted potential, the energy is |u|_H1^2 / 2 +
    lam/(sigma+2) P, and ``virial_rhs``, the second time derivative of the
    variance that the virial identity predicts with the run's regularized
    weight, is 8 |u|_H1^2 + 4 lam (n sigma + 2 b)/(sigma + 2) P (for
    lam = -1 the focusing identity; lam = 0 drops the term)."""
    if h1sq is None:
        h1 = hs_norm(u, 1)
        h1sq = h1 * h1
    if density is None:
        density = nonlinear_density(u, cfg)
    m = moments(u, density)
    pot = m.weighted_potential
    n, sig, b = cfg.grid.n, cfg.sigma, cfg.params.b_float
    return DiagnosticsRecord(
        t=u.time_tag,
        mass=m.mass,
        energy=0.5 * h1sq + cfg.lam / (sig + 2.0) * pot,
        h1dot_sq=h1sq,
        weighted_potential=pot,
        variance=m.variance,
        virial_rhs=8.0 * h1sq + 4.0 * cfg.lam * (n * sig + 2.0 * b) / (sig + 2.0) * pot,
        localized_virial=None,
        boundary_mass_fraction=m.boundary_mass_fraction,
        dt=dt,
        max_amp=m.max_amp,
    )


@dataclass(frozen=True)
class ScaledGroundState:
    """Initial data c * W described exactly by its scale factor; the
    classifier then uses the scaling algebra of ``GroundStateQuantities.scaled``
    instead of grid quadrature (uniform grids cannot resolve the bubble's
    slow r^-(n-2) tail).  The one check of c > 0."""

    c: float

    def __post_init__(self):
        if not self.c > 0:
            raise ValueError("scale factor must be positive")


@dataclass
class ThresholdReport:
    """The classifier's verdict; the fields, in order, are the keys of
    ``report.json``'s classification."""

    case: str  # negative_energy | below_ground_state_above_norm | no_verdict
    symmetry: str
    e0: float
    h1_0: float
    e_w: float
    h1_w: float
    delta: Optional[float]


def classify_blowup(
    u0: Union[Field, ScaledGroundState],
    cfg: SimConfig,
    gs: GroundStateQuantities,
    symmetry: str = "none",
) -> ThresholdReport:
    """Compare the data's energy and H1 seminorm against the bubble's.

    Cases: ``negative_energy`` when E(u0) < 0;
    ``below_ground_state_above_norm`` when 0 <= E(u0) < E(W) and
    |u0|_H1 > |W|_H1 (reporting the largest admissible energy gap
    delta = 1 - E(u0)/E(W)); otherwise ``no_verdict``.

    Restricted to the hypotheses of ``hypothesis_report("blowup_criterion")``
    (``HypothesisViolation`` otherwise), a focusing coupling and a bubble
    ``gs`` of the run's (n, b); any epsilon.  Data whose energy or H1
    seminorm leaves the floating-point range raise ValueError.
    """
    params = cfg.params
    if not cfg.lam < 0:
        raise ValueError("classifier requires a focusing coupling (lam < 0)")
    verdict = hypothesis_report("blowup_criterion", params, symmetry=symmetry)
    if not verdict.holds:
        raise HypothesisViolation(verdict)
    if (gs.profile.n, float(gs.profile.b)) != (params.n, params.b_float):
        raise ValueError(
            f"ground state {gs.profile} is not the bubble of n = {params.n}, b = {params.b}"
        )

    e_w = gs.energy
    h1_w = gs.h1dot
    if isinstance(u0, ScaledGroundState):
        e0, h1_0 = gs.scaled(u0.c)
    else:
        h1_0 = hs_norm(u0, 1)
        e0 = make_record(u0, cfg, cfg.dt_init, h1sq=h1_0 * h1_0).energy
        if not (math.isfinite(e0) and math.isfinite(h1_0)):
            raise ValueError("the energy of the initial field leaves the floating-point range")

    delta = None
    if e0 < 0.0:
        case = "negative_energy"
    elif e0 < e_w and h1_0 > h1_w:
        case = "below_ground_state_above_norm"
        delta = 1.0 - e0 / e_w
    else:
        case = "no_verdict"
    return ThresholdReport(
        e0=e0, h1_0=h1_0, e_w=e_w, h1_w=h1_w, case=case, symmetry=symmetry, delta=delta
    )


def second_difference(t: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Three-point second time derivative on a possibly nonuniform grid;
    exact for quadratics.  Endpoints are NaN."""
    t = np.asarray(t, dtype=float)
    v = np.asarray(v, dtype=float)
    out = np.full_like(v, np.nan)
    dt_fwd = t[2:] - t[1:-1]
    dt_bwd = t[1:-1] - t[:-2]
    slope_fwd = (v[2:] - v[1:-1]) / dt_fwd
    slope_bwd = (v[1:-1] - v[:-2]) / dt_bwd
    out[1:-1] = 2.0 * (slope_fwd - slope_bwd) / (t[2:] - t[:-2])
    return out
