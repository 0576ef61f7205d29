"""Numerical laboratory for the weighted (inhomogeneous) nonlinear
Schrodinger equation i u_t + Lap u = lambda |x|^-b |u|^sigma u."""

from .diagnostics import (
    DiagnosticsRecord,
    ScaledGroundState,
    ThresholdReport,
    classify_blowup,
    cylindrical_phi_R,
    energy,
    g_threshold,
    localized_virial,
    phi_R_weight,
    theta_cutoff,
    virial_rhs,
)
from .dynamics import RunOutcome, SimConfig, adapt_dt, radial_cn_step, run, start_state, strang_step
from .exponents import (
    CRITICAL,
    INF,
    AdmissiblePair,
    CriticalityParams,
    ExponentError,
    HypothesisViolation,
    InfeasibleExponents,
    Verdict,
    critical_power,
    dual_exponent_identity,
    gamma_of,
    holder_time_identity,
    hypothesis_report,
    is_admissible,
    nonlinearity_index,
    region_comparison,
    working_exponent,
)
from .grids import (
    Field,
    GridSpec,
    PotentialWeight,
    boundary_mass_fraction,
    dump_field,
    gaussian_field,
    hs_norm,
    load_field,
    mass,
    variance,
    weighted_potential_integral,
    weighted_quadratic,
)
from .ground_state import (
    GroundStateProfile,
    GroundStateQuantities,
    QuadratureError,
    QuadratureSpec,
    compute_quantities,
    sample_on_grid,
    scaled_energy_ratio,
    sphere_area,
    w_eval,
    w_grad_eval,
)

__version__ = "0.1.0"
