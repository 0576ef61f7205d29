"""Time integration of i u_t + Lap u = lambda w(x) |u|^sigma u.

Both steppers have one shape, ``step(u, cfg, dt, state) -> (field, state)``.
``start_state(u, cfg)`` builds the ``StepState`` before the first step; each
step consumes the state of its input and returns it refilled for its output,
so ``state.density`` is always w |u|^sigma of the current field (None when
lam = 0), the one density ``adapt_dt`` reads, ``run``'s records take the
weighted potential from, and the next step starts from.

Tensor grids: Strang splitting with an exact spectral free propagator and
pointwise nonlinear phases (both substeps preserve the discrete mass to
roundoff).  A step writes into its input only when the state owns it:
``state.owned`` is the values array of the field the state's last step
returned, so a run keeps one field buffer, whose nonlinear phases and FFTs
all work in place.  Any other input is left unmodified.  On a 3-d grid
that buffer (``_field_buffer``) pads each axis-0 plane by one cache line,
so its planes are not a power of two apart, where the axis-0 FFT would
thrash the cache; the phase and density passes touch it one contiguous
plane at a time (``grids._by_planes``), and nothing copies it.  1-d and
2-d buffers are C-contiguous.  ``run`` defers
each step's trailing half-phase: the state records it as ``owed``, the
next step applies it with its own leading half-phase as one phase, and
``settle`` applies it alone where the run reads the field.  Nonlinear
phases and the density w |u|^sigma are formed one axis-0 slab at a time
(the 1/8 blocks of ``grids._h1_block``), so a step's only full-size
arrays are the field, its spectrum in the same buffer, and the density.
The free propagator factors over the axes: on a 3-d grid it is kept per
axis and as the factor of one axis-0 plane, so a dt change rebuilds
O(N^2) entries, not N^3.
Every phase factor, nonlinear and kinetic, is exp(i theta) built by
``_unit_phase`` from one tangent of theta/2, which NumPy vectorises where
its ``cos`` and ``sin`` are scalar.
Radial grids: linearly implicit Crank-Nicolson with a relaxed nonlinear
density (two-level update of phi ~ w |u|^sigma, carried in the state), which
keeps the one-step map a Cayley transform of a self-adjoint operator and
therefore conserves the discrete mass exactly up to the tridiagonal solve.
The step is taken in its Cayley form u_next = (4i/dt) B^-1 u - u with
B = Lap_h - lam phi + (2i/dt) I: one tridiagonal solve, no matrix product.

Step size is adapted so the nonlinear phase rotation per step stays below
``safety`` radians; blow-up is detected (never proven) from the growth of
the H1 seminorm, with dt underflow and non-finite values as the other early
terminations.  The blow-up check is exact; ``run`` skips it only on steps
that write no record and where rho_h * M < (blowup_ratio * h1_0)**2 / 2,
because ``hs_norm(u, 1)**2 <= rho_h * mass(u)`` with rho_h =
``grids.geometry(grid).norm_bound``.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional

import numpy as np
import scipy.fft
import scipy.linalg

from .exponents import CriticalityParams
from .grids import (
    Field,
    GridSpec,
    PotentialWeight,
    _by_planes,
    _h1_block,
    abs_power,
    geometry,
    hs_norm,
    mass,
    thread_count,
    weight_values,
)


@dataclass
class SimConfig:
    """One run's configuration.

    ``lam`` is the signed real coupling of the evolution equation
    (+1 repulsive/defocusing, -1 attractive/focusing, 0 free); the exact
    parameter tuple stays rational inside ``params``.
    """

    params: CriticalityParams
    grid: GridSpec
    weight: PotentialWeight
    lam: float
    dt_init: float
    t_end: float
    dt_min: float
    blowup_ratio: float = 1e3
    safety: float = 0.5
    record_every: int = 1

    def __post_init__(self):
        for name in ("lam", "dt_init", "t_end", "dt_min"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.dt_init <= 0 or self.t_end <= 0:
            raise ValueError("dt_init and t_end must be positive")
        if not 0 < self.dt_min < self.dt_init:
            raise ValueError("dt_min must be positive and smaller than dt_init")
        if not self.blowup_ratio > 1:
            raise ValueError("blowup_ratio must exceed 1")
        if not 0 < self.safety < 1:
            raise ValueError("safety must lie in (0, 1)")
        # as the CLI schema: a float or a bool is refused, not truncated
        every = self.record_every
        if isinstance(every, bool) or not isinstance(every, numbers.Integral) or every < 1:
            raise ValueError(f"record_every must be a positive integer, got {every!r}")
        # records read n from the grid and b from params, the stepper reads
        # b from the weight: the copies must agree
        if self.grid.n != self.params.n:
            raise ValueError(f"grid.n = {self.grid.n} differs from params.n = {self.params.n}")
        if self.weight.b != self.params.b_float:
            raise ValueError(f"weight.b = {self.weight.b!r} differs from params.b = {self.params.b}")
        # keep the weight evaluable on this grid (raises on bad delta)
        weight_values(self.grid, self.weight)

    @property
    def sigma(self) -> float:
        return self.params.sigma_float


@dataclass
class RunOutcome:
    termination: str
    t_final: float
    series: List
    final_field: Field
    steps: int = 0


def _unit_phase(half: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """exp(i theta) from the real array ``half`` = theta/2, which it consumes
    as scratch: its values are overwritten.  The result is written into
    ``out``, a complex array of ``half``'s shape, when given.

    Built from the one tangent t = tan(theta/2) by the half-angle identities
    sin theta = t * 2/(1 + t^2) and cos theta = 1 - t sin theta, written
    into the output's imaginary and real parts with ``half`` as the only
    real scratch, so the call allocates nothing but its output.  On AVX-512
    machines NumPy runs float64 ``tan`` as SIMD code and ``cos`` and ``sin``
    as scalar code, so this is cheaper there than cos + i sin; elsewhere
    the two cost about the same.  The result is within 1e-15 of cos + i sin
    and of modulus one to within 2e-15; a NaN or infinite angle gives a NaN
    factor.
    """
    if out is None:
        out = np.empty(half.shape, dtype=np.complex128)
    cos, sin = out.real, out.imag
    t = np.tan(half, out=half)
    np.multiply(t, t, out=cos)
    cos += 1.0
    np.divide(2.0, cos, out=cos)
    np.multiply(cos, t, out=sin)
    t *= sin
    np.subtract(1.0, t, out=cos)
    return out


@lru_cache(maxsize=1)
def _kinetic_propagator(grid: GridSpec, dt: float):
    """exp(-i dt |xi|^2), the exact free flight over dt, in its factors over
    the axes: ``(axis, plane)`` with ``axis`` = exp(-i dt xi_a^2) along one
    axis (every axis of a grid has the same wavenumbers) and ``plane`` its
    product over the last min(n, 2) axes, flattened.  On a 3-d grid that is
    the factor of one axis-0 plane (N^2 entries) and a rebuild costs
    O(N^2); on fewer axes it is the whole table, which NumPy multiplies
    about four times faster than it forms the same product from its axis
    factors.  Cached for the last dt, which is the next one in most runs."""
    xi = geometry(grid).wavenumber_axis
    axis = _unit_phase(np.multiply(xi**2, -0.5 * dt))
    plane = axis if grid.n == 1 else np.multiply.outer(axis, axis).ravel()
    axis.flags.writeable = plane.flags.writeable = False  # shared by every caller
    return axis, plane


def _free_flight(vhat: np.ndarray, grid: GridSpec, dt: float) -> None:
    """Multiply the spectrum ``vhat`` in place by exp(-i dt |xi|^2).  On a
    3-d grid each axis-0 plane of ``vhat`` (contiguous, as in a padded
    field buffer, wherever the next plane starts) gets axis[i] * plane,
    formed in one plane-sized scratch array: no full-size temporary and
    one pass over ``vhat``."""
    axis, plane = _kinetic_propagator(grid, dt)
    plane = plane.reshape(grid.shape[-2:])
    if grid.n < 3:
        vhat *= plane
        return
    prop = np.empty_like(plane)
    for row, a in zip(vhat, axis):
        np.multiply(a, plane, out=prop)
        row *= prop


def nonlinear_density(u: Field, cfg: SimConfig, out: Optional[np.ndarray] = None) -> np.ndarray:
    """w |u|^sigma: the rate of the nonlinear phase, computed once per step
    and shared by ``adapt_dt``, the stepper and the step's record, whose
    weighted potential is the integral of it times |u|^2.  With ``out`` the
    result is written into that real array of the grid's shape.  On a
    tensor grid it is formed one axis-0 slab (``grids._h1_block``: 1/8 of
    axis 0) at a time, so the |u| that an integer sigma's power is
    multiplied out from is one slab of scratch; a radial grid's 1-d array
    is formed whole, keeping the radial step's per-call overhead.  Every
    way of calling it rounds identically (``grids.abs_power``)."""
    weight = weight_values(u.grid, cfg.weight)
    if u.grid.kind != "tensor":
        out = abs_power(u.values, cfg.sigma, out)
        out *= weight
        return out
    if out is None:
        out = np.empty(u.grid.shape)
    blocks = _h1_block(u.grid.points)
    scratch = np.empty(out[blocks[0]].shape)
    for block in blocks:
        piece = abs_power(u.values[block], cfg.sigma, out[block], scratch)
        piece *= weight[block]
    return out


def _half_phase(
    density: np.ndarray,
    cfg: SimConfig,
    dt: float,
    angle: Optional[np.ndarray] = None,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """exp(-i lam dt/2 density): the phase factor of one nonlinear half-step,
    written into the complex array ``out`` when given.  ``angle``, a real
    array of ``density``'s shape, receives half the phase angle and is then
    consumed by ``_unit_phase``; without it one is allocated.  ``density``
    is left unchanged."""
    return _unit_phase(np.multiply(density, -0.25 * dt * cfg.lam, out=angle), out)


def _apply_half_phase(
    v: np.ndarray, density: np.ndarray, cfg: SimConfig, dt: float, out: np.ndarray, leading: bool
) -> np.ndarray:
    """out = exp(-i lam dt/2 density) * v on a tensor grid, built and
    multiplied in one axis-0 slab (``grids._h1_block``) at a time; ``out``
    may be ``v``.  Its scratch is one slab's angle and factor, so no
    full-size factor or angle exists.  A leading half-phase multiplies
    factor * v and a trailing one v * factor: the imaginary part of a
    complex product rounds by operand order, and these are the orders of
    the full-field products that a whole step has always taken, so its
    output keeps its bits."""
    blocks = _h1_block(cfg.grid.points)
    angle = np.empty(density[blocks[0]].shape)
    factor = np.empty(angle.shape, dtype=np.complex128)
    for block in blocks:
        _half_phase(density[block], cfg, dt, angle, factor)
        operands = (factor, v[block]) if leading else (v[block], factor)
        _by_planes(np.multiply, *operands, out=out[block])
    return out


def _field_buffer(grid: GridSpec) -> np.ndarray:
    """An uninitialised complex array of the tensor grid's shape: the one
    field buffer of a run.  On a 3-d grid it is the [:, :N^2] view of an
    (N, N^2 + 4) array, reshaped: each axis-0 plane is one contiguous run
    of N^2 values, but consecutive planes lie N^2 + 4 values (one more
    64-byte cache line) apart instead of a power of two.  At a power-of-two
    stride the N lines of an axis-0 FFT fall into the same cache sets, and
    that pass cost twice the contiguous one's (1.38-1.59 against 0.71 ms
    at 64^3); any pad from 1 to 64 values removes that.  Fewer axes keep
    a C-contiguous array."""
    if grid.n < 3:
        return np.empty(grid.shape, dtype=np.complex128)
    plane = grid.points**2
    rows = np.empty((grid.points, plane + 4), dtype=np.complex128)
    return rows[:, :plane].reshape(grid.shape)


@dataclass
class StepState:
    """What a step hands to the next one.

    ``density`` is w |u|^sigma of the field the state belongs to (None when
    lam = 0); ``adapt_dt`` reads it and the next step starts from it.
    ``phi`` is the radial stepper's relaxed half-step density (None before
    the first radial step).  ``owned`` is the values array of the field the
    tensor stepper returned last with this state, the one input its next
    step may overwrite: a ``_field_buffer``, padded by plane on a 3-d grid.
    A step consumes the state it is given and returns it refilled for its
    output.

    ``owed`` tells the tensor stepper whether to defer its trailing
    half-phase.  None (``start_state``'s value): every step is a whole
    Strang step.  A float: the step size whose trailing half-phase the
    owned field still lacks (0.0 when it lacks none); a step applies it
    together with its own leading half-phase and leaves its own trailing
    one owed, and ``settle`` pays it.  The half-phase has modulus one, so
    ``density`` is that of the settled field too.  The choice lives in the
    state, not in an argument, because the debt belongs to the field the
    state describes and travels with it from step to step; every stepper
    keeps the signature ``step(u, cfg, dt, state)``.
    """

    density: Optional[np.ndarray]
    phi: Optional[np.ndarray] = None
    owned: Optional[np.ndarray] = None
    owed: Optional[float] = None


def start_state(u: Field, cfg: SimConfig) -> StepState:
    """The state before the first step from ``u``."""
    return StepState(nonlinear_density(u, cfg) if cfg.lam != 0.0 else None)


def strang_step(u: Field, cfg: SimConfig, dt: float, state: Optional[StepState] = None):
    """One Strang step on a tensor grid: half nonlinear phase, exact spectral
    free flight, half nonlinear phase.

    ``state`` belongs to ``u`` (``start_state(u, cfg)`` when None).  The
    leading half-phase is built from ``state.density``; with a float
    ``state.owed`` it is exp(-i lam (owed + dt)/2 density), which also pays
    the half-phase ``u`` still lacks, and the trailing half-phase is left
    owed (``state.owed = dt``) instead of applied.  Returns
    ``(field, state)`` with the density buffer refilled in place for the
    new field.  With ``state.owed`` None, as on a direct call, the step is
    whole.

    Ownership: when ``u.values is state.owned``, ``u`` is the field this
    state's last step returned, and the step overwrites it: the phases and
    the FFTs work in place in ``u.values``, whose buffer the output takes.
    Any other ``u`` is left unmodified, its leading half-phase (with
    lam = 0, a copy of it) written into a new ``_field_buffer``, as without
    a state.  Either way the output's values become ``state.owned``, so on
    a 3-d grid they are padded by plane.
    """
    if u.grid.kind != "tensor":
        raise ValueError("strang_step runs on tensor grids")
    if state is None:
        state = start_state(u, cfg)
    grid = u.grid
    v = u.values
    work = v if v is state.owned else _field_buffer(grid)
    if cfg.lam != 0.0:  # 0.0 + dt is dt: a settled field's leading half-phase
        lead = (state.owed or 0.0) + dt
        _apply_half_phase(v, state.density, cfg, lead, work, leading=True)
    elif work is not v:
        work[...] = v
    vhat = scipy.fft.fftn(work, workers=thread_count(), overwrite_x=True)
    _free_flight(vhat, grid, dt)
    out = Field(
        grid=grid,
        values=scipy.fft.ifftn(vhat, workers=thread_count(), overwrite_x=True),
        time_tag=u.time_tag + dt,
    )
    if cfg.lam != 0.0:
        nonlinear_density(out, cfg, state.density)
        if state.owed is None:
            _apply_half_phase(out.values, state.density, cfg, dt, out.values, leading=False)
        else:
            state.owed = dt
    state.owned = out.values
    return out, state


def settle(u: Field, cfg: SimConfig, state: StepState) -> None:
    """Apply the trailing half-phase that ``u``, the field the state's last
    step returned, still lacks (``state.owed``), in place, and set
    ``state.owed`` to 0.0.  It is the factor a whole step would have
    applied, so a deferring step from a settled field, then ``settle``,
    equals the whole step bit for bit.  Nothing happens when nothing is
    owed (a radial state never owes)."""
    if state.owed:
        _apply_half_phase(u.values, state.density, cfg, state.owed, u.values, leading=False)
        state.owed = 0.0


def radial_cn_step(u: Field, cfg: SimConfig, dt: float, state: Optional[StepState] = None):
    """One relaxed Crank-Nicolson step on a radial grid.

    The nonlinear density phi ~ w |u|^sigma is advanced by the two-level
    relaxation update phi_next = 2 w |u|^sigma - phi; a cold start (no
    ``state.phi``) takes phi_next = w |u|^sigma.  With
    M = Lap - lam phi_next, the step (1 - i dt/2 M) u_next = (1 + i dt/2 M) u
    is taken in its Cayley form u_next = (4i/dt) B^-1 u - u, where
    B = M + (2i/dt) I: since (1 + i dt/2 M) u = 2u - (1 - i dt/2 M) u, one
    tridiagonal solve with u itself as right-hand side and no matrix product.
    B's off-diagonals are the real Laplacian bands of the grid's geometry,
    independent of dt and phi: a step copies them and rewrites only the
    diagonal.  ``state`` belongs to ``u`` (``start_state(u, cfg)`` when None);
    ``u`` is left unmodified.

    Returns ``(field, state)`` with ``state`` refilled for the new field.
    """
    if u.grid.kind != "radial":
        raise ValueError("radial_cn_step runs on radial grids")
    if state is None:
        state = start_state(u, cfg)
    grid = u.grid
    ab = geometry(grid).bands.copy()
    centre = ab[1]
    if cfg.lam != 0.0:
        density = state.density
        phi_next = density if state.phi is None else 2.0 * density - state.phi
        np.subtract(centre.real, cfg.lam * phi_next, out=centre.real)
        state.phi = phi_next
    centre.imag = 2.0 / dt
    # unchecked: a non-finite field is caught by run's check after the step
    try:
        v_next = scipy.linalg.solve_banded(
            (1, 1), ab, u.values, overwrite_ab=True, overwrite_b=False, check_finite=False
        )
    except (np.linalg.LinAlgError, ValueError) as exc:
        raise FloatingPointError(f"tridiagonal solve failed: {exc}") from exc
    v_next *= 4j / dt
    v_next -= u.values
    out = Field(grid=grid, values=v_next, time_tag=u.time_tag + dt)
    if cfg.lam != 0.0:
        state.density = nonlinear_density(out, cfg)
    return out, state


def adapt_dt(state: StepState, cfg: SimConfig) -> float:
    """Next step size: cap the nonlinear phase rotation per step at
    ``safety`` radians, clamped to [dt_min, dt_init]; reads the density
    of ``state``."""
    if cfg.lam == 0.0:
        return cfg.dt_init
    rate = abs(cfg.lam) * float(state.density.max())
    if rate <= 0.0:
        return cfg.dt_init
    dt = min(cfg.dt_init, cfg.safety / rate)
    return max(cfg.dt_min, dt)


def run(cfg: SimConfig, u0: Field) -> RunOutcome:
    """Advance from t = 0 to t_end with the grid-appropriate stepper.

    Records: the initial field, every ``record_every``-th step, and the
    step that reaches t_end or detects blow-up; each carries the size of
    the step that produced it (``dt_init`` on the initial record).

    Early terminations: ``blowup_detected`` when the H1 seminorm grows by
    ``blowup_ratio``; ``dt_underflow`` when the adaptive step pins at dt_min
    for 10 consecutive steps; ``non_finite`` on NaN/Inf, read from the live
    mass of each step (on a record step, the record's mass) and confirmed by
    an exact scan only when it is not finite.  A non-finite step appends no
    record.

    The blow-up check is exact, and it runs on every step that writes a
    record.  On other steps it is skipped when the grid bound
    ``hs_norm(u, 1)**2 <= geometry(grid).norm_bound * mass(u)`` proves the
    step cannot detect blow-up: rho_h * M < (blowup_ratio * h1_0)**2 / 2,
    the factor 1/2 covering rounding (M read before the field is settled,
    which changes it only by rounding).  ``sqrt(rho_h * M) / h1_0`` is the
    largest H1 growth the grid can show at mass M.

    Each step has one observation site, where step observers would hook in:
    a step that records or runs the exact check settles and measures H1
    once there, a record or blow-up step makes its one record, and only
    then does the non-finite guard run.

    Tensor steps defer their trailing half-phase (``StepState.owed``).
    The run settles the field in place at the observation site and at every
    termination, so every record and ``final_field`` see whole Strang steps.
    Settling in place moves the trajectory's rounding: the next step then
    builds its leading phase for dt/2, not (owed + dt)/2, and exp(a) exp(b) v
    rounds differently from exp(a + b) v.  So the trajectory depends, by
    rounding alone, on ``record_every`` and on whether the exact check runs
    on steps without a record: a 100-step 32^3 focusing run ends 4.5e-15
    relative apart with ``record_every`` 1 and 10.

    ``u0`` is left unmodified and ``final_field`` never shares its values:
    the first step reads ``u0.values`` and writes a new array, and a run
    that completes no step returns a copy.
    """
    from .diagnostics import make_record

    if u0.grid != cfg.grid:
        raise ValueError("initial field lives on a different grid")
    u = Field(grid=u0.grid, values=u0.values, time_tag=0.0)
    h1_0 = hs_norm(u, 1)
    rho = geometry(u.grid).norm_bound
    undetectable = 0.5 * (cfg.blowup_ratio * h1_0) ** 2
    # every record takes the potential from the state's density w |u|^sigma
    state = start_state(u, cfg)
    state.owed = 0.0  # tensor steps defer their trailing half-phase
    records = [make_record(u, cfg, cfg.dt_init, h1_0 * h1_0, state.density)]
    t = 0.0
    steps = 0
    pinned = 0
    step = strang_step if cfg.grid.kind == "tensor" else radial_cn_step
    termination = "completed"
    t_stop = cfg.t_end * (1.0 - 1e-12)

    while t < t_stop:
        dt = adapt_dt(state, cfg)
        if dt <= cfg.dt_min:
            pinned += 1
            if pinned >= 10:
                termination = "dt_underflow"
                break
        else:
            pinned = 0
        # a last step that float accumulation of t left within 1e-9 dt of
        # dt is taken whole, so dt and the propagator stay the same; a
        # genuinely short final step stays short
        remaining = cfg.t_end - t
        final = abs(remaining - dt) <= 1e-9 * dt
        dt_step = dt if final else min(dt, remaining)
        try:
            u, state = step(u, cfg, dt_step, state)
        except FloatingPointError:
            termination = "non_finite"
            break
        t_next = cfg.t_end if final else t + dt_step
        u.time_tag = t_next  # the steppers' own sum, except after a final step
        # the last step of a completed run always writes a record; a record
        # step takes the live mass from its record, whose mass is
        # grids.mass(u) bit for bit; a non-finite step keeps no record
        record = (steps + 1) % cfg.record_every == 0 or t_next >= t_stop
        m = None if record else mass(u)
        rec, blowup = None, False
        if record or not (h1_0 == 0.0 or rho * m < undetectable):
            settle(u, cfg, state)
            h1 = hs_norm(u, 1)
            blowup = h1_0 > 0.0 and h1 >= cfg.blowup_ratio * h1_0
            if record or blowup:
                rec = make_record(u, cfg, dt_step, h1 * h1, state.density)
                m = rec.mass if record else m
        # a finite sum of squares has only finite terms, so only a NaN or
        # overflowed mass (a huge finite entry overflows it) needs the scan
        if not math.isfinite(m) and not np.all(np.isfinite(u.values.view(np.float64))):
            termination = "non_finite"
            break
        t = t_next
        steps += 1
        if rec is not None:
            records.append(rec)
        if blowup:
            termination = "blowup_detected"
            break

    settle(u, cfg, state)  # after an early termination
    if u.values is u0.values:  # no step completed
        u = Field(grid=u.grid, values=u0.values.copy(), time_tag=t)
    return RunOutcome(
        termination=termination,
        t_final=t,
        series=records,
        final_field=u,
        steps=steps,
    )
