"""Grids, complex fields, spectral operators, and spatial integrals.

Two grid kinds, each with one cached geometry, ``geometry(grid)``: the one
seam between them.  A ``TensorGeometry`` or ``RadialGeometry`` has the same
members: the coordinate ``mesh``, the integrals ``mass``, ``integral``,
``variance`` and ``shell_mass`` of |u|^2, the squared seminorm ``hs_sq``,
the bound ``norm_bound`` of hs_norm(u, 1)**2 / mass(u), and the kind facts
``origin_node`` and ``symmetry``.  The public functions read it and do not
branch on the kind.

* ``tensor``: periodic box [-L/2, L/2)^n, n <= 3, N points per axis (power of
  two), trapezoid quadrature, spectral derivatives with wavenumbers
  xi = 2 pi k / L, k in {-N/2, ..., N/2-1}.  Its geometry owns the
  coordinate and wavenumber axes and their per-axis squares, so sums
  against |x|^2 and |xi|^2 are taken from axis marginals.
* ``radial``: cell-centered uniform radial line for n >= 3; nodes at
  (j+1/2) h with h = r_max / N so the singular weight never sees r = 0.
  Its geometry owns the node radii, the node weights S_{n-1} r^(n-1) h (the
  quadrature), the spacing and the face conductances.  The radial Laplacian
  is a flux-form tridiagonal stencil built from them to be self-adjoint
  with respect to exactly that quadrature (so Crank-Nicolson steps conserve
  the discrete mass) and exact on quadratics at every node including the
  innermost cell.
  The last conductance is the outer face's (Dirichlet: u = 0 beyond r_max);
  the stencil and the H1 seminorm both read it, so they cannot disagree
  about the boundary.

The field-pointwise helpers ``abs_power`` (|u|^p) and ``nonlinear_density``
(w |u|^sigma) live here too.  This module imports nothing from ``inls``.
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np
import scipy.fft

THREADS_ENV = "INLS_THREADS"


def thread_count() -> int:
    """Worker count for internal parallelism (FFT): INLS_THREADS when set and
    non-empty, else the number of CPUs this process may run on (its affinity
    mask where the platform reports one, else the CPU count).  Raises
    ValueError unless INLS_THREADS is a positive integer."""
    value = os.environ.get(THREADS_ENV)
    if not value:
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    try:
        count = int(value)
    except ValueError:
        count = 0
    if count < 1:
        raise ValueError(f"{THREADS_ENV} must be a positive integer, got {value!r}")
    return count


@dataclass(frozen=True)
class GridSpec:
    kind: str  # "tensor" | "radial"
    n: int
    points: int
    extent: float = 0.0  # tensor box edge length
    r_max: float = 0.0   # radial domain radius

    def __post_init__(self):
        if self.kind not in ("tensor", "radial"):
            raise ValueError("grid kind must be 'tensor' or 'radial'")
        if self.points < 8:
            raise ValueError("need at least 8 points per axis")
        if self.kind == "tensor":
            if not 1 <= self.n <= 3:
                raise ValueError("tensor grids support n in {1, 2, 3}")
            if not 0 < self.extent < math.inf:
                raise ValueError("tensor grid needs a positive, finite extent")
            if self.points & (self.points - 1):
                raise ValueError("tensor grid points must be a power of two")
            if self.r_max != 0.0:
                raise ValueError("a tensor grid takes no r_max")
        else:
            if self.n < 3:
                raise ValueError("radial grids require n >= 3")
            if not 0 < self.r_max < math.inf:
                raise ValueError("radial grid needs a positive, finite r_max")
            if self.extent != 0.0:
                raise ValueError("a radial grid takes no extent")
        # every per-grid table is an lru_cache keyed on the grid, so the hash
        # is taken once; the kind enters as a bool, whose hash (unlike a
        # str's) is the same in every process, so a pickled grid keeps it
        key = (self.kind == "tensor", self.n, self.points, self.extent, self.r_max)
        object.__setattr__(self, "_hash", hash(key))

    def __hash__(self):
        return self._hash

    @classmethod
    def tensor(cls, n: int, extent: float, points: int) -> "GridSpec":
        return cls(kind="tensor", n=n, points=points, extent=float(extent))

    @classmethod
    def radial(cls, n: int, r_max: float, points: int) -> "GridSpec":
        return cls(kind="radial", n=n, points=points, r_max=float(r_max))

    @property
    def spacing(self) -> float:
        if self.kind == "tensor":
            return self.extent / self.points
        return self.r_max / self.points

    @property
    def shape(self):
        if self.kind == "tensor":
            return (self.points,) * self.n
        return (self.points,)

    @property
    def cell_measure(self) -> float:
        # tensor volume element; radial uses node weights instead
        return self.spacing**self.n


@dataclass
class Field:
    """Complex amplitude over a grid at one instant."""

    grid: GridSpec
    values: np.ndarray
    time_tag: float = 0.0

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.complex128)
        if values.shape != self.grid.shape:
            raise ValueError(
                f"value shape {values.shape} does not match grid shape {self.grid.shape}"
            )
        self.values = values


@dataclass(frozen=True)
class PotentialWeight:
    """Regularized singular weight (|x|^2 + delta^2)^(-b/2).

    delta = 0 is only meaningful on radial grids, whose nodes exclude the
    origin; on tensor grids the origin sits on a node and needs delta > 0
    whenever b > 0.
    """

    b: float
    delta: float = 0.0

    def __post_init__(self):
        if self.b < 0:
            raise ValueError("weight exponent b must be >= 0")
        if not 0 <= self.delta < math.inf:
            raise ValueError("regularization delta must be finite and >= 0")
        object.__setattr__(self, "_hash", hash((self.b, self.delta)))  # as GridSpec

    def __hash__(self):
        return self._hash


def _radial_table(axes, f=None, dtype=np.float64) -> np.ndarray:
    """f(s) at every node of the tensor product of ``axes``, where s is the
    node's sum of squares ((0 + a_0^2) + a_1^2) + ..., as a new array of
    ``dtype``: the one builder of every |x|^2 and |xi|^2 table and of the
    radially symmetric tables made from them.  Each axis is an array that
    varies along its own dimension only (a 1-d axis or a sparse mesh axis).

    ``f`` is elementwise and may overwrite its argument; None is the
    identity.  With two or more axes, s and f are evaluated once per
    combination of distinct per-axis squares (N/2 + 1 of N on a centred
    axis whose x and -x round alike: 33^3 sums at 64^3), and the
    result is gathered into the output one axis-0 plane at a time, so no
    full-size temporary is built.  The sums are those of the full table,
    so the result is f of it bit for bit.
    """
    squares = [np.ravel(a) ** 2 for a in axes]
    if len(squares) < 2:  # nothing to share; 0 + a^2 is a^2 exactly
        table = squares[0] if squares else np.zeros(())
        return (table if f is None else f(table)).astype(dtype, copy=False)
    out = np.empty(tuple(sq.size for sq in squares), dtype)  # before any temporary
    squares, inverse = zip(*map(_distinct, squares))
    table = np.zeros(tuple(sq.size for sq in squares))
    for sq in np.ix_(*squares):
        table += sq
    if f is not None:
        table = f(table)
    rest = np.ravel_multi_index(np.ix_(*inverse[1:]), table.shape[1:])
    for plane, i in zip(out, inverse[0]):
        if table.dtype == dtype:  # "clip": in range; "raise" would buffer
            np.take(table[i], rest, out=plane, mode="clip")
        else:  # a real table into a complex output, with no complex copy of it
            plane[...] = np.take(table[i], rest, mode="clip")
    return out


def _distinct(values: np.ndarray):
    """The distinct entries of a short 1-d array, in order of first
    appearance, and the position of each entry among them.  Taken with a
    dict, not ``np.unique``, whose first call faults in ~0.45 MiB of NumPy's
    sort kernels that nothing else in a run reads."""
    first = {}
    inverse = [first.setdefault(v, len(first)) for v in values.tolist()]
    return np.array(list(first)), np.array(inverse, dtype=np.intp)


def _frozen(table: np.ndarray) -> np.ndarray:
    table.flags.writeable = False
    return table


def _abs_sq(values: np.ndarray) -> np.ndarray:
    """|values|^2 formed as re^2 + im^2 (no hypot): the density of every
    quadratic integral.  A multi-axis array takes im^2 one axis-0 plane at
    a time, so the result is its only full-size array."""
    out = np.square(values.real)
    if values.ndim == 1:
        out += np.square(values.imag)
    else:
        for plane, imag in zip(out, values.imag):
            plane += np.square(imag)
    return out


@dataclass(frozen=True, eq=False)
class TensorGeometry:
    """A tensor grid's coordinate and wavenumber axes and their per-axis
    squares, built on first use.  Integrals take the cell measure and sum by
    einsum, which stays in NumPy (np.dot would hand a 64^3 product to
    OpenBLAS threads, which then compete with the FFT workers)."""

    grid: GridSpec
    origin_node = True  # the origin is a node, where |x|^-b needs delta > 0
    symmetry = "finite_variance"  # what the blow-up classifier may assume

    @cached_property
    def axis(self) -> np.ndarray:
        return _frozen(-0.5 * self.grid.extent + self.grid.spacing * np.arange(self.grid.points))

    @cached_property
    def wavenumber_axis(self) -> np.ndarray:
        """xi = 2 pi k / L along one axis, in FFT order."""
        return _frozen(2.0 * math.pi * scipy.fft.fftfreq(self.grid.points, d=self.grid.spacing))

    @cached_property
    def mesh(self):
        """n sparse axes; ``np.broadcast_arrays`` makes them dense."""
        return tuple(np.meshgrid(*([self.axis] * self.grid.n), indexing="ij", sparse=True))

    @cached_property
    def _splits(self):
        """|x|^2 and |xi|^2 (items False and True) as first[i] + rest[j]: the
        squares along axis 0 and the sums of squares over the flattened
        cross-section of the other axes ([0.0] when n = 1)."""
        axes = (self.axis, self.wavenumber_axis)
        return tuple((a**2, _radial_table([a] * (self.grid.n - 1)).ravel()) for a in axes)

    def mass(self, values: np.ndarray, a2=None) -> float:
        """Squared L2 norm of ``values``: their (re, im) pairs contracted with
        themselves, with no temporary unless ``values`` is not C-contiguous
        (then a copy is, so every layout sums alike); ``a2`` is not read."""
        pairs = np.ascontiguousarray(values).view(np.float64).ravel()
        return float(np.einsum("i,i->", pairs, pairs) * self.grid.cell_measure)

    def integral(self, table: np.ndarray, a2: np.ndarray) -> float:
        """Integral of table * a2."""
        return float(np.einsum("i,i->", table.ravel(), a2.ravel()) * self.grid.cell_measure)

    def variance(self, a2: np.ndarray) -> float:
        """Sum of |x|^2 a2 as its axis-0 and column marginals against first
        and rest: no full-size table."""
        first, rest = self._splits[False]
        a2 = a2.reshape(self.grid.points, -1)
        rows, cols = a2.sum(axis=1), a2.sum(axis=0)
        cols *= rest  # in place: no second cross-section-sized temporary
        return float(np.sum(first * rows) + np.sum(cols)) * self.grid.cell_measure

    def shell_mass(self, a2: np.ndarray) -> float:
        """Mass where |x_i| >= 0.45 L on some axis, summed as disjoint slabs
        (axis k outside the cut, the axes before it inside), views of a2, so
        no mask is built or kept."""
        grid = self.grid
        inner = np.flatnonzero(np.abs(self.axis) < 0.45 * grid.extent)
        core = slice(inner[0], inner[-1] + 1)
        total = 0.0
        for axis in range(grid.n):
            for outer in (slice(0, core.start), slice(core.stop, None)):
                total += np.sum(a2[(core,) * axis + (outer,)])
        return float(total * grid.cell_measure)

    def hs_sq(self, values: np.ndarray, s: float) -> float:
        """Sum of |xi|^(2s) |uhat|^2.  Other s than 1 transform a copy of
        ``values``, square it in place as (re, im) pairs and contract it
        with |xi|^(2s), built for the call.

        s = 1 sums |grad u|^2 over the axes, |xi|^2 = xi_0^2 + |xi'|^2, with
        no full-size spectrum: by Parseval over the axes a block leaves
        untransformed, it is N^(n-1) S_0 + N S', where S_0 sums xi_0^2 |.|^2
        of 1-d FFTs along axis 0 of blocks of columns and S' sums
        |xi'|^2 |.|^2 of FFTs over the other axes of blocks of axis-0
        planes.  Each block's spectrum is at most 1/8 of the field
        (``_h1_block``) and is squared and summed into axis marginals in
        place."""
        if s == 1:
            with np.errstate(invalid="ignore"):  # 0 * inf, handled below
                total = self._h1_sum(values)
        else:
            uhat = scipy.fft.fftn(values.copy(), workers=thread_count(), overwrite_x=True)
            pairs = uhat.view(np.float64)
            pairs *= pairs

            def power(ksq):
                ksq **= s
                return ksq

            multiplier = _radial_table([self.wavenumber_axis] * self.grid.n, power)
            total = float(np.einsum("i,ik->", multiplier.ravel(), pairs.reshape(-1, 2)))
        # an overflowed square times the mean's zero multiplier is NaN; a
        # finite field's seminorm then is inf, so blow-up checks still fire
        if math.isnan(total) and np.all(np.isfinite(values.view(np.float64))):
            total = math.inf
        return total * self.grid.cell_measure / values.size

    def _h1_sum(self, values: np.ndarray) -> float:
        """N^(n-1) S_0 + N S' of ``hs_sq``: per block, one FFT and the sums
        of its squared (re, im) pairs along the axes that are not weighted."""
        n, points = self.grid.n, self.grid.points
        first, rest = self._splits[True]
        workers = thread_count()
        columns = values.reshape(points, -1)
        rows = np.zeros(points)  # sum over the columns of |F_0 u|^2, by xi_0
        for block in _h1_block(columns.shape[1]):
            pairs = scipy.fft.fftn(columns[:, block], axes=(0,), workers=workers).view(np.float64)
            pairs *= pairs
            rows += pairs.sum(axis=1)
        total = points ** (n - 1) * float(np.sum(first * rows))
        if n > 1:
            cols = np.zeros(2 * rest.size)  # sum over the planes of |F' u|^2
            for block in _h1_block(points):
                spectrum = scipy.fft.fftn(values[block], axes=range(1, n), workers=workers)
                pairs = spectrum.view(np.float64).reshape(spectrum.shape[0], -1)
                pairs *= pairs
                cols += pairs.sum(axis=0)
            total += points * float(np.sum(rest * cols.reshape(-1, 2).sum(axis=1)))
        return total

    @cached_property
    def norm_bound(self) -> float:
        """The largest |xi|^2, exact by Parseval (the Nyquist mode attains
        it), taken as n times the largest xi^2 of one axis, which equals the
        largest entry of the dense |xi|^2 table bit for bit."""
        return self.grid.n * float(np.max(self.wavenumber_axis**2))


@lru_cache(maxsize=16)
def sphere_area(n: int) -> float:
    """Surface measure of the unit sphere in n dimensions (cached: the radial
    H1 seminorm reads it on every call)."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


@dataclass(frozen=True, eq=False)
class RadialGeometry:
    """A radial grid's node radii r_j, node weights D_j = S_{n-1} r_j^(n-1) h,
    spacing h and face conductances f_{j+1/2}, as read-only arrays; all but
    the radii are built on first use.  f_{j+1/2} = n h sum_{i<=j} r_i^(n-1)
    / r_{j+1/2} makes the stencil self-adjoint under D and exact on r^2 at
    every node; the plain midpoint choice r_{j+1/2}^(n-1) is O(1) wrong in
    the first cell.  The last entry is the outer face's conductance, in the
    units of the others: f_{N-1/2}, across which u jumps to 0 (Dirichlet)."""

    n: int
    r_max: float
    spacing: float
    radii: np.ndarray
    origin_node = False  # the first node sits at h/2
    symmetry = "radial"

    @cached_property
    def mesh(self):
        return (self.radii,)

    @cached_property
    def weights(self) -> np.ndarray:
        return _frozen(sphere_area(self.n) * self.radii ** (self.n - 1) * self.spacing)

    @cached_property
    def conductances(self) -> np.ndarray:
        n, h, r = self.n, self.spacing, self.radii
        return _frozen(n * h * np.cumsum(r ** (n - 1)) / ((np.arange(r.size) + 1.0) * h))

    @cached_property
    def bands(self) -> np.ndarray:
        """The radial Laplacian (flux through face j+1/2 is f_{j+1/2} times
        the jump, none through r = 0) in ``solve_banded`` layout (rows:
        upper, diagonal, lower), complex, read-only."""
        h, f = self.spacing, self.conductances
        denom = self.radii ** (self.n - 1) * h * h
        table = np.zeros((3, f.size), dtype=np.complex128)
        table[0, 1:] = f[:-1] / denom[:-1]
        table[1] = -(f + np.concatenate(([0.0], f[:-1]))) / denom
        table[2, :-1] = f[:-1] / denom[1:]
        return _frozen(table)

    @cached_property
    def variance_table(self) -> np.ndarray:
        """r^2 times the node weights."""
        return _frozen(self.radii**2 * self.weights)

    @cached_property
    def shell_table(self) -> np.ndarray:
        """The node weights where r >= 0.9 r_max, 0 elsewhere."""
        return _frozen(np.where(self.radii >= 0.9 * self.r_max, self.weights, 0.0))

    def mass(self, values: np.ndarray, a2=None) -> float:
        """Squared L2 norm of ``values``, from their a2 = |values|^2 when given."""
        return float(np.dot(self.weights, _abs_sq(values) if a2 is None else a2))

    def integral(self, table: np.ndarray, a2: np.ndarray) -> float:
        """Integral of table * a2."""
        return float(np.dot(self.weights, table * a2))

    def variance(self, a2: np.ndarray) -> float:
        return float(np.dot(self.variance_table, a2))

    def shell_mass(self, a2: np.ndarray) -> float:
        return float(np.dot(self.shell_table, a2))

    def hs_sq(self, values: np.ndarray, s: float) -> float:
        """<u, -L_h u> in the node weights, summed over the faces, the outer
        one included: the discrete Dirichlet form of the radial Laplacian.
        Only s = 1."""
        if s != 1:
            raise ValueError("radial grids support only s = 0 and s = 1")
        diff = np.empty_like(values)
        np.subtract(values[1:], values[:-1], out=diff[:-1])
        diff[-1] = -values[-1]  # the outer face: u = 0 beyond r_max
        pairs = diff.view(np.float64).reshape(-1, 2)
        pairs *= pairs  # |diff|^2 as (re^2, im^2) pairs, summed against f at once
        return float(sphere_area(self.n) * np.dot(self.conductances, pairs).sum() / self.spacing)

    @cached_property
    def norm_bound(self) -> float:
        """The largest absolute row sum (Gershgorin) of D^1/2 Lap_h D^-1/2,
        D the node weights, off-diagonal entries sqrt(upper_i lower_{i+1}):
        -Lap_h is self-adjoint in the node weights, so the Rayleigh quotient
        hs_norm(u, 1)**2 / mass(u) stays below this matrix's spectral radius."""
        bands = self.bands.real
        coupling = np.sqrt(bands[0, 1:] * bands[2, :-1])
        rows = np.abs(bands[1])
        rows[:-1] += coupling
        rows[1:] += coupling
        return float(rows.max())


def _h1_block(size: int):
    """Slices of ``range(size)`` of size // 8 entries each (one when
    size < 8): 8 blocks of a tensor grid's axis (N >= 8, a power of two)
    or of its N^(n-1) columns when n > 1, so a blocked H1 spectrum is at
    most 1/8 of the field."""
    step = max(1, size // 8)
    return [slice(start, start + step) for start in range(0, size, step)]


@lru_cache(maxsize=64)
def geometry(grid: GridSpec):
    """The cached ``TensorGeometry`` or ``RadialGeometry`` of ``grid``: the
    one place outside ``GridSpec`` where the grid kind picks formulas."""
    if grid.kind == "tensor":
        return TensorGeometry(grid)
    h = grid.spacing
    return RadialGeometry(grid.n, grid.r_max, h, _frozen((np.arange(grid.points) + 0.5) * h))


def radius_sq_values(grid: GridSpec, f=None, dtype=np.float64) -> np.ndarray:
    """f(|x|^2) at every node (|x|^2 itself when ``f`` is None), built on
    each call by ``_radial_table``; the caller owns the array."""
    return _radial_table(geometry(grid).mesh, f, dtype)


@lru_cache(maxsize=64)
def weight_values(grid: GridSpec, weight: PotentialWeight) -> np.ndarray:
    if weight.delta == 0.0 and weight.b > 0 and geometry(grid).origin_node:
        raise ValueError("delta = 0 is only permitted on radial grids")

    def table(rsq):
        rsq += weight.delta**2
        rsq **= -0.5 * weight.b
        return rsq

    return radius_sq_values(grid, table)


def mass(u: Field) -> float:
    """Squared L2 norm by the grid quadrature, summed as re^2 + im^2."""
    return geometry(u.grid).mass(u.values)


class Moments(NamedTuple):
    """The spatial integrals of one record, from one |u|^2."""

    mass: float
    variance: float
    boundary_mass_fraction: float
    weighted_potential: float
    max_amp: float


def moments(u: Field, density: np.ndarray) -> Moments:
    """mass, variance, the outer-shell mass fraction (0 for a zero field),
    the weighted potential and max |u| of ``u`` from one |u|^2.  The
    weighted potential, the integral of weight(x) |u|^(sigma+2), is that of
    ``density`` * |u|^2, ``density`` = weight(x) |u|^sigma
    (``nonlinear_density``)."""
    geo = geometry(u.grid)
    a2 = _abs_sq(u.values)
    total = geo.mass(u.values, a2)
    return Moments(
        mass=total,
        variance=geo.variance(a2),
        boundary_mass_fraction=geo.shell_mass(a2) / total if total else 0.0,
        weighted_potential=geo.integral(density, a2),
        max_amp=math.sqrt(a2.max()),
    )


def hs_norm(u: Field, s: float) -> float:
    """Homogeneous Sobolev seminorm of order s, a finite s >= 0: the
    multiplier |xi|^s on tensor grids; on radial grids s = 0 or 1, the
    discrete Dirichlet form of the radial Laplacian, outer face included."""
    if not 0 <= s < math.inf:
        raise ValueError(f"order s must be finite and >= 0, got {s!r}")
    if s == 0:
        return math.sqrt(mass(u))
    return math.sqrt(geometry(u.grid).hs_sq(u.values, s))


def abs_power(values: np.ndarray, p: float, out=None, scratch=None) -> np.ndarray:
    """|values|^p as a real array, written into ``out`` when given.

    An integer p from 2 to 8 is built by repeated multiplication of |values|
    (held in ``scratch`` when given, else in a fresh array): two to three
    times cheaper than the float ``**`` and within a few ulp of it.  Any
    other p uses ``**``.  With or without ``out``, the result rounds alike.
    """
    if out is None:
        out = np.empty(values.shape)
    if float(p).is_integer() and 2 <= p <= 8:
        base = np.abs(values, out=scratch)
        np.multiply(base, base, out=out)
        for _ in range(int(p) - 2):
            out *= base
        return out
    np.abs(values, out=out)
    out **= p
    return out


def nonlinear_density(u: Field, weight: PotentialWeight, sigma: float, out=None) -> np.ndarray:
    """w |u|^sigma: the rate of the nonlinear phase, computed once per step
    and shared by ``adapt_dt``, the stepper and the step's record, whose
    weighted potential is the integral of it times |u|^2.  With ``out`` the
    result is written into that real array of the grid's shape.  On a
    tensor grid it is formed one axis-0 slab (``_h1_block``: 1/8 of axis
    0) at a time, so the |u| that an integer sigma's power is multiplied
    out from is one slab of scratch; a radial grid's 1-d array is formed
    whole, keeping the radial step's per-call overhead.  Every way of
    calling it rounds identically (``abs_power``)."""
    table = weight_values(u.grid, weight)
    if u.grid.kind != "tensor":
        out = abs_power(u.values, sigma, out)
        out *= table
        return out
    if out is None:
        out = np.empty(u.grid.shape)
    blocks = _h1_block(u.grid.points)
    scratch = np.empty(out[blocks[0]].shape)
    for block in blocks:
        piece = abs_power(u.values[block], sigma, out[block], scratch)
        piece *= table[block]
    return out


def weighted_quadratic(u: Field, a) -> float:
    """Integral of a(x) |u|^2 for a table ``a`` of a(x) over the nodes."""
    table = np.broadcast_to(np.asarray(a, dtype=float), u.grid.shape)
    return geometry(u.grid).integral(table, _abs_sq(u.values))


def gaussian_field(
    grid: GridSpec, amplitude: float = 1.0, width: float = 1.0, center=None
) -> Field:
    """A * exp(-|x - center|^2 / (2 w^2)); center defaults to the origin."""
    if not width > 0:
        raise ValueError(f"width must be positive, got {width!r}")
    if center is None:
        center = (0.0,) * grid.n
    elif grid.kind == "radial":
        raise ValueError("radial grids take centered data only")
    # the radial mesh is (r,): |r - 0|^2 is r^2
    axes = [c - c0 for c, c0 in zip(geometry(grid).mesh, center)]
    values = _radial_table(axes, lambda rsq: amplitude * np.exp(-rsq / (2.0 * width**2)), complex)
    return Field(grid=grid, values=values, time_tag=0.0)


# -- field dump format: one JSON header line, then raw little-endian ---------
# complex128 payload (interleaved re, im pairs) in row-major order.  The
# header names the grid's size by the key of its kind.

_SIZE_KEYS = {"tensor": "extent", "radial": "r_max"}


def dump_field(u: Field, path, meta: dict) -> None:
    """Write the field with its run metadata; bit-exact round trip."""
    grid = u.grid
    header = {
        "kind": grid.kind,
        "n": grid.n,
        "points": grid.points,
        "time_tag": u.time_tag,
        "b": meta.get("b"),
        "delta": meta.get("delta"),
        "sigma": meta.get("sigma"),
        "lambda": meta.get("lambda"),
    }
    size = _SIZE_KEYS[grid.kind]
    header[size] = getattr(grid, size)
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        fh.write(b"\n")
        # a C-contiguous little-endian field is written where it lies
        fh.write(np.ascontiguousarray(u.values, dtype="<c16").data)


def load_field(path):
    """Read a field dump; returns (Field, header dict)."""
    with open(path, "rb") as fh:
        header_line = fh.readline()
        payload = fh.read()
    header = json.loads(header_line.decode("utf-8"))
    try:
        size = _SIZE_KEYS[header["kind"]]
        grid = GridSpec(header["kind"], header["n"], header["points"], **{size: header[size]})
        values = np.frombuffer(payload, dtype="<c16").reshape(grid.shape)
        return Field(grid=grid, values=values.copy(), time_tag=header["time_tag"]), header
    except (KeyError, TypeError) as exc:
        raise ValueError(f"field dump header lacks or mistypes {exc}") from None
