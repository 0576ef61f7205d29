"""Grids, complex fields, spectral operators, and spatial integrals.

Two grid kinds:

* ``tensor``: periodic box [-L/2, L/2)^n, n <= 3, N points per axis (power of
  two), trapezoid quadrature, spectral derivatives with wavenumbers
  xi = 2 pi k / L, k in {-N/2, ..., N/2-1}.
* ``radial``: cell-centered uniform radial line for n >= 3; nodes at
  (j+1/2) h with h = r_max / N so the singular weight never sees r = 0.
  Every radial formula reads one cached ``radial_geometry(grid)``: the node
  radii, the node weights S_{n-1} r^(n-1) h (the quadrature), the spacing
  and the face conductances.  The radial Laplacian is a flux-form
  tridiagonal stencil built from them to be self-adjoint with respect to
  exactly that quadrature (so Crank-Nicolson steps conserve the discrete
  mass) and exact on quadratics at every node including the innermost cell.
  The last conductance is the outer face's (Dirichlet: u = 0 beyond r_max);
  the stencil and the H1 seminorm both read it, so they cannot disagree
  about the boundary.
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

from .ground_state import sphere_area

THREADS_ENV = "INLS_THREADS"


def thread_count() -> int:
    """Worker count for internal parallelism (FFT): INLS_THREADS when set and
    non-empty, else the CPU count.  Raises ValueError unless INLS_THREADS is
    a positive integer."""
    value = os.environ.get(THREADS_ENV)
    if not value:
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
        else:
            if self.n < 3:
                raise ValueError("radial grids require n >= 3")
            if not 0 < self.r_max < math.inf:
                raise ValueError("radial grid needs a positive, finite r_max")
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


@lru_cache(maxsize=64)
def _axis(grid: GridSpec) -> np.ndarray:
    h = grid.spacing
    return -0.5 * grid.extent + h * np.arange(grid.points)


@lru_cache(maxsize=64)
def _wavenumber_axis(grid: GridSpec) -> np.ndarray:
    """xi = 2 pi k / L along one axis, in FFT order."""
    if grid.kind != "tensor":
        raise ValueError("wavenumbers are defined on tensor grids only")
    return 2.0 * math.pi * scipy.fft.fftfreq(grid.points, d=grid.spacing)


@lru_cache(maxsize=64)
def mesh(grid: GridSpec):
    """Coordinate arrays: n sparse, broadcastable axes for tensor grids
    (``np.broadcast_arrays`` makes them dense), (r,) for radial."""
    if grid.kind == "radial":
        return (radial_geometry(grid).radii,)
    return tuple(np.meshgrid(*([_axis(grid)] * grid.n), indexing="ij", sparse=True))


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


def radius_sq_values(grid: GridSpec, f=None, dtype=np.float64) -> np.ndarray:
    """f(|x|^2) at every node (|x|^2 itself when ``f`` is None), built on
    each call by ``_radial_table``; the caller owns the array."""
    return _radial_table(mesh(grid), f, dtype)


def wavenumber_sq_values(grid: GridSpec, f=None, dtype=np.float64) -> np.ndarray:
    """f(|xi|^2) at every wavenumber (|xi|^2 itself when ``f`` is None),
    built on each call by ``_radial_table``; the caller owns the array."""
    return _radial_table([_wavenumber_axis(grid)] * grid.n, f, dtype)


@lru_cache(maxsize=64)
def _square_split(grid: GridSpec, spectral: bool):
    """|x|^2 (|xi|^2 when ``spectral``) on a tensor grid as first[i] +
    rest[j]: ``first`` holds the squares along axis 0, ``rest`` the sums of
    squares over the flattened (n-1)-d cross-section of the other axes
    ([0.0] when n = 1)."""
    axis = _wavenumber_axis(grid) if spectral else _axis(grid)
    return axis**2, _radial_table([axis] * (grid.n - 1)).ravel()


def _split_sum(grid: GridSpec, spectral: bool, a: np.ndarray) -> float:
    """Sum over a tensor grid of |x|^2 (|xi|^2 when ``spectral``) times
    ``a``, which holds k values per node in row order (k = 2 for (re^2,
    im^2) pairs).  Taken as the axis-0 marginal (each row summed pairwise)
    against ``first`` and the column marginal against ``rest``: two passes
    over ``a`` and no full-size table."""
    first, rest = _square_split(grid, spectral)
    a = a.reshape(grid.points, -1)
    rows = a.sum(axis=1)
    cols = a.sum(axis=0).reshape(rest.size, -1)
    return float(np.sum(first * rows) + np.sum(rest[:, None] * cols))


def _frozen(table: np.ndarray) -> np.ndarray:
    table.flags.writeable = False
    return table


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


@lru_cache(maxsize=64)
def radial_geometry(grid: GridSpec) -> RadialGeometry:
    """The one radial table of ``grid``, and the only radial reader of its spacing."""
    if grid.kind != "radial":
        raise ValueError("radial geometry is defined on radial grids only")
    h = grid.spacing
    return RadialGeometry(grid.n, grid.r_max, h, _frozen((np.arange(grid.points) + 0.5) * h))


def weight_values(grid: GridSpec, weight: PotentialWeight) -> np.ndarray:
    if weight.delta == 0.0 and grid.kind == "tensor" and weight.b > 0:
        raise ValueError("delta = 0 is only permitted on radial grids")
    return _weight_values_cached(grid, weight.b, weight.delta)


@lru_cache(maxsize=64)
def _weight_values_cached(grid: GridSpec, b: float, delta: float) -> np.ndarray:
    def weight(rsq):
        rsq += delta**2
        rsq **= -0.5 * b
        return rsq

    return radius_sq_values(grid, weight)


# -- spatial integrals: each is a dot product of |u|^2 with a cached table
# (the weighted potential's: the run's density w |u|^sigma).  Radial tables
# carry the node weights; tensor tables are plain and the sum takes the scalar
# cell measure.  A tensor grid caches no table but the weight the run needs
# anyway: the variance, a sum of per-axis terms, is taken from the marginals
# of |u|^2 (``_split_sum``).

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


def _quadrature(grid: GridSpec, table: np.ndarray, density: np.ndarray) -> float:
    """Integral of table * density.  Tensor sums use einsum, which stays in
    NumPy (np.dot would hand a 64^3 product to OpenBLAS threads)."""
    if grid.kind == "tensor":
        return float(np.einsum("i,i->", table.ravel(), density.ravel()) * grid.cell_measure)
    return float(np.dot(table, density))


def _variance(grid: GridSpec, a2: np.ndarray) -> float:
    if grid.kind == "radial":
        return _quadrature(grid, radial_geometry(grid).variance_table, a2)
    return _split_sum(grid, False, a2) * grid.cell_measure


def _shell_mass(grid: GridSpec, a2: np.ndarray) -> float:
    """Mass in the outer 10 percent shell: r >= 0.9 r_max on radial grids,
    |x_i| >= 0.45 L on some axis of tensor grids.  The tensor shell is summed
    as disjoint slabs (axis k outside the cut, the axes before it inside),
    views of a2, so no mask is built or kept."""
    if grid.kind == "radial":
        return _quadrature(grid, radial_geometry(grid).shell_table, a2)
    inner = np.flatnonzero(np.abs(_axis(grid)) < 0.45 * grid.extent)
    core = slice(inner[0], inner[-1] + 1)
    total = 0.0
    for axis in range(grid.n):
        for outer in (slice(0, core.start), slice(core.stop, None)):
            total += np.sum(a2[(core,) * axis + (outer,)])
    return float(total * grid.cell_measure)


def mass(u: Field) -> float:
    """Squared L2 norm by the grid quadrature, summed as re^2 + im^2 (no
    hypot); tensor grids contract the (re, im) pairs with themselves and
    allocate no full-size temporary."""
    grid = u.grid
    if grid.kind == "tensor":
        pairs = np.ascontiguousarray(u.values).view(np.float64).ravel()
        return float(np.einsum("i,i->", pairs, pairs) * grid.cell_measure)
    return _quadrature(grid, radial_geometry(grid).weights, _abs_sq(u.values))


class Moments(NamedTuple):
    """The spatial integrals of one record, from one |u|^2."""

    mass: float
    variance: float
    boundary_mass_fraction: float
    weighted_potential: float
    max_amp: float


def moments(u: Field, density: np.ndarray) -> Moments:
    """mass, variance, the outer-shell mass fraction (0 for a zero field),
    the weighted potential and max |u| of ``u`` in one pass: |u|^2 is formed
    once and each integral is a dot product of it against a cached table
    (on tensor grids the shell is summed as slabs and the variance from
    axis marginals).  The weighted potential, the integral of
    weight(x) |u|^(sigma+2), is taken as that of ``density`` * |u|^2 with
    ``density`` = weight(x) |u|^sigma (``dynamics.nonlinear_density``)."""
    grid = u.grid
    a2 = _abs_sq(u.values)
    if grid.kind == "tensor":
        total = mass(u)
        potential = _quadrature(grid, density, a2)
    else:
        weights = radial_geometry(grid).weights
        total = _quadrature(grid, weights, a2)
        potential = _quadrature(grid, weights, density * a2)
    return Moments(
        mass=total,
        variance=_variance(grid, a2),
        boundary_mass_fraction=_shell_mass(grid, a2) / total if total else 0.0,
        weighted_potential=potential,
        max_amp=math.sqrt(a2.max()),
    )


@lru_cache(maxsize=64)
def laplacian_norm_bound(grid: GridSpec) -> float:
    """rho_h such that hs_norm(u, 1)**2 <= rho_h * mass(u) for every field u
    on the grid.

    Tensor grids: the largest |xi|^2, exact by Parseval (the Nyquist mode
    attains it), taken as n times the largest xi^2 of one axis, which
    equals the largest entry of ``wavenumber_sq_values`` bit for bit.
    Radial grids: the largest absolute row sum (Gershgorin) of
    the symmetrised Laplacian D^1/2 Lap_h D^-1/2, D the node weights, whose
    off-diagonal entries are sqrt(upper_i lower_{i+1}).  hs_norm(u, 1)**2 is
    <u, -Lap_h u> in the node-weight inner product, in which -Lap_h is
    self-adjoint, so its Rayleigh quotient stays below the spectral radius
    of the symmetrised matrix, which no row sum bound undercuts.
    """
    if grid.kind == "tensor":
        return grid.n * float(np.max(_wavenumber_axis(grid) ** 2))
    bands = radial_geometry(grid).bands.real
    coupling = np.sqrt(bands[0, 1:] * bands[2, :-1])
    rows = np.abs(bands[1])
    rows[:-1] += coupling
    rows[1:] += coupling
    return float(rows.max())


def hs_norm(u: Field, s: float) -> float:
    """Homogeneous Sobolev seminorm of order s.

    Tensor grids use the spectral multiplier |xi|^s for any s >= 0; radial
    grids support s = 0 and s = 1: <u, -L_h u> in the node weights, summed
    over the faces of the geometry, the outer one included, so it is the
    discrete Dirichlet form of the radial Laplacian.
    """
    if s < 0:
        raise ValueError("order s must be >= 0")
    if s == 0:
        return math.sqrt(mass(u))
    grid = u.grid
    if grid.kind == "tensor":
        # sum of multiplier * |uhat|^2: transform a copy in place and square
        # the output in place as (re, im) pairs.  s = 1 takes |xi|^2 =
        # xi_0^2 + |xi'|^2 from the marginals of the squares and builds no
        # full-size table; other s build |xi|^(2s) for the call.  einsum
        # stays in NumPy; np.dot would hand a product this long to OpenBLAS
        # threads, which then compete with the FFT workers
        uhat = scipy.fft.fftn(u.values.copy(), workers=thread_count(), overwrite_x=True)
        pairs = uhat.view(np.float64)
        pairs *= pairs
        if s == 1:
            with np.errstate(invalid="ignore"):  # 0 * inf, handled below
                total = _split_sum(grid, True, pairs)
        else:
            def power(ksq):
                ksq **= s
                return ksq

            multiplier = wavenumber_sq_values(grid, power)
            total = float(np.einsum("i,ik->", multiplier.ravel(), pairs.reshape(-1, 2)))
        # an overflowed square times the mean's zero multiplier is NaN; a
        # finite field's seminorm then is inf, so blow-up checks still fire
        if math.isnan(total) and np.all(np.isfinite(u.values.view(np.float64))):
            total = math.inf
        return math.sqrt(total * grid.cell_measure / u.values.size)
    if s != 1:
        raise ValueError("radial grids support only s = 0 and s = 1")
    geometry = radial_geometry(grid)
    v = u.values
    diff = np.empty_like(v)
    np.subtract(v[1:], v[:-1], out=diff[:-1])
    diff[-1] = -v[-1]  # the outer face: u = 0 beyond r_max
    pairs = diff.view(np.float64).reshape(-1, 2)
    pairs *= pairs  # |diff|^2 as (re^2, im^2) pairs, summed against f at once
    total = sphere_area(grid.n) * np.dot(geometry.conductances, pairs).sum() / geometry.spacing
    return math.sqrt(float(total))


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


def weighted_quadratic(u: Field, a) -> float:
    """Integral of a(x) |u|^2 for a table ``a`` of a(x) over the nodes."""
    grid = u.grid
    table = np.broadcast_to(np.asarray(a, dtype=float), grid.shape)
    if grid.kind == "radial":
        table = table * radial_geometry(grid).weights
    return _quadrature(grid, table, _abs_sq(u.values))


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
    axes = [c - c0 for c, c0 in zip(mesh(grid), center)]
    values = _radial_table(axes, lambda rsq: amplitude * np.exp(-rsq / (2.0 * width**2)), complex)
    return Field(grid=grid, values=values, time_tag=0.0)


# -- field dump format: one JSON header line, then raw little-endian ---------
# complex128 payload (interleaved re, im pairs) in row-major order.

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
    if grid.kind == "tensor":
        header["extent"] = grid.extent
    else:
        header["r_max"] = grid.r_max
    payload = np.ascontiguousarray(u.values, dtype="<c16").tobytes()
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        fh.write(b"\n")
        fh.write(payload)


def load_field(path):
    """Read a field dump; returns (Field, header dict)."""
    with open(path, "rb") as fh:
        header_line = fh.readline()
        payload = fh.read()
    header = json.loads(header_line.decode("utf-8"))
    try:
        size = {"tensor": "extent", "radial": "r_max"}[header["kind"]]
        grid = GridSpec(header["kind"], header["n"], header["points"], **{size: header[size]})
        values = np.frombuffer(payload, dtype="<c16").reshape(grid.shape)
        return Field(grid=grid, values=values.copy(), time_tag=header["time_tag"]), header
    except (KeyError, TypeError) as exc:
        raise ValueError(f"field dump header lacks or mistypes {exc}") from None
