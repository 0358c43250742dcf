"""Piecewise-constant densities on beta-adic grids, measures, Markov kernels,
and coarse-graining projectors.

The phase space is [0,1) (1D) or the unit square (2D), total volume 1.
Densities store one period of per-cell values and a tile count, which only
this module reads; measures multiply by cell volume.  2D grids may be
anisotropic because the baker trades x- for y-resolution one level per step.

Two grids of one base are nested axis by axis, so the one linear pairing
integral(u*g) (`weak_pairing`) is taken on the coarser size of each axis: the
finer operand is block-averaged there, which is exact because the other
factor is constant on every block.  Arrays are replicated onto the common
refinement (`on_common_grid`) only where a nonlinear functional needs a
value per fine cell (conditional entropy).  A `Partition` is one integer
label per cell of its cells' least common grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .table import to_csv


class GridMismatchError(ValueError):
    pass


class TrivialPartitionError(ValueError):
    pass


def _check_level(n: int, base: int) -> int:
    """Return k such that base**k == n, or raise."""
    k = 0
    m = 1
    while m < n:
        m *= base
        k += 1
    if m != n:
        raise ValueError(f"array size {n} is not a power of base {base}")
    return k


class _BetaGrid:
    """Grid geometry shared by `Density` and `GridSet`.

    Subclasses provide `base`, the stored cell array `_cells`, repeated
    `_tiles` times along the last axis (a density's one period), and
    `_with_cells`, which wraps a replacement array of the same kind.
    """

    _tiles = 1

    @property
    def shape(self) -> tuple:
        *rest, n = self._cells.shape
        return (*rest, n * self._tiles)

    @property
    def dims(self) -> int:
        return self._cells.ndim

    @property
    def levels(self) -> tuple:
        return tuple(_check_level(n, self.base) for n in self.shape)

    @property
    def cell_volume(self) -> float:
        return 1.0 / math.prod(self.shape)

    def refined(self, axis: int = 0, extra_levels: int = 1):
        """Exactly refine the grid along one axis (cells replicated)."""
        return self._with_cells(np.repeat(self._cells, self.base ** extra_levels, axis=axis))

    def _on_coarser(self, shape) -> np.ndarray:
        """Block means of the cells on the coarser of this grid and `shape`, axis by axis."""
        _nested(self.shape, shape)
        return _reduce_to(self._cells, tuple(map(min, self.shape, shape)), self._tiles)


def _tile_last(arr: np.ndarray, reps: int) -> np.ndarray:
    """`arr` repeated `reps` times along its last axis; `arr` itself for one."""
    if reps == 1:
        return arr
    return np.repeat(arr[..., None, :], reps, axis=-2).reshape(*arr.shape[:-1], -1)


@dataclass(frozen=True, init=False, eq=False)
class Density(_BetaGrid):
    """Non-negative piecewise-constant probability density on a beta-adic grid.

    values has shape (base**kx,) in 1D or (base**kx, base**ky) in 2D.  It is
    stored as one period along the last axis and a tile count (above 1 only
    for an x-exhausted baker image) and built on first access; `shape` is in
    Python ints, so b**66 cells stay exact.
    """

    base: int
    _period: np.ndarray
    _tiles: int

    def __init__(self, base: int, values, normalize: bool = True):
        if base < 2:
            raise ValueError("base must be >= 2")
        v = np.asarray(values, dtype=float)
        if v.ndim not in (1, 2):
            raise ValueError("values must be 1D or 2D")
        for n in v.shape:
            _check_level(n, base)
        # NaN fails both comparisons; -inf and negatives fail the first, +inf the second
        if not (v.min() >= 0 and v.max() < np.inf):
            raise ValueError("density values must be finite and non-negative")
        if normalize:
            total = v.mean()  # sum(v)*cell_volume, cell_volume = 1/size
            if total <= 0:
                raise ValueError("cannot normalize an all-zero density")
            v = v / total
        v.setflags(write=False)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "_period", v)
        object.__setattr__(self, "_tiles", 1)

    @cached_property
    def values(self) -> np.ndarray:
        v = _tile_last(self._period, self._tiles)
        v.setflags(write=False)
        return v

    @property
    def _cells(self) -> np.ndarray:
        return self._period

    def _with_cells(self, v: np.ndarray) -> "Density":
        return Density(self.base, v, normalize=False).tiled(self._tiles)

    def tiled(self, reps: int) -> "Density":
        """The density repeated `reps` times along its last axis, stored as a tile count."""
        d = Density(self.base, self._period, normalize=False)
        object.__setattr__(d, "_tiles", self._tiles * reps)
        return d

    def cell_mean(self, f=None) -> float:
        """Mean over all cells of f(values) for an elementwise f (default: the
        values); one period has the mean of every tiling of it."""
        return float((self._period if f is None else f(self._period)).mean())

    @property
    def level(self) -> int:
        ks = self.levels
        if len(set(ks)) != 1:
            raise ValueError(f"anisotropic grid {ks} has no single level")
        return ks[0]

    def marginal_x(self) -> "Density":
        """Integrate out y; exact for 2D grid densities."""
        if self.dims != 2:
            raise ValueError("marginal_x needs a 2D density")
        return Density(self.base, self._period.mean(axis=1), normalize=False)


def uniform_density(base: int, level: int, dims: int = 1) -> Density:
    shape = (base ** level,) * dims
    return Density(base, np.ones(shape), normalize=False)


@dataclass(frozen=True, eq=False)
class GridSet(_BetaGrid):
    """Boolean membership on a beta-adic grid; pairs with a Density grid."""

    base: int
    member: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.member, dtype=bool)
        for n in m.shape:
            _check_level(n, self.base)
        m.setflags(write=False)
        object.__setattr__(self, "member", m)

    @property
    def _cells(self) -> np.ndarray:
        return self.member

    def _with_cells(self, m: np.ndarray) -> "GridSet":
        return GridSet(self.base, m)

    def volume(self) -> float:
        """Lebesgue measure of the set."""
        return self.member.mean()


def interval_set(base: int, level: int, lo_cell: int, hi_cell: int) -> GridSet:
    """Cells lo_cell..hi_cell-1 at the given level (half-open interval)."""
    m = np.zeros(base ** level, dtype=bool)
    m[lo_cell:hi_cell] = True
    return GridSet(base, m)


def _nested(sa: tuple, sb: tuple):
    """Raise unless the two grid shapes are nested."""
    if len(sa) != len(sb):
        raise GridMismatchError("dimension mismatch")
    for na, nb in zip(sa, sb):
        if min(na, nb) < 1 or max(na, nb) % min(na, nb):
            raise GridMismatchError(f"incompatible grid sizes {na} vs {nb}")


def _refine_to(arr: np.ndarray, shape) -> np.ndarray:
    """Replicate each cell onto the finer nested grid `shape`."""
    for ax, (n, m) in enumerate(zip(arr.shape, shape)):
        if m > n:
            arr = np.repeat(arr, m // n, axis=ax)
    return arr


def _reduce_to(arr: np.ndarray, shape, tiles: int = 1) -> np.ndarray:
    """Block means on the coarser nested grid `shape` of `arr` tiled `tiles`
    times along its last axis.

    A block that spans whole periods has the period's mean; smaller blocks
    are the period's own block means, tiled: one in-place reshape-sum divided
    by the block size, as `mean` does.  `arr` itself is returned if it is `shape`.
    """
    per = max(shape[-1] // tiles, 1)  # cells of `shape` per period
    pshape = (*shape[:-1], per)
    if arr.shape != pshape:
        blocks = [k for n, m in zip(arr.shape, pshape) for k in (m, n // m)]
        size = arr.size // math.prod(pshape)
        arr = arr.reshape(blocks).sum(axis=tuple(range(1, 2 * arr.ndim, 2)), dtype=float) / size
    return _tile_last(arr, shape[-1] // per)


def on_common_grid(a: np.ndarray, b: np.ndarray):
    """Replicate both arrays onto their least common refinement.

    Only for a nonlinear functional of both arrays, which needs a value per
    fine cell.  Linear pairings use `weak_pairing`, which allocates nothing
    of the fine grid's size.
    """
    _nested(a.shape, b.shape)
    shape = tuple(map(max, a.shape, b.shape))
    return _refine_to(a, shape), _refine_to(b, shape)


def l1_norm(d: Density) -> float:
    """Integral of |density| over the space."""
    return d.cell_mean(np.abs)


def weak_pairing(u: _BetaGrid, g) -> float:
    """The one linear pairing (u, g) = integral of u*g, for a density or set
    `u` and `g` given as cell values on a nested grid or as a `GridSet` of
    u's base (the measure u assigns to that set).

    Both are block-averaged onto the coarser size of each axis, where the mean
    of the product is the integral: on each axis one factor is constant over
    the other's blocks, and 2D blocks are products of per-axis blocks.  A set
    is averaged as its mask, to the fraction of each block it covers.
    """
    if isinstance(g, GridSet):
        if g.base != u.base:
            raise GridMismatchError("base mismatch")
        g = g.member
    else:
        g = np.asarray(g, dtype=float)
    uv = u._on_coarser(g.shape)
    return float((uv * _reduce_to(g, uv.shape)).mean())


@dataclass(frozen=True, eq=False)
class StochasticKernel:
    """Column-stochastic transition matrix acting on cell-value vectors."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.size == 0:
            raise ValueError("kernel must be a non-empty square matrix")
        if not np.isfinite(m).all():
            raise ValueError("kernel entries must be finite")
        if np.any(m < 0):
            raise ValueError("kernel entries must be non-negative")
        if not np.allclose(m.sum(axis=0), 1.0, atol=1e-10):
            raise ValueError("kernel columns must sum to 1")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


def apply_markov(k: StochasticKernel, d: Density) -> Density:
    """Advance a density one step under the kernel; norm-preserving."""
    return Density(d.base, apply_kernel_signed(k, d.values), normalize=False)


def apply_kernel_signed(k: StochasticKernel, values: np.ndarray) -> np.ndarray:
    """Apply the kernel to a signed grid function (contractivity checks only)."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 1 or values.size != k.n:
        raise GridMismatchError("kernel size does not match grid")
    return k.matrix @ values


@dataclass(frozen=True, init=False, eq=False)
class Partition:
    """Disjoint grid sets of one base covering the space, each of positive
    measure, as one read-only label per cell of their least common grid."""

    base: int
    labels: np.ndarray

    def __init__(self, cells):
        cells = tuple(cells)
        if len(cells) < 2:
            raise TrivialPartitionError("partition needs at least two cells")
        shape = tuple(map(max, *(c.shape for c in cells)))
        labels = np.full(shape, -1, dtype=np.intp)
        covered = 0  # disjoint cover: nothing left at -1, the counts add up
        for i, c in enumerate(cells):
            if c.base != cells[0].base:
                raise GridMismatchError("base mismatch")
            if not c.member.any():
                raise TrivialPartitionError("partition cell has zero measure")
            _nested(c.shape, shape)
            labels[_refine_to(c.member, shape)] = i
            covered += int(c.member.sum()) * (labels.size // c.member.size)
        if covered != labels.size or labels.min() < 0:
            raise ValueError("partition cells must be disjoint and cover the space")
        self._set(cells[0].base, labels)

    def _set(self, base: int, labels: np.ndarray) -> "Partition":
        labels.setflags(write=False)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "labels", labels)
        return self

    @property
    def weights(self) -> np.ndarray:
        return np.bincount(self.labels.ravel()) / self.labels.size


def square_partition(base: int, level: int, dims: int = 1) -> Partition:
    """The full beta-adic grid of the given level as a partition (C order)."""
    shape = (base ** level,) * dims
    if math.prod(shape) < 2:
        raise TrivialPartitionError("partition needs at least two cells")
    labels = np.arange(math.prod(shape), dtype=np.intp).reshape(shape)
    return object.__new__(Partition)._set(base, labels)


def coarse_grain(d: Density, p: Partition) -> Density:
    """Project the density onto its per-cell averages (idempotent).

    The result lives on the least common grid of the density and the labels.
    """
    return Density(d.base, coarse_values(d, p)[_refine_to(p.labels, d.shape)], normalize=False)


def coarse_values(d: Density, p: Partition) -> np.ndarray:
    """Per-partition-cell averages of the density.

    The density is reduced once, onto the coarser size of each axis of its
    grid and the label grid; each cell's indicator is reduced there too (to
    the fraction of each block it covers) where the labels are finer.
    """
    if d.base != p.base:
        raise GridMismatchError("base mismatch")
    dv = d._on_coarser(p.labels.shape)
    masks = (_reduce_to(p.labels == i, dv.shape) for i in range(p.labels.max() + 1))
    return np.array([(dv * w).sum() / w.sum() for w in masks])


def density_to_csv(d: Density) -> str:
    """Serialize: header `dims,base,level`, then `cell_index,value` rows."""
    return (to_csv("dims,base,level", [(d.dims, d.base, d.level)])
            + to_csv("cell_index,value", enumerate(d.values.ravel())))


def density_from_csv(text: str) -> Density:
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    dims, base, level = (int(x) for x in lines[1].split(","))
    vals = np.array([float(ln.split(",")[1]) for ln in lines[3:]])
    if dims == 2:
        n = base ** level
        vals = vals.reshape(n, n)
    return Density(base, vals, normalize=False)
