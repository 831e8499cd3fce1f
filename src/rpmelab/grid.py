"""Uniform grids on the closed unit cube and the finite-difference calculus on them.

Nodes sit at integer multiples of h = 1/(M+1) along every axis, M being the
number of interior nodes per axis.  The outermost layer carries boundary
data, the inner block carries the PDE unknowns.  Discrete Lebesgue and
Sobolev norms weight nodal sums with powers of h so that they are mesh
analogues of the continuum norms.

Partial operators (forward differences, the five-point Laplacian, normal
differences) return fields with an explicit definedness mask instead of
zero-filling nodes where the stencil does not fit.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np


class BoundaryKind(Enum):
    """Boundary handling for the parabolic unknown."""

    DIRICHLET = "dirichlet"
    NEUMANN = "neumann"


@dataclass(frozen=True)
class GridSpec:
    """Uniform tensor grid over [0, 1]**dim.

    ``cells_per_axis`` is the interior node count M per axis; spacing is
    h = 1/(M+1) and every axis carries M+2 nodes including both boundary
    layers.
    """

    dim: int
    cells_per_axis: int

    def __post_init__(self) -> None:
        if not isinstance(self.dim, int) or self.dim < 1:
            raise ValueError(f"dim must be a positive integer, got {self.dim!r}")
        if not isinstance(self.cells_per_axis, int) or self.cells_per_axis < 2:
            raise ValueError(
                f"cells_per_axis must be an integer >= 2, got {self.cells_per_axis!r}"
            )

    @property
    def spacing(self) -> float:
        return 1.0 / (self.cells_per_axis + 1)

    @property
    def nodes_per_axis(self) -> int:
        return self.cells_per_axis + 2

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.nodes_per_axis,) * self.dim

    @property
    def n_nodes(self) -> int:
        return self.nodes_per_axis**self.dim

    @property
    def n_interior(self) -> int:
        return self.cells_per_axis**self.dim

    def axis_coords(self) -> np.ndarray:
        """Node coordinates along one axis, endpoints exactly 0 and 1."""
        return _structure(self.dim, self.cells_per_axis).coords

    def node_points(self) -> np.ndarray:
        """All node coordinates, shape ``grid.shape + (dim,)``."""
        return _structure(self.dim, self.cells_per_axis).points

    def interior_mask(self) -> np.ndarray:
        return _structure(self.dim, self.cells_per_axis).interior

    def boundary_mask(self) -> np.ndarray:
        return _structure(self.dim, self.cells_per_axis).boundary

    def free_mask(self) -> np.ndarray:
        """Nodes at least 2h from the closed boundary; see :class:`Hminus2Solver`."""
        return _structure(self.dim, self.cells_per_axis).free

    def reflect_flat(self) -> np.ndarray:
        """Flat index of the reflected partner of every node (identity inside)."""
        return _structure(self.dim, self.cells_per_axis).reflect_flat


class _GridArrays(NamedTuple):
    coords: np.ndarray
    points: np.ndarray
    boundary: np.ndarray
    interior: np.ndarray
    free: np.ndarray
    reflect_flat: np.ndarray


@lru_cache(maxsize=128)
def _structure(dim: int, m: int) -> _GridArrays:
    shape = (m + 2,) * dim
    coords = np.linspace(0.0, 1.0, m + 2)
    idx = np.indices(shape)
    boundary = np.zeros(shape, dtype=bool)
    for k in range(dim):
        boundary |= (idx[k] == 0) | (idx[k] == m + 1)
    interior = ~boundary
    refl = idx.copy()
    for k in range(dim):
        ax = refl[k]
        ax[ax == 0] = 1
        ax[ax == m + 1] = m
    reflect_flat = np.ravel_multi_index(tuple(refl), shape)
    free = np.ones(shape, dtype=bool)
    for k in range(dim):
        free &= (idx[k] >= 2) & (idx[k] <= m - 1)
    points = np.stack(np.meshgrid(*([coords] * dim), indexing="ij"), axis=-1)
    for a in (coords, points, boundary, interior, free, reflect_flat):
        a.setflags(write=False)
    return _GridArrays(coords, points, boundary, interior, free, reflect_flat)


def build_grid(dim: int, cells_per_axis: int) -> GridSpec:
    """Validated constructor for :class:`GridSpec`."""
    return GridSpec(dim=dim, cells_per_axis=cells_per_axis)


@dataclass(frozen=True, eq=False)
class Field(object):
    """A real nodal function on the full node set of a grid.

    ``mask`` marks where the values are defined (None means everywhere);
    values under the mask must be finite.  Fields are treated as immutable:
    the stored array is read-only.
    """

    grid: GridSpec
    values: np.ndarray
    mask: np.ndarray | None = None

    def __post_init__(self) -> None:
        vals = np.array(self.values, dtype=np.float64, order="C", copy=True)
        if vals.shape != self.grid.shape:
            raise ValueError(
                f"values shape {vals.shape} does not match grid shape {self.grid.shape}"
            )
        object.__setattr__(self, "values", vals)
        vals.setflags(write=False)
        if self.mask is not None:
            m = np.array(self.mask, dtype=bool, copy=True)
            if m.shape != self.grid.shape:
                raise ValueError("mask shape does not match grid shape")
            object.__setattr__(self, "mask", m)
            m.setflags(write=False)
        if vals.size and not np.all(np.isfinite(vals)):
            raise ValueError("field contains non-finite values")

    def defined_mask(self) -> np.ndarray:
        if self.mask is None:
            return np.ones(self.grid.shape, dtype=bool)
        return self.mask

    def is_fully_defined(self) -> bool:
        return self.mask is None or bool(self.mask.all())


def sample_nodal(grid: GridSpec, fn: Callable[[np.ndarray], np.ndarray]) -> Field:
    """Field of pointwise samples fn(x) at the nodes; fn takes (..., dim) arrays."""
    vals = np.asarray(fn(grid.node_points()), dtype=np.float64)
    return Field(grid, vals.reshape(grid.shape))


def _require_defined(u: Field, what: str) -> None:
    if not u.is_fully_defined():
        raise ValueError(f"{what} requires a fully defined field")


def _subset_mask(grid: GridSpec, subset) -> np.ndarray:
    if isinstance(subset, str):
        if subset == "interior":
            return grid.interior_mask()
        if subset == "full":
            return np.ones(grid.shape, dtype=bool)
        if subset == "boundary":
            return grid.boundary_mask()
        raise ValueError(f"unknown subset {subset!r}")
    m = np.asarray(subset, dtype=bool)
    if m.shape != grid.shape:
        raise ValueError("subset mask shape does not match grid shape")
    return m


# ---------------------------------------------------------------------------
# difference operators


def _one_sided_diff(u: Field, axis: int, forward: bool) -> Field:
    """The quotient of each axis-adjacent pair, stored at its lower node when
    ``forward`` and at its upper node otherwise."""
    g = u.grid
    if not 0 <= axis < g.dim:
        raise ValueError(f"axis {axis} out of range for dim {g.dim}")
    h = g.spacing
    lo = [slice(None)] * g.dim
    hi = [slice(None)] * g.dim
    lo[axis] = slice(0, -1)
    hi[axis] = slice(1, None)
    at = tuple(lo if forward else hi)
    out = np.zeros(g.shape)
    out[at] = (u.values[tuple(hi)] - u.values[tuple(lo)]) / h
    mask = np.zeros(g.shape, dtype=bool)
    dm = u.defined_mask()
    mask[at] = dm[tuple(lo)] & dm[tuple(hi)]
    out[~mask] = 0.0
    return Field(g, out, mask)


def forward_diff(u: Field, axis: int) -> Field:
    """Forward difference (u(m + h e_k) - u(m)) / h along ``axis`` (0-based).

    Defined wherever both stencil points are; the last node layer along the
    axis is masked out.
    """
    return _one_sided_diff(u, axis, forward=True)


def backward_diff(u: Field, axis: int) -> Field:
    """Backward difference (u(m) - u(m - h e_k)) / h along ``axis``."""
    return _one_sided_diff(u, axis, forward=False)


def laplacian_core(values: np.ndarray, h: float, dim: int, out: np.ndarray | None = None) -> np.ndarray:
    """Second-difference Laplacian of trailing-dim shaped values, interior block.

    ``values`` may carry leading batch axes; the result is the interior block
    along the trailing axes, a view of ``out`` (C-contiguous, shaped like
    ``values``; a new array when None).  The stencil runs over one flat band
    of ``values`` (see ``_stencil``), so every inner loop is long; the band
    of ``out`` then holds the stencil at every node, scratch where it wraps
    around the boundary layer.
    """
    if out is None:
        out = np.empty(values.shape)
    band, shifts = _stencil(values, dim)
    first = (values.size - band.size) // 2  # where the band starts
    _band_laplacian(out.reshape(-1)[first : first + band.size], band, shifts, h)
    return out[(Ellipsis,) + (slice(1, -1),) * dim]


def _stencil(values: np.ndarray, dim: int) -> tuple[np.ndarray, tuple]:
    """(band, shifts) of C-contiguous ``values``: the flat band from node
    (1, ..., 1) of the first leading index to the last interior node of the
    last one, and that band moved one node up and down each axis in turn."""
    n, flat = values.shape[-1], values.reshape(-1)
    first = (n**dim - 1) // (n - 1)  # flat index of node (1, ..., 1)
    end = flat.size - first
    offsets = [n ** (dim - 1 - k) for k in range(dim)]  # one node along axis k
    return flat[first:end], tuple(flat[first + s : end + s] for o in offsets for s in (o, -o))


def _band_laplacian(acc: np.ndarray, band: np.ndarray, shifts: tuple, h: float) -> None:
    """The stencil into ``acc``: -2 dim ``band`` plus its ``shifts`` in order, over h**2."""
    np.multiply(band, -float(len(shifts)), out=acc)
    for shifted in shifts:
        np.add(acc, shifted, out=acc)
    np.divide(acc, h * h, out=acc)


def laplacian(u: Field) -> Field:
    """Discrete Laplacian; defined on the interior node block only."""
    g = u.grid
    _require_defined(u, "laplacian")
    out = np.zeros(g.shape)
    core = (slice(1, -1),) * g.dim
    out[core] = laplacian_core(u.values, g.spacing, g.dim)
    return Field(g, out, g.interior_mask())


def normal_diff(u: Field) -> Field:
    """Discrete outward normal difference (u(m) - u(m_refl)) / h on the boundary."""
    g = u.grid
    _require_defined(u, "normal_diff")
    flat = u.values.reshape(-1)
    refl = flat[g.reflect_flat()].reshape(g.shape)
    out = (u.values - refl) / g.spacing
    bmask = g.boundary_mask()
    vals = np.where(bmask, out, 0.0)
    return Field(g, vals, bmask)


# ---------------------------------------------------------------------------
# norms


def l2_inner(u: Field, v: Field, subset="interior") -> float:
    """h**dim weighted nodal inner product over a node subset."""
    if u.grid != v.grid:
        raise ValueError("fields live on different grids")
    sel = _subset_mask(u.grid, subset) & u.defined_mask() & v.defined_mask()
    w = u.grid.spacing**u.grid.dim
    return float(w * np.sum(u.values[sel] * v.values[sel]))


def lp_norm(u: Field, p: float, subset="interior") -> float:
    """Discrete L^p norm with h**dim node weights; p = inf gives the max."""
    sel = _subset_mask(u.grid, subset) & u.defined_mask()
    vals = np.abs(u.values[sel])
    if vals.size == 0:
        return 0.0
    if np.isinf(p):
        return float(vals.max())
    if p < 1:
        raise ValueError(f"p must be >= 1 or inf, got {p}")
    w = u.grid.spacing**u.grid.dim
    return float((w * np.sum(vals**p)) ** (1.0 / p))


def h1_seminorm(u: Field | np.ndarray, grid: GridSpec | None = None) -> float:
    """First-difference seminorm with h**(dim-2) pair weights.

    Sums squared nodal gaps over every axis-adjacent pair whose two nodes are
    both defined, so it applies to partially defined fields as well.  ``u``
    is a ``Field``, or the values of a fully defined one on ``grid``.
    """
    g, values, dm = (u.grid, u.values, u.mask) if grid is None else (grid, u, None)
    total = 0.0
    for k in range(g.dim):
        lo = [slice(None)] * g.dim
        hi = [slice(None)] * g.dim
        lo[k] = slice(0, -1)
        hi[k] = slice(1, None)
        diff = values[tuple(hi)] - values[tuple(lo)]
        if dm is not None:
            diff = np.where(dm[tuple(lo)] & dm[tuple(hi)], diff, 0.0)
        total += float(np.sum(diff**2))
    return float(np.sqrt(g.spacing ** (g.dim - 2) * total))


def grad_h1_seminorm(u: Field) -> float:
    """Root sum of squares of h1_seminorm over all forward partials of u."""
    return float(
        np.sqrt(sum(h1_seminorm(forward_diff(u, k)) ** 2 for k in range(u.grid.dim)))
    )


# ---------------------------------------------------------------------------
# negative-order norm via the doubly vanishing test space


class Hminus2Solver:
    """Dual-norm evaluator over the test space of fields that vanish on the
    boundary layer and have zero normal difference there.

    Both constraints force the test field to vanish on the first interior
    layer too, so its free unknowns are the nodes at distance >= 2h from the
    closed boundary.  The norm of u on the interior block is

        sup_v (u, v)_h / ||lap_h v||_h

    over the free space; it is evaluated by one symmetric positive definite
    solve with the Gram matrix of the Laplacian images, whose sparse LU
    factorization is computed once per grid; scipy is imported for the first.
    """

    def __init__(self, grid: GridSpec):
        import scipy.sparse.linalg

        self.grid = grid
        free = grid.free_mask()
        interior = grid.interior_mask()
        self._free_flat = np.flatnonzero(free.reshape(-1))
        self._interior_flat = np.flatnonzero(interior.reshape(-1))
        self.n_free = self._free_flat.size
        self._lu = None
        if self.n_free:
            a_mat = _laplacian_matrix(grid)[:, self._free_flat]
            gram = (a_mat.T @ a_mat).tocsc()
            # the Gram matrix is symmetric: order on its own pattern
            self._lu = scipy.sparse.linalg.splu(gram, permc_spec="MMD_AT_PLUS_A")

    @property
    def is_empty(self) -> bool:
        return self.n_free == 0

    def norm(self, interior_values: np.ndarray) -> float:
        """Norm of the field whose interior nodal values are given (flat or shaped)."""
        if self.is_empty:
            return 0.0
        g = self.grid
        full = np.zeros(g.n_nodes)
        vals = np.asarray(interior_values, dtype=np.float64).reshape(-1)
        if vals.size == g.n_interior:
            full[self._interior_flat] = vals
        elif vals.size == g.n_nodes:
            full = vals
        else:
            raise ValueError("interior_values has neither interior nor full size")
        u_free = full[self._free_flat]
        val = float(u_free @ self._lu.solve(u_free))
        return float(np.sqrt(g.spacing**g.dim * max(val, 0.0)))


@lru_cache(maxsize=32)
def _laplacian_matrix(grid: GridSpec) -> scipy.sparse.csr_matrix:
    """Sparse matrix of the discrete Laplacian, interior rows by all-node columns."""
    import scipy.sparse

    shape = grid.shape
    h = grid.spacing
    rows_flat = np.flatnonzero(grid.interior_mask().reshape(-1))
    n_rows = rows_flat.size
    row_ids = np.arange(n_rows)
    strides = [int(np.prod(shape[k + 1 :])) for k in range(grid.dim)]
    data = []
    rr = []
    cc = []
    inv_h2 = 1.0 / (h * h)
    rr.append(row_ids)
    cc.append(rows_flat)
    data.append(np.full(n_rows, -2.0 * grid.dim * inv_h2))
    for k in range(grid.dim):
        for sgn in (-1, 1):
            rr.append(row_ids)
            cc.append(rows_flat + sgn * strides[k])
            data.append(np.full(n_rows, inv_h2))
    mat = scipy.sparse.coo_matrix(
        (np.concatenate(data), (np.concatenate(rr), np.concatenate(cc))),
        shape=(n_rows, grid.n_nodes),
    )
    return mat.tocsr()


@lru_cache(maxsize=32)
def _hm2_solver(grid: GridSpec) -> Hminus2Solver:
    return Hminus2Solver(grid)


def hminus2_norm(u: Field) -> float:
    """Negative-order dual norm of the interior values of u.

    Returns 0, the value the solve gives, without a factorization when u
    vanishes on the free nodes; in particular when the free test space is
    empty (grids too coarse to carry any doubly vanishing test field).
    """
    sel = u.grid.interior_mask()
    if not np.all(u.defined_mask()[sel]):
        raise ValueError("hminus2_norm requires values on the whole interior block")
    if not u.values[u.grid.free_mask()].any():
        return 0.0
    return _hm2_solver(u.grid).norm(u.values[sel])


def h02_embed(grid: GridSpec, free_values: np.ndarray) -> Field:
    """Field in the doubly vanishing test space with the given free-node values."""
    free = grid.free_mask()
    vals = np.asarray(free_values, dtype=np.float64).reshape(-1)
    n_free = free_node_count(grid)
    if vals.size != n_free:
        raise ValueError(f"expected {n_free} free values, got {vals.size}")
    full = np.zeros(grid.shape)
    full[free] = vals
    return Field(grid, full)


def free_node_count(grid: GridSpec) -> int:
    return int(np.count_nonzero(grid.free_mask()))


# ---------------------------------------------------------------------------
# Gauss rule on [0, 1]


def _gauss01(order: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(order)
    return 0.5 * (x + 1.0), 0.5 * w

