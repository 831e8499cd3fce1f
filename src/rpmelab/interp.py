"""Projection and spline representatives that move nodal data to the continuum.

Three objects connect grid fields with functions on the open unit cube:

* the cell-average projection of a continuous function onto nodal values,
  with node cells clipped at the domain boundary,
* the piecewise-constant spline that is constant on each (clipped) node cell,
  ties on shared faces resolved toward the lexicographically smaller node,
* the polyaffine spline, the tensor-affine interpolant on each grid cell
  spanned by adjacent nodes.

The squared gap between the two splines is a polynomial of degree two per
axis on every half cell, so the gap norm is evaluated exactly by two-point
Gauss quadrature on the half-cell decomposition.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Literal

import numpy as np

from .grid import Field, GridSpec, _gauss01

_INV_SQRT3 = 1.0 / np.sqrt(3.0)


@dataclass(frozen=True, eq=False)
class CellFunction:
    """A spline representative of a nodal field: piecewise constant over node
    cells or polyaffine over grid cells."""

    grid: GridSpec
    source: Field
    kind: Literal["constant", "affine"]

    def __post_init__(self) -> None:
        if self.kind not in ("constant", "affine"):
            raise ValueError(f"unknown spline kind {self.kind!r}")
        if self.source.grid != self.grid:
            raise ValueError("source field lives on a different grid")
        if not self.source.is_fully_defined():
            raise ValueError("spline representatives need fully defined fields")


def pc_spline(u: Field) -> CellFunction:
    return CellFunction(u.grid, u, "constant")


def pa_spline(u: Field) -> CellFunction:
    return CellFunction(u.grid, u, "affine")


def _check_points(grid: GridSpec, x: np.ndarray) -> np.ndarray:
    pts = np.asarray(x, dtype=np.float64)
    if pts.ndim == 1 and pts.shape[0] == grid.dim:
        pts = pts[None, :]
    if pts.shape[-1] != grid.dim:
        raise ValueError(f"points must have trailing size {grid.dim}")
    flat = pts.reshape(-1, grid.dim)
    if flat.size and (flat.min() < 0.0 or flat.max() > 1.0):
        raise ValueError("evaluation point outside the closed unit cube")
    return pts


def pc_eval(c: CellFunction, x: np.ndarray) -> np.ndarray:
    """Piecewise-constant spline values at x (shape (..., dim) or (dim,)).

    The owner of x along each axis is the nearest node; points exactly on a
    shared cell face belong to the smaller node index.
    """
    if c.kind != "constant":
        raise ValueError("pc_eval needs a piecewise-constant representative")
    g = c.grid
    pts = _check_points(g, x)
    flat = pts.reshape(-1, g.dim)
    h = g.spacing
    idx = np.ceil(flat / h - 0.5).astype(np.int64)
    np.clip(idx, 0, g.cells_per_axis + 1, out=idx)
    vals = c.source.values[tuple(idx[:, k] for k in range(g.dim))]
    return vals.reshape(pts.shape[:-1])


def pa_eval(c: CellFunction, x: np.ndarray) -> np.ndarray:
    """Polyaffine spline values at x: tensor-affine interpolation on the grid
    cell containing x, hat weights (1 - r) and r per axis."""
    if c.kind != "affine":
        raise ValueError("pa_eval needs a polyaffine representative")
    g = c.grid
    pts = _check_points(g, x)
    flat = pts.reshape(-1, g.dim)
    h = g.spacing
    scaled = flat / h
    base = np.floor(scaled).astype(np.int64)
    np.clip(base, 0, g.cells_per_axis, out=base)
    local = scaled - base
    out = np.zeros(flat.shape[0])
    for corner in itertools.product((0, 1), repeat=g.dim):
        w = np.ones(flat.shape[0])
        for k, bit in enumerate(corner):
            w *= local[:, k] if bit else 1.0 - local[:, k]
        nodes = tuple(base[:, k] + corner[k] for k in range(g.dim))
        out += w * c.source.values[nodes]
    return out.reshape(pts.shape[:-1])


# ---------------------------------------------------------------------------
# projection


def _cell_bounds(grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """Per-axis lower/upper bounds of the node cells, clipped to [0, 1]."""
    coords = grid.axis_coords()
    half = 0.5 * grid.spacing
    lo = np.maximum(coords - half, 0.0)
    hi = np.minimum(coords + half, 1.0)
    return lo, hi


def cell_measures(grid: GridSpec) -> np.ndarray:
    """Lebesgue measure of every (clipped) node cell, shape ``grid.shape``."""
    lo, hi = _cell_bounds(grid)
    lengths = hi - lo
    out = lengths
    for _ in range(grid.dim - 1):
        out = np.multiply.outer(out, lengths)
    return out


def _cell_samples(
    fn: Callable[[np.ndarray], np.ndarray], grid: GridSpec, offs: np.ndarray
) -> np.ndarray:
    """Values of fn at the points lo + (hi - lo) * offs of every clipped node
    cell along each axis, shaped (nodes, len(offs)) per axis."""
    lo, hi = _cell_bounds(grid)
    samples = lo[:, None] + (hi - lo)[:, None] * offs[None, :]  # (nodes, q)
    flat = samples.reshape(-1)
    mesh = np.meshgrid(*([flat] * grid.dim), indexing="ij")
    vals = np.asarray(fn(np.stack(mesh, axis=-1)), dtype=np.float64)
    n, q = grid.nodes_per_axis, offs.size
    return vals.reshape(tuple(itertools.chain.from_iterable((n, q) for _ in range(grid.dim))))


def project(
    u: Callable[[np.ndarray], np.ndarray], grid: GridSpec, quad_refine: int = 4
) -> Field:
    """Cell-average projection of a function on the open cube onto nodal values.

    Each node value is the mean of u over the node's cell intersected with
    the domain, approximated by the midpoint rule on ``quad_refine``
    subdivisions per axis (exact for per-axis affine integrands).
    """
    if quad_refine < 1:
        raise ValueError("quad_refine must be >= 1")
    q = quad_refine
    vals = _cell_samples(u, grid, (np.arange(q) + 0.5) / q)
    mean = vals.mean(axis=tuple(range(1, 2 * grid.dim, 2)))
    return Field(grid, mean)


# ---------------------------------------------------------------------------
# exact piecewise-constant integrals


def pc_l2_inner(u: Field, v: Field) -> float:
    """Exact L2(open cube) inner product of the two piecewise-constant splines."""
    if u.grid != v.grid:
        raise ValueError("fields live on different grids")
    w = cell_measures(u.grid)
    return float(np.sum(u.values * v.values * w))


def _corner_slices(grid: GridSpec, corner: tuple[int, ...]) -> tuple[slice, ...]:
    ncells = grid.cells_per_axis + 1
    return tuple(slice(b, b + ncells) for b in corner)


def _pa_cells(u: Field, r, axis: int | None = None) -> np.ndarray:
    """The polyaffine spline of u at local coordinates ``r`` (one per axis)
    of every grid cell; with ``axis``, h times its derivative along it."""
    g = u.grid
    out = None
    for corner in itertools.product((0, 1), repeat=g.dim):
        w = 1.0
        for k, bit in enumerate(corner):
            if k == axis:
                w *= 1.0 if bit else -1.0
            else:
                w *= r[k] if bit else 1.0 - r[k]
        term = w * u.values[_corner_slices(g, corner)]
        out = term if out is None else out + term
    return out


def interp_gap(u: Field) -> float:
    """Exact L2(open cube) distance between the piecewise-constant and the
    polyaffine splines of u.

    On each half cell the difference is affine per axis, so its square is
    integrated exactly by tensor two-point Gauss quadrature.
    """
    g = u.grid
    if not u.is_fully_defined():
        raise ValueError("interp_gap needs a fully defined field")
    n = g.dim
    gauss = np.array([-_INV_SQRT3, _INV_SQRT3])
    total = 0.0
    for octant in itertools.product((0, 1), repeat=n):
        owner = u.values[_corner_slices(g, octant)]
        for combo in itertools.product((0, 1), repeat=n):
            r = [0.5 * octant[k] + 0.25 * (gauss[combo[k]] + 1.0) for k in range(n)]
            lam = _pa_cells(u, r)
            total += 0.25**n * float(np.sum((lam - owner) ** 2))
    return float(np.sqrt(g.spacing**n * total))


# ---------------------------------------------------------------------------
# Gauss-quadrature norms of the spline representatives


def pa_lp_norm(u: Field, p: float) -> float:
    """L^p(open cube) norm of the polyaffine spline by per-cell 4-point Gauss
    quadrature (exact for p = 2)."""
    g = u.grid
    if np.isinf(p):
        return float(np.max(np.abs(u.values)))
    if p < 1:
        raise ValueError(f"p must be >= 1 or inf, got {p}")
    n = g.dim
    xs, ws = _gauss01(4)
    total = 0.0
    for combo in itertools.product(range(len(xs)), repeat=n):
        r = [xs[c] for c in combo]
        wgt = float(np.prod([ws[c] for c in combo]))
        total += wgt * float(np.sum(np.abs(_pa_cells(u, r)) ** p))
    return float((g.spacing**n * total) ** (1.0 / p))


def pa_grad_l2_norm(u: Field) -> float:
    """Exact L2(open cube) norm of the polyaffine spline gradient, by per-cell
    2-point Gauss quadrature."""
    g = u.grid
    n = g.dim
    xs, ws = _gauss01(2)
    total = 0.0
    for axis in range(n):
        for combo in itertools.product(range(len(xs)), repeat=n):
            r = [xs[c] for c in combo]
            wgt = float(np.prod([ws[c] for c in combo]))
            total += wgt * float(np.sum(_pa_cells(u, r, axis) ** 2))
    # each in-cell derivative carries a 1/h factor
    return float(np.sqrt(g.spacing ** (n - 2) * total))


def pc_gap_to_function(u: Field, fn: Callable[[np.ndarray], np.ndarray]) -> float:
    """L2(open cube) distance between the piecewise-constant spline of u and a
    function, by 4-point Gauss quadrature on every clipped node cell."""
    g = u.grid
    lo, hi = _cell_bounds(g)
    xs, ws = _gauss01(4)
    fvals = _cell_samples(fn, g, xs)
    n = g.nodes_per_axis
    uvals = u.values.reshape(
        tuple(itertools.chain.from_iterable((n, 1) for _ in range(g.dim)))
    )
    diff2 = (uvals - fvals) ** 2
    lengths = hi - lo
    for k in range(g.dim):
        wshape = [1] * (2 * g.dim)
        wshape[2 * k] = n
        wshape[2 * k + 1] = len(ws)
        wk = (lengths[:, None] * ws[None, :]).reshape(wshape)
        diff2 = diff2 * wk
    return float(np.sqrt(np.sum(diff2)))
