"""Propagation of pathwise noise derivatives along a primal path.

For a differentiation time r the pair (z, dry) solves the variational system
obtained by differentiating the scheme w.r.t. the Brownian path at r:

    z    = derivative of the conserved variable v = beta(c),
    drc  = z / beta'(c)          (derivative of the concentration),
    dry  = derivative of the SDE state,

seeded at step r with z = 0 (the parabolic state is adapted) and
dry = a(y(r)), then advanced with the linearization of the primal update:

    z+   = z + dt * (lap_h drc + f_c drc + f_y dry)     on interior nodes,
    dry+ = dry + a'(y) dry dW + (b_c drc + b_y dry) dt  on all nodes.

Seeding before step r makes the recursion reproduce the continuous
variational initial condition; for linear noise a(y) = sigma*y with no drift
or source feedback it telescopes to dry(T) = sigma * y(T) exactly.

When f ignores y (one-way coupling) f_y = 0, so z seeded at zero stays
+0.0 bit for bit, drc with it, and only dry is stepped.

Where the primal clamp at zero bites, the derivative is zeroed (the clamp's
a.e. derivative), so the quotient of a clamped perturbed run still matches.
The pair is carried inside the primal's stepping loop and reads the clamp
gates the primal step leaves in its workspace.
"""
from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .grid import BoundaryKind, GridSpec, laplacian_core
from .model import CoefficientSet
from .simulate import (
    EnsembleResult,
    SimConfig,
    StepBuffers,
    WienerPath,
    _face_pairs,
    _impose_bc,
    simulate_ensemble,
    step,
)


@dataclass
class MalliavinState:
    """Derivative pair at one time level, full grid shape."""

    z: np.ndarray
    dry: np.ndarray


@dataclass(frozen=True)
class MalliavinSlice:
    step_index: int
    t: float
    z: np.ndarray
    drc: np.ndarray
    dry: np.ndarray


def recover_drc(z: np.ndarray, c: np.ndarray, coeffs: CoefficientSet) -> np.ndarray:
    """Concentration derivative from the conserved-variable derivative; the
    factor 1/beta'(c) vanishes at the degenerate set c = 0."""
    return z * coeffs.recip_beta_prime(c)


def init_malliavin(y_r: np.ndarray, coeffs: CoefficientSet) -> MalliavinState:
    return MalliavinState(z=np.zeros_like(y_r), dry=np.asarray(coeffs.a(y_r), dtype=np.float64).copy())


class TangentBuffers:
    """Workspace for tangent steps of derivative pairs shaped ``shape``
    (seed axes, then the grid) along primal states shaped ``primal``: the
    new pair, four scratch arrays and a boundary face per seed, and one
    coefficient value shaped like the primal.  ``head(k)`` is the workspace
    of the first k seeds in the same memory, so a batch that grows at its
    end stays contiguous."""

    def __init__(self, shape: tuple[int, ...], primal: tuple[int, ...]):
        self.z, self.dry, self.drc, self.lap, self.t, self.u = (np.zeros(shape) for _ in range(6))
        self.face = np.zeros(shape[:-1])
        self.shared = np.zeros(primal)

    def head(self, k: int) -> TangentBuffers:
        view = copy.copy(self)
        for name in ("z", "dry", "drc", "lap", "t", "u", "face"):
            setattr(view, name, getattr(self, name)[:k])
        return view


def _tiled(work: TangentBuffers, coef, *args) -> np.ndarray:
    """``coef(*args)`` evaluated once into ``work.shared`` and copied to every
    seed's row of ``work.u``; a ufunc broadcasting it would buffer."""
    np.copyto(work.u, coef(*args, out=work.shared))
    return work.u


def step_malliavin(
    mstate: MalliavinState,
    c: np.ndarray,
    y: np.ndarray,
    grid: GridSpec,
    coeffs: CoefficientSet,
    bc: BoundaryKind,
    dt: float,
    dW,
    primal: StepBuffers | None = None,
    work: TangentBuffers | None = None,
) -> MalliavinState:
    """Advance the derivative pair across one primal step (c, y) -> next.

    ``mstate`` may carry leading seed axes; ``c`` and ``y``, the primal
    states at the step start, broadcast against them, and so does ``dW``
    against the leading axes.  The derivative is zeroed where the primal
    clamps bit: ``primal`` is the gate-carrying workspace of the primal step
    from (c, y) under ``dW``, and without it that step is taken here.

    The new pair goes into ``work.z`` and ``work.dry`` (a fresh workspace
    when None), which may hold ``mstate`` itself, so a sweep allocates
    nothing.  Seed-sized operations run on whole contiguous rows (boundary
    nodes get scratch that the boundary rule replaces), in the operation
    order of the formulas in the module docstring.  Each coefficient is
    evaluated once at the primal state and copied to every seed's row.  A z
    of zeros under a source that ignores y is not stepped: ``work.z`` and
    ``work.drc`` are set to +0.0, the value the formulas give.
    """
    dim, z, dry = grid.dim, mstate.z, mstate.dry
    dw = np.asarray(dW, dtype=np.float64)
    if primal is None or work is None:
        lead = np.broadcast_shapes(z.shape[: z.ndim - dim], c.shape[: c.ndim - dim], dw.shape)
    if primal is None:
        primal = StepBuffers(grid, lead, gates=True)
        primal.c[0][...], primal.y[0][...] = c, y
        step(primal.c[0], primal.y[0], grid, coeffs, bc, dt, np.broadcast_to(dw, lead), work=primal)
    if work is None:
        work = TangentBuffers(lead + grid.shape, c.shape)
    drc, lap, t, u = work.drc, work.lap, work.t, work.u

    if not (coeffs.source.reads_y or np.count_nonzero(z)):
        work.z.fill(0.0)
        drc.fill(0.0)
    else:
        # z+ = z + dt * (lap_h drc + f_c drc + f_y dry), zero where v+ was clamped
        np.multiply(z, _tiled(work, coeffs.recip_beta_prime, c), out=drc)
        laplacian_core(drc, grid.spacing, dim, out=lap)
        np.add(lap, np.multiply(_tiled(work, coeffs.df_dc, c, y), drc, out=t), out=lap)
        np.add(lap, np.multiply(_tiled(work, coeffs.df_dy, c, y), dry, out=t), out=lap)
        np.multiply(dt, lap, out=lap)
        np.add(z, lap, out=work.z)
        np.copyto(work.z, 0.0, where=primal.v_gate)
        _impose_bc(_face_pairs(work.z, dim), bc, work.face)

    # dry+ = dry + a'(y) dry dW + (b_c drc + b_y dry) dt, zero where y+ was clamped
    np.multiply(_tiled(work, coeffs.a_prime, y), dry, out=t)
    np.copyto(u, dw.reshape(dw.shape + (1,) * dim))
    np.multiply(t, u, out=t)
    np.add(dry, t, out=t)
    np.multiply(_tiled(work, coeffs.db_dc, c, y), drc, out=lap)
    np.add(lap, np.multiply(_tiled(work, coeffs.db_dy, c, y), dry, out=u), out=lap)
    np.multiply(lap, dt, out=lap)
    np.add(t, lap, out=work.dry)
    np.copyto(work.dry, 0.0, where=primal.y_gate)
    return MalliavinState(work.z, work.dry)


def seed_index(fraction: float, n_steps: int) -> int:
    """Seed step for a fraction of the horizon, clipped to [0, n_steps)."""
    return min(n_steps - 1, max(0, int(round(fraction * n_steps))))


class _Tangent:
    """Tangent recorder of one primal path, the ``on_step`` of its run (see
    ``propagate_path``).  Its seeds, sorted by seed step, are the rows of one
    workspace for all of them; a seed's row becomes active at its step, so
    the active seeds are always the leading rows."""

    reads_gates = True  # the primal workspace keeps the clamp gates it reads

    def __init__(self, config: SimConfig, wiener: WienerPath, r_indices, t_indices, on_frame):
        n = wiener.n_steps
        r_list = [int(r) for r in r_indices]
        if t_indices is None:
            t_indices = [[n]] * len(r_list)
        if len(t_indices) != len(r_list):
            raise ValueError("need one list of evaluation indices per seed")
        self.emit: dict[int, list[int]] = {}  # step index -> seeds wanting a slice there
        self.joins = []  # (seed step, seed) of every seed that wants a slice, sorted
        for j, (r, ts) in enumerate(zip(r_list, t_indices)):
            if not 0 <= r < n:
                raise ValueError(f"r_index {r} outside [0, {n})")
            wanted = sorted(set(int(k) for k in ts))
            if wanted and (wanted[0] <= r or wanted[-1] > n):
                raise ValueError("evaluation indices must lie in (r_index, n_steps]")
            if wanted:
                self.joins.append((r, j))
            for k in wanted:
                self.emit.setdefault(k, []).append(j)
        self.joins.sort()
        self.row = {j: i for i, (_, j) in enumerate(self.joins)}
        self.config, self.dt, self.k, self.on_frame = config, wiener.dt, 0, on_frame
        self.work = TangentBuffers((len(self.joins),) + config.grid.shape, (1,) + config.grid.shape)
        self.active = self.work.head(0)
        self.out: list[list[MalliavinSlice]] = [[] for _ in r_list]

    def __call__(self, res, c, y, dw, primal: StepBuffers) -> None:
        cf, k, a = self.config, self.k, len(self.active.z)
        self.k += 1
        while a < len(self.joins) and self.joins[a][0] == k:
            seed = init_malliavin(y[0], cf.coeffs)
            self.work.z[a], self.work.dry[a] = seed.z, seed.dry
            a += 1
            self.active = self.work.head(a)
        if a:
            state = MalliavinState(self.active.z, self.active.dry)
            step_malliavin(state, c, y, cf.grid, cf.coeffs, cf.bc, self.dt, dw, primal, self.active)
        for j in self.emit.get(k + 1, ()):
            z, dry = self.work.z[self.row[j]].copy(), self.work.dry[self.row[j]].copy()
            drc = recover_drc(z, res.c[0], cf.coeffs)
            self.out[j].append(MalliavinSlice(k + 1, float((k + 1) * self.dt), z, drc, dry))
        if self.on_frame is not None:
            self.on_frame(k + 1, res.c[0], res.y[0])


def propagate_path(
    config: SimConfig,
    c0,
    y0,
    wiener: WienerPath,
    r_indices: Sequence[int],
    t_indices: Sequence[Sequence[int]] | None = None,
    *,
    on_frame=None,
) -> tuple[EnsembleResult | None, list[list[MalliavinSlice]]]:
    """Step one primal path from (c0, y0) to step n under the increments
    ``wiener``, and carry one derivative pair per seed step in ``r_indices``
    along it in the same loop.  Returns the primal run (None, and nothing
    stepped, when no slice is wanted) and, per seed, its slices at its own
    ``t_indices`` (default: step n only); every new primal state goes to
    ``on_frame(k, c, y)``.  Seed j joins at its step r_j with z = 0 and
    dry = a(y(r_j)); every operation is elementwise per seed, so a seed's
    slices are bitwise those of a sweep carrying it alone.
    """
    if wiener.increments.ndim != 1:
        raise ValueError("propagate_path needs a single-path wiener")
    tangent = _Tangent(config, wiener, r_indices, t_indices, on_frame)
    if not tangent.joins:
        return None, tangent.out
    return simulate_ensemble(config, c0, y0, wiener=wiener, on_step=tangent), tangent.out


def perturbation_oracle(
    config: SimConfig,
    c0,
    y0,
    wiener: WienerPath,
    r_index: int,
    window_steps: int,
    eps: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Finite-difference check value: bump the path in the Cameron-Martin
    direction 1_[r, r+window) (each increment there gains eps * dt), rerun,
    and return the terminal quotients

        ((c_eps - c) / (eps * delta), (y_eps - y) / (eps * delta)),

    delta = window_steps * dt.  As eps -> 0 and delta -> 0 these approach the
    terminal (drc, dry) seeded at r.  Base and bumped paths run as one
    batch of two.
    """
    if window_steps < 1 or r_index + window_steps > wiener.n_steps:
        raise ValueError("perturbation window must fit inside the path")
    shifted = np.array(wiener.increments, copy=True)
    shifted[r_index : r_index + window_steps] += eps * wiener.dt
    pair = WienerPath(wiener.dt, np.stack([wiener.increments, shifted]))
    final = simulate_ensemble(config, c0, y0, wiener=pair)
    (base_c, bumped_c), (base_y, bumped_y) = final.c_final, final.y_final
    delta = window_steps * wiener.dt
    dq_c = (bumped_c - base_c) / (eps * delta)
    dq_y = (bumped_y - base_y) / (eps * delta)
    return dq_c, dq_y
