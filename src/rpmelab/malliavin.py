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

Under a(y) = sigma y and b(c, y) = kappa c - rho y the primal steps
y+ = max(alpha y + (kappa dt) c, 0), alpha = 1 + sigma dW - rho dt, and dry
steps by the exact derivative of that step, dry+ = alpha dry + (kappa dt) drc
(the formula above to a few ulps).  When f ignores y, f_y = 0 keeps z and drc
at zero: such a tangent has no z and steps dry alone, with drc = +0.0.

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

from .grid import BoundaryKind, GridSpec, _band_laplacian, _stencil
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
    """Derivative pair at one time level, full grid shape; z None for dry alone."""

    z: np.ndarray | None
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


class TangentBuffers:
    """Workspace for tangent steps of derivative pairs shaped ``shape``
    (seed axes, then the grid) along primal states shaped ``primal``: the
    new pair, drc, three scratch arrays and a boundary face per seed (dry
    and the scratch alone without ``z``, dry alone if also ``affine``: the
    affine dry step reads no scratch), and one coefficient value and its
    scratch shaped like the primal.  ``head(k)`` is the workspace of the
    first k seeds in the same memory, so a batch that grows at its end stays
    contiguous.  What a step reads is bound at its first step (see ``bind``)."""

    def __init__(self, shape: tuple[int, ...], primal: tuple[int, ...], z: bool = True, affine: bool = False):
        self.dry = np.zeros(shape)
        self.lap, self.t, self.u = (np.zeros(shape) if z or not affine else None for _ in range(3))
        self.z, self.drc, self.face = (np.zeros(shape), np.zeros(shape), np.zeros(shape[:-1])) if z else [None] * 3
        self.shared, self.tmp = np.zeros(primal), np.zeros(primal)
        self.coeffs = self.primal = None

    def head(self, k: int) -> TangentBuffers:
        view = copy.copy(self)
        for name in ("z", "dry", "drc", "lap", "t", "u", "face"):
            if getattr(self, name) is not None:
                setattr(view, name, getattr(self, name)[:k])
        view.coeffs = None  # its own band views are bound at its first step
        return view

    def bind(self, coeffs: CoefficientSet, grid: GridSpec, primal: StepBuffers) -> None:
        """Bind the bands of drc, with its Laplacian neighbours, and of lap
        (``_stencil``'s, which ``_band_laplacian`` steps on) and the face
        pairs of z, if z is kept; the alpha of ``primal`` under its affine
        terms, a 0-d view if it has one value (a ufunc broadcasting a (1, 1)
        operand would buffer); and each other coefficient: its declared
        constant (a' = sigma, b_c = kappa, b_y = -rho), else its core into
        ``shared`` (scratch ``tmp``) and ``_tiled``."""
        self.coeffs, self.primal, self.h, self.affine = coeffs, primal, grid.spacing, primal.affine
        if self.u is None and self.affine is None:
            raise ValueError("a tangent workspace made for the affine dry step has no scratch for other terms")
        if self.z is not None:
            (self.drc_b, self.shifts), self.lap_b = _stencil(self.drc, grid.dim), _stencil(self.lap, grid.dim)[0]
            self.faces = _face_pairs(self.z, grid.dim)
        if self.affine is not None:
            self.alpha = primal.alpha.reshape(()) if primal.alpha.size == 1 else primal.alpha

        def tiled(fn):
            core = getattr(fn, "core", None) or (lambda *a: fn(*a[:-2], out=a[-2]))
            return lambda *args: _tiled(self, core(*args, self.shared, self.tmp))

        def constant(value):
            return lambda *args: value

        slope, drift = coeffs.noise.slope, coeffs.drift.affine
        self.recip, self.f_c, self.f_y = map(tiled, (coeffs.recip_beta_prime, coeffs.df_dc, coeffs.df_dy))
        self.a_prime = tiled(coeffs.a_prime) if slope is None else constant(slope)
        self.b_c, self.b_y = (tiled(coeffs.db_dc), tiled(coeffs.db_dy)) if drift is None else (
            constant(drift[0]), constant(-drift[1]))


def _tiled(work: TangentBuffers, value: np.ndarray) -> np.ndarray:
    """``value``, shaped like the primal, copied to every seed's row of
    ``work.u``; a ufunc broadcasting it would buffer."""
    np.copyto(work.u, value)
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
    state at the step start, and ``dW`` broadcast against them.  ``primal``
    is the gate-carrying workspace of the primal step from (c, y) under
    ``dW`` (taken here when None); the derivative is zeroed where its clamps
    bit.  A z of None steps dry alone, with drc = +0.0, for a source that
    ignores y.

    The new pair goes into ``work.z`` and ``work.dry`` (a fresh workspace
    when None), which may hold ``mstate`` itself, so a sweep allocates
    nothing.  Seed-sized operations run on whole contiguous rows (boundary
    nodes get scratch that the boundary rule replaces), in the operation
    order of the formulas in the module docstring, the affine one with the
    primal's alpha; what they read is bound at the first step (see
    ``TangentBuffers.bind``).  A constant, a drc of +0.0 and a ``dW`` of one
    value enter the ufuncs as scalars, which give the bits of an array
    filled with them.
    """
    dim, z, dry = grid.dim, mstate.z, mstate.dry
    dw = np.asarray(dW, dtype=np.float64)
    if primal is None or work is None:
        lead = np.broadcast_shapes(dry.shape[: dry.ndim - dim], c.shape[: c.ndim - dim], dw.shape)
    if primal is None:
        primal = StepBuffers(grid, lead, gates=True)
        primal.c[0][...], primal.y[0][...] = c, y
        step(primal.c[0], primal.y[0], grid, coeffs, bc, dt, np.broadcast_to(dw, lead), work=primal)
    if work is None:
        work = TangentBuffers(lead + grid.shape, c.shape, z is not None, primal.affine is not None)
    if work.coeffs is not coeffs or work.primal is not primal:
        if z is None and coeffs.source.reads_y:
            raise ValueError("a tangent of dry alone needs a source that ignores y")
        work.bind(coeffs, grid, primal)
    lap, t, u = work.lap, work.t, work.u

    drc = 0.0
    if z is not None:
        # z+ = z + dt * (lap_h drc + f_c drc + f_y dry), zero where v+ was clamped
        drc = np.multiply(z, work.recip(c), out=work.drc)
        _band_laplacian(work.lap_b, work.drc_b, work.shifts, work.h)
        np.add(lap, np.multiply(work.f_c(c, y), drc, out=t), out=lap)
        np.add(lap, np.multiply(work.f_y(c, y), dry, out=t), out=lap)
        np.multiply(dt, lap, out=lap)
        np.add(z, lap, out=work.z)
        np.copyto(work.z, 0.0, where=primal.v_gate)
        _impose_bc(work.faces, bc, work.face)

    if work.affine is not None:
        # dry+ = alpha dry + (kappa dt) drc, zero where y+ was clamped; a drc of
        # +0.0 still gives a zero of alpha dry the sign the step with z gives it
        kappa_dt = work.affine[1] * dt
        term = kappa_dt * drc if z is None else np.multiply(kappa_dt, drc, out=lap)
        np.add(np.multiply(dry, work.alpha, out=work.dry), term, out=work.dry)
    else:
        # dry+ = dry + a'(y) dry dW + (b_c drc + b_y dry) dt, zero where y+ was clamped
        np.multiply(work.a_prime(y), dry, out=t)
        np.multiply(t, dw.reshape(()) if dw.size == 1 else dw.reshape(dw.shape + (1,) * dim), out=t)
        np.add(dry, t, out=t)
        np.multiply(work.b_c(c, y), drc, out=lap)
        np.add(lap, np.multiply(work.b_y(c, y), dry, out=u), out=lap)
        np.multiply(lap, dt, out=lap)
        np.add(t, lap, out=work.dry)
    if primal.y_clamped:  # else its y gate is all False
        np.copyto(work.dry, 0.0, where=primal.y_gate)
    return MalliavinState(None if z is None else work.z, work.dry)


def seed_index(fraction: float, n_steps: int) -> int:
    """Seed step for a fraction of the horizon, clipped to [0, n_steps)."""
    return min(n_steps - 1, max(0, int(round(fraction * n_steps))))


class _Tangent:
    """Tangent recorder of one primal path, the ``on_step`` of its run (see
    ``propagate_path``), whose workspace keeps the clamp gates it reads.  Its
    seeds, sorted by seed step, are the rows of one workspace for all of
    them, of dry alone when the source ignores y; a seed's row becomes
    active at its step, with the zero z it was made with, so the active
    seeds are always the leading rows."""

    def __init__(self, config: SimConfig, wiener: WienerPath, r_indices, t_indices):
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
        self.config, self.dt, self.k = config, wiener.dt, 0
        shape = config.grid.shape
        cf = config.coeffs  # dry alone under the affine terms steps with no scratch
        affine = cf.noise.slope is not None and cf.drift.affine is not None
        self.work = TangentBuffers((len(self.joins),) + shape, (1,) + shape, cf.source.reads_y, affine)
        self.active = self.work.head(0)
        self.out: list[list[MalliavinSlice]] = [[] for _ in r_list]

    def __call__(self, res, c, y, dw, primal: StepBuffers) -> None:
        cf, k, a = self.config, self.k, len(self.active.dry)
        self.k += 1
        while a < len(self.joins) and self.joins[a][0] == k:
            self.work.dry[a] = cf.coeffs.a(y[0])
            a += 1
            self.active = self.work.head(a)
        if a:
            state = MalliavinState(self.active.z, self.active.dry)
            step_malliavin(state, c, y, cf.grid, cf.coeffs, cf.bc, self.dt, dw, primal, self.active)
        for j in self.emit.get(k + 1, ()):
            i, keeps_z = self.row[j], self.work.z is not None  # else z and drc are +0.0
            z = self.work.z[i].copy() if keeps_z else np.zeros(cf.grid.shape)
            drc = recover_drc(z, res.c[0], cf.coeffs) if keeps_z else np.zeros(cf.grid.shape)
            self.out[j].append(MalliavinSlice(k + 1, float((k + 1) * self.dt), z, drc, self.work.dry[i].copy()))


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
    ``t_indices`` (default: step n only); every primal state k, the initial
    one included, goes to ``on_frame(k, c, y)``, c and y one row each (the
    engine's frame hook).  Seed j joins at its step r_j with z = 0 and
    dry = a(y(r_j)); under a source that ignores y only dry is stepped, and
    every slice has z = drc = +0.0.  Every operation is elementwise per
    seed, so a seed's slices are bitwise those of a sweep carrying it alone.
    """
    if wiener.increments.ndim != 1:
        raise ValueError("propagate_path needs a single-path wiener")
    tangent = _Tangent(config, wiener, r_indices, t_indices)
    if not tangent.joins:
        return None, tangent.out
    return simulate_ensemble(config, c0, y0, wiener=wiener, n_snapshots=wiener.n_steps,
                             on_frames=lambda part: on_frame, on_step=tangent), tangent.out


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
