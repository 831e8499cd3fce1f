"""Propagation of pathwise noise derivatives along a stored trajectory.

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

Where the primal clamp at zero bites, the derivative is zeroed (the clamp's
a.e. derivative), so the quotient of a clamped perturbed run still matches.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .grid import BoundaryKind, GridSpec, laplacian_core
from .model import CoefficientSet
from .simulate import SimConfig, Trajectory, WienerPath, apply_bc, simulate_ensemble, simulate_path


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


def step_malliavin(
    mstate: MalliavinState,
    c: np.ndarray,
    y: np.ndarray,
    grid: GridSpec,
    coeffs: CoefficientSet,
    bc: BoundaryKind,
    dt: float,
    dW,
) -> MalliavinState:
    """Advance the derivative pair across one primal step (c, y) -> next.

    ``mstate`` may carry leading seed axes; ``c`` and ``y``, the primal
    states at the step start, broadcast against them, and so does ``dW``
    against the leading axes.  The primal pre-clamp values that gate the
    derivative where the clamp was active depend only on the primal states,
    so seeds sharing one path share one evaluation of them.
    """
    dim = grid.dim
    h = grid.spacing
    core = (Ellipsis,) + (slice(1, -1),) * dim

    z, dry = mstate.z, mstate.dry
    drc = recover_drc(z, c, coeffs)

    c_int, y_int = c[core], y[core]
    z_new_int = z[core] + dt * (
        laplacian_core(drc, h, dim)
        + coeffs.df_dc(c_int, y_int) * drc[core]
        + coeffs.df_dy(c_int, y_int) * dry[core]
    )
    # primal clamp gating: the a.e. derivative of max(., 0) is an indicator
    v_pre = coeffs.beta(c_int) + dt * (laplacian_core(c, h, dim) + coeffs.f(c_int, y_int))
    z_new_int = np.where(v_pre < 0.0, 0.0, z_new_int)

    z_new = np.array(z, copy=True)
    z_new[core] = z_new_int
    z_new = apply_bc(z_new, grid, bc)

    dw = np.asarray(dW, dtype=np.float64)
    dw = dw.reshape(dw.shape + (1,) * dim)
    dry_new = dry + coeffs.a_prime(y) * dry * dw + (
        coeffs.db_dc(c, y) * drc + coeffs.db_dy(c, y) * dry
    ) * dt
    y_pre = y + coeffs.a(y) * dw + coeffs.b(c, y) * dt
    dry_new = np.where(y_pre < 0.0, 0.0, dry_new)
    return MalliavinState(z=z_new, dry=dry_new)


def _require_dense(traj: Trajectory) -> None:
    if not np.array_equal(traj.step_indices, np.arange(traj.n_steps + 1)):
        raise ValueError("derivative propagation needs a densely stored trajectory")


def seed_index(fraction: float, n_steps: int) -> int:
    """Seed step for a fraction of the horizon, clipped to [0, n_steps)."""
    return min(n_steps - 1, max(0, int(round(fraction * n_steps))))


def propagate_seeds(
    traj: Trajectory,
    coeffs: CoefficientSet,
    r_indices: Sequence[int],
    t_indices: Sequence[Sequence[int]] | None = None,
) -> list[list[MalliavinSlice]]:
    """Propagate one derivative pair per seed step in ``r_indices`` in a
    single sweep over the stored path; returns, per seed, its slices at its
    own ``t_indices`` (default: the final step only).

    The sweep starts at the earliest seed.  Seed j joins the batch at its
    step r_j, with z = 0 and dry = a(y(r_j)), and from then on advances with
    the seeds already running.  Every operation is elementwise per seed, so
    a seed's slices are bitwise those of a sweep carrying it alone.  Only
    increments at steps >= min(r_indices) are read: the derivative is local
    in the differentiation time.
    """
    _require_dense(traj)
    n = traj.n_steps
    r_list = [int(r) for r in r_indices]
    if t_indices is None:
        t_indices = [[n]] * len(r_list)
    if len(t_indices) != len(r_list):
        raise ValueError("need one list of evaluation indices per seed")
    emit: dict[int, list[int]] = {}  # step index -> seeds wanting a slice there
    joins = []  # (seed step, seed) of every seed that wants a slice
    for j, (r, ts) in enumerate(zip(r_list, t_indices)):
        if not 0 <= r < n:
            raise ValueError(f"r_index {r} outside [0, {n})")
        wanted = sorted(set(int(k) for k in ts))
        if wanted and (wanted[0] <= r or wanted[-1] > n):
            raise ValueError("evaluation indices must lie in (r_index, n_steps]")
        if wanted:
            joins.append((r, j))
        for k in wanted:
            emit.setdefault(k, []).append(j)

    out: list[list[MalliavinSlice]] = [[] for _ in r_list]
    if not joins:
        return out
    joins.sort()
    inc = traj.wiener.increments
    row: dict[int, int] = {}  # seed -> its row in the batched state
    state = MalliavinState(np.empty((0,) + traj.grid.shape), np.empty((0,) + traj.grid.shape))
    for k in range(joins[0][0], max(emit)):
        while joins and joins[0][0] == k:
            seed = init_malliavin(traj.y[k], coeffs)
            row[joins.pop(0)[1]] = len(state.z)
            state = MalliavinState(
                np.concatenate([state.z, seed.z[None]]),
                np.concatenate([state.dry, seed.dry[None]]),
            )
        state = step_malliavin(
            state, traj.c[k], traj.y[k], traj.grid, coeffs, traj.bc, traj.dt, inc[k]
        )
        for j in emit.get(k + 1, ()):
            z, dry = state.z[row[j]], state.dry[row[j]]
            drc = recover_drc(z, traj.c[k + 1], coeffs)
            t = float(traj.times[k + 1])
            out[j].append(MalliavinSlice(k + 1, t, z.copy(), drc, dry.copy()))
    return out


def propagate(
    traj: Trajectory,
    coeffs: CoefficientSet,
    r_index: int,
    t_indices=None,
) -> list[MalliavinSlice]:
    """Seed at step ``r_index`` and advance to the end of the trajectory,
    returning slices at ``t_indices`` (default: the final step only); a
    sweep of one seed."""
    ts = None if t_indices is None else [t_indices]
    return propagate_seeds(traj, coeffs, [r_index], ts)[0]


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


def derivative_run(
    config: SimConfig,
    c0,
    y0,
    *,
    seed: int = 0,
    path_id: int = 0,
    r_fractions=(0.25, 0.5),
) -> tuple[Trajectory, list[MalliavinSlice]]:
    """Dense primal run plus terminal derivative slices seeded at the given
    fractions of the horizon."""
    traj = simulate_path(config, c0, y0, seed=seed, path_id=path_id, store_dense=True)
    r_indices = [seed_index(frac, traj.n_steps) for frac in r_fractions]
    seeds = propagate_seeds(traj, config.coeffs, r_indices)
    return traj, [sl for slices in seeds for sl in slices]
