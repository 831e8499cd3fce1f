"""Time stepping for the coupled system: explicit Euler in the conserved
variable v = beta(c) for the parabolic part, Euler-Maruyama for the pointwise
SDE, one shared scalar Wiener increment per step driving every node.

The update reads, per step of size dt,

    v+ = beta(c) + dt * (lap_h c + f(c, y))     on interior nodes,
    c+ = beta_inv(max(v+, 0)),
    y+ = max(y + a(y) dW + b(c, y) dt, 0)       on all nodes,

with boundary values of c reimposed afterwards (zero for Dirichlet, copy of
the reflected interior neighbour for no-flux).  State arrays always satisfy
the boundary rule, so the discrete flux through the boundary vanishes exactly
for the no-flux case and interior mass of v is conserved when f = 0.

Everything is written against trailing grid axes, so a leading path axis
turns the scalar stepper into the ensemble engine with bit-identical
per-path arithmetic.
"""
from __future__ import annotations

import collections
import concurrent.futures
import math
from dataclasses import dataclass, field as dc_field
from typing import Callable, Sequence

import numpy as np

from .grid import BoundaryKind, Field, GridSpec, laplacian_core
from .model import CoefficientSet, r2_bound

# paths per processing chunk; fixed so reductions do not depend on worker count
_CHUNK = 128
# cap on the recorded frames (c and y) of one chunk; a chunk shrinks to fit
_FRAME_BYTES = 8 * 2**20


# ---------------------------------------------------------------------------
# driving noise


@dataclass(frozen=True)
class WienerPath:
    """Scalar Brownian increments on a uniform step grid.

    ``increments`` has the step axis last; a leading axis enumerates paths.
    """

    dt: float
    increments: np.ndarray

    def __post_init__(self) -> None:
        inc = np.asarray(self.increments, dtype=np.float64)
        object.__setattr__(self, "increments", inc)
        if self.dt <= 0.0:
            raise ValueError("dt must be positive")
        if inc.ndim not in (1, 2):
            raise ValueError("increments must be 1- or 2-dimensional")

    @property
    def n_steps(self) -> int:
        return self.increments.shape[-1]

    @property
    def t_final(self) -> float:
        return self.n_steps * self.dt

    def cumulative(self) -> np.ndarray:
        """W at the step endpoints, starting from 0."""
        out = np.zeros(self.increments.shape[:-1] + (self.n_steps + 1,))
        np.cumsum(self.increments, axis=-1, out=out[..., 1:])
        return out


def _philox_stream(seed: int, path_id: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=[seed & 0xFFFFFFFFFFFFFFFF,
                                                     path_id & 0xFFFFFFFFFFFFFFFF]))


def gen_wiener(n_steps: int, dt: float, seed: int, path_id: int = 0) -> WienerPath:
    """Counter-based stream keyed by (seed, path_id); identical arguments
    reproduce identical increments regardless of call order."""
    return WienerPath(dt, gen_wiener_batch(n_steps, dt, seed, [path_id]).increments[0])


def gen_wiener_batch(n_steps: int, dt: float, seed: int, path_ids: Sequence[int]) -> WienerPath:
    """One ``gen_wiener`` stream per path id, paths on the leading axis."""
    if n_steps < 1:
        raise ValueError("n_steps must be at least 1")
    inc = np.empty((len(path_ids), n_steps))
    for j, pid in enumerate(path_ids):
        inc[j] = _philox_stream(seed, int(pid)).standard_normal(n_steps)
    return WienerPath(dt, inc * math.sqrt(dt))


def coarsen_wiener(wiener: WienerPath, factor: int) -> WienerPath:
    """Aggregate consecutive increments; the coarse path visits the same
    Brownian values at the coarse step endpoints."""
    if factor < 1 or wiener.n_steps % factor:
        raise ValueError(f"factor {factor} does not divide {wiener.n_steps} steps")
    if factor == 1:
        return wiener
    inc = wiener.increments
    coarse = inc.reshape(inc.shape[:-1] + (inc.shape[-1] // factor, factor)).sum(axis=-1)
    return WienerPath(wiener.dt * factor, coarse)


# ---------------------------------------------------------------------------
# step-size control


def cfl_dt(grid: GridSpec, coeffs: CoefficientSet, c_max: float, theta: float = 0.5) -> float:
    """Parabolic step bound theta * h**2 / (2 * dim * s) where s bounds
    dc/dv = 1/beta'(c) over the reachable range [0, c_max]; the reciprocal
    derivative is increasing, so the right endpoint gives s."""
    if not 0.0 < theta <= 1.0:
        raise ValueError("theta must lie in (0, 1]")
    if c_max < 0.0:
        raise ValueError("c_max must be nonnegative")
    s = float(coeffs.recip_beta_prime(np.float64(c_max)))
    h = grid.spacing
    if s <= 0.0:
        # identically zero data: any parabolic-scaled step works
        return theta * h * h / (2.0 * grid.dim)
    return theta * h * h / (2.0 * grid.dim * s)


@dataclass(frozen=True)
class SimConfig:
    """Run description: discretization, coefficients, horizon, step control.

    ``dt`` overrides the stability formula when set; either way the step is
    trimmed so an integer number of steps lands exactly on ``t_final`` (and
    on every requested snapshot).
    """

    grid: GridSpec
    coeffs: CoefficientSet
    bc: BoundaryKind
    t_final: float
    theta: float = 0.5
    dt: float | None = None

    def __post_init__(self) -> None:
        if self.t_final <= 0.0:
            raise ValueError("t_final must be positive")
        if self.dt is not None and self.dt <= 0.0:
            raise ValueError("dt override must be positive")
        if not 0.0 < self.theta <= 1.0:
            raise ValueError("theta must lie in (0, 1]")

    def resolve_steps(self, c0_max: float, multiple_of: int = 1) -> tuple[float, int]:
        """Final (dt, n_steps): target step from the override or the CFL
        bound at the a priori sup radius, then rounded so n_steps is a
        multiple of ``multiple_of`` and dt * n_steps == t_final."""
        if self.dt is not None:
            target = self.dt
        else:
            radius = r2_bound(self.t_final, c0_max, self.coeffs.beta_family)
            target = cfl_dt(self.grid, self.coeffs, radius, self.theta)
        n = max(1, math.ceil(self.t_final / target - 1e-12))
        n = multiple_of * math.ceil(n / multiple_of)
        return self.t_final / n, n


# ---------------------------------------------------------------------------
# boundary handling and the single step


def apply_bc(values: np.ndarray, grid: GridSpec, bc: BoundaryKind) -> np.ndarray:
    """Reimpose the boundary rule on the trailing grid axes (leading axes
    pass through).  Returns a new array."""
    lead = values.shape[: values.ndim - grid.dim]
    flat = np.array(values, dtype=np.float64, copy=True).reshape(lead + (-1,))
    bidx = _boundary_flat(grid)
    if bc is BoundaryKind.DIRICHLET:
        flat[..., bidx] = 0.0
    else:
        flat[..., bidx] = flat[..., grid.reflect_flat().ravel()[bidx]]
    return flat.reshape(values.shape)


def _boundary_flat(grid: GridSpec) -> np.ndarray:
    return np.flatnonzero(grid.boundary_mask().ravel())


@dataclass
class StepResult:
    c: np.ndarray
    y: np.ndarray
    clamp_mass: np.ndarray  # h**dim-weighted clamped negative v mass, per leading index


def step(
    c: np.ndarray,
    y: np.ndarray,
    grid: GridSpec,
    coeffs: CoefficientSet,
    bc: BoundaryKind,
    dt: float,
    dW,
) -> StepResult:
    """One explicit step.  ``c`` and ``y`` have trailing grid shape (leading
    axes are independent paths) and ``c`` already satisfies the boundary
    rule; ``dW`` broadcasts against the leading axes."""
    dim = grid.dim
    h = grid.spacing
    lead = c.shape[: c.ndim - dim]
    core = (slice(None),) * len(lead) + (slice(1, -1),) * dim

    c_int = c[core]
    y_int = y[core]
    v_new = coeffs.beta(c_int) + dt * (
        laplacian_core(c, h, dim) + coeffs.f(c_int, y_int)
    )
    clamped = np.minimum(v_new, 0.0)
    clamp_mass = -(h**dim) * clamped.reshape(lead + (-1,)).sum(axis=-1)
    c_new_int = coeffs.beta_inv(np.maximum(v_new, 0.0))

    dw = np.asarray(dW, dtype=np.float64)
    if lead:
        dw = dw.reshape(dw.shape + (1,) * dim)
    y_new = np.maximum(y + coeffs.a(y) * dw + coeffs.b(c, y) * dt, 0.0)

    c_new = np.array(c, copy=True)
    c_new[core] = c_new_int
    c_new = apply_bc(c_new, grid, bc)
    return StepResult(c_new, y_new, clamp_mass)


# ---------------------------------------------------------------------------
# result types


@dataclass
class Trajectory:
    """Stored frames of one path.  ``c`` and ``y`` are stacked with the frame
    axis first; ``step_indices`` maps frames to step numbers."""

    grid: GridSpec
    bc: BoundaryKind
    dt: float
    times: np.ndarray
    step_indices: np.ndarray
    c: np.ndarray
    y: np.ndarray
    clamp_mass: float
    wiener: WienerPath

    @property
    def n_steps(self) -> int:
        return self.wiener.n_steps

    def frame(self, k: int) -> tuple[float, np.ndarray, np.ndarray]:
        return float(self.times[k]), self.c[k], self.y[k]

    def c_field(self, k: int) -> Field:
        return Field(self.grid, self.c[k])

    def y_field(self, k: int) -> Field:
        return Field(self.grid, self.y[k])


@dataclass
class BatchFrames:
    """Snapshot stack of a path batch: ``c`` and ``y`` have shape
    (frames, paths, *grid.shape), frames uniformly spaced in steps."""

    grid: GridSpec
    dt: float
    times: np.ndarray
    c: np.ndarray
    y: np.ndarray
    clamp_mass: np.ndarray


@dataclass
class EnsembleResult:
    """Per-path terminal data and running statistics, path axis first.

    ``y_probe`` is the probe-node value of y at every stored time when a
    probe was requested (shape (paths, frames)).  ``frames`` is set only on
    the chunks handed to an ``on_chunk`` callback.
    """

    grid: GridSpec
    dt: float
    n_steps: int
    path_ids: np.ndarray
    c_final: np.ndarray
    y_final: np.ndarray
    c_sup: np.ndarray | None
    c_min: np.ndarray | None
    clamp_mass: np.ndarray
    probe_times: np.ndarray | None = None
    y_probe: np.ndarray | None = None
    frames: BatchFrames | None = None


# ---------------------------------------------------------------------------
# initial data


def _coerce_values(grid: GridSpec, data, name: str) -> np.ndarray:
    if isinstance(data, Field):
        if data.grid != grid:
            raise ValueError(f"{name} lives on a different grid")
        values = np.array(data.values, copy=True)
    elif callable(data):
        values = np.asarray(data(grid.node_points()), dtype=np.float64)
        if values.shape != grid.shape:
            raise ValueError(f"{name} initializer returned shape {values.shape}")
        values = np.array(values, copy=True)
    else:
        values = np.full(grid.shape, float(data))
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{name} contains non-finite entries")
    if np.min(values) < 0.0:
        raise ValueError(f"{name} must be nonnegative")
    return values


def prepare_initial(config: SimConfig, c0, y0) -> tuple[np.ndarray, np.ndarray]:
    c = apply_bc(_coerce_values(config.grid, c0, "c0"), config.grid, config.bc)
    y = _coerce_values(config.grid, y0, "y0")
    return c, y


# ---------------------------------------------------------------------------
# the stepping loop


def _run_paths(
    config: SimConfig,
    c0,
    y0,
    wiener: WienerPath,
    path_ids: np.ndarray,
    *,
    stride: int = 0,
    extrema: bool = False,
    probe_flat: int | None = None,
    probe_stride: int = 1,
) -> EnsembleResult:
    """Advance one path per row of ``wiener.increments`` from the initial
    data ``c0``, ``y0`` to the end of the increments.

    Besides the terminal state and the clamp mass it records only what is
    asked for: frames every ``stride`` steps (0: none), the running per-path
    sup/min of c, and y at the flat probe node every ``probe_stride`` steps.
    Every operation is elementwise per path and every reduction per path, so
    how paths are batched never changes a bit.
    """
    grid, dt, inc = config.grid, wiener.dt, wiener.increments
    p, n_steps = inc.shape
    c1, y1 = prepare_initial(config, c0, y0)
    c = np.broadcast_to(c1, (p,) + grid.shape).copy()
    y = np.broadcast_to(y1, (p,) + grid.shape).copy()

    def nodes(a):
        return a.reshape(p, -1)

    clamp = np.zeros(p)
    c_sup = np.max(nodes(c), axis=1) if extrema else None
    c_min = np.min(nodes(c), axis=1) if extrema else None
    frames = None
    if stride:
        stored = np.arange(0, n_steps + 1, stride)
        cs = np.empty((len(stored),) + c.shape)
        ys = np.empty_like(cs)
        cs[0], ys[0] = c, y
        frames = BatchFrames(grid, dt, stored * dt, cs, ys, clamp)
    probe_times = y_probe = None
    if probe_flat is not None:
        probe_times = np.arange(n_steps // probe_stride + 1) * (dt * probe_stride)
        y_probe = np.empty((p, len(probe_times)))
        y_probe[:, 0] = nodes(y)[:, probe_flat]

    for n in range(1, n_steps + 1):
        res = step(c, y, grid, config.coeffs, config.bc, dt, inc[:, n - 1])
        c, y = res.c, res.y
        clamp += res.clamp_mass
        if extrema:
            np.maximum(c_sup, np.max(nodes(c), axis=1), out=c_sup)
            np.minimum(c_min, np.min(nodes(c), axis=1), out=c_min)
        if stride and n % stride == 0:
            cs[n // stride], ys[n // stride] = c, y
        if y_probe is not None and n % probe_stride == 0:
            y_probe[:, n // probe_stride] = nodes(y)[:, probe_flat]

    return EnsembleResult(
        grid=grid,
        dt=dt,
        n_steps=n_steps,
        path_ids=np.array(path_ids),
        c_final=c,
        y_final=y,
        c_sup=c_sup,
        c_min=c_min,
        clamp_mass=clamp,
        probe_times=probe_times,
        y_probe=y_probe,
        frames=frames,
    )


# ---------------------------------------------------------------------------
# drivers


def simulate_path(
    config: SimConfig,
    c0,
    y0,
    *,
    seed: int = 0,
    path_id: int = 0,
    wiener: WienerPath | None = None,
    n_snapshots: int | None = None,
    store_dense: bool = False,
) -> Trajectory:
    """Run one path, as a batch of one.  Frames kept: every step when
    ``store_dense``, otherwise ``n_snapshots + 1`` uniformly spaced frames
    (default: first and last).  Passing ``wiener`` overrides generation and
    pins dt and the step count."""
    keep = n_snapshots if n_snapshots else 1
    if wiener is not None:
        if wiener.increments.ndim != 1:
            raise ValueError("simulate_path needs a single-path wiener")
        if abs(wiener.t_final - config.t_final) > 1e-9 * config.t_final:
            raise ValueError("wiener horizon does not match t_final")
    else:
        c, _ = prepare_initial(config, c0, y0)
        dt, n_steps = config.resolve_steps(float(np.max(c)), multiple_of=keep)
        wiener = gen_wiener(n_steps, dt, seed, path_id)
    n_steps = wiener.n_steps
    if not store_dense and n_steps % keep:
        raise ValueError("snapshot count must divide the step count")
    stride = 1 if store_dense else n_steps // keep

    batch = WienerPath(wiener.dt, wiener.increments[None])
    run = _run_paths(config, c0, y0, batch, [path_id], stride=stride)
    return Trajectory(
        grid=config.grid,
        bc=config.bc,
        dt=wiener.dt,
        times=run.frames.times,
        step_indices=np.arange(0, n_steps + 1, stride),
        c=run.frames.c[:, 0],
        y=run.frames.y[:, 0],
        clamp_mass=float(run.clamp_mass[0]),
        wiener=wiener,
    )


def _in_path_order(run, chunks: list, n_workers: int):
    """Yield ``run(chunk)`` for every chunk in order, computing up to
    ``n_workers`` chunks concurrently; at most ``n_workers`` results are
    alive at a time, the one being consumed included."""
    if n_workers <= 1 or len(chunks) <= 1:
        yield from map(run, chunks)
        return
    with concurrent.futures.ThreadPoolExecutor(max_workers=n_workers) as pool:
        pending = collections.deque(pool.submit(run, ids) for ids in chunks[:n_workers])
        for ids in chunks[n_workers:]:
            yield pending.popleft().result()
            pending.append(pool.submit(run, ids))
        while pending:
            yield pending.popleft().result()


def simulate_ensemble(
    config: SimConfig,
    c0,
    y0,
    *,
    n_paths: int,
    seed: int = 0,
    first_path_id: int = 0,
    n_workers: int = 1,
    probe_index: tuple[int, ...] | None = None,
    probe_stride: int = 1,
    n_snapshots: int | None = None,
    on_chunk: Callable[[EnsembleResult], None] | None = None,
) -> EnsembleResult:
    """Monte Carlo over independent paths, path_id = first_path_id + k.

    The step grid is resolved once, with a step count that is a multiple of
    ``n_snapshots`` when given: the grid ``simulate_path`` uses for the same
    snapshot count, so path k here is bitwise the single path k.

    Paths are processed in chunks of at most ``_CHUNK``; ``n_workers`` only
    controls how many chunks run concurrently, so every reduction sees the
    same operands in the same order and results are bitwise independent of
    the worker count.  With ``n_snapshots`` every chunk also records
    ``n_snapshots + 1`` frames (its ``frames`` field) and is passed to
    ``on_chunk`` in path order; chunks then shrink so their frames fit
    ``_FRAME_BYTES``, and the frames are dropped once ``on_chunk`` returns.
    """
    if n_paths < 1:
        raise ValueError("n_paths must be positive")
    grid = config.grid
    c_init, _ = prepare_initial(config, c0, y0)
    dt, n_steps = config.resolve_steps(float(np.max(c_init)), multiple_of=n_snapshots or 1)
    if probe_index is not None:
        probe_flat = int(np.ravel_multi_index(probe_index, grid.shape))
        if n_steps % probe_stride:
            raise ValueError("probe_stride must divide the step count")
    else:
        probe_flat = None
    chunk, stride = _CHUNK, 0
    if n_snapshots:
        stride = n_steps // n_snapshots
        per_path = (n_snapshots + 1) * grid.n_nodes * 16  # c and y frames in float64
        chunk = max(1, min(_CHUNK, _FRAME_BYTES // per_path))

    all_ids = np.arange(first_path_id, first_path_id + n_paths, dtype=np.int64)
    chunks = [all_ids[i : i + chunk] for i in range(0, n_paths, chunk)]

    def run(ids):
        return _run_paths(
            config, c0, y0, gen_wiener_batch(n_steps, dt, seed, ids), ids,
            stride=stride, extrema=True, probe_flat=probe_flat, probe_stride=probe_stride,
        )

    parts = []
    for part in _in_path_order(run, chunks, n_workers):
        if on_chunk is not None:
            on_chunk(part)
        part.frames = None
        parts.append(part)

    def cat(attr):
        return np.concatenate([getattr(p, attr) for p in parts], axis=0)

    return EnsembleResult(
        grid=grid,
        dt=dt,
        n_steps=n_steps,
        path_ids=cat("path_ids"),
        c_final=cat("c_final"),
        y_final=cat("y_final"),
        c_sup=cat("c_sup"),
        c_min=cat("c_min"),
        clamp_mass=cat("clamp_mass"),
        probe_times=parts[0].probe_times,
        y_probe=cat("y_probe") if probe_flat is not None else None,
    )


def simulate_batch(
    config: SimConfig,
    c0,
    y0,
    wiener: WienerPath,
    n_snapshots: int,
) -> BatchFrames:
    """Advance a whole path batch under the given increments (paths on the
    leading axis), keeping ``n_snapshots + 1`` uniformly spaced frames.

    The caller owns the step size: ``wiener.dt`` is used as is and must match
    the horizon; the snapshot count must divide the step count.
    """
    if wiener.increments.ndim != 2:
        raise ValueError("simulate_batch needs batched increments (paths, steps)")
    n_steps = wiener.n_steps
    if abs(wiener.t_final - config.t_final) > 1e-9 * config.t_final:
        raise ValueError("wiener horizon does not match t_final")
    if n_snapshots < 1 or n_steps % n_snapshots:
        raise ValueError("snapshot count must divide the step count")
    ids = np.arange(wiener.increments.shape[0])
    return _run_paths(config, c0, y0, wiener, ids, stride=n_steps // n_snapshots).frames


# ---------------------------------------------------------------------------
# conserved quantity


def interior_v_mass(c: np.ndarray, grid: GridSpec, coeffs: CoefficientSet) -> float:
    """h**dim-weighted interior sum of the conserved variable beta(c)."""
    core = (slice(1, -1),) * grid.dim
    return float(grid.spacing**grid.dim * np.sum(coeffs.beta(c[core])))
