"""Measured counterparts of the a priori estimates: sup bounds, energy
balance, moment and increment statistics, weak-form residuals, cross-grid
refinement distances, regularization sweeps, and the closed-form benchmark.

Every check produces an :class:`EstimateReport` carrying the measured value
and, where a hard bound exists, the bound; diagnostics carry ``bound=None``
and always pass.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field, replace
from typing import Callable, Sequence

import numpy as np

from .grid import (
    BoundaryKind,
    Field,
    GridSpec,
    _gauss01,
    build_grid,
    h02_embed,
    h1_seminorm,
    hminus2_norm,
    laplacian,
    lp_norm,
)
from .interp import _cell_bounds, cell_measures
from .malliavin import MalliavinSlice
from .model import (
    CoefficientSet,
    barenblatt_profile,
    barenblatt_support_radius,
    beta_gap,
    make_coefficients,
    pme_beta,
    regularize_beta,
)
from .simulate import (
    EnsembleResult,
    SimConfig,
    StepPlan,
    coarsen_wiener,
    gen_wiener_batch,
    prepare_initial,
    simulate_ensemble,
    simulate_path,
)
from .transform import TabulatedTransform, invert_psi

_PASS_SLACK = 1e-9


@dataclass(frozen=True)
class EstimateReport:
    """One measured estimate.  ``passed`` compares against the bound with a
    hair of relative slack; diagnostic entries without a bound pass."""

    name: str
    measured: float
    bound: float | None = None
    detail: dict = dc_field(default_factory=dict)

    @property
    def passed(self) -> bool:
        if self.bound is None:
            return True
        return self.measured <= self.bound * (1.0 + _PASS_SLACK) + 1e-300


def linf_check(sup_value: float, bound: float, name: str = "sup_vs_growth_bound") -> EstimateReport:
    return EstimateReport(name, float(sup_value), float(bound))


# ---------------------------------------------------------------------------
# Monte Carlo statistics


def moment_report(samples: np.ndarray, target: float, name: str) -> EstimateReport:
    """Distance of the sample mean from the target in standard errors;
    the bound is the conventional three-sigma band."""
    samples = np.asarray(samples, dtype=np.float64)
    n = samples.size
    mean = float(np.mean(samples))
    se = float(np.std(samples, ddof=1) / math.sqrt(n))
    if se > 0.0:
        z = abs(mean - target) / se
    else:  # zero spread: an exact match or an infinitely sure miss
        z = 0.0 if mean == target else math.inf
    return EstimateReport(
        name, float(z), 3.0, {"mean": mean, "target": target, "stderr": se, "n": n}
    )


def holder_report(
    series: np.ndarray,
    dt: float,
    lags: Sequence[int] = (8, 16, 32, 64, 128),
    name: str = "holder_exponent",
) -> EstimateReport:
    """Hoelder exponent of a path ensemble from mean-square increments at
    dyadic step lags: fit log E|X(t+L dt) - X(t)|**2 ~ 2 H log(L dt)."""
    series = np.atleast_2d(np.asarray(series, dtype=np.float64))
    n = series.shape[1] - 1
    msq = []
    for lag in lags:
        if lag >= n:
            raise ValueError(f"lag {lag} too long for {n} steps")
        diff = series[:, lag:] - series[:, :-lag]
        msq.append(float(np.mean(diff**2)))
    detail = {f"msq_lag_{lag}": m for lag, m in zip(lags, msq)}
    if min(msq) <= 0.0:
        # frozen series: no increments to fit, report a zero exponent
        detail["degenerate"] = 1.0
        return EstimateReport(name, 0.0, None, detail)
    slope = float(np.polyfit(np.log([lag * dt for lag in lags]), np.log(msq), 1)[0])
    detail["slope"] = slope
    return EstimateReport(name, slope / 2.0, None, detail)


# ---------------------------------------------------------------------------
# energy balance


def convex_energy(c_values: np.ndarray, grid: GridSpec, coeffs: CoefficientSet) -> float:
    """h**dim-weighted interior sum of the convex potential
    int_0^v beta_inv(w) dw at v = beta(c), by 16-point Gauss quadrature."""
    core = (slice(1, -1),) * grid.dim
    v = coeffs.beta(c_values[core]).ravel()
    x, w = _gauss01(16)
    vals = coeffs.beta_inv(v[None, :] * x[:, None])
    per_node = v * (w @ vals)
    return float(grid.spacing**grid.dim * per_node.sum())


class Frame:
    """One frame of c and y, each shaped like ``grid``, with the interior of
    c, and beta and f on it, computed once for every sum that adds it.  For a
    source that ignores y, any y of that shape gives f the same bits (``verify``
    passes c when it steps y at the center alone)."""

    def __init__(self, grid: GridSpec, coeffs: CoefficientSet, c: np.ndarray, y: np.ndarray):
        core = (slice(1, -1),) * grid.dim
        self.c, self.c_int = c, c[core]
        self.beta, self.f = coeffs.beta(self.c_int), coeffs.f(self.c_int, y[core])


class EnergySums:
    """Running sums of the discrete energy inequality over the frames of one
    path at ``times``, fed in order by ``add``: the convex energy of the
    first and the last frame, and the dissipation and source work, both
    left-endpoint sums.  ``energy_report`` feeds it stored frames, a
    streaming run its frames as they are stepped."""

    def __init__(self, grid: GridSpec, coeffs: CoefficientSet, times: np.ndarray):
        self.grid, self.coeffs, self.times = grid, coeffs, times
        self.hw = grid.spacing**grid.dim
        self.e0 = self.e_final = math.nan
        self.diss = self.work = 0.0

    def add(self, k: int, frame: Frame) -> None:
        if k == 0:
            self.e0 = convex_energy(frame.c, self.grid, self.coeffs)
        if k == len(self.times) - 1:
            self.e_final = convex_energy(frame.c, self.grid, self.coeffs)
            return
        gap = float(self.times[k + 1] - self.times[k])
        self.diss += gap * h1_seminorm(frame.c, self.grid) ** 2
        self.work += gap * self.hw * float(np.sum(frame.f * frame.c_int))

    def reports(self, theta: float, sup_c: float, clamp_mass: float) -> list[EstimateReport]:
        """The reports of ``energy_report`` once every frame is added."""
        e0 = self.e0
        measured = self.e_final + (1.0 - theta) * self.diss - self.work
        scale = max(e0, 1.0)
        return [
            EstimateReport(
                "energy_balance",
                measured,
                e0 + 1e-12 * scale,
                {"initial": e0, "final": self.e_final, "dissipation": self.diss,
                 "source_work": self.work},
            ),
            EstimateReport("sup_concentration", sup_c, None, {}),
            EstimateReport("clamped_mass", clamp_mass, None, {}),
        ]


def _add_frames(sums, run: EnsembleResult, coeffs: CoefficientSet) -> None:
    """Feed the stored frames of path 0 of ``run`` to ``sums`` in order."""
    for k in range(len(run.times)):
        sums.add(k, Frame(run.grid, coeffs, run.c[k, 0], run.y[k, 0]))


def energy_report(run: EnsembleResult, coeffs: CoefficientSet, theta: float) -> list[EstimateReport]:
    """Discrete energy inequality along the stored frames of path 0:

        E(T) + (1 - theta) * D - S_f  <=  E(0),

    with E the convex potential, D the time-integrated squared gradient and
    S_f the source work, both left-endpoint sums (see ``EnergySums``).
    Under the step bound the explicit scheme's quadratic remainder is at
    most theta times the dissipation, which is exactly the slack kept on D.
    """
    sums = EnergySums(run.grid, coeffs, run.times)
    _add_frames(sums, run, coeffs)
    return sums.reports(theta, float(np.max(run.c[:, 0])), float(run.clamp_mass[0]))


# ---------------------------------------------------------------------------
# weak-form residual


def bump_time_profile(t_final: float):
    """Compactly supported smooth window on (0, T) and its derivative."""

    def window(t, derivative: bool):
        s = 2.0 * np.asarray(t, dtype=np.float64) / t_final - 1.0
        inside = np.abs(s) < 1.0
        val = np.zeros_like(s)
        core = 1.0 - s[inside] ** 2
        val[inside] = np.exp(-1.0 / core)
        if derivative:
            val[inside] = val[inside] * (-2.0 * s[inside] / core**2) * (2.0 / t_final)
        return val

    return (lambda t: window(t, False)), (lambda t: window(t, True))


class WeakSums:
    """The per-frame terms of ``weak_residual`` for one test field over the
    n + 1 frames of a dense path, fed in order by ``add``: A_k at every
    frame and B_k at every frame but the last.  Every time window is then
    evaluated from them by ``residual``."""

    def __init__(self, grid: GridSpec, free_values: np.ndarray, n_steps: int):
        v_field = h02_embed(grid, np.asarray(free_values, dtype=np.float64))
        core = (slice(1, -1),) * grid.dim
        self.v_int = v_field.values[core]
        self.lap_int = laplacian(v_field).values[core]
        self.hw = grid.spacing**grid.dim
        self.a, self.b = np.empty(n_steps + 1), np.empty(n_steps)

    def add(self, k: int, frame: Frame) -> None:
        self.a[k] = self.hw * float(np.sum(frame.beta * self.v_int))
        if k < len(self.b):
            self.b[k] = self.hw * float(np.sum(frame.c_int * self.lap_int + frame.f * self.v_int))

    def residual(self, times: np.ndarray, dt: float, xi: Callable,
                 xi_prime: Callable) -> tuple[float, float]:
        """The raw and scale-free residual for the window ``xi`` at the
        frame ``times``, once every frame is added."""
        a, b = self.a, self.b
        xs = np.asarray(xi(times), dtype=np.float64)
        xps = np.asarray(xi_prime(times), dtype=np.float64)
        residual = a[-1] * xs[-1] - a[0] * xs[0] - dt * float(np.sum(a[:-1] * xps[:-1])) - dt * float(
            np.sum(b * xs[:-1])
        )
        t_final = float(times[-1])
        scale = (
            np.max(np.abs(a)) * (np.max(np.abs(xs)) + t_final * np.max(np.abs(xps)))
            + t_final * np.max(np.abs(b)) * np.max(np.abs(xs))
            + 1e-300
        )
        return float(residual), float(abs(residual) / scale)


def weak_residual(
    run: EnsembleResult,
    coeffs: CoefficientSet,
    free_values: np.ndarray,
    xi: Callable,
    xi_prime: Callable,
) -> tuple[float, float]:
    """Residual of the time-integrated weak form against a doubly-vanishing
    spatial test field and a smooth time window:

        A(T) xi(T) - A(0) xi(0) - sum_n dt (A_n xi'(t_n) + B_n xi(t_n)),

    A_n = (beta(c_n), v),  B_n = (c_n, lap_h v) + (f_n, v), along the dense
    frames of path 0 (see ``WeakSums``).  Returns the raw residual and a
    scale-free version.  For constant xi it telescopes to rounding; for
    smooth xi it shrinks at first order in dt.
    """
    if len(run.times) != run.n_steps + 1:
        raise ValueError("weak residual needs every step stored")
    sums = WeakSums(run.grid, free_values, run.n_steps)
    _add_frames(sums, run, coeffs)
    return sums.residual(run.times, run.dt, xi, xi_prime)


# ---------------------------------------------------------------------------
# cross-grid piecewise-constant geometry


def overlap_matrix(grid_a: GridSpec, grid_b: GridSpec) -> np.ndarray:
    """Per-axis cell-overlap lengths between the clipped half-cell partitions
    of two grids; rows sum to the cell lengths of ``grid_a``."""
    lo_a, hi_a = _cell_bounds(grid_a)
    lo_b, hi_b = _cell_bounds(grid_b)
    return np.clip(
        np.minimum(hi_a[:, None], hi_b[None, :]) - np.maximum(lo_a[:, None], lo_b[None, :]),
        0.0,
        None,
    )


def pc_cross_inner(u: Field, w: Field) -> float:
    """Exact L2 inner product of the piecewise-constant splines of two fields
    living on different (same-dimension) grids."""
    if u.grid.dim != w.grid.dim:
        raise ValueError("cross inner product needs equal dimensions")
    return float(_batched_cross(u.values, u.grid, w.values, w.grid))


def _batched_pc_norm_sq(values: np.ndarray, grid: GridSpec) -> np.ndarray:
    meas = cell_measures(grid)
    lead = values.shape[: values.ndim - grid.dim]
    sq = values**2  # a new array even of a broadcast view, so scaled in place
    sq *= meas
    return sq.reshape(lead + (-1,)).sum(axis=-1)


def _batched_cross(values_a: np.ndarray, grid_a: GridSpec, values_b: np.ndarray,
                   grid_b: GridSpec) -> np.ndarray:
    """``pc_cross_inner`` of each pair of fields along the leading axes of two
    stacks: the overlap matrix applied axis by axis, one vector-matrix
    product per leading index and grid line, so an entry's bits are those of
    its own pair, however the stacks are sliced and whatever the BLAS threads."""
    o = overlap_matrix(grid_a, grid_b)
    lead = values_a.ndim - grid_a.dim
    t = values_a
    for axis in range(lead, values_a.ndim):
        t = np.moveaxis((np.moveaxis(t, axis, -1)[..., None, :] @ o)[..., 0, :], -1, axis)
    return (t * values_b).reshape(values_b.shape[:lead] + (-1,)).sum(axis=-1)


# ---------------------------------------------------------------------------
# refinement study with coupled noise


@dataclass(frozen=True)
class RefinementLevel:
    cells: int
    dt: float
    n_steps: int
    coarsen_factor: int


@dataclass(frozen=True)
class RefinementResult:
    levels: tuple[RefinementLevel, ...]
    times: np.ndarray
    c_distances: tuple[float, ...]  # adjacent-level mean-square L2((0,T)xO) distances
    y_distances: tuple[float, ...]


def cauchy_refinement(
    config: SimConfig,
    c0_fn,
    y0,
    *,
    levels: Sequence[int] = (16, 32, 64),
    n_paths: int = 100,
    seed: int = 0,
    n_snapshots: int = 5,
    n_workers: int = 1,
) -> RefinementResult:
    """Run the same noise through a ladder of grids and measure adjacent-level
    solution distances in the exact piecewise-constant cross-grid metric.

    Each level is ``config`` on a grid of the given cells per axis.  Every
    level steps with a power-of-two multiple of the finest step, which the
    finest level resolves, so all levels see the same Brownian path at their
    own resolution and share the snapshot times.  The levels run coarse to
    fine, and each finer level takes its squared distances to the level below
    frame by frame as its lanes take the frames (see ``simulate_ensemble``).
    A level's frames are held only until the next level has read them, the
    finest level's never: y of every path, and c of every path or, when the
    paths share their c, one row a frame.
    """
    grids = [build_grid(config.grid.dim, m) for m in levels]
    configs = [replace(config, grid=g) for g in grids]
    h_fine = grids[-1].spacing

    factors = []
    for g in grids:
        ratio = (g.spacing / h_fine) ** 2
        factors.append(2 ** int(math.floor(math.log2(ratio))) if ratio >= 2.0 else 1)
    c0_fine, _ = prepare_initial(configs[-1], c0_fn, y0)
    plan = configs[-1].plan(float(np.max(c0_fine)), multiple_of=n_snapshots * max(factors))

    wiener = gen_wiener_batch(plan.n_steps, plan.dt, seed, list(range(n_paths)))
    frames, c_rows = n_snapshots + 1, n_paths if config.coeffs.source.reads_y else 1
    below, level_meta, d_sqs = None, [], []
    for i, (cf, factor) in enumerate(zip(configs, factors)):
        w = coarsen_wiener(wiener, factor)
        # (c, y): the frames a finer level reads, and the squared distances to the level below
        keep = None if i == len(levels) - 1 else tuple(
            np.empty((frames, n) + cf.grid.shape) for n in (c_rows, n_paths))
        d_sq = None if below is None else (np.empty((frames, c_rows)), np.empty((frames, n_paths)))

        def on_frames(part):  # called within this level's run
            ids = slice(part.path_ids[0], part.path_ids[-1] + 1)
            at = [(1, ids)]  # (0 for c or 1 for y, its rows); a shared c only by the chunk that holds its row
            if part.c_final.flags.writeable:
                at.append((0, ids if c_rows > 1 else slice(0, 1)))

            def frame(k: int, c, y) -> None:
                for j, rows in at:
                    v = (c, y)[j]
                    if keep is not None:
                        keep[j][k, rows] = v
                    if below is not None:
                        u, g = below[j][k, rows], grids[i - 1]
                        cross = _batched_cross(u, g, v, cf.grid)
                        d_sq[j][k, rows] = np.maximum(
                            _batched_pc_norm_sq(u, g) + _batched_pc_norm_sq(v, cf.grid) - 2.0 * cross, 0.0)

            return frame

        times = simulate_ensemble(cf, c0_fn, y0, wiener=w, n_snapshots=n_snapshots, n_workers=n_workers,
                                  on_frames=on_frames).times
        level_meta.append(RefinementLevel(cf.grid.cells_per_axis, w.dt, w.n_steps, factor))
        below = keep
        d_sqs.append(d_sq)

    tw = np.full(len(times), times[1] - times[0])
    tw[0] *= 0.5
    tw[-1] *= 0.5

    def distance(d_sq: np.ndarray) -> float:
        d_sq = np.broadcast_to(d_sq, (frames, n_paths))
        return float(math.sqrt(np.mean(np.sum(tw[:, None] * d_sq, axis=0))))

    c_dists = tuple(distance(d[0]) for d in d_sqs[1:])
    y_dists = tuple(distance(d[1]) for d in d_sqs[1:])
    return RefinementResult(tuple(level_meta), times, c_dists, y_dists)


# ---------------------------------------------------------------------------
# regularization sweep


@dataclass(frozen=True)
class SweepResult:
    eps: tuple[float, ...]
    dt: float
    gaps: tuple[float, ...]  # sup |beta_eps - beta| over the reachable range
    c_distances: tuple[float, ...]  # successive-eps mean-square L2 distances at T


def sweep_plan(config: SimConfig, eps_values: Sequence[float], c0_max: float) -> tuple[list[SimConfig], StepPlan]:
    """(``config`` at each eps, largest first, its beta regularized there; the plan they share: the stiffest's)."""
    m = config.coeffs.beta_family.m
    configs = [replace(config, coeffs=config.coeffs.with_beta(regularize_beta(m, e)))
               for e in sorted(eps_values, reverse=True)]
    return configs, max((cf.plan(c0_max) for cf in configs), key=lambda p: p.n_steps)


def epsilon_sweep(
    config: SimConfig,
    eps_values: Sequence[float],
    c0_fn,
    y0,
    *,
    n_paths: int = 20,
    seed: int = 0,
    n_workers: int = 1,
) -> SweepResult:
    """Rerun the same data and noise under shrinking regularization and
    measure how fast successive solutions approach each other.

    Each run is ``config`` with its nonlinearity replaced by the
    regularization of exponent ``config.coeffs.beta_family.m`` at one eps.
    """
    eps_values = tuple(sorted(eps_values, reverse=True))
    grid = config.grid
    c0_max = float(np.max(prepare_initial(config, c0_fn, y0)[0]))
    configs, plan = sweep_plan(config, eps_values, c0_max)
    wiener = gen_wiener_batch(plan.n_steps, plan.dt, seed, list(range(n_paths)))

    finals = [simulate_ensemble(cf, c0_fn, y0, wiener=wiener, n_workers=n_workers).c_final
              for cf in configs]
    gaps = [beta_gap(cf.coeffs.beta_family, max(2.0 * c0_max, 1.0)) for cf in configs]
    hw = grid.spacing**grid.dim
    core = (slice(None),) + (slice(1, -1),) * grid.dim
    dists = []
    for i in range(len(finals) - 1):
        diff = finals[i] - finals[i + 1]
        core_sq = (diff[core] ** 2).reshape(n_paths, -1).sum(axis=-1) * hw
        dists.append(float(math.sqrt(np.mean(core_sq))))
    return SweepResult(eps_values, plan.dt, tuple(gaps), tuple(dists))


# ---------------------------------------------------------------------------
# closed-form benchmark


@dataclass(frozen=True)
class BenchmarkResult:
    cells: int
    dt: float
    rel_error: float
    detail: dict


def barenblatt_error(cells: int, *, t_final: float = 0.1) -> BenchmarkResult:
    """Relative space-time L2 error of the conservative variable beta(c)
    against the self-similar profile for m = 2, started at t0 = 0.05 with
    mass 0.05 and read at 11 frames, run source-free with Dirichlet data;
    the support must stay strictly inside the domain over the horizon."""
    m, t0, mass = 2.0, 0.05, 0.05
    if barenblatt_support_radius(t0 + t_final, m, mass) >= 0.5:
        raise ValueError("self-similar support leaves the domain on this horizon")
    grid = build_grid(1, cells)
    coeffs = make_coefficients(pme_beta(m))
    config = SimConfig(grid, coeffs, BoundaryKind.DIRICHLET, t_final=t_final)

    def c0(x):
        return barenblatt_profile(x[..., 0], t0, m, mass) ** m

    run = simulate_path(config, c0, 0.0, seed=0, n_snapshots=10)
    xs = grid.node_points()[..., 0]
    tw = np.full(len(run.times), run.times[1] - run.times[0])
    tw[0] *= 0.5
    tw[-1] *= 0.5
    err_sq = 0.0
    ref_sq = 0.0
    h = grid.spacing
    for k, t in enumerate(run.times):
        exact = barenblatt_profile(xs, t0 + t, m, mass)
        num = coeffs.beta(run.c[k, 0])
        err_sq += tw[k] * h * float(np.sum((num[1:-1] - exact[1:-1]) ** 2))
        ref_sq += tw[k] * h * float(np.sum(exact[1:-1] ** 2))
    rel = math.sqrt(err_sq / ref_sq)
    return BenchmarkResult(
        cells, run.dt, rel,
        {"n_steps": run.n_steps, "clamp_mass": float(run.clamp_mass[0]),
         "support_radius": barenblatt_support_radius(t0 + t_final, m, mass)},
    )


# ---------------------------------------------------------------------------
# derivative-pair diagnostics


def malliavin_report_steps(n_steps: int, r_index: int, stride: int) -> list[int]:
    """Steps at which :func:`malliavin_report` reads a derivative pair seeded
    at ``r_index``: every ``stride`` steps after the seed, ending at
    ``n_steps``."""
    idx = list(range(r_index + stride, n_steps + 1, stride))
    if idx and idx[-1] != n_steps:
        idx.append(n_steps)
    return idx


def malliavin_report(
    slices: Sequence[MalliavinSlice],
    grid: GridSpec,
    r_index: int,
    stride: int,
) -> list[EstimateReport]:
    """Size and time regularity of one derivative pair from its slices at
    :func:`malliavin_report_steps`: L2 norms of the recovered concentration
    derivative, the SDE derivative, and the negative-order norm of the
    discrete time slope of z."""
    sup_drc = max(lp_norm(Field(grid, s.drc), 2.0, "interior") for s in slices)
    sup_dry = max(lp_norm(Field(grid, s.dry), 2.0, "full") for s in slices)
    sup_z = max(lp_norm(Field(grid, s.z), 2.0, "interior") for s in slices)
    slope = 0.0
    for s0, s1 in zip(slices, slices[1:]):
        gap = s1.t - s0.t
        dz = Field(grid, (s1.z - s0.z) / gap)
        slope = max(slope, hminus2_norm(dz))
    return [
        EstimateReport("derivative_drc_sup_l2", sup_drc, None, {"r_index": r_index}),
        EstimateReport("derivative_dry_sup_l2", sup_dry, None, {}),
        EstimateReport("derivative_z_sup_l2", sup_z, None, {}),
        EstimateReport("derivative_z_time_slope_hm2", slope, None, {"stride": stride}),
    ]


# ---------------------------------------------------------------------------
# transform diagnostics


def transform_report(big_phi: TabulatedTransform, psi: TabulatedTransform) -> list[EstimateReport]:
    """Structural checks on the tabulated pair: monotonicity along both axes,
    sign of the mixed partial, and the inversion round trip."""
    out = []
    for name, table in (("big_phi", big_phi), ("psi", psi)):
        viol_k = max(0.0, -float(np.min(np.diff(table.table, axis=0))))
        viol_d = max(0.0, -float(np.min(np.diff(table.table, axis=1))))
        out.append(EstimateReport(f"{name}_monotone_violation", max(viol_k, viol_d), 1e-12))
    _, _, mixed = big_phi.mixed_partial()
    out.append(EstimateReport("big_phi_mixed_partial_min", max(0.0, -float(np.min(mixed))), 1e-12))
    d_mid = float(psi.d_grid[len(psi.d_grid) // 2])
    col_max = float(psi.column(d_mid)[-1])
    values = np.linspace(0.0, col_max, 37)
    ks = invert_psi(psi, values, d_mid)
    back = psi.eval(ks, np.full_like(ks, d_mid))
    rt = float(np.max(np.abs(back - values)))
    out.append(EstimateReport("psi_round_trip", rt, 1e-8 * max(col_max, 1e-300)))
    return out

