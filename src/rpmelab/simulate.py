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
for the no-flux case and interior mass of v is conserved when f = 0.  When
the terms declare a(y) = sigma y and b(c, y) = kappa c - rho y, the y update
takes the affine form, the same to a few ulps, in three to five passes over y:

    y+ = max(y * (1 + sigma dW - rho dt) + (kappa dt) * c, 0).

With alpha_k = 1 + sigma dW_k - rho dt >= 0 the clamp cannot bite, so when
every path reads one c (f ignores y), B such steps from y_0 take the block
form, the same to a few ulps, in one contraction over the B rows of c:

    y_B = (prod_k alpha_k) * y_0 + (kappa dt) * sum_k (prod_{j>k} alpha_j) * c_k.

Everything is written against trailing grid axes, so a leading path axis
turns the scalar stepper into the ensemble engine with bit-identical
per-path arithmetic.
"""
from __future__ import annotations

import collections
import concurrent.futures
import contextlib
import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .grid import BoundaryKind, Field, GridSpec, _band_laplacian, _stencil
from .model import CoefficientSet, r2_bound

# most paths per processing chunk; chunk sizes never depend on the worker count
_CHUNK = 128
# cap on the live step state of one chunk (see path_bytes); a chunk shrinks
# to fit: at most 70 paths of a 2D 32^2 grid
_STATE_BYTES = 5 * 2**20
# the shared c of a wave: K + 1 slots of a c row, a step charged the 8
# bytes a node of its row and _SLOT_VIEWS, for the lanes to read a block of
# K steps from; K is 98 in 1D at 32 cells and 32 at 2D 32^2
_BLOCK_BYTES = 420 * 2**10
# the numpy views of a _CSlot, about 1.3 KiB in 1D, 2.4 KiB in 2D and
# 3.3 KiB in 3D, so a small grid cannot fill the budget with thousands of
# slots
_SLOT_VIEWS = 4 * 2**10
# steps of seeded noise drawn at a time, rounded up to whole blocks of K; a
# Philox stream gives the same bits in any blocking, so this bounds the
# noise buffer and changes no result
_NOISE_BLOCK = 512
# fewest steps that a lane takes in the block form (see _lane): whole steps
# in us, blocks of 2 / 3 against the step loop, one BLAS thread, 2-vCPU
# x86-64 host: 21.2 / 18.8 vs 18.0-19.9 for 1 path of 1D 8 cells,
# 23.6 / 21.6 vs 21.7-22.1 for 32 paths of 1D 32 cells, 31.0 / 27.8 vs
# 29.8-30.0 for 16 paths of 2D 16^2, 126.4 / 110.6 vs 123.8-127.8 for 64
# paths of 2D 32^2
_MIN_BLOCK = 3
# ln 1e300: a block whose y bound (see _lane) reaches this steps step by step
_REACH = 690.0
# where a c half reads or writes c (see StepBuffers.slot)
_CSlot = collections.namedtuple("_CSlot", "c band shifts faces rows mass")


class SchemaError(ValueError):
    """Configuration rejected; ``key`` names the offending entry."""

    def __init__(self, key: str, message: str):
        super().__init__(f"config key {key!r}: {message}")
        self.key = key


class NumericalAbort(RuntimeError):
    """The state stopped being finite."""


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


def gen_wiener(n_steps: int, dt: float, seed: int, path_id: int = 0) -> WienerPath:
    """Counter-based stream keyed by (seed, path_id); identical arguments
    reproduce identical increments regardless of call order."""
    return WienerPath(dt, gen_wiener_batch(n_steps, dt, seed, [path_id]).increments[0])


def gen_wiener_batch(n_steps: int, dt: float, seed: int, path_ids: Sequence[int]) -> WienerPath:
    """One ``gen_wiener`` stream per path id, paths on the leading axis."""
    if n_steps < 1:
        raise ValueError("n_steps must be at least 1")
    (inc,) = _philox_blocks(seed, path_ids, dt, n_steps, n_steps)
    return WienerPath(dt, inc)


def _philox_blocks(seed: int, path_ids, dt: float, n_steps: int, block: int):
    """The increments of the Philox stream keyed by (seed, path_id) of each
    path, ``block`` steps at a time, as (paths, steps) arrays.  Every block
    is written into the same buffer, so a block is valid until the next one
    is drawn."""
    mask = 0xFFFFFFFFFFFFFFFF
    # an explicit u64 key: numpy reads a list holding an int >= 2**63 as
    # float64, which merges neighbouring seeds and wraps 2**64 - 1 to 0
    keys = [np.array([seed & mask, int(pid) & mask], np.uint64) for pid in path_ids]
    streams = [np.random.Generator(np.random.Philox(key=key)) for key in keys]
    buf = np.empty((len(streams), min(block, n_steps)))
    scale = math.sqrt(dt)
    for start in range(0, n_steps, buf.shape[1]):
        out = buf[:, : min(buf.shape[1], n_steps - start)]
        for gen, row in zip(streams, out):
            gen.standard_normal(out=row)
        out *= scale
        yield out


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


# a run's step grid (see SimConfig.plan): n_steps steps of dt landing on t_final, the a priori
# sup radius (r2_bound) and key, the config key that set the step: "dt" for an override, else "theta"
StepPlan = collections.namedtuple("StepPlan", "dt n_steps radius key")


@dataclass(frozen=True)
class SimConfig:
    """Run description: discretization, coefficients, horizon, step control.

    ``plan`` resolves the step grid of a run, the one place that does:
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

    def plan(self, c0_max: float, multiple_of: int = 1) -> StepPlan:
        """The step grid from ``c0_max``: the target step, the override or the
        CFL bound at the radius ``r2_bound`` over the horizon, rounded so
        n_steps is a multiple of ``multiple_of`` and dt * n_steps == t_final;
        under an override a radius that overflows is inf.  ``SchemaError``
        names t_final for one under theta or a step below the smallest normal
        float, the step's key for a target that is not a positive float with
        a finite step count."""
        try:
            with np.errstate(over="ignore"):
                radius = r2_bound(self.t_final, c0_max, self.coeffs.beta_family)
        except OverflowError:
            radius = math.inf
        if self.dt is None and not math.isfinite(radius):
            raise SchemaError("t_final", f"the growth radius over {self.t_final!r} overflows")
        key, target = ("dt", self.dt) if self.dt is not None else (
            "theta", cfl_dt(self.grid, self.coeffs, radius, self.theta))
        if not (target > 0.0 and math.isfinite(self.t_final / target)):
            raise SchemaError(key, f"step {target!r} gives no finite step count over t_final {self.t_final!r}")
        n = max(1, math.ceil(self.t_final / target - 1e-12))
        n = multiple_of * math.ceil(n / multiple_of)
        if not self.t_final / n >= np.finfo(np.float64).tiny:
            raise SchemaError("t_final", f"a step of {self.t_final / n!r} is below the smallest normal float")
        return StepPlan(self.t_final / n, n, radius, key)


# ---------------------------------------------------------------------------
# boundary handling and the single step


def apply_bc(values: np.ndarray, grid: GridSpec, bc: BoundaryKind) -> np.ndarray:
    """Reimpose the boundary rule on the trailing grid axes (leading axes
    pass through).  Returns a new array."""
    out = np.array(values, dtype=np.float64, copy=True)
    _impose_bc(_face_pairs(out, grid.dim), bc, np.empty(out.shape[:-1]))
    return out


def _face_pairs(values: np.ndarray, dim: int) -> list:
    """(face, inner neighbour layer) views of ``values``, axis by axis."""
    pairs = []
    for k in range(dim):
        rest = (slice(None),) * (dim - 1 - k)
        pairs += [(values[(Ellipsis, 0) + rest], values[(Ellipsis, 1) + rest]),
                  (values[(Ellipsis, -1) + rest], values[(Ellipsis, -2) + rest])]
    return pairs


def _impose_bc(pairs: list, bc: BoundaryKind, face_buf: np.ndarray) -> None:
    """Boundary rule in place on the face ``pairs`` of an array: zero faces
    for Dirichlet; for no-flux each face copies its inner neighbour layer in
    axis order, so a later axis carries the edges an earlier one set and
    every boundary node ends up with its reflected interior partner.  Copies
    go through ``face_buf`` (one face), as one within the array allocates."""
    for face, inner in pairs:
        if bc is BoundaryKind.DIRICHLET:
            face.fill(0.0)
        else:
            face_buf[...] = inner
            face[...] = face_buf


class StepBuffers:
    """Workspace for repeated steps of one C-contiguous state shape: c and y
    in two copies each (a step reads one and writes the other), three scratch
    arrays (the Laplacian, reused for the noise and drift terms, and two for
    the update of v) and the coefficient scratch, all shaped like the state,
    plus one boundary face, the clamp mass and the alpha of an affine y update
    (see ``_y_half``; a lane copies it in) per leading index; with ``gates``,
    the clamp gates of the last step (v+ < 0 on the update band, y+ < 0) as
    boolean masks.  ``half`` "c" or "y" keeps only the arrays, gate included,
    of that half of a step (see ``step``), and a y half gets a y scratch of
    its own.  What a step reads is bound once: the ``slot`` of each copy of c,
    the (paths, nodes) ``y_rows`` of each copy of y, ``alpha_op`` (0-d alpha
    on one path, else None), the ``own`` views of a step from each copy and,
    at the first step under a coefficient set, the in-place cores of f, beta,
    beta_inv, a and b, which get the coefficient scratch, and the affine form
    of a and b if they declare one, so a warm step is a flat run of ufuncs.  A
    step returns views of these, valid until its next step."""

    def __init__(self, grid: GridSpec, lead: tuple[int, ...] = (), gates: bool = False,
                 half: str | None = None):
        shape = tuple(lead) + grid.shape
        self.dim, self.h, self.cell = grid.dim, grid.spacing, grid.spacing**grid.dim
        self.c, self.y, self.v_gate, self.y_gate, self.coeffs = (), (), None, None, None
        self.y_clamped, self.y_last = True, None  # see _y_half
        self.tmp = np.empty(shape)
        if half != "y":
            self.c = (np.empty(shape), np.empty(shape))
            self.lap, self.v, self.u = np.empty(shape), np.empty(shape), np.empty(shape)
            self.face = np.empty(shape[:-1])
            self.mass = np.empty(shape[: len(lead)])
            self.v_gate = np.zeros(shape, bool) if gates else None
            # the flat band of the update (see step) and of its gate, the
            # interior of v and its copy at the head of u, whose rows the clamp mass sums
            self.lap_b, self.v_b, self.u_b = (_stencil(a, grid.dim)[0] for a in (self.lap, self.v, self.u))
            self.gate_b = None if self.v_gate is None else _stencil(self.v_gate, grid.dim)[0]
            self.tmp_b = self.tmp.reshape(-1)[: self.v_b.size]
            self.v_int = self.v[(Ellipsis,) + (slice(1, -1),) * grid.dim]
            self.clamped = self.u.reshape(-1)[: self.v_int.size].reshape(self.v_int.shape)
            self.clamp_rows = self.clamped.reshape(self.mass.shape + (-1,))
        if half != "c":
            self.y = (np.empty(shape), np.empty(shape))
            self.y_scratch = self.lap if half is None else np.empty(shape)
            self.alpha = np.empty(shape[: len(lead)] + (1,) * grid.dim)
            self.alpha_op = self.alpha.reshape(()) if self.alpha.size == 1 else None
            self.y_rows = tuple(a.reshape(self.alpha.size, -1) for a in self.y)
            self.y_gate = np.zeros(shape, bool) if gates else None
        self.slots = tuple(self.slot(c, self.mass) for c in self.c)
        # (slot of c, y band, slot of the new c, new y) of a step from each copy
        self.own = tuple((src, _stencil(y, grid.dim)[0], dst, y_new) for src, y, dst, y_new
                         in zip(self.slots, self.y, self.slots[::-1], self.y[::-1]))

    def bind(self, coeffs: CoefficientSet) -> None:
        """Take the cores ``core(*args, out, tmp)`` of f, beta, beta_inv, a
        and b of ``coeffs``; a plain callable gets ``out`` alone.  ``affine``
        is (sigma, kappa, rho) when a(y) = sigma y and b = kappa c - rho y."""
        self.coeffs, fns = coeffs, (coeffs.f, coeffs.beta, coeffs.beta_inv, coeffs.a, coeffs.b)
        self.f, self.beta, self.beta_inv, self.a, self.b = (
            getattr(fn, "core", None) or (lambda *a, fn=fn: fn(*a[:-2], out=a[-2])) for fn in fns)
        slope, drift = coeffs.noise.slope, coeffs.drift.affine
        self.affine = None if slope is None or drift is None else (slope, *drift)

    def slot(self, c: np.ndarray, mass: np.ndarray) -> _CSlot:
        """Where a c half reads or writes ``c``: (c, its update band, the
        band's Laplacian neighbours, its face pairs and rows per leading
        index, and the clamp mass of that step)."""
        return _CSlot(c, *_stencil(c, self.dim), _face_pairs(c, self.dim), c.reshape(len(c), -1), mass)


def path_bytes(grid: GridSpec) -> int:
    """Bytes a chunk is charged per path: the eight state-sized arrays of a
    lane that steps c and y (see ``StepBuffers``; a one-way lane holds four,
    but at four ensemble-2d's chunks would double and its peak RSS grow by
    about 8%, measured).  Stored frames go to the chunk's frame hook as they
    are taken, so they are not charged."""
    return 8 * 8 * grid.n_nodes


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
    work: StepBuffers | None = None,
    c_new: _CSlot | None = None,
    alpha_min=None,
) -> StepResult:
    """One explicit step, ``_c_half`` then ``_y_half``.  ``c`` and ``y`` have
    trailing grid shape (leading axes are independent paths) and ``c``
    already satisfies the boundary rule; ``dW`` broadcasts against the
    leading axes.  ``c_new``, the slot that a c half from ``c`` wrote
    elsewhere, leaves only the y half to this call; ``c`` may then be one
    row that b broadcasts to every path of ``y``; see ``_y_half`` for ``alpha_min``.

    Every intermediate goes into ``work`` and the new state into the copies
    of c and y in ``work`` that do not hold the input, so a loop that passes
    each result back in allocates nothing.  A step of c reads c and y from
    the copies in ``work`` and raises ``ValueError`` for other arrays; with
    ``work`` None they are copied into a fresh workspace, a one-row c into
    every path.  The update of v runs ``_band_laplacian`` on ``_stencil``'s
    flat band (boundary nodes inside it get scratch values that the boundary
    rule then replaces); per node the operations and their order are those
    of the formulas in the module docstring, for y those of the declared form.
    """
    if work is None:
        work = StepBuffers(grid, y.shape[: y.ndim - grid.dim])
        work.c[0][...], work.y[0][...] = c, y
        c, y = work.c[0], work.y[0]
    if work.coeffs is not coeffs:
        work.bind(coeffs)
    if getattr(dW, "ndim", None) != y.ndim and y.ndim > grid.dim:  # one increment per path
        dW = np.reshape(dW, np.shape(dW) + (1,) * grid.dim)
    if c_new is None:
        i = y is work.y[1]
        if c is not work.c[i] or y is not work.y[i]:
            raise ValueError("a step of c reads c and y from a copy of each in its workspace")
        src, y_b, c_new, y_new = work.own[i]
        _c_half(src, y_b, c_new, bc, dt, work)
    else:
        y_new = work.y[1] if y is work.y[0] else work.y[0]
    _y_half(c, y, y_new, dW, dt, work, alpha_min)
    return StepResult(c_new.c, y_new, c_new.mass)


def _c_half(src: _CSlot, y_b, dst: _CSlot, bc, dt: float, work: StepBuffers) -> None:
    """v+ = beta(c) + dt * (lap_h c + f(c, y)) clamped at zero (a no-op, skipped, with no v-gate and v > 0
    on the whole band), c+ = beta_inv(v+) under the boundary rule, from slot ``src`` to slot ``dst`` in
    ``work``; f gets ``y_b``."""
    v, clamped, c_new_b, mass, tmp = work.v_b, work.clamped, dst.band, dst.mass, work.tmp_b
    _band_laplacian(work.lap_b, src.band, src.shifts, work.h)
    np.add(work.lap_b, work.f(src.band, y_b, v, tmp), out=v)
    v *= dt
    np.add(work.beta(src.band, work.u_b, tmp), v, out=v)
    if work.gate_b is None and np.minimum.reduce(v) > 0.0:
        mass.fill(-0.0)
    else:
        # the clamp mass sums the interior per path, contiguous as in the formula
        clamped[...] = work.v_int  # a ufunc on the strided view would buffer
        np.minimum(clamped, 0.0, out=clamped)
        np.add.reduce(work.clamp_rows, axis=-1, out=mass)
        mass *= -work.cell
        if work.gate_b is not None:
            np.less(v, 0.0, out=work.gate_b)
        np.maximum(v, 0.0, out=v)
    res = work.beta_inv(v, c_new_b, tmp)
    if res is not c_new_b:
        c_new_b[...] = res
    _impose_bc(dst.faces, bc, work.face)


def _y_half(c, y, y_new: np.ndarray, dw, dt: float, work: StepBuffers, alpha_min=None) -> None:
    """y+ = max(y + a(y) dW + b(c, y) dt, 0), or its ``work.affine`` form, into ``y_new``, gates into ``work``.
    alpha comes from ``dw``, or from ``work.alpha`` as a caller that passes its minimum ``alpha_min`` wrote it.
    alpha y reads the 0-d ``work.alpha_op`` on one path, else a filled copy of alpha (a ufunc broadcasting
    alpha would buffer).  The clamp is skipped while every alpha >= 0 and y is this
    workspace's last y: as kappa, c >= 0, y+ has no negative or -0.0 entry, and the y gate stays all False."""
    scratch, bites = work.y_scratch, True  # the Laplacian's array, used up, in a workspace of c and y
    if work.affine is None:
        scratch[...] = dw  # a ufunc broadcasting dw would buffer
        np.multiply(work.a(y, y_new, work.tmp), scratch, out=y_new)
        np.add(y, y_new, out=y_new)
        np.multiply(work.b(c, y, scratch, work.tmp), dt, out=scratch)
        np.add(y_new, scratch, out=y_new)
    else:
        sigma, kappa, rho = work.affine
        alpha, op = work.alpha, work.alpha_op
        if alpha_min is None:
            np.multiply(sigma, dw, out=alpha)  # 1 + sigma dW - rho dt, in that order
            alpha += 1.0
            alpha -= rho * dt
        if op is None:
            scratch[...] = alpha  # as for dw above
            op = scratch
        np.multiply(y, op, out=y_new)
        if c.shape == y.shape:
            np.multiply(kappa * dt, c, out=scratch)
        else:  # one c row for every path: kappa dt c once, at the head of tmp
            scratch[...] = np.multiply(kappa * dt, c, out=work.tmp[:1])
        y_new += scratch
        # a NaN alpha fails the test, so the clamp runs
        bites = y is not work.y_last or not (alpha.min() if alpha_min is None else alpha_min) >= 0.0
    if bites:
        if work.y_gate is not None:
            np.less(y_new, 0.0, out=work.y_gate)
        np.maximum(y_new, 0.0, out=y_new)
    elif work.y_clamped and work.y_gate is not None:
        work.y_gate.fill(False)
    work.y_clamped, work.y_last = bites, y_new


def _y_block(y, alphas, c, kappa_dt: float, out, scratch, suffix) -> None:
    """The block form of the affine y steps of the (steps, paths) ``alphas``, two or more, every one
    >= 0, from the (paths, nodes) ``y`` into ``out``, c the (steps, nodes) rows at their starts: the
    suffix products prod_{j>k} alpha_j in ``suffix``, their sum against c by one einsum into
    ``scratch``.  The einsum calls no BLAS and sums in a fixed order, so a path gets the same bits in
    any set of paths."""
    w = suffix[: len(alphas)]
    w[-1] = 1.0
    np.multiply.accumulate(alphas[:0:-1], axis=0, out=w[-2::-1])
    np.einsum("kp,kn->pn", w, c, out=scratch, optimize=False)
    scratch *= kappa_dt
    w[0] *= alphas[0]
    out[...] = w[0, :, None]  # A y by a filled copy of A, as _y_half: a broadcasting ufunc would buffer
    out *= y
    out += scratch


# ---------------------------------------------------------------------------
# result type


@dataclass
class EnsembleResult:
    """Per-path terminal data and running statistics, path axis first.

    ``c_sup`` and ``c_min`` are the sup and min of c over every step.  With
    snapshots, ``times`` holds the stored times and ``c`` and ``y`` the
    frames, shaped (frames, paths, *grid.shape); the frames stay None when
    they went to an ``on_frames`` hook instead.  When every path shares its
    c (a source that ignores y), ``c_final`` and ``c`` are read-only views of
    one row, with stride 0 along the path axis.
    """

    grid: GridSpec
    dt: float
    n_steps: int
    path_ids: np.ndarray
    c_final: np.ndarray
    y_final: np.ndarray
    c_sup: np.ndarray
    c_min: np.ndarray
    clamp_mass: np.ndarray
    times: np.ndarray | None = None
    c: np.ndarray | None = None
    y: np.ndarray | None = None

    def _paths(self, rows: slice) -> EnsembleResult:
        """View of the paths in ``rows``; writing into its writable arrays
        fills this result (the views of a shared c are read-only)."""

        def cut(frames):
            return None if frames is None else frames[:, rows]

        return replace(
            self, path_ids=self.path_ids[rows], c_final=self.c_final[rows],
            y_final=self.y_final[rows], c_sup=self.c_sup[rows], c_min=self.c_min[rows],
            clamp_mass=self.clamp_mass[rows], c=cut(self.c), y=cut(self.y),
        )


# ---------------------------------------------------------------------------
# initial data


def _coerce_values(grid: GridSpec, data, name: str) -> np.ndarray:
    if isinstance(data, Field):
        if data.grid != grid:
            raise ValueError(f"{name} lives on a different grid")
        values = np.array(data.values, copy=True)
    elif isinstance(data, np.ndarray) and data.shape == grid.shape:
        values = np.array(data, dtype=np.float64)
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
    """Initial state from a constant, a ``Field``, an array of the grid's
    shape or a function of the node points, each checked to be finite and
    nonnegative."""
    c = apply_bc(_coerce_values(config.grid, c0, "c0"), config.grid, config.bc)
    y = _coerce_values(config.grid, y0, "y0")
    return c, y


# ---------------------------------------------------------------------------
# the stepping loop


def _abort(name: str, n: int, part: EnsembleResult, sups) -> NumericalAbort:
    """The abort at step n naming the first of ``part``'s paths whose sup of ``name`` in ``sups`` is not finite."""
    return NumericalAbort(f"non-finite {name} at step {n} of {part.n_steps} "
                          f"(path {part.path_ids[np.argmin(np.isfinite(sups))]})")


def _track(part: EnsembleResult, n: int, dst: _CSlot) -> None:
    """Adds step n's clamp mass and the sup and min of its new c, in slot ``dst``, to ``part`` (a
    lane's own c: see ``_wave_c``); raises ``NumericalAbort`` at a non-finite sup."""
    part.clamp_mass += dst.mass
    np.maximum(part.c_sup, np.maximum.reduce(dst.rows, axis=1), out=part.c_sup)
    np.minimum(part.c_min, np.minimum.reduce(dst.rows, axis=1), out=part.c_min)
    # the sup starts finite and never falls, so its max is finite
    # exactly when every entry is: NaN and +inf both propagate
    if not math.isfinite(np.maximum.reduce(part.c_sup)):
        raise _abort("c", n, part, part.c_sup)


def _wave_c(config: SimConfig, part: EnsembleResult, block: int):
    """(slots, advance) of the one c of the paths of ``part``, for a source that ignores y (no v-gates:
    its tangent has no z); lanes fill slot 0.  ``advance(start, stop)`` steps start + 1 to stop into
    slot n % (block + 1), adds to ``part`` what ``_track`` adds per step (the sup from each step's row
    max, the min once a block), ties taking the new value, and returns (stop, None) or the first step
    whose row max, finite iff the row is (c >= 0), is not, and its abort."""
    work = StepBuffers(config.grid, (1,), half="c")
    work.bind(config.coeffs)
    c = np.empty((block + 1, 1) + config.grid.shape)
    slots = [work.slot(*row) for row in zip(c, np.empty((len(c), 1)))]

    def advance(start: int, stop: int):
        n, abort, mass, sup, low = start, None, part.clamp_mass[0], part.c_sup[0], part.c_min[0]
        while n < stop and abort is None:
            n += 1
            src, dst = slots[(n - 1) % len(c)], slots[n % len(c)]
            _c_half(src, src.band, dst, config.bc, part.dt, work)  # f ignores y
            mass, top = mass + dst.mass[0], np.maximum.reduce(dst.rows, axis=None)
            sup = sup if sup > top else top
            if not math.isfinite(top):
                abort = _abort("c", n, part, [top])
        first, last = (start + 1) % len(c), n % len(c) + 1
        for span in (c[first:last],) if first < last else (c[first:], c[:last]):
            new = np.minimum.reduce(span, axis=None)
            low = low if low < new else new
        part.clamp_mass[...], part.c_sup[...], part.c_min[...] = mass, sup, low
        return n, abort

    return slots, advance


def _lane(config: SimConfig, c_init, y_init, noise, part: EnsembleResult, stride, on_step, slots, block, frame):
    """``run(start, stop)``: steps start + 1 to stop of the paths of ``part``
    under the (paths, steps) blocks of increments of ``noise``, in one
    workspace of c and y (c ``_track``ed here) or of y, c read from ``slots``;
    the terminal state goes to ``part``, c where ``part`` holds it writable
    (a shared c's row: only in the first chunk), and, given ``frame``, the
    state every ``stride`` steps to ``frame(k, c, y)`` as frame k, the
    initial one at once, c one row for every path when it is read from
    ``slots``; affine alphas come ``block`` steps at a time.  A y entry that
    is not finite stays so but under an alpha < 0, whose clamp turns
    alpha * inf into 0, so ``run`` raises ``NumericalAbort`` at a y not
    finite at ``stop`` or before such a step.
    Every operation and reduction is per path, so batching never changes a
    bit.  ``on_step(res, c, y, dw, work)`` gets each step, its start state,
    increments and workspace, which then keeps the gates of the halves stepped here.

    A lane that reads c from ``slots`` under the affine y, with no ``on_step``
    and frames ``stride`` >= ``_MIN_BLOCK`` steps apart or none (0), takes y
    from frame to frame in the block form (``_y_block``), in blocks cut at the
    multiples of ``stride``, at the ends of runs, multiples of ``block``, and
    where the slots of c wrap around, multiples of ``block + 1``, so they
    never depend on the chunking.  A path takes a block of
    ``_MIN_BLOCK`` or more steps that way when its alphas in it are >= 0 and a
    bound of every y either form reaches in it, from its y, its largest alpha
    and the shared c's sup, is below 1e300; otherwise y is stepped step by
    step, so an abort or a floating-point warning is that of the step loop.
    A block reads its c rows and its alphas as one slice each, the noise
    coming in whole blocks from ``simulate_ensemble``; in a run that does not
    start at a multiple of ``block`` y is stepped step by step."""
    grid, coeffs, bc, dt = config.grid, config.coeffs, config.bc, part.dt
    paths = len(part.path_ids)
    work = StepBuffers(grid, (paths,), on_step is not None, None if slots is None else "y")
    work.bind(coeffs)
    c, y = work.c[0] if slots is None else slots[0].c, work.y[0]
    c[...], y[...] = c_init, y_init
    if frame is not None:
        frame(0, c, y)
    ring = slots or [None]  # c_new of step n for step: a slot, or None to step c here
    noise = (inc[:, i : i + block].T for inc in noise for i in range(0, inc.shape[1], block))
    held, first = ((),) * 4, 0
    if work.affine is not None:
        (sigma, kappa, rho), alpha = work.affine, work.alpha.reshape(-1)
        alphas, mins = np.empty((block, paths)), np.empty(block)
    blocked = not 0 < stride < _MIN_BLOCK and slots is not None and work.affine is not None and on_step is None
    if blocked:  # the ring's c rows; block sums in the y scratch, which steps write too: tmp past row 0 stays unpaged
        c_rows, scratch = slots[0].c.base.reshape(len(slots), -1), work.y_scratch.reshape(paths, -1)
        suffix = np.empty_like(alphas)
        work.y_last = np.maximum(y, 0.0, out=y)  # the first step's clamp, ahead: a -0.0 of y turns +0.0

    # the block of increments that holds increment m, also viewed over the nodes, its alphas and their
    # minima; and m's index in it
    def fetch(m: int):
        nonlocal held, first
        if m - first >= len(held[0]):
            first, dws = first + len(held[0]), next(noise)
            rows = lows = (None,) * len(dws)
            if work.affine is not None:  # 1 + sigma dW - rho dt, as _y_half forms it
                rows = alphas[: len(dws)]
                np.copyto(rows, dws)  # a ufunc reading the transposed dws would buffer
                rows *= sigma
                rows += 1.0
                rows -= rho * dt
                lows = np.minimum.reduce(rows, axis=1, out=mins[: len(dws)])
            held = dws, dws[(Ellipsis,) + (None,) * grid.dim], rows, lows
        return held, m - first

    def finite(n: int) -> None:  # y >= 0, so its max is finite exactly when every entry is
        if not math.isfinite(np.maximum.reduce(rows := work.y_rows[y is work.y[1]], axis=None)):
            raise _abort("y", n, part, np.maximum.reduce(rows, axis=1))

    def each_step(start: int, stop: int, take=frame) -> None:
        nonlocal c, y
        for n in range(start + 1, stop + 1):
            (dws, dw_nodes, rows, lows), i = fetch(n - 1)
            if (low := lows[i]) is not None:
                np.copyto(alpha, rows[i])
                if not low >= 0.0:  # the clamp after a negative alpha turns alpha * inf into 0
                    finite(n - 1)
            res = step(c, y, grid, coeffs, bc, dt, dw_nodes[i], work, ring[n % len(ring)], low)
            if on_step is not None:
                on_step(res, c, y, dws[i], work)
            if slots is None:
                _track(part, n, work.slots[res.c is work.c[1]])
            c, y = res.c, res.y
            if take is not None and n % stride == 0:
                take(n // stride, c, y)

    def by_block(start: int, stop: int) -> None:
        nonlocal c, y
        (_, _, rows, lows), i = fetch(start)
        n, j = stop - start, y is work.y[1]
        if i + n > len(rows):  # a run that does not start at a multiple of block
            return each_step(start, stop)
        rows, y_rows, cs = rows[i : i + n], work.y_rows[j], c_rows[start % len(ring) :][:n]
        reach = n * part.c_sup[0] * max(1.0, kappa * dt)  # the sup through this block's c
        # y stays below top**n * (max y + reach) in either form; NaN fails every test
        top = max(1.0, np.maximum.reduce(rows, axis=None))
        if np.minimum.reduce(lows[i : i + n]) >= 0.0 and n * math.log(top) + math.log1p(
                np.maximum.reduce(y_rows, axis=None) + reach) < _REACH:
            _y_block(y_rows, rows, cs, kappa * dt, work.y_rows[1 - j], scratch, suffix)
            y = work.y_last = work.y[1 - j]
        else:  # the same tests path by path: the step loop, then the block form where it holds
            with np.errstate(all="ignore"):
                grows = n * np.log(np.maximum(np.maximum.reduce(rows, axis=0), 1.0))
                ok = np.flatnonzero((np.minimum.reduce(rows, axis=0) >= 0.0) & (
                    grows + np.log1p(np.maximum.reduce(y_rows, axis=1) + reach) < _REACH))
            kept = np.empty((len(ok), y_rows.shape[1]))
            _y_block(y_rows[ok], rows[:, ok], cs, kappa * dt, kept, np.empty_like(kept), np.empty((n, len(ok))))
            each_step(start, stop, None)
            work.y_rows[y is work.y[1]][ok] = kept
        c = ring[stop % len(ring)].c
        if frame is not None and stop % stride == 0:
            frame(stop // stride, c, y)

    def run(start: int, stop: int) -> None:
        n = start
        while n < stop:  # a blocked lane to each frame and to each wrap of the slots of c
            end = stop if not blocked else min(
                stop, n + len(ring) - n % len(ring), n + stride - n % stride if stride else stop)
            (by_block if blocked and end - n >= _MIN_BLOCK else each_step)(n, end)
            n = end
        finite(stop)
        if stop == part.n_steps:
            part.y_final[...] = y
            if part.c_final.flags.writeable:  # a shared c: only the chunk that holds its row
                part.c_final[...] = c

    return run


def _run_wave(runs: list, advance, n_steps: int, block: int, pool) -> None:
    """Run each lane's ``run`` over all steps, ``block`` steps at a time: the
    first lane here, the others on ``pool``, each block once ``advance`` has
    stepped their shared c through it.  Raises the first error in path
    order, once no lane runs, an abort of ``advance`` at step m failing every
    lane at step m; lanes after a failed one stop, those before it go on."""
    error = None
    for start in range(0, n_steps, block):
        stop, abort = advance(start, min(start + block, n_steps))
        futures = [pool.submit(run, start, stop) for run in runs[1:]]
        try:
            runs[0](start, stop)  # an error here is the first in path order
        finally:
            concurrent.futures.wait(futures)
        if abort is not None:
            raise abort
        failed = [i for i, future in enumerate(futures, 1) if future.exception() is not None]
        if failed:
            runs, error = runs[: failed[0]], futures[failed[0] - 1].exception()
    if error is not None:
        raise error


# ---------------------------------------------------------------------------
# drivers


def _kept(part: EnsembleResult):
    """The default ``on_frames``: a ``frame(k, c, y)`` that writes frame k into
    ``part``'s paths of the result's frame stacks; the frames of a shared c
    only in the chunk that holds its row."""

    def frame(k: int, c, y) -> None:
        part.y[k] = y
        if part.c.flags.writeable:
            part.c[k] = c

    return frame


def simulate_ensemble(
    config: SimConfig,
    c0,
    y0,
    *,
    n_paths: int | None = None,
    wiener: WienerPath | None = None,
    seed: int = 0,
    first_path_id: int = 0,
    n_workers: int = 1,
    n_snapshots: int | None = None,
    on_frames: Callable = _kept,
    on_step: Callable | None = None,
) -> EnsembleResult:
    """Independent paths from one initial state, path_id = first_path_id + k.

    The noise is either ``n_paths`` seeded streams (those of ``gen_wiener``,
    drawn ``_NOISE_BLOCK`` steps at a time) or the explicit increments
    ``wiener``, one path per row, which pin dt and the step count.  A seeded
    run takes its step grid from ``config.plan``, a multiple of
    ``n_snapshots`` steps, and path k is bitwise the one-path result of
    ``simulate_path(..., path_id=k)``.  Every run records the per-path sup
    and min of c and raises ``NumericalAbort`` at the first step where a
    path's c is not finite, and at a path's y that is not, checked where no
    step can clamp it back (see ``_lane``).

    Paths run in chunks of at most ``_CHUNK``, shrunk so their step state
    fits ``_STATE_BYTES``, then evened out, and the chunks in waves of
    ``n_workers`` lanes (see ``_run_wave``), one workspace a lane.  When f
    ignores y, this thread steps the one c of every wave, of one lane or
    several, in blocks of steps that fit ``_BLOCK_BYTES`` and its lanes step
    only y; under the affine y, a lane without ``on_step`` takes y from frame
    to frame in the block form, in blocks cut at the frames and at the blocks
    of c, so at the same steps in every chunking (see ``_lane``).  Results are
    bitwise independent of the chunking, the worker count and the BLAS
    threads.  With ``n_snapshots`` each lane hands every one of the
    ``n_snapshots + 1`` uniformly spaced frames of its chunk, frame 0 too,
    as it takes it, to the ``frame(k, c, y)`` that ``on_frames(part)``
    returns as the wave starts (a None gets no frame), ``part`` the chunk's
    paths of the result, on the lane's thread, y a row a path and c one row
    for all when the wave shares its c, else a row a path; by default into
    the result's frame stacks.  A c that every path shares is held once:
    ``c_final`` and the kept ``c`` are read-only views of one row, which
    only the first chunk's ``part`` holds writable, so its lane, on this
    thread, writes each frame and the terminal c once.  ``on_step`` sees
    each step of the first path's chunk and its clamp gates, on this
    thread, that path in row 0.
    """
    grid = config.grid
    c_init, y_init = prepare_initial(config, c0, y0)
    if wiener is None:
        if n_paths is None or n_paths < 1:
            raise ValueError("n_paths must be positive")
        dt, n_steps, _, _ = config.plan(float(np.max(c_init)), multiple_of=n_snapshots or 1)
    else:
        if n_paths is not None:
            raise ValueError("pass either n_paths or wiener")
        dt, n_steps = wiener.dt, wiener.n_steps
        inc = wiener.increments.reshape(-1, n_steps)
        n_paths = inc.shape[0]
        if abs(wiener.t_final - config.t_final) > 1e-9 * config.t_final:
            raise ValueError("wiener horizon does not match t_final")
        if n_snapshots and n_steps % n_snapshots:
            raise ValueError("snapshot count must divide the step count")

    n_chunks = -(-n_paths // max(1, min(_CHUNK, _STATE_BYTES // path_bytes(grid))))
    chunk = -(-n_paths // n_chunks)  # as many chunks, evened out
    stride = n_steps // n_snapshots if n_snapshots else 0
    shape, shared = (n_paths,) + grid.shape, not config.coeffs.source.reads_y
    # c and y, frames first when kept, the last kept frame the terminal state; a shared c is one row
    frames, last = ((n_snapshots + 1,), -1) if n_snapshots and on_frames is _kept else ((), Ellipsis)
    c_rows = np.empty(frames + (1 if shared else n_paths,) + grid.shape)
    c_held, y_held = np.broadcast_to(c_rows, frames + shape) if shared else c_rows, np.empty(frames + shape)
    result = EnsembleResult(
        grid=grid,
        dt=dt,
        n_steps=n_steps,
        path_ids=np.arange(first_path_id, first_path_id + n_paths, dtype=np.int64),
        c_final=c_held[last],
        y_final=y_held[last],
        c_sup=np.full(n_paths, np.max(c_init)),
        c_min=np.full(n_paths, np.min(c_init)),
        clamp_mass=np.zeros(n_paths),
        times=np.arange(0, n_steps + 1, stride) * dt if n_snapshots else None,
        c=c_held if frames else None,
        y=y_held if frames else None,
    )

    def lane(rows, slots):
        part = result._paths(rows)
        if shared and rows.start == 0:  # the first chunk, on this thread, writes the row of c
            part = replace(part, c_final=c_rows[last], c=c_rows if frames else None)
        frame = on_frames(part) if n_snapshots else None
        noise = [inc[rows]] if wiener is not None else _philox_blocks(
            seed, part.path_ids, dt, n_steps, -(-_NOISE_BLOCK // block) * block)
        first = on_step if rows.start == 0 else None
        return _lane(config, c_init, y_init, noise, part, stride, first, slots, block, frame)

    chunks = [slice(i, i + chunk) for i in range(0, n_paths, chunk)]
    width, block = max(1, n_workers), max(1, min(n_steps, _BLOCK_BYTES // (8 * grid.n_nodes + _SLOT_VIEWS)))
    pool = concurrent.futures.ThreadPoolExecutor(width - 1) if min(width, len(chunks)) > 1 else None
    with pool or contextlib.nullcontext():  # a thread pool only for waves of several lanes
        for wave in (chunks[i : i + width] for i in range(0, len(chunks), width)):
            slots, advance = None, lambda start, stop: (stop, None)  # c stepped in every lane
            if shared:
                slots, advance = _wave_c(config, result._paths(slice(wave[0].start, wave[-1].stop)), block)
            # the lanes, their workspaces and frame hooks, are freed as the wave returns
            _run_wave([lane(rows, slots) for rows in wave], advance, n_steps, block, pool)
    return result


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
) -> EnsembleResult:
    """The one-path ``simulate_ensemble`` result under the increments
    ``wiener``, which pin dt and the step count, or else a seeded ensemble of
    the one path ``path_id``.  Frames kept, shaped (frames, 1, *grid.shape):
    every step when ``store_dense``, otherwise ``n_snapshots + 1`` uniformly
    spaced frames (default: first and last)."""
    if wiener is not None and wiener.increments.ndim != 1:
        raise ValueError("simulate_path needs a single-path wiener")
    keep = n_snapshots or 1
    if store_dense:  # a step count that is a multiple of keep rounds to itself
        keep = wiener.n_steps if wiener is not None else config.plan(
            float(np.max(prepare_initial(config, c0, y0)[0])), multiple_of=keep).n_steps
    noise = {"n_paths": 1, "seed": seed} if wiener is None else {"wiener": wiener}
    return simulate_ensemble(config, c0, y0, **noise, first_path_id=path_id, n_snapshots=keep)


# ---------------------------------------------------------------------------
# conserved quantity


def interior_v_mass(c: np.ndarray, grid: GridSpec, coeffs: CoefficientSet):
    """h**dim-weighted interior sum of the conserved variable beta(c): a
    float for one state, an array over the leading axes of a stack of
    states, each summed in the order ``np.sum`` sums a single state."""
    lead = c.shape[: c.ndim - grid.dim]
    core = (Ellipsis,) + (slice(1, -1),) * grid.dim
    mass = grid.spacing**grid.dim * coeffs.beta(c[core]).reshape(lead + (-1,)).sum(axis=-1)
    return mass if lead else float(mass)
