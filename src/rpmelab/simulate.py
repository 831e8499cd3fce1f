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
import contextlib
import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .grid import BoundaryKind, Field, GridSpec, _band_laplacian, _stencil
from .model import CoefficientSet, r2_bound

# most paths per processing chunk; chunk sizes never depend on the worker count
_CHUNK = 128
# cap on the recorded frames (c and y) of one chunk; a chunk shrinks to fit
_FRAME_BYTES = 8 * 2**20
# cap on the live step state of one chunk (see path_bytes); a chunk shrinks
# to fit: at most 70 paths of a 2D 32^2 grid
_STATE_BYTES = 5 * 2**20
# the shared c of a wave: K + 1 slots of a c row and its v-gates, a step
# charged 9 bytes a node and _SLOT_VIEWS, for the lanes to read a block of
# K steps from; K is 29 at 2D 32^2
_BLOCK_BYTES = 420 * 2**10
# the numpy views of a _CSlot with v-gates, about 1.3 KiB in 1D, 2.2 KiB in
# 2D and 3.2 KiB in 3D, so a small grid cannot fill the budget with
# thousands of slots
_SLOT_VIEWS = 4 * 2**10
# steps of seeded noise drawn at a time; a Philox stream gives the same bits
# in any blocking, so this bounds the noise buffer and changes no result
_NOISE_BLOCK = 512
# where a c half reads or writes c (see StepBuffers.slot)
_CSlot = collections.namedtuple("_CSlot", "c band shifts faces rows mass v_gate gate_band")


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
    in two copies each (a step reads one and writes the other), three
    scratch arrays (the Laplacian, reused for the noise and drift terms, and
    two for the update of v) and the coefficient scratch, all shaped like the
    state, plus one boundary face and the clamp mass per leading index; with
    ``gates``, the clamp gates of the last step (v+ < 0 on the update band,
    y+ < 0) as boolean masks.  ``half`` "c" or "y" keeps only the arrays of
    that half of a step (see ``step``), and a y half gets a y scratch of its
    own.  What a step reads is bound once: the ``slot`` of each copy of c,
    the ``own`` views of a step from each copy and, at the first step under
    a coefficient set, the in-place cores of f, beta, beta_inv, a and b,
    which get the coefficient scratch, so a warm step is a flat run of
    ufuncs.  A step returns views of these, valid until its next step."""

    def __init__(self, grid: GridSpec, lead: tuple[int, ...] = (), gates: bool = False,
                 half: str | None = None):
        shape = tuple(lead) + grid.shape
        self.dim, self.h, self.cell = grid.dim, grid.spacing, grid.spacing**grid.dim
        self.c, self.y, self.v_gate, self.y_gate, self.coeffs = (), (), None, None, None
        self.tmp = np.empty(shape)
        if half != "y":
            self.c = (np.empty(shape), np.empty(shape))
            self.lap, self.v, self.u = np.empty(shape), np.empty(shape), np.empty(shape)
            self.face = np.empty(shape[:-1])
            self.mass = np.empty(shape[: len(lead)])
            self.v_gate = np.zeros(shape, bool) if gates else None
            # the flat band of the update (see step), the interior of v and
            # its copy at the head of u, whose rows the clamp mass sums
            self.lap_b, self.v_b, self.u_b = (_stencil(a, grid.dim)[0] for a in (self.lap, self.v, self.u))
            self.tmp_b = self.tmp.reshape(-1)[: self.v_b.size]
            self.v_int = self.v[(Ellipsis,) + (slice(1, -1),) * grid.dim]
            self.clamped = self.u.reshape(-1)[: self.v_int.size].reshape(self.v_int.shape)
            self.clamp_rows = self.clamped.reshape(self.mass.shape + (-1,))
        if half != "c":
            self.y = (np.empty(shape), np.empty(shape))
            self.y_scratch = self.lap if half is None else np.empty(shape)
            self.y_gate = np.zeros(shape, bool) if gates else None
        self.slots = tuple(self.slot(c, self.mass, self.v_gate) for c in self.c)
        # (slot of c, y band, slot of the new c, new y) of a step from each copy
        self.own = tuple((src, _stencil(y, grid.dim)[0], dst, y_new) for src, y, dst, y_new
                         in zip(self.slots, self.y, self.slots[::-1], self.y[::-1]))

    def bind(self, coeffs: CoefficientSet) -> None:
        """Take the cores ``core(*args, out, tmp)`` of f, beta, beta_inv, a
        and b of ``coeffs``; a plain callable gets ``out`` alone."""
        self.coeffs, fns = coeffs, (coeffs.f, coeffs.beta, coeffs.beta_inv, coeffs.a, coeffs.b)
        self.f, self.beta, self.beta_inv, self.a, self.b = (
            getattr(fn, "core", None) or (lambda *a, fn=fn: fn(*a[:-2], out=a[-2])) for fn in fns)

    def slot(self, c: np.ndarray, mass: np.ndarray, v_gate: np.ndarray | None) -> _CSlot:
        """Where a c half reads or writes ``c``: (c, its update band, the
        band's Laplacian neighbours, its face pairs and rows per leading
        index, and the clamp mass, v-gates and v-gate band of that step)."""
        gate_b = None if v_gate is None else _stencil(v_gate, self.dim)[0]
        return _CSlot(c, *_stencil(c, self.dim), _face_pairs(c, self.dim), c.reshape(len(c), -1),
                      mass, v_gate, gate_b)


def path_bytes(grid: GridSpec, frames: int) -> int:
    """Bytes a chunk is charged per path: eight arrays over all nodes (the
    workspace of a lane that steps c and y: c and y in two copies, three
    scratch arrays and the coefficient scratch, see ``StepBuffers``), and
    ``frames`` stored frames of c and y in float64.  A lane of a one-way
    run holds four (y, its copy, the y scratch and the coefficient scratch),
    but is charged eight all the same: at four, ensemble-2d's chunks would
    double and its peak RSS grow by about 10% (from the workspace sizes)."""
    return 8 * 8 * grid.n_nodes + 16 * grid.n_nodes * frames


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
) -> StepResult:
    """One explicit step, ``_c_half`` then ``_y_half``.  ``c`` and ``y`` have
    trailing grid shape (leading axes are independent paths) and ``c``
    already satisfies the boundary rule; ``dW`` broadcasts against the
    leading axes.  ``c_new``, the slot with v-gates that a c half from ``c``
    wrote elsewhere, leaves only the y half to this call; ``c`` may then be
    one row that b broadcasts to every path of ``y``.

    Every intermediate goes into ``work`` and the new state into the copies
    of c and y in ``work`` that do not hold the input, so a loop that passes
    each result back in allocates nothing.  A step of c reads c and y from
    the copies in ``work`` and raises ``ValueError`` for other arrays; with
    ``work`` None they are copied into a fresh workspace, a one-row c into
    every path.  The update of v runs on the flat band of ``laplacian_core``
    (boundary nodes inside it get scratch values that the boundary rule then
    replaces); per node the operations and their order are those of the
    formulas in the module docstring.
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
        work.v_gate = c_new.v_gate
    _y_half(c, y, y_new, dW, dt, work)
    return StepResult(c_new.c, y_new, c_new.mass)


def _c_half(src: _CSlot, y_b, dst: _CSlot, bc, dt: float, work: StepBuffers) -> None:
    """v+ = beta(c) + dt * (lap_h c + f(c, y)) clamped at zero, c+ = beta_inv(v+)
    under the boundary rule, from slot ``src`` to slot ``dst`` in ``work``; f gets ``y_b``."""
    v, clamped, c_new_b, mass, tmp = work.v_b, work.clamped, dst.band, dst.mass, work.tmp_b
    _band_laplacian(work.lap_b, src.band, src.shifts, work.h)
    np.add(work.lap_b, work.f(src.band, y_b, v, tmp), out=v)
    v *= dt
    np.add(work.beta(src.band, work.u_b, tmp), v, out=v)
    # the clamp mass sums the interior per path, contiguous as in the formula
    clamped[...] = work.v_int  # a ufunc on the strided view would buffer
    np.minimum(clamped, 0.0, out=clamped)
    np.add.reduce(work.clamp_rows, axis=-1, out=mass)
    mass *= -work.cell
    if dst.gate_band is not None:
        np.less(v, 0.0, out=dst.gate_band)
    np.maximum(v, 0.0, out=v)
    res = work.beta_inv(v, c_new_b, tmp)
    if res is not c_new_b:
        c_new_b[...] = res
    _impose_bc(dst.faces, bc, work.face)


def _y_half(c: np.ndarray, y: np.ndarray, y_new: np.ndarray, dw, dt: float, work: StepBuffers) -> None:
    """y+ = max(y + a(y) dW + b(c, y) dt, 0) into ``y_new``, its gates into ``work``."""
    scratch = work.y_scratch  # the Laplacian's array, used up, in a workspace of c and y
    scratch[...] = dw  # a ufunc broadcasting dw would buffer
    np.multiply(work.a(y, y_new, work.tmp), scratch, out=y_new)
    np.add(y, y_new, out=y_new)
    np.multiply(work.b(c, y, scratch, work.tmp), dt, out=scratch)
    np.add(y_new, scratch, out=y_new)
    if work.y_gate is not None:
        np.less(y_new, 0.0, out=work.y_gate)
    np.maximum(y_new, 0.0, out=y_new)


# ---------------------------------------------------------------------------
# result type


@dataclass
class EnsembleResult:
    """Per-path terminal data and running statistics, path axis first.

    ``c_sup`` and ``c_min`` are recorded by seeded runs only.  With
    snapshots, ``times`` holds the stored times and ``c`` and ``y`` the
    frames, shaped (frames, paths, *grid.shape); the frames stay None when
    they went to an ``on_chunk`` callback instead.
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
    times: np.ndarray | None = None
    c: np.ndarray | None = None
    y: np.ndarray | None = None

    def _paths(self, rows: slice) -> EnsembleResult:
        """View of the paths in ``rows``; writing into it fills this result."""

        def cut(a, lead=()):
            return None if a is None else a[lead + (rows,)]

        return replace(
            self, path_ids=self.path_ids[rows], c_final=self.c_final[rows],
            y_final=self.y_final[rows], c_sup=cut(self.c_sup), c_min=cut(self.c_min),
            clamp_mass=self.clamp_mass[rows], c=cut(self.c, (slice(None),)),
            y=cut(self.y, (slice(None),)),
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


def _track(part: EnsembleResult, n: int, dst: _CSlot) -> None:
    """Adds step n's clamp mass and, if ``part.c_sup`` is set, the sup and min
    of its new c, in slot ``dst``, to ``part``; raises ``NumericalAbort`` at a non-finite sup."""
    part.clamp_mass += dst.mass
    if part.c_sup is not None:
        np.maximum(part.c_sup, np.maximum.reduce(dst.rows, axis=1), out=part.c_sup)
        np.minimum(part.c_min, np.minimum.reduce(dst.rows, axis=1), out=part.c_min)
        # the sup starts finite and never falls, so its max is finite
        # exactly when every entry is: NaN and +inf both propagate
        if not math.isfinite(np.maximum.reduce(part.c_sup)):
            bad = int(part.path_ids[int(np.argmin(np.isfinite(part.c_sup)))])
            raise NumericalAbort(f"non-finite c at step {n} of {part.n_steps} (path {bad})")


def _wave_c(config: SimConfig, part: EnsembleResult, block: int, on_step):
    """(slots, advance) of the one c of the paths of ``part``, for a source
    that ignores y; lanes fill slot 0, ``advance(n)`` takes and ``_track``s
    step n into slot n % (block + 1), with v-gates if ``on_step`` reads them."""
    work = StepBuffers(config.grid, (1,), half="c")
    work.bind(config.coeffs)
    c = np.empty((block + 1, 1) + config.grid.shape)
    v_gate = np.zeros(c.shape, bool) if getattr(on_step, "reads_gates", False) else [None] * len(c)
    slots = [work.slot(*row) for row in zip(c, np.empty((len(c), 1)), v_gate)]

    def advance(n: int) -> None:
        src, dst = slots[(n - 1) % len(slots)], slots[n % len(slots)]
        _c_half(src, src.band, dst, config.bc, part.dt, work)  # f ignores y
        _track(part, n, dst)

    return slots, advance


def _lane(config: SimConfig, c_init, y_init, noise, part: EnsembleResult, stride: int, on_step, slots):
    """``run(start, stop)``: steps start + 1 to stop of the paths of ``part``
    under the (paths, steps) blocks of increments of ``noise``, in one
    workspace of c and y (c ``_track``ed here) or of y, c read from ``slots``;
    the terminal state and, if ``part.c`` is set, frames every ``stride``
    steps go to ``part``.  Every operation and reduction is per path, so
    batching never changes a bit.  ``on_step(res, c, y, dw, work)`` gets each
    step, its start state, increments and workspace, gates if it ``reads_gates``."""
    grid, coeffs, bc, dt = config.grid, config.coeffs, config.bc, part.dt
    gates = getattr(on_step, "reads_gates", False)
    work = StepBuffers(grid, (len(part.path_ids),), gates, None if slots is None else "y")
    c, y = work.c[0] if slots is None else slots[0].c, work.y[0]
    c[...], y[...] = c_init, y_init
    ring = slots or [None]  # c_new of step n for step: a slot, or None to step c here
    # each step's increments, and a view of them that broadcasts over the nodes
    dws = (pair for block in noise for pair in zip(block.T, block.T[(Ellipsis,) + (None,) * grid.dim]))
    if part.c is not None:
        part.c[0], part.y[0] = c_init, y_init

    def run(start: int, stop: int) -> None:
        nonlocal c, y
        for n, (dw, dw_nodes) in zip(range(start + 1, stop + 1), dws):
            res = step(c, y, grid, coeffs, bc, dt, dw_nodes, work, ring[n % len(ring)])
            if on_step is not None:
                on_step(res, c, y, dw, work)
            if slots is None:
                _track(part, n, work.slots[res.c is work.c[1]])
            c, y = res.c, res.y
            if part.c is not None and n % stride == 0:
                part.c[n // stride], part.y[n // stride] = c, y
        if stop == part.n_steps:
            part.c_final[...], part.y_final[...] = c, y

    return run


def _run_wave(runs: list, advance, n_steps: int, block: int, pool) -> None:
    """Run each lane's ``run`` over all steps, ``block`` steps at a time: the
    first lane here, the others on ``pool``, each block once ``advance`` has
    stepped their shared c through it.  Raises the first error in path
    order, an abort of ``advance`` at step m failing every lane at step m;
    lanes after a failed one stop, those before it go on."""
    error = None
    for start in range(0, n_steps, block):
        stop, abort = min(start + block, n_steps), None
        if advance is not None:
            try:
                for n in range(start + 1, stop + 1):
                    advance(n)
            except NumericalAbort as exc:
                stop, abort = n, exc
        futures = [pool.submit(run, start, stop) for run in runs[1:]]
        runs[0](start, stop)  # an error here is the first in path order
        if abort is not None:
            raise abort
        failed = [i for i, future in enumerate(futures, 1) if future.exception() is not None]
        if failed:
            runs, error = runs[: failed[0]], futures[failed[0] - 1].exception()
    if error is not None:
        raise error


# ---------------------------------------------------------------------------
# drivers


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
    on_chunk: Callable[[EnsembleResult], None] | None = None,
    on_step: Callable | None = None,
) -> EnsembleResult:
    """Independent paths from one initial state, path_id = first_path_id + k.

    The noise is either ``n_paths`` seeded streams (those of ``gen_wiener``,
    drawn ``_NOISE_BLOCK`` steps at a time) or the explicit increments
    ``wiener``, one path per row, which pin dt and the step count.  A seeded
    run resolves the step grid ``simulate_path`` uses for the same
    ``n_snapshots``, so path k is bitwise the one-path result of
    ``simulate_path(..., path_id=k)``; it also records
    the per-path sup and min of c and raises ``NumericalAbort`` at the first
    step where a path's c is not finite.

    Paths run in chunks of at most ``_CHUNK``, shrunk so their step state
    fits ``_STATE_BYTES`` and their frames ``_FRAME_BYTES``, then evened out,
    and the chunks in waves of ``n_workers`` lanes (see ``_run_wave``), one
    workspace a lane.  When f ignores y, this thread steps the one c of
    every wave, of one lane or several, in blocks of steps that fit
    ``_BLOCK_BYTES`` and its lanes step only y.  Results are bitwise independent of the chunking and the worker
    count.  With ``n_snapshots`` every chunk records ``n_snapshots + 1``
    uniformly spaced frames: into its paths of the result's frame stacks,
    or, given ``on_chunk``, into frames of its own that are passed to
    ``on_chunk`` in path order after its wave (at most ``n_workers`` chunks
    alive) and dropped once it returns.  ``on_step`` sees each step of the
    first path's chunk, on this thread, that path in row 0.
    """
    grid = config.grid
    c_init, y_init = prepare_initial(config, c0, y0)
    if wiener is None:
        if n_paths is None or n_paths < 1:
            raise ValueError("n_paths must be positive")
        dt, n_steps = config.resolve_steps(float(np.max(c_init)), multiple_of=n_snapshots or 1)
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

    chunk, stride = min(_CHUNK, _STATE_BYTES // path_bytes(grid, 0)), 0
    if n_snapshots:
        stride = n_steps // n_snapshots
        # the frames alone: the step state has its own cap above
        frame_bytes = path_bytes(grid, n_snapshots + 1) - path_bytes(grid, 0)
        chunk = min(chunk, _FRAME_BYTES // frame_bytes)
    n_chunks = -(-n_paths // max(1, chunk))
    chunk = -(-n_paths // n_chunks)  # as many chunks, evened out

    def frames(k):
        return np.empty((n_snapshots + 1, k) + grid.shape) if n_snapshots else None

    keep = on_chunk is None
    c_frames, y_frames = (frames(n_paths), frames(n_paths)) if keep else (None, None)
    shape = (n_paths,) + grid.shape
    seeded = wiener is None
    result = EnsembleResult(
        grid=grid,
        dt=dt,
        n_steps=n_steps,
        path_ids=np.arange(first_path_id, first_path_id + n_paths, dtype=np.int64),
        # the last kept frame is the terminal state
        c_final=np.empty(shape) if c_frames is None else c_frames[-1],
        y_final=np.empty(shape) if y_frames is None else y_frames[-1],
        c_sup=np.full(n_paths, np.max(c_init)) if seeded else None,
        c_min=np.full(n_paths, np.min(c_init)) if seeded else None,
        clamp_mass=np.zeros(n_paths),
        times=np.arange(0, n_steps + 1, stride) * dt if n_snapshots else None,
        c=c_frames,
        y=y_frames,
    )

    def lane(rows, part, slots):
        if not keep:
            part.c, part.y = frames(len(part.path_ids)), frames(len(part.path_ids))
        noise = _philox_blocks(seed, part.path_ids, dt, n_steps, _NOISE_BLOCK) if seeded else [inc[rows]]
        first = on_step if rows.start == 0 else None
        return _lane(config, c_init, y_init, noise, part, stride, first, slots)

    chunks = [slice(i, i + chunk) for i in range(0, n_paths, chunk)]
    width, block = max(1, n_workers), max(1, min(n_steps, _BLOCK_BYTES // (9 * grid.n_nodes + _SLOT_VIEWS)))
    pool = concurrent.futures.ThreadPoolExecutor(width - 1) if min(width, len(chunks)) > 1 else None
    with pool or contextlib.nullcontext():  # a thread pool only for waves of several lanes
        for wave in (chunks[i : i + width] for i in range(0, len(chunks), width)):
            slots = advance = None
            if not config.coeffs.source.reads_y:
                span = result._paths(slice(wave[0].start, wave[-1].stop))
                slots, advance = _wave_c(config, span, block, on_step if wave[0].start == 0 else None)
            # the lanes, and their workspaces, are freed as the wave returns
            parts = [result._paths(rows) for rows in wave]
            _run_wave([lane(*args, slots) for args in zip(wave, parts)], advance, n_steps, block, pool)
            if on_chunk is not None:
                for part in parts:
                    on_chunk(part)
                    part.c = part.y = None
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
    ``wiener``, which pin dt and the step count, or else under
    ``gen_wiener(..., seed, path_id)`` on the step grid a seeded ensemble
    resolves for ``n_snapshots``.  Frames kept, shaped (frames, 1,
    *grid.shape): every step when ``store_dense``, otherwise
    ``n_snapshots + 1`` uniformly spaced frames (default: first and last)."""
    if wiener is None:
        c, _ = prepare_initial(config, c0, y0)
        dt, n_steps = config.resolve_steps(float(np.max(c)), multiple_of=n_snapshots or 1)
        wiener = gen_wiener(n_steps, dt, seed, path_id)
    elif wiener.increments.ndim != 1:
        raise ValueError("simulate_path needs a single-path wiener")
    keep = wiener.n_steps if store_dense else n_snapshots or 1
    return simulate_ensemble(config, c0, y0, wiener=wiener, first_path_id=path_id, n_snapshots=keep)


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
