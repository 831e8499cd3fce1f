"""The workspace step: bitwise equal to the step formulas written as plain
numpy expressions, free of allocations once warm, and the coefficient `out=`
contract it relies on; plus chunking invariance and the non-finite abort of
the ensemble driver."""
import contextlib
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from rpmelab import grid as grid_module, model, simulate
from rpmelab.analysis import cauchy_refinement, epsilon_sweep
from rpmelab.cli import main
from rpmelab.grid import BoundaryKind, build_grid, laplacian_core
from rpmelab.model import (
    NoiseTerm,
    SourceTerm,
    make_coefficients,
    pme_beta,
    preset_coefficients,
    regularize_beta,
)
from rpmelab.malliavin import (
    MalliavinState,
    TangentBuffers,
    init_malliavin,
    perturbation_oracle,
    propagate_path,
    recover_drc,
    step_malliavin,
)
from rpmelab.simulate import (
    EnsembleResult,
    NumericalAbort,
    SimConfig,
    StepBuffers,
    WienerPath,
    apply_bc,
    cfl_dt,
    gen_wiener,
    interior_v_mass,
    simulate_ensemble,
    simulate_path,
    step,
)

SETTINGS = settings(max_examples=40, deadline=None)


def readme_terms():
    return dict(
        f=preset_coefficients("logistic_f", {"lambda": 0.5, "K": 5.0}),
        a=preset_coefficients("linear_a", {"sigma": 0.3}),
        b=preset_coefficients("coupling_b", {"kappa": 0.5, "rho": 0.4}),
    )


COEFFS = {
    "readme": make_coefficients(pme_beta(2.0), **readme_terms()),
    "regularized": make_coefficients(regularize_beta(2.0, 1e-3), **readme_terms()),
    "decaying": make_coefficients(
        pme_beta(3.0),
        f=preset_coefficients("logistic_f", {"lambda": 1.3, "K": 1.5, "mu_y": 0.7}),
        a=preset_coefficients("saturating_a", {"sigma": 0.4}),
        b=preset_coefficients("coupling_b", {"kappa": 0.2, "rho": 1.1}),
    ),
    "zero": make_coefficients(pme_beta(2.0)),
}


def reference_laplacian(values, h, dim):
    """Interior Laplacian summed axis by axis over strided slices."""
    core = (Ellipsis,) + (slice(1, -1),) * dim
    acc = (-2.0 * dim) * values[core]
    for k in range(dim):
        for sl in (slice(2, None), slice(0, -2)):
            idx = [slice(1, -1)] * dim
            idx[k] = sl
            acc = acc + values[(Ellipsis,) + tuple(idx)]
    return acc / (h * h)


def reference_step(c, y, grid, coeffs, bc, dt, dW):
    """The step formulas with fresh arrays and a fancy-index boundary rule."""
    dim, h = grid.dim, grid.spacing
    lead = c.shape[: c.ndim - dim]
    core = (Ellipsis,) + (slice(1, -1),) * dim
    c_int, y_int = c[core], y[core]
    v_new = coeffs.beta(c_int) + dt * (reference_laplacian(c, h, dim) + coeffs.f(c_int, y_int))
    clamp = -(h**dim) * np.minimum(v_new, 0.0).reshape(lead + (-1,)).sum(axis=-1)
    c_new = np.array(c, copy=True)
    c_new[core] = coeffs.beta_inv(np.maximum(v_new, 0.0))
    flat = c_new.reshape(lead + (-1,))
    bidx = np.flatnonzero(grid.boundary_mask())
    if bc is BoundaryKind.DIRICHLET:
        flat[..., bidx] = 0.0
    else:
        flat[..., bidx] = flat[..., grid.reflect_flat().ravel()[bidx]]
    dw = np.asarray(dW, dtype=np.float64)
    dw = dw.reshape(dw.shape + (1,) * dim)
    y_new = np.maximum(y + coeffs.a(y) * dw + coeffs.b(c, y) * dt, 0.0)
    return c_new, y_new, clamp


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


CELLS = {1: 12, 2: 7, 3: 4}


@st.composite
def states(draw):
    dim = draw(st.integers(1, 3))
    grid = build_grid(dim, draw(st.integers(2, CELLS[dim])))
    paths = draw(st.integers(1, 5))
    bc = draw(st.sampled_from(list(BoundaryKind)))
    coeffs = COEFFS[draw(st.sampled_from(sorted(COEFFS)))]
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    shape = (paths,) + grid.shape
    c = apply_bc(rng.uniform(0.0, 2.0, shape), grid, bc)
    y = rng.uniform(0.0, 2.0, shape)
    return grid, bc, coeffs, c, y, rng


@SETTINGS
@given(states())
def test_band_laplacian_matches_the_strided_sum_bitwise(state):
    grid, _, _, c, _, _ = state
    ref = reference_laplacian(c, grid.spacing, grid.dim)
    assert same_bits(laplacian_core(c, grid.spacing, grid.dim), ref)
    out = np.full(c.shape, np.nan)
    got = laplacian_core(c[0], grid.spacing, grid.dim, out=out[0])
    assert got.base is not None and same_bits(got, ref[0])


@SETTINGS
@given(states(), st.floats(1e-6, 1e-2), st.integers(1, 4))
def test_workspace_step_matches_the_formulas_bitwise(state, dt, n_steps):
    grid, bc, coeffs, c, y, rng = state
    work = StepBuffers(grid, c.shape[:1])
    work.c[0][...], work.y[0][...] = c, y
    cw, yw = work.c[0], work.y[0]
    with np.errstate(all="ignore"):
        for _ in range(n_steps):
            dw = rng.standard_normal(c.shape[0]) * np.sqrt(dt)
            c_ref, y_ref, clamp_ref = reference_step(c, y, grid, coeffs, bc, dt, dw)
            fresh = step(c, y, grid, coeffs, bc, dt, dw)
            res = step(cw, yw, grid, coeffs, bc, dt, dw, work=work)
            for got in (fresh, res):
                assert same_bits(got.c, c_ref)
                assert same_bits(got.y, y_ref)
                assert same_bits(got.clamp_mass, clamp_ref)
            c, y, cw, yw = c_ref, y_ref, res.c, res.y


@SETTINGS
@given(states(), st.floats(0.05, 1.0), st.integers(1, 5))
def test_step_keeps_the_state_nonnegative_and_conserves_no_flux_mass(state, theta, n_steps):
    grid, _, coeffs, c, y, rng = state
    c = apply_bc(c, grid, BoundaryKind.NEUMANN)
    zero_f = make_coefficients(coeffs.beta_family, a=coeffs.noise, b=coeffs.drift)
    dt = cfl_dt(grid, zero_f, float(np.max(c)), theta)
    work = StepBuffers(grid, c.shape[:1])
    work.c[0][...], work.y[0][...] = c, y
    c, y = work.c[0], work.y[0]
    mass0 = [interior_v_mass(cp, grid, zero_f) for cp in c]
    for _ in range(n_steps):
        res = step(c, y, grid, zero_f, BoundaryKind.NEUMANN, dt,
                   rng.standard_normal(c.shape[0]) * np.sqrt(dt), work=work)
        c, y = res.c, res.y
        assert np.min(c) >= 0.0 and np.min(y) >= 0.0
        assume(np.all(res.clamp_mass == 0.0))
    for cp, m0 in zip(c, mass0):
        assert abs(interior_v_mass(cp, grid, zero_f) - m0) < 1e-12


# ---------------------------------------------------------------------------
# the coefficient out= contract


def preset_callables():
    fams = [pme_beta(2.0), pme_beta(3.0), regularize_beta(2.0, 1e-3), regularize_beta(1.5, 0.3)]
    for fam in fams:
        for name in ("beta", "beta_prime", "beta_inv", "recip_beta_prime"):
            yield f"{fam.label}.{name}", getattr(fam, name), 1
    terms = [
        preset_coefficients("zero"),
        preset_coefficients("logistic_f", {"lambda": 0.5, "K": 5.0}),
        preset_coefficients("logistic_f", {"lambda": 1.3, "K": 1.5, "mu_y": 0.7}),
        preset_coefficients("linear_a", {"sigma": 0.3}),
        preset_coefficients("saturating_a", {"sigma": 0.4}),
        preset_coefficients("coupling_b", {"kappa": 0.5, "rho": 0.4}),
    ]
    for term in terms:
        arity = 1 if isinstance(term, NoiseTerm) else 2
        for name in ("fn", "d_c", "d_y", "deriv"):
            if hasattr(term, name):
                yield f"{term.label}.{name}", getattr(term, name), arity


PRESETS = list(preset_callables())


@pytest.mark.parametrize("label,fn,arity", PRESETS, ids=[p[0] for p in PRESETS])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_preset_out_matches_fresh_result_bitwise(label, fn, arity, data):
    shape = data.draw(st.sampled_from([(), (1,), (7,), (3, 4), (2, 3, 5)]))
    values = st.floats(0.0, 50.0) | st.sampled_from([0.0, 1.0, 1e-300])
    args = [np.asarray(data.draw(st.lists(values, min_size=int(np.prod(shape)),
                                          max_size=int(np.prod(shape))))).reshape(shape)
            for _ in range(arity)]
    if not shape:
        args = [float(a) for a in args]
    with np.errstate(all="ignore"):
        fresh = fn(*args)
        buf = np.full(shape, 123.0)
        got = fn(*args, out=buf)
    assert got is buf
    assert same_bits(buf, fresh)
    assert np.ndim(fresh) == len(shape)
    if not shape:
        assert not isinstance(fresh, np.ndarray) or fresh.ndim == 0


def formula_cases():
    """Presets next to their formulas written as plain numpy expressions."""
    lam, cap, mu, sig, kap, rho, m, eps = 1.3, 1.5, 0.7, 0.4, 0.2, 1.1, 3.0, 0.3
    log = preset_coefficients("logistic_f", {"lambda": lam, "K": cap, "mu_y": mu})
    sat = preset_coefficients("saturating_a", {"sigma": sig})
    cpl = preset_coefficients("coupling_b", {"kappa": kap, "rho": rho})
    pme, reg = pme_beta(m), regularize_beta(m, eps)
    return [
        (log.fn, lambda c, y: lam * c * (1.0 - c / cap) * np.exp(-mu * y)),
        (log.d_c, lambda c, y: lam * (1.0 - 2.0 * c / cap) * np.exp(-mu * y)),
        (log.d_y, lambda c, y: -mu * (lam * c * (1.0 - c / cap) * np.exp(-mu * y))),
        (cpl.fn, lambda c, y: kap * c - rho * y),
        (sat.fn, lambda y: sig * y / (1.0 + y)),
        (sat.deriv, lambda y: sig / (1.0 + y) ** 2),
        (pme.beta, lambda c: c ** (1.0 / m)),
        (pme.beta_inv, lambda c: c**m),
        (pme.recip_beta_prime, lambda c: m * c ** (1.0 - 1.0 / m)),
        (reg.beta, lambda c: (c + eps) ** (1.0 / m) - eps ** (1.0 / m)),
        (reg.beta_inv, lambda c: (c + eps ** (1.0 / m)) ** m - eps),
    ]


@pytest.mark.parametrize("case", range(len(formula_cases())))
def test_presets_keep_the_operand_order_of_their_formulas(case):
    fn, formula = formula_cases()[case]
    args = np.random.default_rng(case).uniform(0.0, 3.0, (formula.__code__.co_argcount, 500))
    buf = np.empty(500)
    assert same_bits(fn(*args, out=buf), formula(*args))


# ---------------------------------------------------------------------------
# allocation guard


def form_steps(form, grid, coeffs, bc, paths, n_steps, gates=False, watch=contextlib.nullcontext):
    """``n_steps`` steps of ``paths`` paths from one c row in one workspace
    of ``form``: "own" (a c per path) or "y-lane" (y alone, c from the
    producer of a wave's shared c, as in ``simulate_ensemble``), steps 3 on
    inside ``watch()``.  Returns the final c and y."""
    rng = np.random.default_rng(grid.dim)
    dt = cfl_dt(grid, coeffs, 2.0)
    c0 = apply_bc(rng.uniform(0.5, 1.5, (1,) + grid.shape), grid, bc)
    y0 = rng.uniform(0.5, 1.5, (paths,) + grid.shape)
    dws = rng.standard_normal((n_steps, paths)) * np.sqrt(dt)
    if form == "own":
        work, ring, advance = StepBuffers(grid, (paths,), gates), [None], lambda n: None
        c = work.c[0]
    else:
        config = SimConfig(grid, coeffs, bc, t_final=n_steps * dt)
        part = EnsembleResult(grid, dt, n_steps, np.arange(paths), np.empty_like(y0), np.empty_like(y0),
                              np.full(paths, 1.5), np.full(paths, 0.5), np.zeros(paths))
        ring, advance = simulate._wave_c(config, part, n_steps, SimpleNamespace(reads_gates=gates))
        work, c = StepBuffers(grid, (paths,), gates, "y"), ring[0].c
    y = work.y[0]
    c[...], y[...] = c0, y0

    def run(steps):
        nonlocal c, y
        for n in steps:
            advance(n)
            res = step(c, y, grid, coeffs, bc, dt, dws[n - 1], work, ring[n % len(ring)])
            c, y = res.c, res.y

    run(range(1, 3))
    with watch():
        run(range(3, n_steps + 1))
    return c.copy(), y.copy()


@pytest.mark.parametrize("dim,cells,paths", [(1, 32, 64), (2, 16, 16), (3, 8, 4)])
@pytest.mark.parametrize("bc", list(BoundaryKind))
@pytest.mark.parametrize("coeffs,form", [
    ("readme", "own"), ("regularized", "own"), ("decaying", "own"),
    # c from the producer of a wave: only for reaction terms that ignore y
    ("readme", "y-lane"), ("regularized", "y-lane"), ("zero", "y-lane"),
])
def test_workspace_steps_allocate_less_than_one_state_array(dim, cells, paths, bc, coeffs, form):
    grid, coeffs, peak = build_grid(dim, cells), COEFFS[coeffs], []

    @contextlib.contextmanager
    def traced():
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            yield
            peak.append(tracemalloc.get_traced_memory()[1] - base)
        finally:
            tracemalloc.stop()

    c, y = form_steps(form, grid, coeffs, bc, paths, 22, watch=traced)
    assert peak[0] < y.nbytes
    c_ref, y_ref = form_steps("own", grid, coeffs, bc, paths, 22)
    assert same_bits(np.broadcast_to(c, c_ref.shape), c_ref) and same_bits(y, y_ref)


def tangent_sweep_peak(dim, cells, seeds, bc, coeffs, z_zero=False):
    """Traced peak of 20 warm primal steps leaving their gates, each followed
    by the tangent step reading them, as in the sweep of
    malliavin.propagate_path; and the tangent workspace."""
    grid = build_grid(dim, cells)
    rng = np.random.default_rng(1)
    primal = StepBuffers(grid, (1,), gates=True)
    c, y = primal.c[0], primal.y[0]
    c[...] = apply_bc(rng.uniform(0.5, 1.5, c.shape), grid, bc)
    y[...] = rng.uniform(0.5, 1.5, y.shape)
    tangent = TangentBuffers((seeds,) + grid.shape, c.shape)
    tangent.z[...], tangent.dry[...] = rng.standard_normal((2, seeds) + grid.shape)
    if z_zero:
        tangent.z[...] = 0.0
    state = MalliavinState(tangent.z, tangent.dry)
    dt = cfl_dt(grid, coeffs, 2.0)
    dws = rng.standard_normal((21, 1)) * np.sqrt(dt)

    def both(c, y, dw):
        res = step(c, y, grid, coeffs, bc, dt, dw, work=primal)
        step_malliavin(state, c, y, grid, coeffs, bc, dt, dw, primal, tangent)
        return res

    res = both(c, y, dws[0])  # warm-up
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for dw in dws[1:]:
            res = both(res.c, res.y, dw)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert state.z is tangent.z and np.all(np.isfinite(tangent.z))
    return peak, tangent


@pytest.mark.parametrize("dim,cells,seeds", [(1, 64, 8), (2, 16, 4), (3, 8, 2)])
@pytest.mark.parametrize("bc", list(BoundaryKind))
@pytest.mark.parametrize("coeffs", ["readme", "regularized", "decaying"])
def test_tangent_steps_allocate_less_than_one_state_array(dim, cells, seeds, bc, coeffs):
    peak, tangent = tangent_sweep_peak(dim, cells, seeds, bc, COEFFS[coeffs])
    assert peak < tangent.z.nbytes


@pytest.mark.parametrize("dim,cells,seeds", [(1, 510, 8), (2, 30, 4), (3, 14, 2)])
@pytest.mark.parametrize("bc", list(BoundaryKind))
@pytest.mark.parametrize("coeffs", ["readme", "zero"])
def test_one_way_tangent_steps_allocate_less_than_one_seed_state(dim, cells, seeds, bc, coeffs):
    # f ignores y and z starts at zero: the sweep skips the z half; the grids
    # are large enough that one seed's state outweighs the Python objects a
    # step makes
    assert not COEFFS[coeffs].source.reads_y
    peak, tangent = tangent_sweep_peak(dim, cells, seeds, bc, COEFFS[coeffs], z_zero=True)
    assert not tangent.z.any()
    assert peak < tangent.z[0].nbytes


# ---------------------------------------------------------------------------
# what a warm step reads is bound once


def on_fresh_thread(fn):
    """``fn()`` on a thread of its own, its error raised here."""
    out = {}

    def run():
        try:
            out["value"] = fn()
        except Exception as exc:  # raised by the caller
            out["error"] = exc

    thread = threading.Thread(target=run)
    thread.start()
    thread.join(timeout=120)
    assert not thread.is_alive()
    if "error" in out:
        raise out["error"]
    return out["value"]


def bound_steps(monkeypatch, form, dim, gates, coeffs):
    """Six steps of 3 paths in one workspace of ``form`` (see
    ``form_steps``); from step 3 on, anything that takes views or binds
    cores raises.  Returns the final c and y, and whether this thread made
    a thread-local coefficient scratch."""

    def rebind(*args, **kwargs):
        raise AssertionError("a warm step took views or bound cores again")

    @contextlib.contextmanager
    def no_rebinding():
        for owner, name in [(simulate, "_stencil"), (grid_module, "laplacian_core"),
                            (StepBuffers, "bind"), (StepBuffers, "slot")]:
            monkeypatch.setattr(owner, name, rebind)
        yield

    c, y = form_steps(form, build_grid(dim, 6), coeffs, BoundaryKind.NEUMANN, 3, 6, gates, no_rebinding)
    return c, y, hasattr(model._LOCAL, "scratch")


@pytest.mark.parametrize("gates", [False, True])
@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("coeffs,form", [
    ("readme", "own"), ("regularized", "own"), ("decaying", "own"), ("zero", "own"),
    # c from the producer of a wave: only for reaction terms that ignore y
    ("readme", "y-lane"), ("regularized", "y-lane"), ("zero", "y-lane"),
])
def test_warm_steps_rebind_nothing_and_make_no_thread_scratch(monkeypatch, coeffs, form, dim, gates):
    # the coefficient scratch is the workspace's, not a second, thread-local
    # copy; a y-lane gives the bits of a workspace with a c per path
    coeffs = COEFFS[coeffs]
    c, y, made_scratch = on_fresh_thread(lambda: bound_steps(monkeypatch, form, dim, gates, coeffs))
    monkeypatch.undo()
    assert not made_scratch
    c_ref, y_ref, _ = bound_steps(monkeypatch, "own", dim, gates, coeffs)
    assert same_bits(np.broadcast_to(c, c_ref.shape), c_ref) and same_bits(y, y_ref)


@pytest.mark.parametrize("paths,workers,pool", [(2, 1, False), (2, 3, False), (4, 1, False), (4, 2, True)])
def test_only_waves_of_several_lanes_start_a_thread_pool(paths, workers, pool):
    # two paths a chunk: a wave of several lanes needs two chunks and two workers
    code = f"""
import sys
from rpmelab import simulate
from rpmelab.grid import BoundaryKind, build_grid
from rpmelab.model import make_coefficients, pme_beta
grid = build_grid(1, 8)
simulate._STATE_BYTES = 2 * simulate.path_bytes(grid, 0)
config = simulate.SimConfig(grid, make_coefficients(pme_beta(2.0)), BoundaryKind.NEUMANN, t_final=0.01)
simulate.simulate_ensemble(config, 1.0, 1.0, n_paths={paths}, n_workers={workers})
print("concurrent.futures.thread" in sys.modules)
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [str(pool)]


# ---------------------------------------------------------------------------
# ensemble driver


def small_config(coeffs=COEFFS["readme"], t_final=0.004):
    return SimConfig(build_grid(2, 6), coeffs, BoundaryKind.NEUMANN, t_final=t_final)


def cosine(x):
    return 1.0 + 0.5 * np.cos(np.pi * x[..., 0]) * np.cos(np.pi * x[..., 1])


RESULT_FIELDS = (
    "path_ids", "c_final", "y_final", "c_sup", "c_min", "clamp_mass", "times", "c", "y"
)


def every_caller(n_workers):
    """What each caller of ``simulate_ensemble`` returns on one small
    problem, as named arrays, plus the chunk sizes of a streamed ensemble;
    ``propagate_path`` is the caller that records a tangent at every step."""
    # the source grows c at a rate set by each path's y, so the sups differ
    config = small_config(COEFFS["decaying"], t_final=0.02)
    kw = dict(n_paths=7, seed=11, n_workers=n_workers, n_snapshots=4)
    chunks, frames = [], []

    def keep(part):
        chunks.append(len(part.path_ids))
        frames.extend((part.c[:, j].copy(), part.y[:, j].copy()) for j in range(chunks[-1]))

    streamed = simulate_ensemble(config, 0.2, 1.0, on_chunk=keep, **kw)
    kept = simulate_ensemble(config, 0.2, 1.0, **kw)
    path = simulate_path(config, cosine, 1.0, seed=11, path_id=3, n_snapshots=4)
    refine = cauchy_refinement(
        config, cosine, 1.0, levels=(4, 8), n_paths=7, seed=11, n_snapshots=2, n_workers=n_workers
    )
    sweep = epsilon_sweep(config, (0.1, 0.01), cosine, 1.0, n_paths=7, seed=11, n_workers=n_workers)
    n = path.n_steps
    wiener = gen_wiener(n, path.dt, seed=11)
    oracle = perturbation_oracle(config, cosine, 1.0, wiener, 2, 3, 1e-3)
    _, seeds = propagate_path(config, cosine, 1.0, wiener, [5, 0, 2], [[6, n], [3, n], [n]])
    slices = [s for seed in seeds for s in seed]

    out = {f"streamed.{a}": getattr(streamed, a) for a in RESULT_FIELDS}
    out.update({f"kept.{a}": getattr(kept, a) for a in RESULT_FIELDS})
    out["streamed.frames"] = np.array(frames)
    path_fields = ("times", "c", "y", "clamp_mass")
    out.update({f"path.{a}": getattr(path, a) for a in path_fields})
    out.update({f"refine.{a}": getattr(refine, a) for a in ("times", "c_distances", "y_distances")})
    out.update({f"sweep.{a}": getattr(sweep, a) for a in ("dt", "gaps", "c_distances")})
    out["oracle"] = np.array(oracle)
    out["tangent.steps"] = np.array([(s.step_index, s.t) for s in slices])
    out.update({f"tangent.{a}": np.array([getattr(s, a) for s in slices]) for a in ("z", "drc", "dry")})
    return out, chunks


@pytest.mark.parametrize("workers", [1, 3])
def test_chunking_never_changes_a_bit(monkeypatch, workers):
    per_path = simulate.path_bytes(small_config().grid, 0)
    default = simulate._STATE_BYTES
    ref, ref_chunks = every_caller(1)
    assert ref_chunks == [7]
    assert len(set(ref["kept.c_sup"])) == 7
    assert same_bits(ref["kept.c"][-1], ref["kept.c_final"])
    assert same_bits(ref["streamed.frames"][:, 0], np.moveaxis(ref["kept.c"], 1, 0))
    # chunks on worker threads write into one shared result: switch often
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for budget, sizes in ((per_path, [1] * 7), (3 * per_path, [3, 3, 1]), (default, [7])):
            monkeypatch.setattr(simulate, "_STATE_BYTES", budget)
            res, chunks = every_caller(workers)
            assert chunks == sizes
            assert res.keys() == ref.keys()
            for name, value in ref.items():
                assert same_bits(res[name], value), name
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("reads_gates", [False, True])
def test_on_step_sees_the_first_chunk_with_gates_only_when_it_reads_them(monkeypatch, reads_gates):
    config = small_config(COEFFS["decaying"], t_final=0.01)
    monkeypatch.setattr(simulate, "_STATE_BYTES", 3 * simulate.path_bytes(config.grid, 0))
    seen = []

    class Recorder:
        def __call__(self, res, c, y, dw, work):
            seen.append((len(y), work.v_gate is not None, y[0].copy()))

    Recorder.reads_gates = reads_gates
    run = simulate_ensemble(config, cosine, 1.0, n_paths=7, seed=3, n_workers=2, on_step=Recorder())
    dense = simulate_path(config, cosine, 1.0, seed=3, store_dense=True)
    assert len(seen) == run.n_steps == dense.n_steps
    assert {(rows, gates) for rows, gates, _ in seen} == {(3, reads_gates)}
    assert same_bits([y0 for _, _, y0 in seen], dense.y[:-1, 0])


@pytest.mark.parametrize("block", [1, 7])
def test_noise_block_never_changes_a_bit(monkeypatch, block):
    ref, _ = every_caller(2)
    monkeypatch.setattr(simulate, "_NOISE_BLOCK", block)
    res, _ = every_caller(2)
    for name, value in ref.items():
        assert same_bits(res[name], value), name


@pytest.mark.parametrize("paths,workers", [(128, 1), (256, 2)])
def test_seeded_noise_is_drawn_in_blocks(paths, workers):
    # the whole run's increments would take 128 paths x 10,240 steps = 10 MiB
    # a lane; the ring of the shared c is charged for the views of its slots
    config = SimConfig(
        build_grid(1, 2), COEFFS["readme"], BoundaryKind.NEUMANN, t_final=1.0, dt=1.0 / 10_240
    )
    tracemalloc.start()
    try:
        simulate_ensemble(config, 0.5, 1.0, n_paths=paths, seed=3, n_workers=workers)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 128 * 10_240 * 8 >= 10 * 2**20
    assert peak < 2 * 2**20


def nan_source(k, calls):
    """Zero reaction until call k, NaN from call k on; counts its calls."""

    def fn(c, y, out=None):
        calls.append(1)
        return np.full(np.shape(c), np.nan if len(calls) >= k else 0.0)

    zero = preset_coefficients("zero")
    return SourceTerm("nan", fn, zero.d_c, zero.d_y)


def test_non_finite_state_aborts_at_its_step():
    calls = []
    config = small_config(make_coefficients(pme_beta(2.0), f=nan_source(5, calls)), t_final=0.02)
    assert config.resolve_steps(1.5)[1] > 10
    with pytest.raises(NumericalAbort, match=r"step 5 of \d+ \(path 0\)"):
        simulate_ensemble(config, cosine, 1.0, n_paths=3, seed=0)
    assert len(calls) == 5


def poisoned_source(value, k, calls, grid, row=None):
    """Zero reaction until call k, ``value`` from call k on: at every node
    for a source that ignores y (c shared by all paths), or else at the
    nodes of path ``row`` alone, as the band that the step hands f lays them
    out; counts its calls."""
    first = (grid.n_nodes - 1) // (grid.nodes_per_axis - 1)

    def fn(c, y, out=None):
        calls.append(1)
        r = np.zeros(np.shape(c))
        if len(calls) >= k:
            nodes = np.arange(first, first + r.size) // grid.n_nodes
            r[...] = np.where((row is None) | (nodes == row), value, 0.0)
        return r

    zero = preset_coefficients("zero")
    return SourceTerm("poisoned", fn, zero.d_c, zero.d_y, reads_y=row is not None)


@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("row,first_id", [(None, 0), (None, 4), (0, 0), (2, 0), (1, 5)])
def test_a_non_finite_path_aborts_at_its_step_and_is_named(value, row, first_id):
    # the abort test on the running sup is all(isfinite(c_sup)) for NaN and +inf
    # alike, on a shared c (row None) and on one of three per-path c
    calls = []
    grid = small_config().grid
    config = small_config(make_coefficients(pme_beta(2.0), f=poisoned_source(value, 5, calls, grid, row)),
                          t_final=0.02)
    bad = first_id + (row or 0)
    with pytest.raises(NumericalAbort, match=rf"non-finite c at step 5 of \d+ \(path {bad}\)$"):
        simulate_ensemble(config, cosine, 1.0, n_paths=3, seed=0, first_path_id=first_id)
    assert len(calls) == 5


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("row", [None, 1], ids=["shared-c", "per-path-c"])
def test_an_abort_leaves_no_thread_running(monkeypatch, workers, row):
    # seven paths in chunks of 2, 2, 2 and 1, in waves of `workers` lanes: a
    # shared c aborts in the wave's producer at step 5; a
    # per-path c aborts in every lane from the fifth call of f on, the first
    # lane in its path 1
    grid = small_config().grid
    f = poisoned_source(np.nan, 5, [], grid, row)
    config = small_config(make_coefficients(pme_beta(2.0), f=f), t_final=0.02)
    monkeypatch.setattr(simulate, "_STATE_BYTES", 2 * simulate.path_bytes(grid, 0))
    at = "5" if row is None else r"\d+"
    before = threading.active_count()
    with pytest.raises(NumericalAbort, match=rf"non-finite c at step {at} of \d+ \(path {3 + (row or 0)}\)$"):
        simulate_ensemble(config, cosine, 1.0, n_paths=7, seed=0, first_path_id=3, n_workers=workers)
    assert threading.active_count() == before


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("fails_at", [3, 5, 6])
def test_an_on_step_error_up_to_the_abort_step_is_raised_instead(monkeypatch, workers, fails_at):
    # the shared c aborts at step 5 in the producer, raised once the lanes
    # have stepped to 5: an error of on_step at step 5 or before is raised instead
    grid = small_config().grid
    config = small_config(make_coefficients(pme_beta(2.0), f=poisoned_source(np.nan, 5, [], grid)), t_final=0.02)
    monkeypatch.setattr(simulate, "_STATE_BYTES", 2 * simulate.path_bytes(grid, 0))
    seen = []

    def on_step(res, c, y, dw, work):
        seen.append(len(y))
        if len(seen) == fails_at:
            raise LookupError(f"on_step at step {fails_at}")

    before = threading.active_count()
    with pytest.raises(LookupError if fails_at <= 5 else NumericalAbort, match=r"step [35]\b"):
        simulate_ensemble(config, cosine, 1.0, n_paths=7, seed=0, n_workers=workers, on_step=on_step)
    assert threading.active_count() == before
    assert seen == [2] * min(fails_at, 5)


def spiking_source(level):
    """A reaction that reads y: zero, or a ValueError naming the largest y
    once y exceeds ``level``."""

    def fn(c, y, out=None):
        if np.max(y) > level:
            raise ValueError(f"y up to {np.max(y):.0f}")
        r = np.empty(np.shape(c)) if out is None else out
        r[...] = 0.0
        return r

    zero = preset_coefficients("zero")
    return SourceTerm(f"spiking({level:g})", fn, zero.d_c, zero.d_y, reads_y=True)


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_the_first_failing_lane_in_path_order_is_raised_at_any_worker_count(monkeypatch, workers):
    # y jumps to 6 at step 1 on path 2 (the second chunk) and to 11 at step 5
    # on path 0 (the first chunk), so f fails one step later, in another
    # block of two steps: path 0's error is raised, as a lone lane raises it
    a = preset_coefficients("linear_a", {"sigma": 1.0})
    config = small_config(make_coefficients(pme_beta(2.0), f=spiking_source(3.0), a=a), t_final=0.02)
    monkeypatch.setattr(simulate, "_STATE_BYTES", 2 * simulate.path_bytes(config.grid, 0))
    monkeypatch.setattr(simulate, "_BLOCK_BYTES", 2 * (9 * config.grid.n_nodes + simulate._SLOT_VIEWS))
    dt, n = config.resolve_steps(1.5)
    inc = np.zeros((5, n))
    inc[2, 0], inc[0, 4] = 5.0, 10.0
    before = threading.active_count()
    with pytest.raises(ValueError, match=r"^y up to 11$"):
        simulate_ensemble(config, cosine, 1.0, wiener=WienerPath(dt, inc), n_workers=workers)
    assert threading.active_count() == before


def test_a_negative_infinite_source_clamps_and_never_aborts():
    calls = []
    grid = small_config().grid
    config = small_config(make_coefficients(pme_beta(2.0), f=poisoned_source(-np.inf, 5, calls, grid, 1)),
                          t_final=0.02)
    run = simulate_ensemble(config, cosine, 1.0, n_paths=3, seed=0)
    assert np.all(np.isfinite(run.c_sup)) and run.c_min[1] == 0.0
    assert len(calls) == run.n_steps


def test_non_finite_state_exits_4(tmp_path, monkeypatch, capsys):
    from rpmelab import cli

    calls = []
    monkeypatch.setattr(
        cli, "_coefficients",
        lambda cfg: make_coefficients(pme_beta(2.0), f=nan_source(3, calls)),
    )
    cfg = tmp_path / "run.cfg"
    cfg.write_text("cells = 8\nt_final = 0.02\nn_paths = 2\ninitial.c = sine\n")
    out = tmp_path / "out"
    assert main(["simulate", str(cfg), "--out", str(out)]) == 4
    assert len(calls) == 3
    assert "step 3 of" in capsys.readouterr().err
    assert not out.exists()


def test_non_finite_state_exits_4_through_malliavin(tmp_path, monkeypatch, capsys):
    # every frame is checked as it is written, so the run stops at the first
    # non-finite one instead of after the whole path
    from rpmelab import cli

    calls = []
    monkeypatch.setattr(
        cli, "_coefficients",
        lambda cfg: make_coefficients(pme_beta(2.0), f=nan_source(3, calls)),
    )
    cfg = tmp_path / "run.cfg"
    cfg.write_text("cells = 8\nt_final = 0.02\ninitial.c = sine\nmalliavin.fractions = 0.5\n")
    out = tmp_path / "out"
    assert main(["malliavin", str(cfg), "--out", str(out)]) == 4
    assert len(calls) == 3
    assert "non-finite" in capsys.readouterr().err
    assert not out.exists()
    assert list(tmp_path.glob(".*staging*")) == []


# ---------------------------------------------------------------------------
# one c for every path when the reaction term ignores y


SOURCES = [
    preset_coefficients("zero"),
    preset_coefficients("logistic_f", {}),
    preset_coefficients("logistic_f", {"lambda": 0.5, "K": 5.0}),
    preset_coefficients("logistic_f", {"lambda": 1.3, "K": 1.5, "mu_y": 0.0}),
    preset_coefficients("logistic_f", {"lambda": 1.3, "K": 1.5, "mu_y": 0.7}),
    preset_coefficients("logistic_f", {"mu_y": 1e-300}),
]


def test_sources_say_whether_they_read_y():
    assert [term.reads_y for term in SOURCES] == [False, False, False, False, True, True]
    zero = preset_coefficients("zero")
    assert SourceTerm("hand-built", zero.fn, zero.d_c, zero.d_y).reads_y


IGNORE_Y = [term for term in SOURCES if not term.reads_y]


@pytest.mark.parametrize("term", IGNORE_Y, ids=[term.label for term in IGNORE_Y])
@settings(max_examples=25, deadline=None)
@given(
    shape=st.sampled_from([(1,), (7,), (3, 4), (2, 3, 5)]),
    seed=st.integers(0, 2**32 - 1),
    odd=st.sampled_from([None, 0.0, np.inf, np.nan, -1.0]),
)
def test_sources_that_ignore_y_give_the_same_bits_for_any_y(term, shape, seed, odd):
    rng = np.random.default_rng(seed)
    c = rng.uniform(0.0, 50.0, shape)
    y1, y2 = rng.uniform(0.0, 50.0, (2,) + shape)
    if odd is not None:
        y2.reshape(-1)[:: 2] = odd
    with np.errstate(all="ignore"):
        a = term.fn(c, y1, out=np.full(shape, 123.0))
        b = term.fn(c, y2, out=np.full(shape, -7.0))
    assert same_bits(a, b)


def test_a_step_of_c_reads_the_workspace_copies_or_copies_into_a_fresh_one():
    # a fresh workspace takes a one-row c into every path
    grid, bc, coeffs = build_grid(2, 4), BoundaryKind.NEUMANN, COEFFS["decaying"]
    work = StepBuffers(grid, (3,))
    c = apply_bc(np.full((1,) + grid.shape, 0.5), grid, bc)
    work.c[1][...], work.y[1][...] = c, 1.0
    ref = step(work.c[1], work.y[1], grid, coeffs, bc, 1e-4, np.zeros(3), work=work)
    got = step(c, np.ones(work.y[0].shape), grid, coeffs, bc, 1e-4, np.zeros(3))
    for a in ("c", "y", "clamp_mass"):
        assert same_bits(getattr(got, a), getattr(ref, a)), a
    for args in ((c, work.y[0]), (work.c[0], work.y[0].copy()), (work.c[0], work.y[1])):
        with pytest.raises(ValueError, match="copy of each in its workspace"):
            step(*args, grid, coeffs, bc, 1e-4, np.zeros(3), work=work)


# f ignores y, but y still differs between paths and the drift reads c
ONE_WAY = {
    "readme": COEFFS["readme"],
    "regularized": COEFFS["regularized"],
    "zero-f": make_coefficients(
        pme_beta(3.0),
        a=preset_coefficients("saturating_a", {"sigma": 0.4}),
        b=preset_coefficients("coupling_b", {"kappa": 0.2, "rho": 1.1}),
    ),
}
TWO_WAY = {
    "decaying": COEFFS["decaying"],
    "readme-mu_y": make_coefficients(
        pme_beta(2.0),
        **dict(readme_terms(), f=preset_coefficients("logistic_f", {"lambda": 0.5, "mu_y": 0.5})),
    ),
}


def bump(x):
    return 1.0 + 0.5 * np.cos(np.pi * x[..., 0]) * np.cos(2.0 * x[..., -1])


@pytest.mark.parametrize("coupling", ["one-way", "two-way"])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_ensemble_is_bitwise_its_single_paths(coupling, data):
    draw = data.draw
    terms = ONE_WAY if coupling == "one-way" else TWO_WAY
    coeffs = terms[draw(st.sampled_from(sorted(terms)))]
    assert coeffs.source.reads_y == (coupling == "two-way")
    dim = draw(st.integers(1, 3))
    grid = build_grid(dim, draw(st.integers(2, CELLS[dim])))
    bc = draw(st.sampled_from(list(BoundaryKind)))
    config = SimConfig(grid, coeffs, bc, t_final=draw(st.sampled_from([0.002, 0.01])))
    paths = draw(st.integers(1, 7))
    chunk = draw(st.sampled_from([1, 3, paths]))
    workers = draw(st.sampled_from([1, 3]))
    k = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 2**32 - 1))
    seeded = draw(st.booleans())
    kw = dict(n_workers=workers, n_snapshots=k)
    if seeded:
        first = draw(st.integers(0, 50))
        kw.update(n_paths=paths, seed=seed, first_path_id=first)
    else:
        # increments up to 5 sigma, so the clamp of y bites
        c_init, _ = simulate.prepare_initial(config, bump, 1.0)
        dt, n = config.resolve_steps(float(np.max(c_init)), multiple_of=k)
        scale = draw(st.sampled_from([1.0, 5.0]))
        inc = np.random.default_rng(seed).standard_normal((paths, n)) * (scale * np.sqrt(dt))
        kw.update(wiener=WienerPath(dt, inc))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulate, "_STATE_BYTES", chunk * simulate.path_bytes(grid, 0))
        ens = simulate_ensemble(config, bump, 1.0, **kw)

    for j in range(paths):
        if seeded:
            path = simulate_path(config, bump, 1.0, seed=seed, path_id=first + j, n_snapshots=k)
            wiener = gen_wiener(path.n_steps, path.dt, seed, first + j)
            dense = simulate_path(config, bump, 1.0, wiener=wiener, store_dense=True)
            assert same_bits(ens.c_sup[j], np.max(dense.c))
            assert same_bits(ens.c_min[j], np.min(dense.c))
        else:
            path = simulate_path(config, bump, 1.0, wiener=WienerPath(dt, inc[j]), n_snapshots=k)
            assert ens.c_sup is None and ens.c_min is None
        assert (ens.dt, ens.n_steps) == (path.dt, path.n_steps)
        assert same_bits(ens.times, path.times)
        assert same_bits(ens.c[:, j], path.c[:, 0])
        assert same_bits(ens.y[:, j], path.y[:, 0])
        assert same_bits(ens.c_final[j], path.c_final[0])
        assert same_bits(ens.y_final[j], path.y_final[0])
        assert same_bits(ens.clamp_mass[j], path.clamp_mass[0])


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("coupling", ["one-way", "two-way"])
def test_one_way_ensembles_step_c_once_per_wave(monkeypatch, coupling, workers):
    # five paths in chunks of 2, 2 and 1: one wave of three lanes at workers
    # 3, three waves of one lane at workers 1; y is stepped once per path and
    # step, a shared c once per wave and step, a per-path c once per path
    c_rows, y_rows = [], []
    c_half, y_half = simulate._c_half, simulate._y_half
    monkeypatch.setattr(simulate, "_c_half", lambda src, *a: c_rows.append(len(src[0])) or c_half(src, *a))
    monkeypatch.setattr(simulate, "_y_half", lambda c, y, *a: y_rows.append(len(y)) or y_half(c, y, *a))
    coeffs = ONE_WAY["readme"] if coupling == "one-way" else TWO_WAY["decaying"]
    config = small_config(coeffs)
    monkeypatch.setattr(simulate, "_STATE_BYTES", 2 * simulate.path_bytes(config.grid, 0))
    ens = simulate_ensemble(config, cosine, 1.0, n_paths=5, seed=2, n_snapshots=2, n_workers=workers)
    n, waves = ens.n_steps, 3 // workers
    assert sorted(y_rows) == sorted([2, 2, 1] * n)
    assert sorted(c_rows) == sorted([1] * waves * n if coupling == "one-way" else [2, 2, 1] * n)
    assert ens.c.shape[1] == 5 and np.all(np.isfinite(ens.c))


@settings(max_examples=40, deadline=None)
@given(
    dim=st.integers(1, 3),
    paths=st.integers(1, 5),
    kappa=st.floats(0.0, 10.0),
    rho=st.floats(0.0, 10.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_coupling_b_of_a_shared_c_row_is_bitwise_the_per_path_b(dim, paths, kappa, rho, seed):
    # kappa * c is taken once on the row and copied to every path's row
    b = preset_coefficients("coupling_b", {"kappa": kappa, "rho": rho})
    rng = np.random.default_rng(seed)
    grid_shape = tuple(int(m) for m in rng.integers(2, 6, dim))
    c = rng.uniform(0.0, 50.0, (1,) + grid_shape)
    y = rng.uniform(0.0, 50.0, (paths,) + grid_shape)
    per_path = b.fn(np.repeat(c, paths, axis=0), y, out=np.full(y.shape, -7.0))
    assert same_bits(b.fn(c, y, out=np.full(y.shape, 123.0)), per_path)
    assert same_bits(b.fn(c, y), per_path)


def gates_of_path_0(work):
    """The v-gates of path 0 on interior nodes (boundary nodes inside the
    update band get scratch, see ``step``) and its y-gates."""
    v_gate = work.v_gate[0]
    return v_gate[(slice(1, -1),) * v_gate.ndim], work.y_gate[0]


class StepRecorder:
    """``on_step`` keeping what it sees of the first path at each step.  It
    sleeps at each step, so the producer of a shared c runs as far ahead of
    this lane as the blocks allow."""

    def __init__(self, reads_gates):
        self.reads_gates, self.seen = reads_gates, []

    def __call__(self, res, c, y, dw, work):
        time.sleep(1e-4)
        gates = gates_of_path_0(work) if self.reads_gates else ()
        seen = (c[0], y[0], res.c[0], res.y[0], res.clamp_mass[0], dw[0]) + gates
        self.seen.append(tuple(np.copy(a) for a in seen))


def plain_loop(config, c_init, y_init, inc, dt, stride):
    """The ensemble as one loop of ``step`` calls on per-path c and y: the
    terminal state, clamp mass, running sup and min, the frames every
    ``stride`` steps, and what an ``on_step`` with gates sees of path 0."""
    grid, paths = config.grid, len(inc)
    work = StepBuffers(grid, (paths,), gates=True)
    work.c[0][...], work.y[0][...] = c_init, y_init
    c, y = work.c[0], work.y[0]

    def rows(a):
        return a.reshape(paths, -1)

    clamp, sup, low = np.zeros(paths), rows(c).max(axis=1), rows(c).min(axis=1)
    frames, seen = [(c.copy(), y.copy())], []
    for n, dw in enumerate(inc.T, 1):
        res = step(c, y, grid, config.coeffs, config.bc, dt, dw, work=work)
        gates = gates_of_path_0(work)
        seen.append(tuple(np.copy(a) for a in (c[0], y[0], res.c[0], res.y[0], res.clamp_mass[0], dw[0]) + gates))
        c, y = res.c, res.y
        clamp += res.clamp_mass
        sup, low = np.maximum(sup, rows(c).max(axis=1)), np.minimum(low, rows(c).min(axis=1))
        if stride and n % stride == 0:
            frames.append((c.copy(), y.copy()))
    return c.copy(), y.copy(), clamp, sup, low, frames, seen


def sink_source(rate):
    """The one-way reaction f = -rate: v+ < 0 wherever beta(c) < rate * dt,
    so the clamp of v bites on part of the grid."""

    def fn(c, y, out=None):
        r = np.empty(np.shape(c)) if out is None else out
        r[...] = -rate
        return r

    zero = preset_coefficients("zero")
    return SourceTerm(f"sink({rate:g})", fn, zero.d_c, zero.d_y, reads_y=False)


WAVE_TERMS = {
    "one-way": ONE_WAY,
    "two-way": TWO_WAY,
    "sink": {"sink": make_coefficients(pme_beta(2.0), **dict(readme_terms(), f=sink_source(2000.0)))},
}


@pytest.mark.parametrize("coupling", sorted(WAVE_TERMS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_waves_are_bitwise_a_plain_loop_of_steps(coupling, data):
    # any worker count, chunk cap and block length of the shared c: the
    # results, the frames in on_chunk order, what on_step sees of path 0 (its
    # gates read through the block) and the tangent along path 0
    draw = data.draw
    terms = WAVE_TERMS[coupling]
    coeffs = terms[draw(st.sampled_from(sorted(terms)))]
    dim = draw(st.integers(1, 2))
    grid = build_grid(dim, draw(st.integers(2, CELLS[dim])))
    t_final = draw(st.sampled_from([0.004, 0.02]))
    config = SimConfig(grid, coeffs, draw(st.sampled_from(list(BoundaryKind))), t_final=t_final)
    paths = draw(st.integers(1, 7))
    chunk = draw(st.sampled_from([1, 2, paths]))
    k = draw(st.sampled_from([None, 1, 2]))
    recorder = StepRecorder(draw(st.booleans()))
    kw = dict(n_workers=draw(st.sampled_from([1, 2, 3])), n_snapshots=k, on_step=recorder)
    c_init, y_init = simulate.prepare_initial(config, bump, 1.0)
    dt, n = config.resolve_steps(float(np.max(c_init)), multiple_of=k or 1)
    block = draw(st.sampled_from([1, 2, next(b for b in range(3, n + 3) if n % b)]))
    seed = draw(st.integers(0, 2**32 - 1))
    seeded = draw(st.booleans())
    if seeded:
        kw.update(n_paths=paths, seed=seed)
        inc = simulate.gen_wiener_batch(n, dt, seed, range(paths)).increments
    else:
        # increments up to 5 sigma, so the clamp of y bites
        inc = np.random.default_rng(seed).standard_normal((paths, n)) * (5.0 * np.sqrt(dt))
        kw.update(wiener=WienerPath(dt, inc))
    chunks = []
    if k and draw(st.booleans()):
        kw["on_chunk"] = lambda part: chunks.append((part.path_ids.copy(), part.c.copy(), part.y.copy()))
    r = draw(st.integers(0, n - 1))
    # lanes read the block of c that the producer wrote: switch often
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(simulate, "_STATE_BYTES", chunk * simulate.path_bytes(grid, 0))
            mp.setattr(simulate, "_BLOCK_BYTES", block * (9 * grid.n_nodes + simulate._SLOT_VIEWS))
            ens = simulate_ensemble(config, bump, 1.0, **kw)
            _, [[tangent]] = propagate_path(config, bump, 1.0, WienerPath(dt, inc[0]), [r])
    finally:
        sys.setswitchinterval(interval)

    c, y, clamp, sup, low, frames, seen = plain_loop(config, c_init, y_init, inc, dt, n // k if k else 0)
    assert same_bits(ens.c_final, c) and same_bits(ens.y_final, y)
    assert same_bits(ens.clamp_mass, clamp)
    if seeded:
        assert same_bits(ens.c_sup, sup) and same_bits(ens.c_min, low)
    else:
        assert ens.c_sup is None and ens.c_min is None
    if chunks:
        assert same_bits(np.concatenate([ids for ids, _, _ in chunks]), ens.path_ids)
        got = [np.concatenate([ch[a] for ch in chunks], axis=1) for a in (1, 2)]
    else:
        got = [ens.c, ens.y]
    if k:
        assert same_bits(got[0], [fc for fc, _ in frames]) and same_bits(got[1], [fy for _, fy in frames])
    assert len(recorder.seen) == n
    for got_step, ref_step in zip(recorder.seen, seen):
        assert all(same_bits(a, b) for a, b in zip(got_step, ref_step))

    seed_state = init_malliavin(seen[r][1], coeffs)
    state = MalliavinState(seed_state.z[None], seed_state.dry[None])
    interior = (slice(None),) + (slice(1, -1),) * dim
    for c0, y0, _, _, _, dw0, v_gate, y_gate in seen[r:]:
        gates = SimpleNamespace(v_gate=np.zeros((1,) + grid.shape, bool), y_gate=y_gate[None])
        gates.v_gate[interior] = v_gate
        state = step_malliavin(state, c0[None], y0[None], grid, coeffs, config.bc, dt, np.array([dw0]), gates)
    assert tangent.step_index == n
    assert same_bits(tangent.z, state.z[0]) and same_bits(tangent.dry, state.dry[0])
    assert same_bits(tangent.drc, recover_drc(state.z[0], seen[-1][2], coeffs))
