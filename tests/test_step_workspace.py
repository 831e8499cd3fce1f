"""The workspace step: bitwise equal to the step formulas written as plain
numpy expressions, free of allocations once warm, and the coefficient `out=`
contract it relies on; plus chunking invariance and the non-finite abort of
the ensemble driver."""
import contextlib
import dataclasses
import os
import re
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
import weakref
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from rpmelab import grid as grid_module, malliavin, simulate
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
    # the term-by-term y step under a source that ignores y, so also in a y-lane
    "saturating": make_coefficients(
        pme_beta(2.0),
        f=preset_coefficients("logistic_f", {"lambda": 0.5, "K": 5.0}),
        a=preset_coefficients("saturating_a", {"sigma": 0.4}),
        b=preset_coefficients("coupling_b", {"kappa": 0.5, "rho": 0.4}),
    ),
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
    sigma, drift = coeffs.noise.slope, coeffs.drift.affine
    if sigma is None or drift is None:
        y_new = np.maximum(y + coeffs.a(y) * dw + coeffs.b(c, y) * dt, 0.0)
    else:  # a(y) = sigma y and b = kappa c - rho y: the affine form
        kappa, rho = drift
        y_new = np.maximum(y * (1.0 + sigma * dw - rho * dt) + (kappa * dt) * c, 0.0)
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
@given(st.integers(1, 3), st.integers(0, 5), st.booleans(), st.booleans(),
       st.floats(0.0, 2.0), st.floats(0.0, 2.0), st.floats(0.0, 2.0), st.floats(1e-6, 0.1),
       st.integers(0, 2**32 - 1))
def test_the_affine_y_step_is_the_term_by_term_formula_to_a_few_ulps(
        dim, paths, shared_c, scalar_dw, sigma, kappa, rho, dt, seed):
    # paths 0: one state without a path axis, so c is that state's own
    grid, bc = build_grid(dim, CELLS[dim]), BoundaryKind.NEUMANN
    coeffs = make_coefficients(pme_beta(2.0), a=preset_coefficients("linear_a", {"sigma": sigma}),
                               b=preset_coefficients("coupling_b", {"kappa": kappa, "rho": rho}))
    lead = (paths,) if paths else ()
    rng = np.random.default_rng(seed)
    c = apply_bc(rng.uniform(0.0, 2.0, ((1,) if shared_c and lead else lead) + grid.shape), grid, bc)
    y = rng.uniform(0.0, 2.0, lead + grid.shape)
    dw = rng.standard_normal(() if scalar_dw else lead) * np.sqrt(dt)
    if c.shape != y.shape:  # one c row for every path, as in a y-lane
        work, c_new = StepBuffers(grid, lead, half="y"), StepBuffers(grid, (1,), half="c").slots[1]
        work.y[0][...] = y
        got = step(c, work.y[0], grid, coeffs, bc, dt, dw, work, c_new).y
    else:
        work = StepBuffers(grid, lead)
        work.c[0][...], work.y[0][...] = c, y
        got = step(work.c[0], work.y[0], grid, coeffs, bc, dt, dw, work).y
    assert work.affine == (sigma, kappa, rho)
    dw = np.reshape(dw, np.shape(dw) + (1,) * dim)
    formula = np.maximum(y + coeffs.a(y) * dw + coeffs.b(c, y) * dt, 0.0)
    # each form rounds each term a few times: at most about 4.5 ulps of the
    # sum of the terms' magnitudes between them (2.4 seen in 3,000 draws)
    scale = y + np.abs(sigma * y * dw) + kappa * c * dt + rho * y * dt
    assert np.all(np.abs(got - formula) <= 6.0 * np.finfo(float).eps * scale)


def five_pass_y_half(c, y, dw, dt, sigma, kappa, rho, dim):
    """The affine y half and its gate in five full-array passes: alpha
    filled into a scratch array, y times it, kappa dt c filled in, added,
    and the clamp, as a step of several paths takes them where the clamp
    is not skipped."""
    alpha = np.multiply(sigma, np.reshape(dw, np.shape(dw) + (1,) * dim))
    alpha += 1.0
    alpha -= rho * dt
    scratch = np.empty(y.shape)
    scratch[...] = alpha
    y_new = np.multiply(y, scratch)
    scratch[...] = np.multiply(kappa * dt, c)
    y_new += scratch
    gate = np.less(y_new, 0.0)
    return np.maximum(y_new, 0.0), gate


# (cells, paths) of a lane of 8,192 nodes or more, whose alpha y is a filled copy as on every lane of several paths
WIDE_LANES = {1: (254, 33), 2: (16, 26), 3: (8, 9)}
SPECIAL_DW = [-5.0, 5.0, np.nan, np.inf, -np.inf]


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3), st.sampled_from(["state", "one", "few", "wide"]),
       st.sampled_from(["own", "one-way", "two-way"]), st.booleans(), st.floats(-2.0, 2.0),
       st.floats(0.0, 2.0), st.floats(0.0, 2.0), st.floats(1e-6, 0.1),
       st.lists(st.lists(st.sampled_from(SPECIAL_DW), max_size=2), min_size=1, max_size=5),
       st.integers(0, 2**32 - 1))
# on a wide lane a NaN alpha on one path hides a negative alpha on another from the minimum
@example(1, "wide", "two-way", True, 1.0, 0.5, 0.5, 0.01, [[], [np.nan, -5.0]], 0)
def test_the_y_half_is_the_five_pass_formula_bitwise(dim, lane, form, gates, sigma, kappa, rho, dt, specials,
                                                     seed):
    # alpha y by a 0-d alpha or a filled copy, and the clamp
    # skipped where it cannot bite: y+ and the y gate of every step are the
    # five passes' bit for bit, from y0 and c with zeros of both signs, under
    # increments that make alpha negative, NaN or infinite on some paths
    cells, paths = WIDE_LANES[dim] if lane == "wide" else (CELLS[dim], {"state": 0, "one": 1, "few": 3}[lane])
    assume(paths or form != "one-way")  # one c row for every path needs a path axis
    grid, bc, lead = build_grid(dim, cells), BoundaryKind.NEUMANN, (paths,) if paths else ()
    coeffs = make_coefficients(pme_beta(2.0), a=preset_coefficients("linear_a", {"sigma": sigma}),
                               b=preset_coefficients("coupling_b", {"kappa": kappa, "rho": rho}))
    rng = np.random.default_rng(seed)

    def signed_zeros(a):
        a[rng.random(a.shape) < 0.2] = 0.0
        a[rng.random(a.shape) < 0.2] = -0.0
        return a

    def draw_c():
        return signed_zeros(rng.uniform(0.0, 2.0, ((1,) if form == "one-way" else lead) + grid.shape))

    if form == "own":  # c from the c half of each step
        work, c_new = StepBuffers(grid, lead, gates), None
        work.c[0][...] = draw_c()
    else:  # c handed in, as a y-lane reads it from its wave
        work, c_new = StepBuffers(grid, lead, gates, "y"), StepBuffers(grid, (1,), half="c").slots[1]
    assert (work.alpha_op is None) == (paths > 1)
    work.y[0][...] = signed_zeros(rng.uniform(0.0, 2.0, lead + grid.shape))
    c, y = work.c[0] if form == "own" else None, work.y[0]
    with np.errstate(all="ignore"):
        for values in specials:
            dw = np.asarray(rng.standard_normal(lead) * np.sqrt(dt))
            # each value on some path if there are enough, the draw kept on the others
            pick = (rng.permutation(dw.size) % (len(values) + 1)).reshape(dw.shape)
            dw[pick < len(values)] = np.asarray(values + [0.0])[pick][pick < len(values)]
            c = c if form == "own" else draw_c()
            y_ref, gate_ref = five_pass_y_half(c, y, dw, dt, sigma, kappa, rho, dim)
            res = step(c, y, grid, coeffs, bc, dt, dw, work, c_new)
            # where y and alpha are both NaN, which NaN a product keeps is
            # numpy's choice: its own multiply differs on it by array length
            both_nan = np.isnan(res.y) & np.isnan(y_ref)
            assert same_bits(np.where(both_nan, np.nan, res.y), np.where(both_nan, np.nan, y_ref))
            if gates:
                assert same_bits(work.y_gate, gate_ref)
            c, y = res.c if form == "own" else c, res.y


def full_pass_c_half(src, y_b, dst, bc, dt, work):
    """The c half with the clamp pass taken at every step, as before it could
    be skipped: the clamped copy of the interior of v, its mass, the v-gate
    and the clamp of v."""
    v, clamped, mass, tmp = work.v_b, work.clamped, dst.mass, work.tmp_b
    grid_module._band_laplacian(work.lap_b, src.band, src.shifts, work.h)
    np.add(work.lap_b, work.f(src.band, y_b, v, tmp), out=v)
    v *= dt
    np.add(work.beta(src.band, work.u_b, tmp), v, out=v)
    clamped[...] = work.v_int
    np.minimum(clamped, 0.0, out=clamped)
    np.add.reduce(work.clamp_rows, axis=-1, out=mass)
    mass *= -work.cell
    if work.gate_b is not None:
        np.less(v, 0.0, out=work.gate_b)
    np.maximum(v, 0.0, out=v)
    res = work.beta_inv(v, dst.band, tmp)
    if res is not dst.band:
        dst.band[...] = res
    simulate._impose_bc(dst.faces, bc, work.face)


# band entries of v that the clamp pass must see: (beta(c), f) that give them
# from c = +0.0 at dt = 0.1; -0.0 needs -0.0 + dt (0.0 + f), f underflowing to -0.0
CLAMP_ENTRIES = {"+0": (0.0, 0.0), "-0": (-0.0, -5e-324), "negative": (0.0, -3.0), "nan": (np.nan, 0.0),
                 "inf": (np.inf, 0.0)}


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3), st.integers(0, 3), st.booleans(), st.sampled_from(list(BoundaryKind)),
       st.lists(st.tuples(st.sampled_from(sorted(CLAMP_ENTRIES)), st.sampled_from(["interior", "scratch"])),
                max_size=3),
       st.integers(0, 2**32 - 1))
@example(1, 0, False, BoundaryKind.NEUMANN, [("-0", "interior")], 0)
@example(2, 0, True, BoundaryKind.NEUMANN, [], 0)
def test_the_c_clamp_skip_is_bitwise_the_full_pass(dim, paths, gates, bc, entries, seed):
    # the clamp pass is skipped only where the band of v is strictly positive
    # and no v-gate is kept: the new c, its clamp mass and the v-gate are those
    # of the full pass bit for bit, with +0.0, -0.0, negative, NaN and +inf
    # entries in the interior or in the boundary scratch of the band alone.
    # beta and f give prescribed bands, and beta_inv keeps the sign of a zero,
    # so a skip over a -0.0 would show in c
    grid, lead = build_grid(dim, CELLS[dim]), (paths,) if paths else ()
    rng = np.random.default_rng(seed)
    beta_v, f_v = rng.uniform(0.1, 2.0, lead + grid.shape), np.zeros(lead + grid.shape)
    band_nodes = np.zeros(lead + grid.shape, bool)
    simulate._stencil(band_nodes, dim)[0][...] = True
    interior = np.zeros(grid.shape, bool)
    interior[(slice(1, -1),) * dim] = True
    interior = np.broadcast_to(interior, band_nodes.shape)
    for kind, where in entries:
        nodes = np.flatnonzero(band_nodes & (interior if where == "interior" else ~interior))
        assume(nodes.size)
        node = np.unravel_index(rng.choice(nodes), band_nodes.shape)
        beta_v[node], f_v[node] = CLAMP_ENTRIES[kind]

    def prescribed(values):
        band = simulate._stencil(values, dim)[0]
        return lambda *args, out=None: np.copyto(out, band) or out

    beta = dataclasses.replace(pme_beta(2.0), beta=prescribed(beta_v),
                               beta_inv=lambda v, out=None: np.copyto(out, v) or out)
    zero = preset_coefficients("zero")
    coeffs = make_coefficients(beta, f=SourceTerm("prescribed", prescribed(f_v), zero.d_c, zero.d_y, reads_y=False))
    results = []
    for c_half in (simulate._c_half, full_pass_c_half):
        work = StepBuffers(grid, lead, gates)
        work.bind(coeffs)
        work.c[0][...], work.c[1][...] = 0.0, np.nan
        if gates:
            work.v_gate.fill(True)  # a gate that a step left: the full pass overwrites it
        with np.errstate(invalid="ignore"):
            c_half(work.slots[0], work.slots[0].band, work.slots[1], bc, 0.1, work)
        results.append((work.c[1].copy(), work.mass.copy(), None if work.v_gate is None else work.v_gate.copy(),
                        work.clamped.copy()))
    (c, mass, gate, clamped), (c_ref, mass_ref, gate_ref, clamped_ref) = results
    assert same_bits(c, c_ref) and same_bits(mass, mass_ref) and same_bits(gate, gate_ref)
    skipped = not gates and np.min(simulate._stencil(beta_v + 0.1 * f_v, dim)[0]) > 0.0
    # a skip leaves the clamped copy unwritten: a workspace with a v-gate never skips
    assert same_bits(clamped, clamped_ref) != skipped
    assert not skipped or np.all(mass == -0.0) and np.all(np.signbit(mass))


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
    pme = pme_beta(m)
    cases = [
        (log.fn, lambda c, y: lam * c * (1.0 - c / cap) * np.exp(-mu * y)),
        (log.d_c, lambda c, y: lam * (1.0 - 2.0 * c / cap) * np.exp(-mu * y)),
        (log.d_y, lambda c, y: -mu * (lam * c * (1.0 - c / cap) * np.exp(-mu * y))),
        (cpl.fn, lambda c, y: kap * c - rho * y),
        (sat.fn, lambda y: sig * y / (1.0 + y)),
        (sat.deriv, lambda y: sig / (1.0 + y) ** 2),
        (pme.beta, lambda c: c ** (1.0 / m)),
        (pme.beta_inv, lambda c: c**m),
        (pme.recip_beta_prime, lambda c: m * c ** (1.0 - 1.0 / m)),
    ]

    def regularized(m, eps):
        # the shift is the array power at 0, so that 0 maps to exactly 0
        reg, shift = regularize_beta(m, eps), np.array([eps]) ** (1.0 / m)
        return [(reg.beta, lambda c: (c + eps) ** (1.0 / m) - shift),
                (reg.beta_inv, lambda c: (c + shift) ** m - shift**m)]

    return cases + regularized(m, eps) + regularized(2.0, 1e-3)


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
    of ``form``: "own" (a c per path), "y-lane" (y alone, c from the
    producer of a wave's shared c, as in ``simulate_ensemble``) or "lane"
    (the producer and lane of ``simulate_ensemble``, in blocks of 2 and
    n_steps - 2 steps) or "blocks" (the same in runs of 10 steps and the
    block form, a frame every 5), steps 3 (11 for "blocks") on inside
    ``watch()``.  Returns the final c and y."""
    rng = np.random.default_rng(grid.dim)
    dt = cfl_dt(grid, coeffs, 2.0)
    c0 = apply_bc(rng.uniform(0.5, 1.5, (1,) + grid.shape), grid, bc)
    y0 = rng.uniform(0.5, 1.5, (paths,) + grid.shape)
    dws = rng.standard_normal((n_steps, paths)) * np.sqrt(dt)
    config = SimConfig(grid, coeffs, bc, t_final=n_steps * dt)
    part = EnsembleResult(grid, dt, n_steps, np.arange(paths), np.empty_like(y0), np.empty_like(y0),
                          np.full(paths, 1.5), np.full(paths, 0.5), np.zeros(paths))
    if form in ("lane", "blocks"):
        runs = ((0, 2), (2, n_steps)) if form == "lane" else ((0, 10), (10, 20), (20, n_steps))
        block, stride = runs[1][1] - runs[1][0], 0 if form == "lane" else 5
        ring, advance = simulate._wave_c(config, part, block)
        lane = simulate._lane(config, c0, y0, [dws.T], part, stride, None, ring, block, None)
        for start, stop in runs:
            with watch() if start else contextlib.nullcontext():
                assert advance(start, stop) == (stop, None)
                lane(start, stop)
        return part.c_final.copy(), part.y_final.copy()
    if form == "own":
        work, ring, advance = StepBuffers(grid, (paths,), gates), [None], lambda start, stop: (stop, None)
        c = work.c[0]
    else:
        ring, advance = simulate._wave_c(config, part, n_steps)
        work, c = StepBuffers(grid, (paths,), gates, "y"), ring[0].c
    y = work.y[0]
    c[...], y[...] = c0, y0

    def run(steps):
        nonlocal c, y
        assert advance(steps[0] - 1, steps[-1]) == (steps[-1], None)  # the producer's block
        for n in steps:
            res = step(c, y, grid, coeffs, bc, dt, dws[n - 1], work, ring[n % len(ring)])
            c, y = res.c, res.y

    run(range(1, 3))
    with watch():
        run(range(3, n_steps + 1))
    return c.copy(), y.copy()


# 2D 32^2 with 16 paths: a wide lane of 18,496 nodes;
# 1D at 8 cells: 10 nodes a path, so the alphas of a lane's block of 20
# steps, allocated per block instead of once a lane, would outweigh y
@pytest.mark.parametrize("dim,cells,paths", [(1, 32, 64), (2, 16, 16), (3, 8, 4), (2, 32, 16), (1, 8, 64)])
@pytest.mark.parametrize("bc", list(BoundaryKind))
@pytest.mark.parametrize("coeffs,form", [
    ("readme", "own"), ("regularized", "own"), ("decaying", "own"), ("saturating", "own"),
    # c from the producer of a wave: only for reaction terms that ignore y
    ("readme", "y-lane"), ("regularized", "y-lane"), ("zero", "y-lane"), ("saturating", "y-lane"),
    # the loop of simulate_ensemble: alpha a block at once under the affine terms
    ("readme", "lane"), ("saturating", "lane"),
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


@pytest.mark.parametrize("dim,cells,paths", [(1, 32, 64), (2, 16, 16), (3, 8, 4), (2, 32, 16), (1, 8, 64)])
@pytest.mark.parametrize("bc", list(BoundaryKind))
def test_block_form_lanes_allocate_less_than_one_state_array(dim, cells, paths, bc):
    # one-way affine y in blocks of 5 steps, of 4 after the slots of c wrap
    # at step 11, and of 1 and 2 step by step, after the first run: the same
    # guard, and the step loop's y to a few ulps
    grid, coeffs, peak = build_grid(dim, cells), COEFFS["readme"], []

    @contextlib.contextmanager
    def traced():
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            yield
            peak.append(tracemalloc.get_traced_memory()[1] - base)
        finally:
            tracemalloc.stop()

    calls, real = [], simulate._y_block
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulate, "_y_block", lambda *a: calls.append(len(a[1])) or real(*a))
        c, y = form_steps("blocks", grid, coeffs, bc, paths, 22, watch=traced)
    assert calls == [5, 5, 4, 5] and max(peak) < y.nbytes
    c_ref, y_ref = form_steps("own", grid, coeffs, bc, paths, 22)
    assert same_bits(np.broadcast_to(c, c_ref.shape), c_ref) and np.all(np.abs(y - y_ref) <= 1e-13 * y_ref)


def tangent_sweep_peak(dim, cells, seeds, bc, coeffs, dry_only=False):
    """Traced peak of 20 warm primal steps leaving their gates, each followed
    by the tangent step reading them, as in the sweep of
    malliavin.propagate_path (of dry alone with ``dry_only``); the largest
    peak of one tangent step, each traced on its own (an iterator buffer of
    a broadcasting ufunc, about 1 KB, is far below the sweep's bound but not
    below this one); and the tangent workspace."""
    grid = build_grid(dim, cells)
    rng = np.random.default_rng(1)
    primal = StepBuffers(grid, (1,), gates=True)
    c, y = primal.c[0], primal.y[0]
    c[...] = apply_bc(rng.uniform(0.5, 1.5, c.shape), grid, bc)
    y[...] = rng.uniform(0.5, 1.5, y.shape)
    tangent = TangentBuffers((seeds,) + grid.shape, c.shape, z=not dry_only)
    tangent.dry[...] = rng.standard_normal((seeds,) + grid.shape)
    if not dry_only:
        tangent.z[...] = rng.standard_normal((seeds,) + grid.shape)
    state = MalliavinState(tangent.z, tangent.dry)
    dt = cfl_dt(grid, coeffs, 2.0)
    dws = rng.standard_normal((21, 1)) * np.sqrt(dt)

    def both(c, y, dw, peaks=None):
        res = step(c, y, grid, coeffs, bc, dt, dw, work=primal)
        if peaks is not None:  # the sweep's peak so far is kept across the reset
            peaks[0] = max(peaks[0], tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
        step_malliavin(state, c, y, grid, coeffs, bc, dt, dw, primal, tangent)
        if peaks is not None:
            peaks[1] = max(peaks[1], tracemalloc.get_traced_memory()[1] - start)
        return res

    res = both(c, y, dws[0])  # warm-up
    tracemalloc.start()
    try:
        base, peaks = tracemalloc.get_traced_memory()[0], [0, 0]
        for dw in dws[1:]:
            res = both(res.c, res.y, dw, peaks)
        peak = max(peaks[0], tracemalloc.get_traced_memory()[1]) - base
    finally:
        tracemalloc.stop()
    assert state.dry is tangent.dry and np.all(np.isfinite(tangent.dry))
    assert state.z is tangent.z and (dry_only or np.all(np.isfinite(tangent.z)))
    return peak, peaks[1], tangent


@pytest.mark.parametrize("dim,cells,seeds", [(1, 64, 8), (2, 16, 4), (3, 8, 2)])
@pytest.mark.parametrize("bc", list(BoundaryKind))
@pytest.mark.parametrize("coeffs", ["readme", "regularized", "decaying"])
def test_tangent_steps_allocate_less_than_one_state_array(dim, cells, seeds, bc, coeffs):
    peak, call_peak, tangent = tangent_sweep_peak(dim, cells, seeds, bc, COEFFS[coeffs])
    assert peak < tangent.z.nbytes and call_peak < 512


@pytest.mark.parametrize("dim,cells,seeds", [(1, 510, 8), (2, 30, 4), (3, 14, 2)])
@pytest.mark.parametrize("bc", list(BoundaryKind))
@pytest.mark.parametrize("coeffs", ["readme", "zero", "saturating"])
def test_one_way_tangent_steps_allocate_less_than_one_seed_state(dim, cells, seeds, bc, coeffs):
    # f ignores y: the sweep steps dry alone (affine for readme, term by
    # term for zero and saturating terms); the grids are large enough that
    # one seed's state outweighs the Python objects a step makes
    assert not COEFFS[coeffs].source.reads_y
    peak, call_peak, tangent = tangent_sweep_peak(dim, cells, seeds, bc, COEFFS[coeffs], dry_only=True)
    assert tangent.z is None and tangent.drc is None
    assert peak < tangent.dry[0].nbytes and call_peak < 512


@pytest.mark.parametrize("coeffs,scratch", [
    ("readme", False), ("regularized", False), ("zero", True), ("saturating", True), ("decaying", True),
])
def test_a_tangent_allocates_scratch_only_for_z_or_the_term_by_term_dry_step(coeffs, scratch):
    # dry alone under the affine terms (linear a, coupling b; f ignores y)
    # reads dry, the primal's alpha and its y gate, and no scratch
    coeffs = COEFFS[coeffs]
    config = small_config(coeffs)
    plan = config.plan(1.5)
    dt, n = plan.dt, plan.n_steps
    work = malliavin._Tangent(config, WienerPath(dt, np.zeros(n)), [0, 2], None).work
    assert [getattr(work, name) is not None for name in ("lap", "t", "u")] == [scratch] * 3
    assert (work.z is not None) == coeffs.source.reads_y
    if not scratch:  # a primal under other terms is refused, not stepped without scratch
        primal = StepBuffers(config.grid, (1,), gates=True)
        primal.bind(COEFFS["saturating"])
        with pytest.raises(ValueError, match="affine dry step"):
            work.bind(COEFFS["saturating"], config.grid, primal)


# ---------------------------------------------------------------------------
# what a warm step reads is bound once


def bound_steps(monkeypatch, form, dim, gates, coeffs):
    """Six steps of 3 paths in one workspace of ``form`` (see
    ``form_steps``); from step 3 on, anything that takes views or binds
    cores raises.  Returns the final c and y."""

    def rebind(*args, **kwargs):
        raise AssertionError("a warm step took views or bound cores again")

    @contextlib.contextmanager
    def no_rebinding():
        for owner, name in [(simulate, "_stencil"), (grid_module, "laplacian_core"),
                            (StepBuffers, "bind"), (StepBuffers, "slot")]:
            monkeypatch.setattr(owner, name, rebind)
        yield

    return form_steps(form, build_grid(dim, 6), coeffs, BoundaryKind.NEUMANN, 3, 6, gates, no_rebinding)


@pytest.mark.parametrize("gates", [False, True])
@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("coeffs,form", [
    ("readme", "own"), ("regularized", "own"), ("decaying", "own"), ("zero", "own"),
    ("saturating", "own"),
    # c from the producer of a wave: only for reaction terms that ignore y
    ("readme", "y-lane"), ("regularized", "y-lane"), ("zero", "y-lane"), ("saturating", "y-lane"),
])
def test_warm_steps_rebind_nothing(monkeypatch, coeffs, form, dim, gates):
    # a y-lane gives the bits of a workspace with a c per path
    coeffs = COEFFS[coeffs]
    c, y = bound_steps(monkeypatch, form, dim, gates, coeffs)
    monkeypatch.undo()
    c_ref, y_ref = bound_steps(monkeypatch, "own", dim, gates, coeffs)
    assert same_bits(np.broadcast_to(c, c_ref.shape), c_ref) and same_bits(y, y_ref)


# ---------------------------------------------------------------------------
# the tangent step, bound as the primal step is

TANGENT_COEFFS = {
    # linear a and coupling b: a', b_c and b_y are declared constants
    "one-way": COEFFS["readme"],
    "two-way": make_coefficients(
        pme_beta(2.0),
        f=preset_coefficients("logistic_f", {"lambda": 0.5, "K": 5.0, "mu_y": 0.5}),
        a=preset_coefficients("linear_a", {"sigma": 0.3}),
        b=preset_coefficients("coupling_b", {"kappa": 0.5, "rho": 0.4}),
    ),
    # a' is evaluated at y; b is affine
    "saturating": COEFFS["saturating"],
    "decaying": COEFFS["decaying"],
}


def declared_constants_raise(coeffs):
    """``coeffs`` whose a', b_c and b_y raise when called wherever their
    terms declare them constant."""

    def evaluated(*args, **kwargs):
        raise AssertionError("a declared constant was evaluated")

    noise, drift = coeffs.noise, coeffs.drift
    if noise.slope is not None:
        noise = dataclasses.replace(noise, deriv=evaluated)
    if drift.affine is not None:
        drift = dataclasses.replace(drift, d_c=evaluated, d_y=evaluated)
    return dataclasses.replace(coeffs, noise=noise, drift=drift)


def tangent_steps(grid, coeffs, bc, seeds, n_steps, z, dt_factor=1.0, seed=0, watch=None, bound=None):
    """``n_steps`` primal steps of one path leaving their gates, each
    followed by the tangent step of ``seeds`` seeds in one workspace (z
    "zero", "drawn" or "none", a tangent of dry alone) under ``bound``
    (default ``coeffs``), inside ``watch(n)`` at step n, and the same
    tangent steps written term by term (``reference_tangent_step``).
    Returns the (z, dry) of both after every step."""
    rng = np.random.default_rng(seed)
    primal = StepBuffers(grid, (1,), gates=True)
    c, y = primal.c[0], primal.y[0]
    c[...] = apply_bc(rng.uniform(0.0, 2.0, c.shape), grid, bc)
    y[...] = rng.uniform(0.0, 2.0, y.shape)
    dt = dt_factor * cfl_dt(grid, coeffs, 2.0)
    dws = rng.standard_normal((n_steps, 1)) * rng.choice([np.sqrt(dt), 5.0])
    work = TangentBuffers((seeds,) + grid.shape, c.shape, z=z != "none")
    if z != "none":
        work.z[...] = 0.0 if z == "zero" else rng.standard_normal(work.z.shape)
    work.dry[...] = rng.standard_normal(work.dry.shape)
    state = MalliavinState(work.z, work.dry)
    ref = (None if work.z is None else work.z.copy(), work.dry.copy())
    got, expected = [], []
    for n, dw in enumerate(dws, 1):
        res = step(c, y, grid, coeffs, bc, dt, dw, work=primal)
        ref = reference_tangent_step(*ref, c, y, grid, coeffs, bc, dt, dw, primal)
        with watch(n) if watch else contextlib.nullcontext():
            step_malliavin(state, c, y, grid, bound or coeffs, bc, dt, dw, primal, work)
        got.append((None if work.z is None else work.z.copy(), work.dry.copy()))
        expected.append(ref)
        c, y = res.c, res.y
    return got, expected


def reference_tangent_step(z, dry, c, y, grid, coeffs, bc, dt, dw, primal):
    """The tangent step term by term in the form its terms declare: each
    coefficient from its public callable as a fresh array over every seed's
    row, dW and alpha = 1 + sigma dW - rho dt ones too, the Laplacian from
    ``laplacian_core`` and the boundary rule from ``apply_bc``; z None: dry
    alone, with drc = +0.0."""
    full = lambda value: np.array(np.broadcast_to(value, dry.shape))
    if z is None:
        z_new, drc = None, np.zeros(dry.shape)
    else:
        drc = z * full(coeffs.recip_beta_prime(c))
        lap = np.zeros(z.shape)
        laplacian_core(drc, grid.spacing, grid.dim, out=lap)
        lap = lap + full(coeffs.df_dc(c, y)) * drc + full(coeffs.df_dy(c, y)) * dry
        z_new = apply_bc(np.where(primal.v_gate, 0.0, z + dt * lap), grid, bc)
    sigma, drift = coeffs.noise.slope, coeffs.drift.affine
    if sigma is None or drift is None:
        dry_new = dry + full(coeffs.a_prime(y)) * dry * full(dw) + (
            full(coeffs.db_dc(c, y)) * drc + full(coeffs.db_dy(c, y)) * dry) * dt
    else:  # the derivative of the affine y step
        kappa, rho = drift
        dry_new = dry * full(sigma * dw + 1.0 - rho * dt) + full(kappa * dt) * drc
    return z_new, np.where(primal.y_gate, 0.0, dry_new)


def same_tangents(got, expected):
    return all((z is None if z_ref is None else same_bits(z, z_ref)) and same_bits(dry, dry_ref)
               for (z, dry), (z_ref, dry_ref) in zip(got, expected))


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("seeds", [1, 3])
@pytest.mark.parametrize("coupling,z,tiled", [
    ("one-way", "none", 0),  # dry alone, and every coefficient of dry is a constant or alpha
    ("one-way", "zero", 3),  # a z is stepped: 1/beta', f_c and f_y are evaluated and tiled
    ("one-way", "drawn", 3),
    ("two-way", "zero", 3),
    ("two-way", "drawn", 3),
    ("saturating", "none", 1),  # dry alone, term by term: a' is evaluated and tiled
])
def test_warm_tangent_steps_rebind_nothing_and_evaluate_no_declared_constant(
    monkeypatch, dim, seeds, coupling, z, tiled
):
    calls = []

    def rebind(*args, **kwargs):
        raise AssertionError("a warm tangent step took views or bound again")

    @contextlib.contextmanager
    def watch(n):
        if n == 3:  # from the third step on
            for owner, name in [(grid_module, "laplacian_core"), (malliavin, "_stencil"),
                                (malliavin, "_face_pairs"), (TangentBuffers, "bind")]:
                monkeypatch.setattr(owner, name, rebind)
            if not tiled:
                monkeypatch.setattr(malliavin, "_tiled", rebind)
            else:
                count = malliavin._tiled
                monkeypatch.setattr(malliavin, "_tiled", lambda *args: calls.append(n) or count(*args))
        yield

    coeffs = TANGENT_COEFFS[coupling]
    with np.errstate(all="ignore"):
        got, expected = tangent_steps(build_grid(dim, 5), coeffs, BoundaryKind.NEUMANN, seeds, 6, z,
                                      watch=watch, bound=declared_constants_raise(coeffs))
    assert len(calls) == tiled * 4  # steps 3 to 6
    assert same_tangents(got, expected)


@SETTINGS
@given(st.integers(1, 3), st.integers(2, 6), st.sampled_from(list(BoundaryKind)),
       st.sampled_from(sorted(TANGENT_COEFFS)), st.integers(1, 5), st.sampled_from(["zero", "drawn", "none"]),
       st.floats(0.2, 5.0), st.integers(0, 2**32 - 1))
def test_the_bound_tangent_step_is_the_term_by_term_formula_bitwise(dim, cells, bc, coupling, seeds, z,
                                                                    dt_factor, seed):
    # steps beyond the stability bound and large increments make the clamps
    # bite; only a source that ignores y steps dry alone
    coeffs = TANGENT_COEFFS[coupling]
    assume(z != "none" or not coeffs.source.reads_y)
    grid = build_grid(dim, min(cells, {1: 6, 2: 6, 3: 3}[dim]))
    with np.errstate(all="ignore"):
        got, expected = tangent_steps(grid, coeffs, bc, seeds, 5, z, dt_factor, seed)
    assert same_tangents(got, expected)


@SETTINGS
@given(st.integers(1, 3), st.integers(1, 5), st.booleans(), st.floats(0.0, 2.0), st.floats(0.0, 2.0),
       st.floats(0.0, 2.0), st.floats(1e-6, 0.1), st.sampled_from([None, 5.0]), st.integers(0, 2**32 - 1))
def test_the_affine_tangent_step_is_the_term_by_term_formula_to_a_few_ulps(
        dim, seeds, two_way, sigma, kappa, rho, dt, big_dw, seed):
    # dry+ = alpha dry + (kappa dt) drc against dry + sigma dry dW +
    # (kappa drc - rho dry) dt, both gated by the primal's y gate; z is
    # stepped by the same formula in both, bit for bit
    grid, bc = build_grid(dim, CELLS[dim]), BoundaryKind.NEUMANN
    f = preset_coefficients("logistic_f", {"lambda": 0.5, "K": 5.0, "mu_y": 0.5 if two_way else 0.0})
    coeffs = make_coefficients(pme_beta(2.0), f=f, a=preset_coefficients("linear_a", {"sigma": sigma}),
                               b=preset_coefficients("coupling_b", {"kappa": kappa, "rho": rho}))
    rng = np.random.default_rng(seed)
    primal = StepBuffers(grid, (1,), gates=True)
    c, y = primal.c[0], primal.y[0]
    c[...] = apply_bc(rng.uniform(0.0, 2.0, c.shape), grid, bc)
    y[...] = rng.uniform(0.0, 2.0, y.shape)
    dw = rng.standard_normal(1) * (np.sqrt(dt) if big_dw is None else big_dw)
    step(c, y, grid, coeffs, bc, dt, dw, work=primal)
    assert primal.affine == (sigma, kappa, rho)
    work = TangentBuffers((seeds,) + grid.shape, c.shape, z=two_way)
    dry = rng.standard_normal((seeds,) + grid.shape)
    z = rng.standard_normal((seeds,) + grid.shape) if two_way else None
    got = step_malliavin(MalliavinState(z, dry.copy()), c, y, grid, coeffs, bc, dt, dw, primal, work)
    # the primal's own alpha, bound as a 0-d view (a (1, 1) operand buffers)
    assert work.alpha.shape == () and np.shares_memory(work.alpha, primal.alpha)
    drc = np.zeros(dry.shape) if z is None else z * coeffs.recip_beta_prime(c)
    dw = dw.reshape((1,) * (dim + 1))
    formula = np.where(primal.y_gate, 0.0, dry + coeffs.a_prime(y) * dry * dw + (
        coeffs.db_dc(c, y) * drc + coeffs.db_dy(c, y) * dry) * dt)
    # each form rounds each term a few times, as the affine y step does
    scale = np.abs(dry) + np.abs(sigma * dry * dw) + kappa * np.abs(drc) * dt + rho * np.abs(dry) * dt
    assert np.all(np.abs(got.dry - formula) <= 6.0 * np.finfo(float).eps * scale)
    if two_way:
        z_ref, _ = reference_tangent_step(z, dry, c, y, grid, coeffs, bc, dt, dw.reshape(1), primal)
        assert same_bits(got.z, z_ref)
    else:
        assert got.z is None


@pytest.mark.parametrize("paths,workers,pool", [
    (2, 1, False), (2, 3, False), (4, 1, False), (4, 2, True), pytest.param(0, 1, False, id="records"),
])
def test_only_waves_of_several_lanes_start_a_thread_pool(paths, workers, pool):
    # two paths a chunk: a wave of several lanes needs two chunks and two workers
    code = f"""
import sys
from rpmelab import simulate
from rpmelab.grid import BoundaryKind, build_grid
from rpmelab.model import make_coefficients, pme_beta
grid = build_grid(1, 8)
simulate._STATE_BYTES = 2 * simulate.path_bytes(grid)
config = simulate.SimConfig(grid, make_coefficients(pme_beta(2.0)), BoundaryKind.NEUMANN, t_final=0.01)
simulate.simulate_ensemble(config, 1.0, 1.0, n_paths={paths}, n_workers={workers})
print("concurrent.futures.thread" in sys.modules)
"""
    if not paths:  # a one-lane simulate and a malliavin, their records a table of one frame each
        code = """
import sys, tempfile
from pathlib import Path
from rpmelab import pathfile
from rpmelab.cli import main
pathfile._WRITE_BUFFER = 1
with tempfile.TemporaryDirectory() as tmp:
    cfg = Path(tmp) / "run.cfg"
    cfg.write_text("cells = 8\\nt_final = 0.01\\nn_paths = 2\\n")
    for command in ("simulate", "malliavin"):
        assert main([command, str(cfg), "--out", str(Path(tmp) / command)]) == 0
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


def frame_hook(grid, chunks):
    """An ``on_frames`` hook that checks each chunk's frames arrive in order,
    frame 0 first, and gathers them into ``chunks`` as (path ids, c, y), the
    frames shaped (frames, paths, *grid.shape), chunks in path order, each
    added at its last frame."""
    lock = threading.Lock()  # lanes on several threads add their chunks

    def hook(part):
        shape, taken = (len(part.path_ids),) + grid.shape, []

        def frame(k, c, y):
            assert k == len(taken)
            taken.append(tuple(np.broadcast_to(a, shape).copy() for a in (c, y)))
            if k == len(part.times) - 1:
                with lock:
                    chunks.append((part.path_ids.copy(), *(np.array([f[i] for f in taken]) for i in (0, 1))))
                    chunks.sort(key=lambda chunk: chunk[0][0])

        return frame

    return hook


def every_caller(n_workers):
    """What each caller of ``simulate_ensemble`` returns on one small
    problem, as named arrays, plus the chunk sizes of an ensemble whose
    frames go to an ``on_frames`` hook; ``propagate_path`` is the caller
    that records a tangent at every step."""
    # the source grows c at a rate set by each path's y, so the sups differ
    config = small_config(COEFFS["decaying"], t_final=0.02)
    kw = dict(n_paths=7, seed=11, n_workers=n_workers, n_snapshots=4)
    chunks = []
    streamed = simulate_ensemble(config, 0.2, 1.0, on_frames=frame_hook(config.grid, chunks), **kw)
    frames = [(c[:, j], y[:, j]) for ids, c, y in chunks for j in range(len(ids))]
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
    return out, [len(ids) for ids, _, _ in chunks]


@pytest.mark.parametrize("workers", [1, 3])
def test_chunking_never_changes_a_bit(monkeypatch, workers):
    per_path = simulate.path_bytes(small_config().grid)
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


@pytest.mark.parametrize("coupling", ["readme", "decaying"])  # one-way: lanes of y behind a shared c
def test_a_wave_frees_its_lanes_before_the_next_makes_its_own(monkeypatch, coupling):
    # one-path chunks, one lane a wave: no lane workspace of a wave is alive
    # as the next wave makes its lane, so the waves never hold two at once
    made, alive, real = [], [], simulate._lane

    class Tracked(simulate.StepBuffers):
        def __init__(self, grid, lead=(), gates=False, half=None, nodes=None):
            super().__init__(grid, lead, gates, half, nodes)
            if half != "c":  # a lane's, not the shared c's
                made.append(weakref.ref(self))

    def lane(*args):
        alive.append(sum(ref() is not None for ref in made))
        return real(*args)

    monkeypatch.setattr(simulate, "StepBuffers", Tracked)
    monkeypatch.setattr(simulate, "_lane", lane)
    monkeypatch.setattr(simulate, "_STATE_BYTES", 1)
    simulate_ensemble(small_config(COEFFS[coupling]), cosine, 1.0, n_paths=3, seed=1, n_snapshots=2)
    assert alive == [0, 0, 0] and len(made) == 3


def test_on_step_sees_the_first_chunk_with_its_gates(monkeypatch):
    config = small_config(COEFFS["decaying"], t_final=0.01)
    monkeypatch.setattr(simulate, "_STATE_BYTES", 3 * simulate.path_bytes(config.grid))
    seen = []

    def on_step(res, c, y, dw, work):
        seen.append((len(y), work.v_gate is not None, y[0].copy()))

    run = simulate_ensemble(config, cosine, 1.0, n_paths=7, seed=3, n_workers=2, on_step=on_step)
    dense = simulate_path(config, cosine, 1.0, seed=3, store_dense=True)
    assert len(seen) == run.n_steps == dense.n_steps
    assert {(rows, gates) for rows, gates, _ in seen} == {(3, True)}
    assert same_bits([y0 for _, _, y0 in seen], dense.y[:-1, 0])


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("coupling", ["one-way", "two-way"])
def test_a_frame_hook_gets_each_frame_in_its_lane_layout_and_none_of_a_chunk_it_declines(
    monkeypatch, workers, coupling
):
    # chunks of paths 0-2, 3-5 and 6: the hook takes path 0's chunk alone and
    # gets its frames 0 to n once each, frame 0 too in the lane's layout: y a
    # row a path, c one row when the paths share it (one-way), else a row a path
    config = small_config(COEFFS["readme" if coupling == "one-way" else "decaying"], t_final=0.01)
    monkeypatch.setattr(simulate, "_STATE_BYTES", 3 * simulate.path_bytes(config.grid))
    dense = simulate_path(config, cosine, 1.0, seed=3, store_dense=True)
    n, asked, taken = dense.n_steps, [], []

    def hook(part):
        asked.append(int(part.path_ids[0]))
        return (lambda k, c, y: taken.append((k, c.copy(), y.copy()))) if part.path_ids[0] == 0 else None

    run = simulate_ensemble(config, cosine, 1.0, n_paths=7, seed=3, n_workers=workers, n_snapshots=n,
                            on_frames=hook)
    assert sorted(asked) == [0, 3, 6]
    assert [k for k, _, _ in taken] == list(range(n + 1))
    rows = 1 if coupling == "one-way" else 3
    assert {(c.shape, y.shape) for _, c, y in taken} == {((rows,) + config.grid.shape, (3,) + config.grid.shape)}
    assert same_bits([c[0] for _, c, _ in taken], dense.c[:, 0])
    assert same_bits([y[0] for _, _, y in taken], dense.y[:, 0])
    assert run.c is None and same_bits(run.y_final[0], dense.y_final[0])


@pytest.mark.parametrize("coupling", ["one-way", "two-way"])
def test_a_tangent_run_keeps_a_v_gate_only_where_a_z_reads_it(monkeypatch, coupling):
    # a one-way tangent steps dry alone: neither the producer of the shared c
    # (its workspace and ring) nor the lane holds a v-gate, and the lane
    # keeps its y gate; a two-way lane steps c itself and keeps both gates
    coeffs = COEFFS["readme"] if coupling == "one-way" else COEFFS["decaying"]
    config = small_config(coeffs, t_final=0.01)
    works, rings, gates = [], [], []

    class Recorded(StepBuffers):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            works.append(self)

    wave_c, call = simulate._wave_c, malliavin._Tangent.__call__
    monkeypatch.setattr(simulate, "StepBuffers", Recorded)
    monkeypatch.setattr(simulate, "_wave_c", lambda *args: rings.append(wave_c(*args)) or rings[-1])
    monkeypatch.setattr(malliavin._Tangent, "__call__",
                        lambda self, res, c, y, dw, work: gates.append((work.v_gate, work.y_gate))
                        or call(self, res, c, y, dw, work))
    c, _ = simulate.prepare_initial(config, cosine, 1.0)
    plan = config.plan(float(np.max(c)))
    dt, n = plan.dt, plan.n_steps
    _, [[tangent]] = propagate_path(config, cosine, 1.0, gen_wiener(n, dt, seed=4), [2])
    assert np.all(np.isfinite(tangent.dry)) and len(gates) == n
    shape = (1,) + config.grid.shape
    assert all(y_gate.dtype == bool and y_gate.shape == shape for _, y_gate in gates)
    if coupling == "one-way":
        slots = [slot for ring, _ in rings for slot in ring]
        assert len(rings) == 1 and slots and [w.v_gate for w in works] == [None, None]
        assert not [a for slot in slots for a in slot if isinstance(a, np.ndarray) and a.dtype == bool]
        assert all(v_gate is None for v_gate, _ in gates)
    else:
        assert rings == [] and len(works) == 1
        assert works[0].v_gate.dtype == bool and works[0].v_gate.shape == shape
        assert all(v_gate is works[0].v_gate and y_gate is works[0].y_gate for v_gate, y_gate in gates)


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
    assert config.plan(1.5).n_steps > 10
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


@pytest.mark.parametrize("noise", ["seeded", "explicit"])
@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("row,first_id", [(None, 0), (None, 4), (0, 0), (2, 0), (1, 5)])
def test_a_non_finite_path_aborts_at_its_step_and_is_named(noise, value, row, first_id):
    # the abort test on the running sup is all(isfinite(c_sup)) for NaN and +inf
    # alike, on a shared c (row None) and on one of three per-path c, under
    # seeded noise and under 40 steps of increments given
    calls = []
    grid = small_config().grid
    config = small_config(make_coefficients(pme_beta(2.0), f=poisoned_source(value, 5, calls, grid, row)),
                          t_final=0.02)
    kw = dict(n_paths=3, seed=0)
    if noise == "explicit":
        kw = dict(wiener=WienerPath(config.t_final / 40, np.random.default_rng(1).standard_normal((3, 40)) * 0.01))
    bad = first_id + (row or 0)
    with pytest.raises(NumericalAbort, match=rf"^non-finite c at step 5 of \d+ \(path {bad}\)$"):
        simulate_ensemble(config, cosine, 1.0, first_path_id=first_id, **kw)
    assert len(calls) == 5


def test_a_non_finite_c_ends_a_tangent_sweep_at_its_step():
    # propagate_path, under the increments it is given: a one-way source that
    # turns NaN at its third call ends a 40-step sweep at step 3, after three
    # calls of f, with the abort of a seeded run
    calls = []
    config = small_config(make_coefficients(pme_beta(2.0), f=poisoned_source(np.nan, 3, calls, small_config().grid)))
    wiener = WienerPath(config.t_final / 40, np.random.default_rng(1).standard_normal(40) * 0.01)
    with pytest.raises(NumericalAbort, match=r"^non-finite c at step 3 of 40 \(path 0\)$"):
        propagate_path(config, cosine, 1.0, wiener, [0, 5])
    assert len(calls) == 3


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning", "ignore:overflow encountered:RuntimeWarning")
@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["one-way", "two-way"]), st.sampled_from(["affine", "saturating"]), st.sampled_from([1, 3]),
       st.sampled_from([np.nan, np.inf]), st.integers(0, 4), st.integers(0, 48), st.integers(1, 39), st.booleans())
@example("one-way", "affine", 1, np.inf, 4, 24, 7, True)
@example("two-way", "affine", 3, np.inf, 2, 0, 20, True)
def test_a_non_finite_y_at_any_node_of_any_path_aborts_naming_that_path(way, form, workers, value, row, node, k, heal):
    # a NaN or +inf planted at one node of one path's y after step k, in
    # lanes of y alone (one-way) or of c and y (two-way), under the affine
    # or the term-by-term y step, in chunks of 2, 2 and 1 paths on 1 or 3
    # workers and blocks of 7 steps, ends the run naming that path; with
    # ``heal`` the next step's alpha is negative, which clamps alpha * inf
    # back to 0: the lane checks y before it, so the abort names step k
    grid = small_config().grid
    f = preset_coefficients("logistic_f", {"lambda": 0.5, "K": 5.0, "mu_y": 0.7 if way == "two-way" else 0.0})
    a = preset_coefficients("linear_a" if form == "affine" else "saturating_a", {"sigma": 0.3})
    coeffs = make_coefficients(pme_beta(2.0), f=f, a=a, b=preset_coefficients("coupling_b", {"kappa": 0.5, "rho": 0.4}))
    config, first, bad = small_config(coeffs, t_final=0.02), 3, 3 + row
    inc = np.random.default_rng(1).standard_normal((5, 40)) * 0.01
    if heal:
        inc[row, k] = -10.0  # step k + 1: alpha = 1 + 0.3 dW - 0.4 dt < 0
    wiener = WienerPath(config.t_final / 40, inc)

    def plant(part):
        def frame(j, c, y):
            if j == k and bad in part.path_ids:
                y[list(part.path_ids).index(bad)].flat[node] = value

        return frame

    kw = dict(wiener=wiener, first_path_id=first, n_workers=workers, n_snapshots=40)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulate, "_STATE_BYTES", 2 * simulate.path_bytes(grid))
        mp.setattr(simulate, "_BLOCK_BYTES", 7 * (8 * grid.n_nodes + simulate._SLOT_VIEWS))
        assert np.all(np.isfinite(simulate_ensemble(config, cosine, 1.0, **kw).y_final))
        with pytest.raises(NumericalAbort) as abort:
            simulate_ensemble(config, cosine, 1.0, on_frames=plant, **kw)
    name, n, path = re.fullmatch(r"non-finite (c|y) at step (\d+) of 40 \(path (\d+)\)", str(abort.value)).groups()
    end = min(40, -(-k // 7) * 7)  # the end of the block of step k
    assert int(path) == bad
    if heal and form == "affine":
        assert (name, int(n)) == ("y", k)
    elif way == "one-way":  # y persists non-finite, and c does not read it
        assert (name, int(n)) == ("y", end)
    else:  # or f carries a NaN into c, which aborts at its own step
        assert k <= int(n) <= end


def per_step_track(part, n, dst):
    """Step n's clamp mass, sup and min of c, in slot ``dst``, added to every
    path of ``part`` one step at a time, as a lane that steps the c of its own
    paths tracks them: the reference for the producer of a wave's shared c,
    which tracks them once a block."""
    part.clamp_mass += dst.mass
    np.maximum(part.c_sup, np.maximum.reduce(dst.rows, axis=1), out=part.c_sup)
    np.minimum(part.c_min, np.minimum.reduce(dst.rows, axis=1), out=part.c_min)
    if not np.all(np.isfinite(part.c_sup)):
        bad = int(part.path_ids[int(np.argmin(np.isfinite(part.c_sup)))])
        raise NumericalAbort(f"non-finite c at step {n} of {part.n_steps} (path {bad})")


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 3), st.sampled_from(list(BoundaryKind)), st.integers(3, 13),
       st.sampled_from(["1", "2", "no divisor", "thirds"]), st.integers(1, 4), st.integers(0, 9),
       st.integers(1, 15), st.sampled_from([np.nan, np.inf, -np.inf, -40.0]),
       st.sampled_from([1.0, 0.0, -0.0]), st.sampled_from([None, 0.0, -0.0]), st.integers(0, 2**32 - 1))
# a sink lowers the min at every step, also in the block of steps 5 and 6 that wraps the ring
@example(1, BoundaryKind.NEUMANN, 9, "2", 2, 0, 1, -40.0, 1.0, None, 0)
# c0 of -0.0 alone: its sup and min are -0.0, the rows of every step +0.0
@example(2, BoundaryKind.NEUMANN, 6, "1", 1, 3, 20, np.nan, -0.0, None, 0)
@example(1, BoundaryKind.DIRICHLET, 7, "thirds", 3, 0, 20, np.nan, 1.0, -0.0, 5)
def test_block_tracking_is_bitwise_the_per_step_tracking(dim, bc, n, blocks, paths, first, k, value, scale, zero,
                                                         seed):
    # the producer of a wave's shared c adds the clamp mass, sup and min of
    # its steps to the wave's paths once a block, from the max of each step's
    # row and the min of the block: bit for bit, sign of zero included, what
    # per-step tracking adds; a c that stops being finite at step k ends the
    # block with the abort that per-step tracking raises, naming step k and
    # the wave's first path, after k calls of f (poisoned from call k, which
    # may lie past the run)
    grid = build_grid(dim, CELLS[dim])
    # blocks of 1, 2, a length that does not divide n, and a third of n: from
    # the third block on, a block wraps the ring of block + 1 slots
    block = {"1": 1, "2": 2, "no divisor": next(b for b in range(3, n + 3) if n % b), "thirds": n // 3}[blocks]
    # c0 with zeros of both signs: its min and max may be -0.0 where the
    # rows of later steps hold +0.0, and np.minimum and np.maximum then take
    # the new value; without zeros, a sink lowers the min at every step
    rng = np.random.default_rng(seed)
    c0 = rng.uniform(1.0, 1.05, grid.shape) * scale
    if zero is not None:
        c0[rng.random(grid.shape) < 0.3] = zero
        c0[rng.random(grid.shape) < 0.2] = -0.0
    c_init = apply_bc(c0, grid, bc)
    results = []
    for blocked in (True, False):
        calls = []
        coeffs = make_coefficients(pme_beta(2.0), f=poisoned_source(value, k, calls, grid))
        dt = cfl_dt(grid, coeffs, 2.0)
        config = SimConfig(grid, coeffs, bc, t_final=n * dt)
        part = EnsembleResult(grid, dt, n, np.arange(first, first + paths), None, None,
                              np.full(paths, np.max(c_init)), np.full(paths, np.min(c_init)), np.zeros(paths))
        stop, abort, tracked = n, None, {}  # step -> what part holds after it

        def keep(m):
            tracked[m] = [a.copy() for a in (part.c_sup, part.c_min, part.clamp_mass)]

        if blocked:
            slots, advance = simulate._wave_c(config, part, block)
            slots[0].c[...] = c_init
            for start in range(0, n, block):
                stop, abort = advance(start, min(start + block, n))
                keep(stop)
                if abort is not None:
                    break
        else:
            work = StepBuffers(grid, (1,), half="c")
            work.bind(coeffs)
            work.c[0][...] = c_init
            try:
                for stop in range(1, n + 1):
                    src, dst = work.slots[(stop - 1) % 2], work.slots[stop % 2]
                    simulate._c_half(src, src.band, dst, bc, dt, work)
                    try:
                        per_step_track(part, stop, dst)
                    finally:
                        keep(stop)
            except NumericalAbort as exc:
                abort = exc
        results.append((stop, None if abort is None else str(abort), len(calls), tracked))
    (stop, abort, calls, got), (stop_ref, abort_ref, calls_ref, ref) = results
    assert (stop, abort, calls) == (stop_ref, abort_ref, calls_ref)
    if abort is not None:
        assert abort == f"non-finite c at step {k} of {n} (path {first})" and calls == k
    # after every block, the last one included
    for m, arrays in got.items():
        assert all(same_bits(a, b) for a, b in zip(arrays, ref[m])), m


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
    monkeypatch.setattr(simulate, "_STATE_BYTES", 2 * simulate.path_bytes(grid))
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
    monkeypatch.setattr(simulate, "_STATE_BYTES", 2 * simulate.path_bytes(grid))
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
    monkeypatch.setattr(simulate, "_STATE_BYTES", 2 * simulate.path_bytes(config.grid))
    monkeypatch.setattr(simulate, "_BLOCK_BYTES", 2 * (8 * config.grid.n_nodes + simulate._SLOT_VIEWS))
    plan = config.plan(1.5)
    dt, n = plan.dt, plan.n_steps
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
        plan = config.plan(float(np.max(c_init)), multiple_of=k)
        dt, n = plan.dt, plan.n_steps
        scale = draw(st.sampled_from([1.0, 5.0]))
        inc = np.random.default_rng(seed).standard_normal((paths, n)) * (scale * np.sqrt(dt))
        kw.update(wiener=WienerPath(dt, inc))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulate, "_STATE_BYTES", chunk * simulate.path_bytes(grid))
        ens = simulate_ensemble(config, bump, 1.0, **kw)

    for j in range(paths):
        if seeded:
            path = simulate_path(config, bump, 1.0, seed=seed, path_id=first + j, n_snapshots=k)
            wiener = gen_wiener(path.n_steps, path.dt, seed, first + j)
        else:
            wiener = WienerPath(dt, inc[j])
            path = simulate_path(config, bump, 1.0, wiener=wiener, n_snapshots=k)
        # seeded or under explicit increments, the sup and min are those of every step
        dense = simulate_path(config, bump, 1.0, wiener=wiener, store_dense=True)
        assert same_bits(ens.c_sup[j], np.max(dense.c)) and same_bits(ens.c_sup[j], path.c_sup[0])
        assert same_bits(ens.c_min[j], np.min(dense.c)) and same_bits(ens.c_min[j], path.c_min[0])
        assert (ens.dt, ens.n_steps) == (path.dt, path.n_steps)
        assert same_bits(ens.times, path.times)
        assert same_bits(ens.c[:, j], path.c[:, 0])
        assert same_bits(ens.y[:, j], path.y[:, 0])
        assert same_bits(ens.c_final[j], path.c_final[0])
        assert same_bits(ens.y_final[j], path.y_final[0])
        assert same_bits(ens.clamp_mass[j], path.clamp_mass[0])
    assert_c_rows(ens, coupling == "one-way")


def assert_c_rows(ens, shared):
    """A shared c is one row that every path sees through read-only views,
    stride 0 along the path axis; otherwise each path has a writable row of
    c, as of y."""
    for held, axis in ((ens.c_final, 0), (ens.c, 1)):
        if held is not None:
            assert held.flags.writeable != shared and (held.strides[axis] == 0) == shared
    for held in (ens.y_final, ens.y):
        assert held is None or held.flags.writeable and all(held.strides)


@pytest.mark.parametrize("coupling", ["one-way", "two-way"])
def test_refinement_levels_and_sweep_finals_hold_a_shared_c_once(monkeypatch, coupling):
    # every ensemble that cauchy_refinement and epsilon_sweep run, under their
    # explicit increments: a shared c is one row, each path's row bitwise the
    # one-path result
    from rpmelab import analysis

    runs, real = [], analysis.simulate_ensemble
    monkeypatch.setattr(analysis, "simulate_ensemble",
                        lambda *args, **kw: runs.append((args, kw, real(*args, **kw))) or runs[-1][2])
    config = small_config(COEFFS["readme"] if coupling == "one-way" else COEFFS["decaying"], t_final=0.01)
    refine = cauchy_refinement(config, cosine, 1.0, levels=(4, 6), n_paths=3, seed=5, n_snapshots=2, n_workers=2)
    sweep = epsilon_sweep(config, (0.1, 0.01), cosine, 1.0, n_paths=3, seed=5)
    assert len(runs) == 4 and refine.c_distances[0] > 0.0 and sweep.c_distances[0] > 0.0
    for (cf, c0, y0), kw, ens in runs:
        assert_c_rows(ens, coupling == "one-way")
        wiener = kw["wiener"]
        for j in range(3):
            path = simulate_path(cf, c0, y0, wiener=WienerPath(wiener.dt, wiener.increments[j]),
                                 n_snapshots=kw.get("n_snapshots"))
            assert same_bits(ens.c_final[j], path.c_final[0]) and same_bits(ens.y_final[j], path.y_final[0])
            if ens.c is not None:
                assert same_bits(ens.c[:, j], path.c[:, 0]) and same_bits(ens.y[:, j], path.y[:, 0])


@pytest.mark.parametrize("coupling", ["one-way", "two-way"])
def test_refinement_distances_are_those_of_whole_levels_kept(monkeypatch, coupling):
    # every level of the ladder rerun with its frames kept: the distances of adjacent levels' whole
    # stacks, every frame and path at once, are bit for bit those that the ladder takes chunk by chunk
    # (chunks of 2 paths on the finest grid, more on the coarser) and frame by frame, at 2 workers
    from rpmelab import analysis

    runs, real = [], analysis.simulate_ensemble
    monkeypatch.setattr(analysis, "simulate_ensemble",
                        lambda *args, **kw: runs.append((args, kw)) or real(*args, **kw))
    monkeypatch.setattr(simulate, "_STATE_BYTES", 2 * simulate.path_bytes(build_grid(2, 16)))
    config = small_config(COEFFS["readme"] if coupling == "one-way" else COEFFS["decaying"], t_final=0.01)
    out = cauchy_refinement(config, cosine, 1.0, levels=(4, 8, 16), n_paths=5, seed=5, n_snapshots=2, n_workers=2)
    kept = [real(*args, **{k: v for k, v in kw.items() if k != "on_frames"}) for args, kw in runs]
    assert same_bits(out.times, kept[0].times)
    tw = np.full(3, out.times[1] - out.times[0])
    tw[[0, -1]] *= 0.5
    for i, (a, b) in enumerate(zip(kept, kept[1:])):
        for name, dists in (("c", out.c_distances), ("y", out.y_distances)):
            u, v = getattr(a, name), getattr(b, name)
            cross = analysis._batched_cross(u, a.grid, v, b.grid)
            d_sq = np.maximum(analysis._batched_pc_norm_sq(u, a.grid) + analysis._batched_pc_norm_sq(v, b.grid)
                              - 2.0 * cross, 0.0)
            assert same_bits(np.sqrt(np.mean(np.sum(tw[:, None] * d_sq, axis=0))), dists[i]), (name, i)


def test_kept_frames_of_a_shared_c_do_not_grow_with_the_paths():
    # 41 kept frames of 8^2 nodes: 8 more paths add their y frames (the last
    # of them y_final) and their step state, but no frame of c
    config = small_config(COEFFS["readme"], t_final=0.01)
    frames, peaks = 41, []
    simulate_ensemble(config, cosine, 1.0, n_paths=16, seed=3, n_snapshots=frames - 1)  # first-call caches
    for paths in (8, 16):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            ens = simulate_ensemble(config, cosine, 1.0, n_paths=paths, seed=3, n_snapshots=frames - 1)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
        finally:
            tracemalloc.stop()
        assert_c_rows(ens, True)
    y_frames = 8 * frames * config.grid.n_nodes * 8
    assert y_frames <= peaks[1] - peaks[0] < y_frames * 3 // 2


def test_converge_holds_no_frame_of_its_finest_level():
    # levels of 4, 8 and 16 cells in 2D, 8 paths that share their c, 512 steps at either frame count: 30
    # more frames of y a path and of the one c add those of the second-finest level, and the coarsest's,
    # which it reads as it runs, but none of the finest level's
    config = dataclasses.replace(small_config(COEFFS["readme"], t_final=0.01), dt=0.01 / 512)

    def refine(n_snapshots):
        return cauchy_refinement(config, cosine, 1.0, levels=(4, 8, 16), n_paths=8, seed=3, n_snapshots=n_snapshots)

    refine(32)  # first-call caches
    peaks = []
    for n_snapshots in (2, 32):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = refine(n_snapshots)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
        finally:
            tracemalloc.stop()
        assert out.levels[-1].n_steps == 512
    coarsest, second, finest = (30 * (8 + 1) * build_grid(2, m).n_nodes * 8 for m in (4, 8, 16))
    assert second <= peaks[1] - peaks[0] < min(second * 3 // 2, finest)


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("coupling", ["one-way", "two-way"])
def test_one_way_ensembles_step_c_once_per_wave(monkeypatch, coupling, workers):
    # five paths in chunks of 2, 2 and 1: one wave of three lanes at workers
    # 3, three waves of one lane at workers 1; y is stepped once per path and
    # step, in the block form from frame to frame when one-way, a shared c
    # once per wave and step, a per-path c once per path; only the first
    # chunk holds the one row of a shared c writable
    c_rows, y_rows, parts = [], [], []
    c_half, y_half, y_block, lane = simulate._c_half, simulate._y_half, simulate._y_block, simulate._lane
    monkeypatch.setattr(simulate, "_c_half", lambda src, *a: c_rows.append(len(src[0])) or c_half(src, *a))
    monkeypatch.setattr(simulate, "_y_half", lambda c, y, *a: y_rows.append((len(y), 1)) or y_half(c, y, *a))
    monkeypatch.setattr(simulate, "_y_block",
                        lambda y, alphas, *a: y_rows.append((len(y), len(alphas))) or y_block(y, alphas, *a))
    monkeypatch.setattr(simulate, "_lane", lambda *a: parts.append(a[4]) or lane(*a))
    coeffs = ONE_WAY["readme"] if coupling == "one-way" else TWO_WAY["decaying"]
    config = small_config(coeffs)
    monkeypatch.setattr(simulate, "_STATE_BYTES", 2 * simulate.path_bytes(config.grid))
    ens = simulate_ensemble(config, cosine, 1.0, n_paths=5, seed=2, n_snapshots=1, n_workers=workers)
    n, waves = ens.n_steps, 3 // workers
    assert sorted(y_rows) == sorted([(2, n), (2, n), (1, n)] if coupling == "one-way" else [(2, 1), (2, 1), (1, 1)] * n)
    assert sorted(c_rows) == sorted([1] * waves * n if coupling == "one-way" else [2, 2, 1] * n)
    assert ens.c.shape[1] == 5 and np.all(np.isfinite(ens.c))
    writers = [list(p.path_ids) for p in parts if p.c_final.flags.writeable and p.c.flags.writeable]
    assert writers == ([[0, 1]] if coupling == "one-way" else [[0, 1], [2, 3], [4]])
    assert_c_rows(ens, coupling == "one-way")


def half_cosine(x):
    """y0 >= 0 with exact zeros where cos(pi x_0) <= 0."""
    return np.maximum(np.cos(np.pi * x[..., 0]), 0.0)


def step_loop(mp, n):
    """Under ``mp``, every lane steps y step by step: no block reaches ``_MIN_BLOCK``."""
    mp.setattr(simulate, "_MIN_BLOCK", n + 1)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_one_way_affine_blocks_give_each_path_its_own_bits_and_the_step_loop_to_a_few_ulps(data):
    # any grid, boundary, chunking, worker count, block of the shared c and
    # frame stride: a path's y is bitwise its one-path run, within 1e-13 of
    # the step loop entry by entry, and a y that stays zero is +0.0
    draw = data.draw
    coeffs = ONE_WAY[draw(st.sampled_from(["readme", "regularized"]))]
    dim = draw(st.integers(1, 3))
    grid = build_grid(dim, draw(st.integers(2, CELLS[dim])))
    bc, t_final = draw(st.sampled_from(list(BoundaryKind))), draw(st.sampled_from([0.004, 0.02]))
    config = SimConfig(grid, coeffs, bc, t_final=t_final)
    paths, k = draw(st.integers(1, 7)), draw(st.sampled_from([None, 1, 2, 3, 5]))
    chunk, block = draw(st.sampled_from([1, 2, 3, paths])), draw(st.integers(1, 12))
    y0, seed = draw(st.sampled_from([1.0, half_cosine])), draw(st.integers(0, 2**32 - 1))
    kw = dict(n_paths=paths, seed=seed, n_workers=draw(st.integers(1, 3)), n_snapshots=k)
    with pytest.MonkeyPatch.context() as mp:
        # the blocks of c, and so of y, are the same in every run
        mp.setattr(simulate, "_BLOCK_BYTES", block * (8 * grid.n_nodes + simulate._SLOT_VIEWS))
        singles = [simulate_path(config, bump, y0, seed=seed, path_id=j, n_snapshots=k) for j in range(paths)]
        mp.setattr(simulate, "_STATE_BYTES", chunk * simulate.path_bytes(grid))
        ens = simulate_ensemble(config, bump, y0, **kw)
        step_loop(mp, ens.n_steps)
        loop = simulate_ensemble(config, bump, y0, **kw)
    for j, path in enumerate(singles):
        assert same_bits(ens.y_final[j], path.y_final[0])
        assert k is None or same_bits(ens.y[:, j], path.y[:, 0])
    for got, ref in ((ens.y_final, loop.y_final), (ens.y, loop.y)):
        assert got is None or np.all(np.abs(got - ref) <= 1e-13 * ref) and not np.any(np.signbit(got))
    assert same_bits(ens.c_final, loop.c_final) and same_bits(ens.c_sup, loop.c_sup)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_y_on_nodes_is_bitwise_the_whole_field_stepped_step_by_step(data):
    # any grid, boundary, affine or term-by-term y, chunking, worker count and
    # frame count: y held on a few nodes alone is, frame by frame and at the
    # end, bit for bit the y there of the same run stepped on every node with
    # a frame every step, and c, its sup and min and the clamp mass are equal
    draw = data.draw
    dim = draw(st.integers(1, 3))
    grid = build_grid(dim, draw(st.integers(2, CELLS[dim])))
    config = SimConfig(grid, COEFFS[draw(st.sampled_from(["readme", "saturating"]))],
                       draw(st.sampled_from(list(BoundaryKind))), t_final=draw(st.sampled_from([0.004, 0.02])))
    nodes = draw(st.lists(st.integers(0, grid.n_nodes - 1), min_size=1, max_size=5))
    paths, k = draw(st.integers(1, 7)), draw(st.sampled_from([None, 1, 3]))
    chunk, y0 = draw(st.sampled_from([1, 2, 3, paths])), draw(st.sampled_from([1.0, half_cosine]))
    kw = dict(n_paths=paths, seed=draw(st.integers(0, 2**32 - 1)), n_workers=draw(st.integers(1, 3)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulate, "_STATE_BYTES", chunk * simulate.path_bytes(grid, nodes))
        held = simulate_ensemble(config, bump, y0, n_snapshots=k, nodes=nodes, **kw)
    whole = simulate_ensemble(config, bump, y0, n_snapshots=held.n_steps, **kw)
    at = (Ellipsis, np.asarray(nodes))
    assert same_bits(held.y_final, whole.y_final.reshape(paths, -1)[at])
    assert same_bits(held.c_final, whole.c_final)
    for name in ("c_sup", "c_min", "clamp_mass"):
        assert same_bits(getattr(held, name), getattr(whole, name)), name
    if k is not None:
        kept = slice(None, None, held.n_steps // k)
        assert same_bits(held.y, whole.y[kept].reshape(k + 1, paths, -1)[at])
        assert same_bits(held.c, whole.c[kept])
    with pytest.raises(ValueError, match="ignores y"):
        simulate_ensemble(dataclasses.replace(config, coeffs=COEFFS["decaying"]), bump, y0, nodes=nodes, **kw)
    with pytest.raises(ValueError, match="on_step"):
        simulate_ensemble(config, bump, y0, nodes=nodes, on_step=lambda *a: None, **kw)


@pytest.mark.parametrize("nodes", [[], [[0]], [0.0], [-1], [18**2]])
def test_nodes_that_are_not_flat_grid_indices_are_refused(nodes):
    with pytest.raises(ValueError, match="flat indices"):
        simulate_ensemble(small_config(), cosine, 1.0, n_paths=1, nodes=nodes)


def test_lanes_on_nodes_are_charged_for_those_nodes(monkeypatch):
    # 256 paths of a 2D 32^2 grid: four chunks of 64 on every node, two of
    # 128, one wave at two workers, on one node
    sizes = []
    monkeypatch.setattr(simulate, "_lane", lambda config, c, y, noise, part, *a: sizes.append(len(part.path_ids)))
    monkeypatch.setattr(simulate, "_run_wave", lambda *a: None)
    config = SimConfig(build_grid(2, 32), COEFFS["readme"], BoundaryKind.NEUMANN, t_final=0.001)
    for nodes in (None, [17 * 34 + 17]):
        simulate_ensemble(config, cosine, 1.0, n_paths=256, n_workers=2, nodes=nodes)
    assert sizes == [64] * 4 + [128] * 2


def explicit_run(config, inc, dt, **kw):
    return simulate_ensemble(config, bump, 1.0, wiener=WienerPath(dt, inc), n_snapshots=2, **kw)


def test_a_path_with_an_alpha_below_zero_steps_that_block_as_the_step_loop(monkeypatch):
    # path 1 has alpha < 0 at step 3 of the first block: that path steps the
    # block step by step, its clamp bites, and its first frame is the step
    # loop's; paths 0 and 2 take the block form in that block, as they do alone
    config = small_config(COEFFS["readme"], t_final=0.02)
    c_init, _ = simulate.prepare_initial(config, bump, 1.0)
    plan = config.plan(float(np.max(c_init)), multiple_of=2)
    dt, n = plan.dt, plan.n_steps
    assert n >= 6
    inc = np.random.default_rng(4).standard_normal((3, n)) * np.sqrt(dt)
    inc[1, 2] = -10.0 / config.coeffs.noise.slope
    shapes, real = [], simulate._y_block
    monkeypatch.setattr(simulate, "_y_block", lambda y, alphas, *a: shapes.append(alphas.shape) or real(y, alphas, *a))
    ens = explicit_run(config, inc, dt)
    assert shapes[0] == (n // 2, 2)
    with pytest.MonkeyPatch.context() as mp:
        step_loop(mp, n)
        loop = explicit_run(config, inc, dt)
    assert same_bits(ens.y[:2, 1], loop.y[:2, 1])
    assert np.all(np.abs(ens.y - loop.y) <= 1e-13 * loop.y)
    for j in range(3):
        path = simulate_path(config, bump, 1.0, wiener=WienerPath(dt, inc[j]), n_snapshots=2)
        assert same_bits(ens.y[:, j], path.y[:, 0])


@pytest.mark.parametrize("alphas", [(1e300, 1e300), (1e300, 1e300, 0.0)], ids=["overflow", "overflow-then-zero"])
def test_a_block_that_would_overflow_aborts_or_warns_as_the_step_loop(alphas):
    # y overflows in path 1 at the second huge alpha; an alpha of 0 after it
    # makes the block form finite (0 * inf never forms), but the step loop
    # turns inf into NaN: either way the run aborts, or warns, as the loop does
    coeffs = make_coefficients(pme_beta(2.0), **dict(readme_terms(), b=preset_coefficients(
        "coupling_b", {"kappa": 0.5, "rho": 0.0})))
    config = small_config(coeffs, t_final=0.02)
    sigma = coeffs.noise.slope
    c_init, _ = simulate.prepare_initial(config, bump, 1.0)
    plan = config.plan(float(np.max(c_init)), multiple_of=2)
    dt, n = plan.dt, plan.n_steps
    inc = np.random.default_rng(5).standard_normal((3, n)) * np.sqrt(dt)
    inc[1, 1 : 1 + len(alphas)] = [(a - 1.0) / sigma for a in alphas]
    assert n // 2 > len(alphas) and 1.0 + sigma * inc[1, 3 if len(alphas) == 3 else 1] in (0.0, 1e300)
    errors = []
    for loop in (False, True):
        with pytest.MonkeyPatch.context() as mp:
            if loop:
                step_loop(mp, n)
            with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericalAbort) as abort:
                explicit_run(config, inc, dt)
            with np.errstate(all="warn"), warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                with pytest.raises(RuntimeWarning) as warned:
                    explicit_run(config, inc, dt)
        errors.append((str(abort.value), str(warned.value)))
    assert errors[0] == errors[1]
    assert errors[0][0].startswith("non-finite y at step") and errors[0][0].endswith("(path 1)")


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
    update band get scratch, see ``step``), None in a workspace of y alone,
    and its y-gates."""
    v_gate = work.v_gate
    return None if v_gate is None else v_gate[(0,) + (slice(1, -1),) * (v_gate.ndim - 1)], work.y_gate[0]


class StepRecorder:
    """``on_step`` keeping what it sees of the first path at each step, its
    gates included.  It sleeps at each step, so the producer of a shared c
    runs as far ahead of this lane as the blocks allow."""

    def __init__(self):
        self.seen = []

    def __call__(self, res, c, y, dw, work):
        time.sleep(1e-4)
        seen = (c[0], y[0], res.c[0], res.y[0], res.clamp_mass[0], dw[0]) + gates_of_path_0(work)
        self.seen.append(tuple(None if a is None else np.copy(a) for a in seen))


def plain_loop(config, c_init, y_init, inc, dt, stride, block=0, stepped=0):
    """The ensemble as one loop of ``step`` calls on per-path c and y: the
    terminal state, clamp mass, running sup and min, the frames every
    ``stride`` steps, and what an ``on_step`` with gates sees of path 0.
    Given ``block``, the paths from ``stepped`` on (one-way lanes under the
    affine terms with no on_step) take y by the block recurrence instead, from
    each multiple of ``stride``, ``block`` or ``block + 1`` (where the slots of
    c wrap) to the next, and to the last step, when it spans at least
    ``_MIN_BLOCK`` steps: (prod_k alpha_k) y +
    (kappa dt) sum_k w_k c_k, w_k = prod_{j>k} alpha_j, the sum by the
    fixed-order einsum; no alpha < 0 is drawn here."""
    grid, paths = config.grid, len(inc)
    work = StepBuffers(grid, (paths,), gates=True)
    work.c[0][...], work.y[0][...] = c_init, y_init
    c, y = work.c[0], work.y[0]

    def rows(a):
        return a.reshape(paths, -1)

    clamp, sup, low = np.zeros(paths), rows(c).max(axis=1), rows(c).min(axis=1)
    frames, seen = [(c.copy(), y.copy())], []
    start, y_start, c_rows = 0, rows(y)[stepped:].copy(), []
    for n, dw in enumerate(inc.T, 1):
        c_rows.append(rows(c)[0].copy())
        res = step(c, y, grid, config.coeffs, config.bc, dt, dw, work=work)
        gates = gates_of_path_0(work)
        seen.append(tuple(np.copy(a) for a in (c[0], y[0], res.c[0], res.y[0], res.clamp_mass[0], dw[0]) + gates))
        c, y = res.c, res.y
        clamp += res.clamp_mass
        sup, low = np.maximum(sup, rows(c).max(axis=1)), np.minimum(low, rows(c).min(axis=1))
        if block and (n % block == 0 or n % (block + 1) == 0 or stride and n % stride == 0 or n == inc.shape[1]):
            if n - start >= simulate._MIN_BLOCK:
                sigma, (kappa, rho) = config.coeffs.noise.slope, config.coeffs.drift.affine
                alphas = (sigma * inc[stepped:, start:n].T + 1.0) - rho * dt
                assert np.all(alphas >= 0.0)
                w = np.ones_like(alphas)
                for k in range(n - start - 2, -1, -1):
                    w[k] = w[k + 1] * alphas[k + 1]
                sums = np.einsum("kp,kn->pn", w, np.array(c_rows), optimize=False)
                rows(y)[stepped:] = y_start * (w[0] * alphas[0])[:, None] + sums * (kappa * dt)
            start, y_start, c_rows = n, rows(y)[stepped:].copy(), []
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
    # results, the frames handed to an on_frames hook, what on_step sees of path 0 (its
    # gates: both where the lane steps c, the y gate alone where it reads c
    # from the shared block) and the tangent along path 0
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
    recorder = StepRecorder()
    kw = dict(n_workers=draw(st.sampled_from([1, 2, 3])), n_snapshots=k, on_step=recorder)
    c_init, y_init = simulate.prepare_initial(config, bump, 1.0)
    plan = config.plan(float(np.max(c_init)), multiple_of=k or 1)
    dt, n = plan.dt, plan.n_steps
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
        kw["on_frames"] = frame_hook(grid, chunks)
    r = draw(st.integers(0, n - 1))
    one_way = not coeffs.source.reads_y
    # lanes read the block of c that the producer wrote: switch often
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(simulate, "_STATE_BYTES", chunk * simulate.path_bytes(grid))
            mp.setattr(simulate, "_BLOCK_BYTES", block * (8 * grid.n_nodes + simulate._SLOT_VIEWS))
            ens = simulate_ensemble(config, bump, 1.0, **kw)
            _, [[tangent]] = propagate_path(config, bump, 1.0, WienerPath(dt, inc[0]), [r])
    finally:
        sys.setswitchinterval(interval)

    # lanes of a shared c under the affine terms take y in blocks, but for the
    # first chunk, which on_step sees
    first = -(-paths // -(-paths // chunk))
    blocked = one_way and coeffs.noise.slope is not None and coeffs.drift.affine is not None
    c, y, clamp, sup, low, frames, seen = plain_loop(
        config, c_init, y_init, inc, dt, n // k if k else 0, min(n, block) if blocked else 0, first)
    assert same_bits(ens.c_final, c) and same_bits(ens.y_final, y)
    assert same_bits(ens.clamp_mass, clamp)
    assert same_bits(ens.c_sup, sup) and same_bits(ens.c_min, low)
    if chunks:
        assert same_bits(np.concatenate([ids for ids, _, _ in chunks]), ens.path_ids)
        got = [np.concatenate([ch[a] for ch in chunks], axis=1) for a in (1, 2)]
    else:
        got = [ens.c, ens.y]
    if k:
        assert same_bits(got[0], [fc for fc, _ in frames]) and same_bits(got[1], [fy for _, fy in frames])
    assert len(recorder.seen) == n
    for got_step, ref_step in zip(recorder.seen, seen):
        if one_way:  # no v-gate: a one-way tangent has no z to gate
            assert got_step[6] is None
            got_step, ref_step = got_step[:6] + got_step[7:], ref_step[:6] + ref_step[7:]
        assert all(same_bits(a, b) for a, b in zip(got_step, ref_step))

    # the tangent of dry alone when f ignores y, and under the affine terms
    # the primal's alpha, 1 + sigma dW - rho dt, as the primal step forms it;
    # a seed joins with z = 0 and dry = a(y(r))
    sigma, drift, y_r = coeffs.noise.slope, coeffs.drift.affine, seen[r][1]
    state = MalliavinState(None if one_way else np.zeros((1,) + y_r.shape), np.array(coeffs.a(y_r))[None])
    interior = (slice(None),) + (slice(1, -1),) * dim
    for c0, y0, _, _, _, dw0, v_gate, y_gate in seen[r:]:
        primal = SimpleNamespace(v_gate=np.zeros((1,) + grid.shape, bool), y_gate=y_gate[None], affine=None,
                                 y_clamped=True)
        primal.v_gate[interior] = v_gate
        if sigma is not None and drift is not None:
            primal.affine = (sigma, *drift)
            primal.alpha = np.reshape(sigma * dw0 + 1.0 - drift[1] * dt, (1,) * (dim + 1))
        state = step_malliavin(state, c0[None], y0[None], grid, coeffs, config.bc, dt, np.array([dw0]), primal)
    zero = np.zeros(grid.shape)
    assert tangent.step_index == n
    assert same_bits(tangent.z, zero if one_way else state.z[0]) and same_bits(tangent.dry, state.dry[0])
    assert same_bits(tangent.drc, zero if one_way else recover_drc(state.z[0], seen[-1][2], coeffs))
