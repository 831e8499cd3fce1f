"""Noise-derivative propagation: chain-rule recovery, exactness for linear
noise, locality in the differentiation time, linearity, and agreement with a
bumped-path finite difference."""
import dataclasses
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rpmelab import simulate
from rpmelab.grid import BoundaryKind, Field, build_grid, laplacian_core
from rpmelab.malliavin import (
    MalliavinState,
    TangentBuffers,
    perturbation_oracle,
    propagate_path,
    recover_drc,
    seed_index,
    step_malliavin,
)
from rpmelab.model import SourceTerm, make_coefficients, pme_beta, preset_coefficients, regularize_beta
from rpmelab.pathfile import DerivativePair, RecordWriter, read_record
from rpmelab.simulate import (
    NumericalAbort,
    SimConfig,
    StepBuffers,
    WienerPath,
    apply_bc,
    cfl_dt,
    gen_wiener,
    prepare_initial,
    simulate_path,
    step,
)


def test_recover_drc_chain_rule():
    coeffs = make_coefficients(pme_beta(2.0))
    # 1/beta'(1) = 2, so z = 3 carries to drc = 6
    assert recover_drc(np.float64(3.0), np.float64(1.0), coeffs) == pytest.approx(6.0, abs=1e-15)
    assert recover_drc(np.float64(3.0), np.float64(0.0), coeffs) == 0.0


def geometric_config(sigma=0.4, t_final=0.05, m_cells=8):
    grid = build_grid(1, m_cells)
    coeffs = make_coefficients(
        pme_beta(2.0), a=preset_coefficients("linear_a", {"sigma": sigma})
    )
    return SimConfig(grid, coeffs, BoundaryKind.DIRICHLET, t_final=t_final, dt=1e-3)


def c0_sine(x):
    return 0.5 * np.sin(np.pi * x[..., 0])


def y0_affine(x):
    return 1.0 + x[..., 0]


def seeded_wiener(config, c0, y0, seed):
    """The increments ``simulate_path`` draws for path 0 under ``seed``."""
    c, _ = prepare_initial(config, c0, y0)
    plan = config.plan(float(np.max(c)))
    dt, n = plan.dt, plan.n_steps
    return gen_wiener(n, dt, seed)


def frames(config, c0, y0, wiener):
    """Every state of the path under ``wiener`` as (c, y), step axis first."""
    run = simulate_path(config, c0, y0, wiener=wiener, store_dense=True)
    return run.c[:, 0], run.y[:, 0]


def test_linear_noise_derivative_is_exact():
    # a(y) = sigma*y, no drift, no source: the recursion telescopes to
    # dry(T) = sigma * y(T) exactly, for every differentiation time
    config = geometric_config()
    wiener = seeded_wiener(config, c0_sine, y0_affine, 5)
    run, seeds = propagate_path(config, c0_sine, y0_affine, wiener, [0, 10, wiener.n_steps - 1])
    for (terminal,) in seeds:
        expected = 0.4 * run.y_final[0]
        assert np.max(np.abs(terminal.dry - expected)) < 1e-13
        # no source feedback: the parabolic derivative stays identically zero
        assert np.max(np.abs(terminal.z)) == 0.0


def full_coupling_config(t_final=0.1):
    grid = build_grid(1, 8)
    coeffs = make_coefficients(
        pme_beta(2.0),
        f=preset_coefficients("logistic_f", {"lambda": 1.0, "K": 1.0, "mu_y": 0.5}),
        a=preset_coefficients("linear_a", {"sigma": 0.3}),
        b=preset_coefficients("coupling_b", {"kappa": 0.5, "rho": 0.4}),
    )
    return SimConfig(grid, coeffs, BoundaryKind.NEUMANN, t_final=t_final, dt=1e-3)


def test_derivative_sees_earlier_increments_only_through_the_seed_state():
    # locality in the differentiation time: a run restarted from the frame
    # at the seed step, under the increments from there on, carries the
    # same derivative bit for bit
    config = full_coupling_config()
    wiener = seeded_wiener(config, c0_sine, 1.0, 5)
    c, y = frames(config, c0_sine, 1.0, wiener)
    r_index = 17
    ((whole,),) = propagate_path(config, c0_sine, 1.0, wiener, [r_index])[1]
    tail = WienerPath(wiener.dt, wiener.increments[r_index:])
    restart = dataclasses.replace(config, t_final=tail.t_final)
    ((alone,),) = propagate_path(restart, c[r_index], y[r_index], tail, [0])[1]
    assert np.max(np.abs(whole.z)) > 0.0
    for name in ("z", "drc", "dry"):
        assert np.array_equal(getattr(whole, name), getattr(alone, name))


def test_step_malliavin_is_linear_in_the_derivative_state():
    config = full_coupling_config()
    grid = config.grid
    rng = np.random.default_rng(3)
    c = np.abs(np.sin(np.pi * grid.node_points()[..., 0])) * 0.5 + 0.1
    y = rng.random(grid.shape) + 0.5
    z = rng.standard_normal(grid.shape)
    dry = rng.standard_normal(grid.shape)
    for bc in (BoundaryKind.DIRICHLET, BoundaryKind.NEUMANN):
        one = step_malliavin(
            MalliavinState(z, dry), c, y, grid, config.coeffs, bc, 1e-3, 0.02
        )
        two = step_malliavin(
            MalliavinState(2.0 * z, 2.0 * dry), c, y, grid, config.coeffs, bc, 1e-3, 0.02
        )
        assert np.max(np.abs(two.z - 2.0 * one.z)) < 1e-14
        assert np.max(np.abs(two.dry - 2.0 * one.dry)) < 1e-14


def test_noise_reaches_the_parabolic_component():
    # with d_y f != 0 the derivative of c picks up mass after the seed time
    config = full_coupling_config()
    wiener = seeded_wiener(config, c0_sine, 1.0, 9)
    ((terminal,),) = propagate_path(config, c0_sine, 1.0, wiener, [20])[1]
    assert np.max(np.abs(terminal.drc)) > 0.0
    # Neumann copy rule carries to the derivative
    refl = config.grid.reflect_flat().ravel()
    zb = terminal.z.ravel()
    bidx = np.flatnonzero(config.grid.boundary_mask().ravel())
    assert np.array_equal(zb[bidx], zb[refl[bidx]])


def test_dirichlet_derivative_vanishes_on_boundary():
    config = geometric_config()
    coeffs = full_coupling_config().coeffs
    config = SimConfig(config.grid, coeffs, BoundaryKind.DIRICHLET, t_final=0.05, dt=1e-3)
    wiener = seeded_wiener(config, c0_sine, 1.0, 2)
    ((terminal,),) = propagate_path(config, c0_sine, 1.0, wiener, [5])[1]
    assert terminal.z[0] == 0.0 and terminal.z[-1] == 0.0


def test_matches_bumped_path_quotient():
    config = full_coupling_config()
    plan = config.plan(0.5)
    dt, n_steps = plan.dt, plan.n_steps
    wiener = gen_wiener(n_steps, dt, seed=31)
    r_index, window = 20, 4

    ((terminal,),) = propagate_path(config, c0_sine, 1.0, wiener, [r_index])[1]
    dq_c, dq_y = perturbation_oracle(config, c0_sine, 1.0, wiener, r_index, window, eps=1e-3)

    scale_y = np.max(np.abs(terminal.dry))
    assert scale_y > 0.0
    assert np.max(np.abs(dq_y - terminal.dry)) / scale_y < 5e-2
    scale_c = np.max(np.abs(terminal.drc))
    assert scale_c > 0.0
    assert np.max(np.abs(dq_c - terminal.drc)) / scale_c < 5e-2


def test_propagate_path_validates_inputs():
    config = geometric_config()
    wiener = seeded_wiener(config, c0_sine, 1.0, 5)
    n = wiener.n_steps

    def slices(*args):
        return propagate_path(config, c0_sine, 1.0, wiener, *args)[1]

    for args in (([n],), ([3], [[2]]), ([3, n],), ([3, 5], [[10]]), ([3, 5], [[10], [5]])):
        with pytest.raises(ValueError):
            slices(*args)
    assert slices([3, 5], [[], []]) == [[], []]
    assert slices([]) == []


def seed_state(y_r, coeffs):
    """The pair a seed joins with at its step r: z = 0 and dry = a(y(r))."""
    return MalliavinState(np.zeros_like(y_r), np.array(coeffs.a(y_r)))


def test_intermediate_slices_are_consistent():
    config = full_coupling_config()
    wiener = seeded_wiener(config, c0_sine, 1.0, 13)
    n = wiener.n_steps
    (slices,) = propagate_path(config, c0_sine, 1.0, wiener, [10], [[n // 2, n]])[1]
    assert [s.step_index for s in slices] == [n // 2, n]
    # initial seed: z = 0 and dry = a(y(r)) = 0.3 y(r), one step before the first slice
    c, y = frames(config, c0_sine, 1.0, wiener)
    ((first,),) = propagate_path(config, c0_sine, 1.0, wiener, [10], [[11]])[1]
    seeded = MalliavinState(np.zeros(y[10].shape), 0.3 * y[10])
    one = step_malliavin(seeded, c[10], y[10], config.grid, config.coeffs, config.bc, wiener.dt,
                         wiener.increments[10])
    assert np.array_equal(first.z, one.z) and np.array_equal(first.dry, one.dry)


# ---------------------------------------------------------------------------
# one sweep for many seeds


def _seed_alone(config, wiener, dense, r_index, t_indices):
    """Reference: the unbatched per-seed recursion along the dense frames
    ``dense`` = (c, y), slices as (k, z, drc, dry)."""
    c, y = dense
    coeffs = config.coeffs
    state = seed_state(y[r_index], coeffs)
    out = []
    for k in range(r_index, max(t_indices)):
        state = step_malliavin(
            state, c[k], y[k], config.grid, coeffs, config.bc, wiener.dt, wiener.increments[k]
        )
        if k + 1 in t_indices:
            out.append((k + 1, state.z, recover_drc(state.z, c[k + 1], coeffs), state.dry))
    return out


@pytest.mark.parametrize("dim", [1, 2])
def test_sweep_is_bitwise_the_per_seed_recursion(dim):
    grid = build_grid(dim, 8 if dim == 1 else 6)
    coeffs = full_coupling_config().coeffs
    config = SimConfig(grid, coeffs, BoundaryKind.NEUMANN, t_final=0.05, dt=1e-3)
    wiener = seeded_wiener(config, c0_sine, 1.0, 21)
    dense = frames(config, c0_sine, 1.0, wiener)
    n = wiener.n_steps
    # unsorted, duplicated, first and last admissible seed steps
    r_indices = [n // 2, 0, n - 1, 7, n // 2]
    t_indices = [[n], [3, n // 3, n], [n], [8, 20, 40], [n // 2 + 1, n]]
    seeds = propagate_path(config, c0_sine, 1.0, wiener, r_indices, t_indices)[1]
    assert len(seeds) == len(r_indices)
    for r, ts, slices in zip(r_indices, t_indices, seeds):
        ref = _seed_alone(config, wiener, dense, r, ts)
        assert [s.step_index for s in slices] == [k for k, *_ in ref] == sorted(ts)
        for sl, (k, z, drc, dry) in zip(slices, ref):
            assert sl.t == k * wiener.dt
            assert np.array_equal(sl.z, z) and np.array_equal(sl.drc, drc)
            assert np.array_equal(sl.dry, dry)


def test_step_malliavin_batches_seeds_bitwise():
    config = full_coupling_config()
    grid, coeffs, bc = config.grid, config.coeffs, BoundaryKind.NEUMANN
    rng = np.random.default_rng(8)
    c = np.abs(np.sin(np.pi * grid.node_points()[..., 0])) * 0.5 + 0.1
    y = rng.random(grid.shape) + 0.5
    z = rng.standard_normal((3,) + grid.shape)
    dry = rng.standard_normal((3,) + grid.shape)
    dws = np.array([0.02, -0.03, 0.01])
    # one increment shared by every seed, and one increment per seed
    shared = step_malliavin(MalliavinState(z, dry), c, y, grid, coeffs, bc, 1e-3, 0.02)
    per_seed = step_malliavin(MalliavinState(z, dry), c, y, grid, coeffs, bc, 1e-3, dws)
    for j in range(3):
        for batch, dw in ((shared, 0.02), (per_seed, dws[j])):
            one = step_malliavin(MalliavinState(z[j], dry[j]), c, y, grid, coeffs, bc, 1e-3, dw)
            assert np.array_equal(batch.z[j], one.z) and np.array_equal(batch.dry[j], one.dry)


def test_sweep_steps_the_primal_once_per_step(monkeypatch):
    # one primal pass carries every seed: each half runs once per step, the
    # c half of a step before its y half (a shared c runs ahead in blocks)
    config = geometric_config()
    wiener = seeded_wiener(config, c0_sine, y0_affine, 5)
    halves, seen = [], []
    for name in ("_c_half", "_y_half"):
        real = getattr(simulate, name)
        monkeypatch.setattr(simulate, name, lambda *a, name=name, real=real: halves.append(name) or real(*a))
    propagate_path(
        config, c0_sine, y0_affine, wiener, [30, 12, 40], on_frame=lambda k, c, y: seen.append(k)
    )
    c_at, y_at = ([i for i, name in enumerate(halves) if name == half] for half in ("_c_half", "_y_half"))
    assert len(c_at) == len(y_at) == len(halves) // 2 == wiener.n_steps
    assert all(i < j for i, j in zip(c_at, y_at))
    assert seen == list(range(1, wiener.n_steps + 1))


def test_seeds_at_fractions_give_their_terminal_slices_alone():
    config = full_coupling_config()
    fractions = (0.5, 0.25, 0.5)
    wiener = seeded_wiener(config, c0_sine, 1.0, 4)
    n = wiener.n_steps
    r_indices = [seed_index(frac, n) for frac in fractions]
    seeds = propagate_path(config, c0_sine, 1.0, wiener, r_indices)[1]
    assert len(seeds) == len(fractions)
    for r, (sl,) in zip(r_indices, seeds):
        ((alone,),) = propagate_path(config, c0_sine, 1.0, wiener, [r])[1]
        assert sl.step_index == n
        assert np.array_equal(sl.z, alone.z) and np.array_equal(sl.dry, alone.dry)


def test_seed_index_clips_to_the_step_range():
    assert seed_index(0.25, 100) == 25
    assert seed_index(1e-6, 100) == 0
    assert seed_index(0.9999, 100) == 99


def test_perturbation_oracle_batch_matches_two_single_runs():
    config = full_coupling_config()
    wiener = gen_wiener(100, 1e-3, seed=31)
    r_index, window, eps = 20, 4, 1e-3
    dq_c, dq_y = perturbation_oracle(config, c0_sine, 1.0, wiener, r_index, window, eps)

    base = simulate_path(config, c0_sine, 1.0, wiener=wiener)
    shifted = np.array(wiener.increments, copy=True)
    shifted[r_index : r_index + window] += eps * wiener.dt
    bumped = simulate_path(config, c0_sine, 1.0, wiener=WienerPath(wiener.dt, shifted))
    delta = window * wiener.dt
    assert np.array_equal(dq_c, (bumped.c_final[0] - base.c_final[0]) / (eps * delta))
    assert np.array_equal(dq_y, (bumped.y_final[0] - base.y_final[0]) / (eps * delta))


# ---------------------------------------------------------------------------
# the sweep inside the primal loop against the replay it replaced


def replay_step(z, dry, c, y, grid, coeffs, bc, dt, dW):
    """The recursion as a replay of stored frames computed it, in the form
    the terms declare: the clamp gates recomputed from the primal formulas,
    strided interior views and fresh temporaries.  Under the affine terms
    the y step is max(alpha y + (kappa dt) c, 0) and dry steps by its
    derivative; under a source that ignores y, z and drc are zero."""
    dim, h = grid.dim, grid.spacing
    core = (Ellipsis,) + (slice(1, -1),) * dim
    if coeffs.source.reads_y:
        drc = recover_drc(z, c, coeffs)
        c_int, y_int = c[core], y[core]
        z_new_int = z[core] + dt * (
            laplacian_core(drc, h, dim)
            + coeffs.df_dc(c_int, y_int) * drc[core]
            + coeffs.df_dy(c_int, y_int) * dry[core]
        )
        v_pre = coeffs.beta(c_int) + dt * (laplacian_core(c, h, dim) + coeffs.f(c_int, y_int))
        z_new_int = np.where(v_pre < 0.0, 0.0, z_new_int)
        z_new = np.array(z, copy=True)
        z_new[core] = z_new_int
        z_new = apply_bc(z_new, grid, bc)
    else:
        z_new, drc = np.zeros(z.shape), np.zeros(z.shape)
    dw = np.asarray(dW, dtype=np.float64)
    dw = dw.reshape(dw.shape + (1,) * dim)
    sigma, drift = coeffs.noise.slope, coeffs.drift.affine
    if sigma is None or drift is None:
        dry_new = dry + coeffs.a_prime(y) * dry * dw + (
            coeffs.db_dc(c, y) * drc + coeffs.db_dy(c, y) * dry
        ) * dt
        y_pre = y + coeffs.a(y) * dw + coeffs.b(c, y) * dt
    else:
        kappa, rho = drift
        alpha = sigma * dw + 1.0 - rho * dt
        dry_new = dry * alpha + (kappa * dt) * drc
        y_pre = y * alpha + (kappa * dt) * c
    return z_new, np.where(y_pre < 0.0, 0.0, dry_new)


def replay_sweep(config, wiener, dense, r_indices, t_indices):
    """Every seed's slices as (step, t, z, drc, dry) from a replay of the
    dense frames ``dense`` = (c, y), seeds joining the batch by
    concatenation."""
    (c, y), grid, coeffs, dt = dense, config.grid, config.coeffs, wiener.dt
    emit = {}
    for j, ts in enumerate(t_indices):
        for k in sorted(set(ts)):
            emit.setdefault(k, []).append(j)
    joins = sorted((r, j) for j, (r, ts) in enumerate(zip(r_indices, t_indices)) if ts)
    out = [[] for _ in r_indices]
    z = dry = np.empty((0,) + grid.shape)
    row = {}
    for k in range(joins[0][0], max(emit)):
        while joins and joins[0][0] == k:
            seed = seed_state(y[k], coeffs)
            row[joins.pop(0)[1]] = len(z)
            z, dry = np.concatenate([z, seed.z[None]]), np.concatenate([dry, seed.dry[None]])
        z, dry = replay_step(z, dry, c[k], y[k], grid, coeffs, config.bc, dt, wiener.increments[k])
        for j in emit.get(k + 1, ()):
            zj = z[row[j]]
            drc = recover_drc(zj, c[k + 1], coeffs) if coeffs.source.reads_y else np.zeros(zj.shape)
            out[j].append((k + 1, (k + 1) * dt, zj.copy(), drc, dry[row[j]].copy()))
    return out


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def readme_terms():
    return dict(
        f=preset_coefficients("logistic_f", {"lambda": 0.5, "K": 5.0}),
        a=preset_coefficients("linear_a", {"sigma": 0.3}),
        b=preset_coefficients("coupling_b", {"kappa": 0.5, "rho": 0.4}),
    )


COEFFS = {
    "readme": make_coefficients(pme_beta(2.0), **readme_terms()),
    "regularized": make_coefficients(regularize_beta(2.0, 1e-3), **readme_terms()),
    # mu_y > 0 and saturating noise
    "decaying": make_coefficients(
        pme_beta(3.0),
        f=preset_coefficients("logistic_f", {"lambda": 1.3, "K": 1.5, "mu_y": 0.7}),
        a=preset_coefficients("saturating_a", {"sigma": 0.4}),
        b=preset_coefficients("coupling_b", {"kappa": 0.2, "rho": 1.1}),
    ),
}


@st.composite
def sweeps(draw):
    """A path (seeded noise or explicit increments, some steps beyond the
    stability bound so that the clamps bite) and a seed set."""
    dim = draw(st.integers(1, 3))
    grid = build_grid(dim, draw(st.integers(2, {1: 10, 2: 6, 3: 3}[dim])))
    bc = draw(st.sampled_from(list(BoundaryKind)))
    coeffs = COEFFS[draw(st.sampled_from(sorted(COEFFS)))]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 12))
    dt = draw(st.floats(0.2, 5.0)) * cfl_dt(grid, coeffs, 2.0)
    config = SimConfig(grid, coeffs, bc, t_final=n * dt, dt=dt)
    c0 = Field(grid, rng.uniform(0.0, 2.0, grid.shape) * (rng.random(grid.shape) < 0.8))
    y0 = Field(grid, rng.uniform(0.0, 2.0, grid.shape))
    if draw(st.booleans()):
        wiener = seeded_wiener(config, c0, y0, draw(st.integers(0, 99)))
    else:
        scale = draw(st.sampled_from([np.sqrt(dt), 5.0]))
        wiener = WienerPath(dt, rng.normal(scale=scale, size=n))
    assert wiener.n_steps == n
    r_indices = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=5))
    r_indices += draw(st.sampled_from([[], [0], [n - 1], [n - 1, 0]]))
    t_indices = [draw(st.lists(st.integers(r + 1, n), max_size=3)) for r in r_indices]
    t_indices[0].append(n)
    return config, c0, y0, wiener, r_indices, t_indices


def overflowing_sweep():
    """A 1D path under ``COEFFS["decaying"]`` with steps five times the
    stability bound, whose c stops being finite at step 9 of 10."""
    grid, coeffs, rng = build_grid(1, 9), COEFFS["decaying"], np.random.default_rng(0)
    dt = 5.0 * cfl_dt(grid, coeffs, 2.0)
    config = SimConfig(grid, coeffs, BoundaryKind.DIRICHLET, t_final=10 * dt, dt=dt)
    c0, y0 = (Field(grid, rng.uniform(0.0, 2.0, grid.shape)) for _ in range(2))
    return config, c0, y0, WienerPath(dt, rng.normal(scale=np.sqrt(dt), size=10)), [0, 4], [[10], [6, 10]]


@settings(max_examples=60, deadline=None)
@given(sweeps())
@example(overflowing_sweep())
def test_sweep_in_the_primal_loop_is_bitwise_the_replay(case):
    # a c that stops being finite aborts the sweep at the step, and with the
    # message, that it aborts the primal
    config, c0, y0, wiener, r_indices, t_indices = case
    with np.errstate(all="ignore"):
        try:
            dense = frames(config, c0, y0, wiener)
        except NumericalAbort as exc:
            with pytest.raises(NumericalAbort) as sweep_abort:
                propagate_path(config, c0, y0, wiener, r_indices, t_indices)
            assert str(sweep_abort.value) == str(exc) and str(exc).startswith("non-finite c at step ")
            return
        ref = replay_sweep(config, wiener, dense, r_indices, t_indices)
        got = propagate_path(config, c0, y0, wiener, r_indices, t_indices)[1]
    assert len(got) == len(ref)
    for slices, expected in zip(got, ref):
        assert len(slices) == len(expected)
        for sl, (k, t, z, drc, dry) in zip(slices, expected):
            assert sl.step_index == k and sl.t == t
            assert same_bits(sl.z, z) and same_bits(sl.drc, drc) and same_bits(sl.dry, dry)


def test_sweep_zeroes_the_derivative_where_either_clamp_bites():
    # steps past the stability bound and large increments: both gates bite
    grid = build_grid(2, 6)
    coeffs = COEFFS["decaying"]
    dt = 4.5 * cfl_dt(grid, coeffs, 2.0)
    config = SimConfig(grid, coeffs, BoundaryKind.NEUMANN, t_final=12 * dt, dt=dt)
    rng = np.random.default_rng(2)
    c0 = Field(grid, rng.uniform(0.0, 2.0, grid.shape))
    wiener = WienerPath(dt, rng.normal(scale=5.0, size=12))
    c, y = dense = frames(config, c0, 1.0, wiener)
    gates = StepBuffers(grid, gates=True)
    v_bites = y_bites = 0
    for k in range(12):
        gates.c[0][...], gates.y[0][...] = c[k], y[k]
        step(gates.c[0], gates.y[0], grid, coeffs, config.bc, dt, wiener.increments[k], gates)
        v_bites += int(np.sum(gates.v_gate[(slice(1, -1),) * 2]))
        y_bites += int(np.sum(gates.y_gate))
    assert v_bites > 0 and y_bites > 0
    r_indices, t_indices = [0, 3, 3], [[4, 12], [12], [6, 9]]
    with np.errstate(all="ignore"):
        ref = replay_sweep(config, wiener, dense, r_indices, t_indices)
        got = propagate_path(config, c0, 1.0, wiener, r_indices, t_indices)[1]
    for slices, expected in zip(got, ref):
        for sl, (k, t, z, drc, dry) in zip(slices, expected):
            assert same_bits(sl.z, z) and same_bits(sl.drc, drc) and same_bits(sl.dry, dry)



# ---------------------------------------------------------------------------
# one-way coupling: the tangent steps dry alone; z and drc are +0.0


ONE_WAY_SOURCES = {
    "zero": preset_coefficients("zero"),
    "logistic": preset_coefficients("logistic_f", {"lambda": 1.3, "K": 1.5, "mu_y": 0.0}),
}


def one_way_case(dim, cells, bc, source, noise, m, seed, n, dt_factor, wiener_seed, scale, r_indices, t_indices):
    """A primal path under the source ``ONE_WAY_SOURCES[source]``, with
    ``noise`` and coupling drift terms, and a seed set: the increments are
    those of ``gen_wiener(..., wiener_seed)``, or, when it is None, normal
    draws of standard deviation ``scale`` (sqrt(dt) when None)."""
    grid = build_grid(dim, cells)
    terms = dict(
        a=preset_coefficients(noise, {"sigma": 0.4}),
        b=preset_coefficients("coupling_b", {"kappa": 0.2, "rho": 1.1}),
    )
    coeffs = make_coefficients(pme_beta(m), f=ONE_WAY_SOURCES[source], **terms)
    rng = np.random.default_rng(seed)
    dt = dt_factor * cfl_dt(grid, coeffs, 2.0)
    if wiener_seed is not None:
        wiener = gen_wiener(n, dt, seed=wiener_seed)
    else:
        wiener = WienerPath(dt, rng.normal(scale=np.sqrt(dt) if scale is None else scale, size=n))
    config = SimConfig(grid, coeffs, bc, t_final=n * dt, dt=dt)
    c0 = rng.uniform(0.0, 2.0, grid.shape) * (rng.random(grid.shape) < 0.8)
    y0 = rng.uniform(0.0, 2.0, grid.shape)
    return config, terms, prepare_initial(config, c0, y0), wiener, r_indices, t_indices


@st.composite
def one_way_runs(draw):
    """A primal path under a source that ignores y (some steps beyond the
    stability bound so that the clamps bite) and a seed set."""
    dim = draw(st.integers(1, 3))
    cells = draw(st.integers(2, {1: 10, 2: 6, 3: 3}[dim]))
    bc = draw(st.sampled_from(list(BoundaryKind)))
    source = draw(st.sampled_from(sorted(ONE_WAY_SOURCES)))
    noise = draw(st.sampled_from(["linear_a", "saturating_a"]))
    m = draw(st.sampled_from([2.0, 3.0]))
    seed = draw(st.integers(0, 2**32 - 1))
    n = draw(st.integers(2, 12))
    dt_factor = draw(st.floats(0.2, 5.0))
    wiener_seed = scale = None
    if draw(st.booleans()):
        wiener_seed = draw(st.integers(0, 99))
    else:
        scale = draw(st.sampled_from([None, 5.0]))
    r_indices = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=5))
    r_indices += draw(st.sampled_from([[], [0], [n - 1], [n - 1, 0]]))
    t_indices = [draw(st.lists(st.integers(r + 1, n), max_size=3)) for r in r_indices]
    t_indices[0].append(n)
    return one_way_case(dim, cells, bc, source, noise, m, seed, n, dt_factor, wiener_seed, scale, r_indices, t_indices)


def streamed_sweep(config, initial, wiener, r_indices, t_indices, path):
    """Slices of ``propagate_path`` and the bytes of the record it streams,
    written as ``rpmelab malliavin`` writes its own."""
    dt, n = wiener.dt, wiener.n_steps
    with RecordWriter([path], config.grid, 0, [0], dt, n + 1) as record:
        record.frame(0.0, *initial)
        _, seeds = propagate_path(
            config, *initial, wiener, r_indices, t_indices,
            on_frame=lambda k, c, y: record.frame(k * dt, c, y),
        )
        record.finish([DerivativePair(r * dt, s[-1].t, s[-1].drc, s[-1].dry) for r, s in zip(r_indices, seeds) if s])
    return seeds, Path(path).read_bytes()


def counted(source, calls, reads_y):
    """``source`` declared to read y or not, counting its calls in ``calls``."""
    fn = source.fn

    def counting(*args, **kw):
        calls.append(1)
        return fn(*args, **kw)

    if hasattr(fn, "core"):
        counting.core = lambda *args: calls.append(1) or fn.core(*args)
    return SourceTerm(source.label, counting, source.d_c, source.d_y, reads_y)


def sweep_both(case, tmp):
    """``streamed_sweep`` of ``case`` under its source, which ignores y, and
    under the same source not declared to ignore y, which steps z in full:
    per form, its (slices, record bytes, record) or the message of the
    ``NumericalAbort`` it raised, and the calls of f."""
    config, terms, initial, wiener, r_indices, t_indices = case
    assert not config.coeffs.source.reads_y
    outcomes = []
    for reads_y in (False, True):
        calls = []
        coeffs = make_coefficients(config.coeffs.beta_family, f=counted(config.coeffs.source, calls, reads_y), **terms)
        path = f"{tmp}/{reads_y}.rpme1"
        try:
            seeds, data = streamed_sweep(dataclasses.replace(config, coeffs=coeffs), initial, wiener, r_indices,
                                         t_indices, path)
            outcomes.append(((seeds, data, read_record(path)), len(calls)))
        except NumericalAbort as exc:
            outcomes.append((str(exc), len(calls)))
    return outcomes


# steps far beyond the stability bound overflow c, at step 10 of 11 and at
# step 11 of 12, before the one slice at the last step
OVERFLOWS = [
    one_way_case(1, 5, BoundaryKind.NEUMANN, "logistic", "linear_a", 3.0, 0, 11, 5.0, None, None, [0], [[11]]),
    one_way_case(1, 7, BoundaryKind.DIRICHLET, "logistic", "linear_a", 2.0, 10, 12, 5.0, None, None, [0], [[12]]),
]


@settings(max_examples=60, deadline=None)
@given(one_way_runs())
@example(OVERFLOWS[0])
@example(OVERFLOWS[1])
def test_one_way_sweep_is_bitwise_the_full_tangent(case):
    # the tangent of dry alone is bit for bit the tangent of the same source
    # not declared to ignore y, which steps z in full; a c that stops being
    # finite aborts both at the same step, after as many calls of f
    with tempfile.TemporaryDirectory() as tmp, np.errstate(all="ignore"):
        (got, got_calls), (ref, ref_calls) = sweep_both(case, tmp)
    assert got_calls == ref_calls
    if isinstance(ref, str):
        assert got == ref and ref.startswith(f"non-finite c at step {ref_calls} of ")
        return
    (got, got_bytes, got_record), (ref, ref_bytes, ref_record) = got, ref
    assert got_bytes == ref_bytes
    assert same_bits(got_record.c, ref_record.c) and same_bits(got_record.y, ref_record.y)
    assert len(got) == len(ref)
    for slices, expected in zip(got, ref):
        assert len(slices) == len(expected)
        for sl, ex in zip(slices, expected):
            assert sl.step_index == ex.step_index and sl.t == ex.t
            assert same_bits(sl.z, np.zeros_like(sl.z)) and same_bits(sl.drc, np.zeros_like(sl.drc))
            assert same_bits(sl.z, ex.z) and same_bits(sl.drc, ex.drc) and same_bits(sl.dry, ex.dry)


@pytest.mark.parametrize("case,step,n", [(0, 10, 11), (1, 11, 12)])
def test_a_one_way_sweep_whose_c_overflows_aborts_as_the_full_tangent(case, step, n):
    # under explicit increments as under seeded ones: the engine stops at the
    # first non-finite c, in both forms, after f has run once a step
    with tempfile.TemporaryDirectory() as tmp, np.errstate(all="ignore"):
        outcomes = sweep_both(OVERFLOWS[case], tmp)
    assert outcomes == [(f"non-finite c at step {step} of {n} (path 0)", step)] * 2


def test_one_way_step_is_the_full_step_in_a_used_workspace():
    # a workspace that last held a two-way step keeps a nonzero drc: the
    # step of dry alone reads none of it and gives the bits of the full step
    # from z = +0.0, under the affine terms and, with saturating noise, term
    # by term; a source that reads y refuses a tangent without z
    grid, bc = build_grid(2, 6), BoundaryKind.NEUMANN
    rng = np.random.default_rng(4)
    for noise in ("linear_a", "saturating_a"):
        terms = {**readme_terms(), "a": preset_coefficients(noise, {"sigma": 0.3})}
        one_way = make_coefficients(pme_beta(2.0), **terms)
        f = one_way.source
        assert not f.reads_y
        full = make_coefficients(pme_beta(2.0), **{**terms, "f": SourceTerm(f.label, f.fn, f.d_c, f.d_y)})
        two_way = make_coefficients(pme_beta(2.0), **{
            **terms, "f": preset_coefficients("logistic_f", {"lambda": 0.5, "K": 5.0, "mu_y": 0.5})})
        primal = StepBuffers(grid, (1,), gates=True)
        c, y = primal.c[0], primal.y[0]
        c[...] = apply_bc(rng.uniform(0.5, 1.5, c.shape), grid, bc)
        y[...] = rng.uniform(0.5, 1.5, y.shape)
        dt = cfl_dt(grid, one_way, 2.0)
        step(c, y, grid, one_way, bc, dt, np.array([0.1]), work=primal)
        work = TangentBuffers((3,) + grid.shape, c.shape)
        dry = rng.standard_normal((3,) + grid.shape)
        busy = MalliavinState(rng.standard_normal((3,) + grid.shape), dry.copy())
        step_malliavin(busy, c, y, grid, two_way, bc, dt, 0.1, primal, work)
        assert work.drc.any()
        ref = step_malliavin(MalliavinState(np.zeros_like(dry), dry), c, y, grid, full, bc, dt, 0.1, primal)
        got = step_malliavin(MalliavinState(None, dry), c, y, grid, one_way, bc, dt, 0.1, primal, work)
        assert got.z is None and same_bits(ref.z, np.zeros_like(dry)) and same_bits(got.dry, ref.dry)
        with pytest.raises(ValueError, match="ignores y"):
            step_malliavin(MalliavinState(None, dry), c, y, grid, two_way, bc, dt, 0.1, primal)
