"""Noise-derivative propagation: chain-rule recovery, exactness for linear
noise, locality in the differentiation time, linearity, and agreement with a
bumped-path finite difference."""
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rpmelab.grid import BoundaryKind, Field, build_grid, laplacian_core
from rpmelab.malliavin import (
    MalliavinState,
    TangentBuffers,
    derivative_run,
    init_malliavin,
    perturbation_oracle,
    propagate,
    propagate_path,
    propagate_seeds,
    recover_drc,
    seed_index,
    step_malliavin,
)
from rpmelab.model import SourceTerm, make_coefficients, pme_beta, preset_coefficients, regularize_beta
from rpmelab.pathfile import DerivativePair, RecordWriter
from rpmelab.simulate import (
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


def test_linear_noise_derivative_is_exact():
    # a(y) = sigma*y, no drift, no source: the recursion telescopes to
    # dry(T) = sigma * y(T) exactly, for every differentiation time
    config = geometric_config()
    traj = simulate_path(config, c0_sine, y0_affine, seed=5, store_dense=True)
    for r_index in (0, 10, traj.n_steps - 1):
        (terminal,) = propagate(traj, config.coeffs, r_index)
        expected = 0.4 * traj.y[-1]
        assert np.max(np.abs(terminal.dry - expected)) < 1e-13
        # no source feedback: the parabolic derivative stays identically zero
        assert np.max(np.abs(terminal.z)) == 0.0


class _Recorder:
    def __init__(self, data):
        self.data = data
        self.accessed = []

    @property
    def shape(self):
        return self.data.shape

    def __getitem__(self, k):
        self.accessed.append(k)
        return self.data[k]


def test_propagation_never_reads_earlier_increments():
    config = geometric_config()
    traj = simulate_path(config, c0_sine, y0_affine, seed=5, store_dense=True)
    rec = _Recorder(traj.wiener.increments)
    object.__setattr__(traj.wiener, "increments", rec)
    r_index = 17
    propagate(traj, config.coeffs, r_index)
    assert rec.accessed
    assert min(rec.accessed) == r_index


def full_coupling_config(t_final=0.1):
    grid = build_grid(1, 8)
    coeffs = make_coefficients(
        pme_beta(2.0),
        f=preset_coefficients("logistic_f", {"lambda": 1.0, "K": 1.0, "mu_y": 0.5}),
        a=preset_coefficients("linear_a", {"sigma": 0.3}),
        b=preset_coefficients("coupling_b", {"kappa": 0.5, "rho": 0.4}),
    )
    return SimConfig(grid, coeffs, BoundaryKind.NEUMANN, t_final=t_final, dt=1e-3)


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
    traj = simulate_path(config, c0_sine, 1.0, seed=9, store_dense=True)
    (terminal,) = propagate(traj, config.coeffs, 20)
    assert np.max(np.abs(terminal.drc)) > 0.0
    # Neumann copy rule carries to the derivative
    refl = traj.grid.reflect_flat().ravel()
    zb = terminal.z.ravel()
    bidx = np.flatnonzero(traj.grid.boundary_mask().ravel())
    assert np.array_equal(zb[bidx], zb[refl[bidx]])


def test_dirichlet_derivative_vanishes_on_boundary():
    config = geometric_config()
    coeffs = full_coupling_config().coeffs
    config = SimConfig(config.grid, coeffs, BoundaryKind.DIRICHLET, t_final=0.05, dt=1e-3)
    traj = simulate_path(config, c0_sine, 1.0, seed=2, store_dense=True)
    (terminal,) = propagate(traj, coeffs, 5)
    assert terminal.z[0] == 0.0 and terminal.z[-1] == 0.0


def test_matches_bumped_path_quotient():
    config = full_coupling_config()
    dt, n_steps = config.resolve_steps(0.5)
    wiener = gen_wiener(n_steps, dt, seed=31)
    r_index, window = 20, 4

    traj = simulate_path(config, c0_sine, 1.0, wiener=wiener, store_dense=True)
    (terminal,) = propagate(traj, config.coeffs, r_index)
    dq_c, dq_y = perturbation_oracle(config, c0_sine, 1.0, wiener, r_index, window, eps=1e-3)

    scale_y = np.max(np.abs(terminal.dry))
    assert scale_y > 0.0
    assert np.max(np.abs(dq_y - terminal.dry)) / scale_y < 5e-2
    scale_c = np.max(np.abs(terminal.drc))
    assert scale_c > 0.0
    assert np.max(np.abs(dq_c - terminal.drc)) / scale_c < 5e-2


def test_propagate_validates_inputs():
    config = geometric_config()
    traj = simulate_path(config, c0_sine, 1.0, seed=5, store_dense=True)
    with pytest.raises(ValueError):
        propagate(traj, config.coeffs, traj.n_steps)
    with pytest.raises(ValueError):
        propagate(traj, config.coeffs, 3, t_indices=[2])


@pytest.mark.parametrize("first_frame", [False, True])
def test_sparse_trajectory_gives_the_dense_slices_bitwise(first_frame):
    # the primal is stepped again from the last stored frame before the
    # earliest seed, so a trajectory with five frames carries the same
    # derivative as one with every step
    config = full_coupling_config()
    dense = simulate_path(config, c0_sine, 1.0, seed=5, store_dense=True)
    sparse = simulate_path(config, c0_sine, 1.0, wiener=dense.wiener, n_snapshots=5)
    n = dense.n_steps
    assert n == 100 and list(sparse.step_indices) == [0, 20, 40, 60, 80, 100]
    if first_frame:  # restart from the initial data
        r_indices, t_indices = [0, 7, n // 2, n - 1], [[n], [8, n // 3, n], [n], [n]]
    else:  # restart from step 40
        r_indices, t_indices = [n - 1, 53, 41], [[n], [54, 70, n], [n]]
    for a, b in zip(propagate_seeds(sparse, config.coeffs, r_indices, t_indices),
                    propagate_seeds(dense, config.coeffs, r_indices, t_indices)):
        assert [s.step_index for s in a] == [s.step_index for s in b]
        for sa, sb in zip(a, b):
            assert sa.t == sb.t
            for name in ("z", "drc", "dry"):
                assert np.array_equal(getattr(sa, name), getattr(sb, name))


def test_intermediate_slices_are_consistent():
    config = full_coupling_config()
    traj = simulate_path(config, c0_sine, 1.0, seed=13, store_dense=True)
    n = traj.n_steps
    slices = propagate(traj, config.coeffs, 10, t_indices=[n // 2, n])
    assert [s.step_index for s in slices] == [n // 2, n]
    # initial seed: z = 0 and dry = a(y(r))
    seeded = init_malliavin(traj.y[10], config.coeffs)
    assert np.max(np.abs(seeded.z)) == 0.0
    assert np.allclose(seeded.dry, 0.3 * traj.y[10], rtol=0, atol=1e-15)


# ---------------------------------------------------------------------------
# one sweep for many seeds


def _seed_alone(traj, coeffs, r_index, t_indices):
    """Reference: the unbatched per-seed recursion, slices as (k, z, drc, dry)."""
    state = init_malliavin(traj.y[r_index], coeffs)
    out = []
    for k in range(r_index, max(t_indices)):
        state = step_malliavin(
            state, traj.c[k], traj.y[k], traj.grid, coeffs, traj.bc, traj.dt,
            traj.wiener.increments[k],
        )
        if k + 1 in t_indices:
            out.append((k + 1, state.z, recover_drc(state.z, traj.c[k + 1], coeffs), state.dry))
    return out


@pytest.mark.parametrize("dim", [1, 2])
def test_sweep_is_bitwise_the_per_seed_recursion(dim):
    grid = build_grid(dim, 8 if dim == 1 else 6)
    coeffs = full_coupling_config().coeffs
    config = SimConfig(grid, coeffs, BoundaryKind.NEUMANN, t_final=0.05, dt=1e-3)
    traj = simulate_path(config, c0_sine, 1.0, seed=21, store_dense=True)
    n = traj.n_steps
    # unsorted, duplicated, first and last admissible seed steps
    r_indices = [n // 2, 0, n - 1, 7, n // 2]
    t_indices = [[n], [3, n // 3, n], [n], [8, 20, 40], [n // 2 + 1, n]]
    seeds = propagate_seeds(traj, config.coeffs, r_indices, t_indices)
    assert len(seeds) == len(r_indices)
    for r, ts, slices in zip(r_indices, t_indices, seeds):
        ref = _seed_alone(traj, config.coeffs, r, ts)
        assert [s.step_index for s in slices] == [k for k, *_ in ref] == sorted(ts)
        for sl, (k, z, drc, dry) in zip(slices, ref):
            assert sl.t == float(traj.times[k])
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


def test_sweep_reads_increments_from_the_earliest_seed_once_per_step():
    config = geometric_config()
    traj = simulate_path(config, c0_sine, y0_affine, seed=5, store_dense=True)
    rec = _Recorder(traj.wiener.increments)
    object.__setattr__(traj.wiener, "increments", rec)
    propagate_seeds(traj, config.coeffs, [30, 12, 40])
    assert rec.accessed == list(range(12, traj.n_steps))


def test_propagate_seeds_validates_inputs():
    config = geometric_config()
    traj = simulate_path(config, c0_sine, 1.0, seed=5, store_dense=True)
    with pytest.raises(ValueError):
        propagate_seeds(traj, config.coeffs, [3, traj.n_steps])
    with pytest.raises(ValueError):
        propagate_seeds(traj, config.coeffs, [3, 5], [[10]])
    with pytest.raises(ValueError):
        propagate_seeds(traj, config.coeffs, [3, 5], [[10], [5]])
    assert propagate_seeds(traj, config.coeffs, [3, 5], [[], []]) == [[], []]
    assert propagate_seeds(traj, config.coeffs, []) == []


def test_derivative_run_terminal_slices_follow_the_fractions():
    config = full_coupling_config()
    fractions = (0.5, 0.25, 0.5)
    traj, slices = derivative_run(config, c0_sine, 1.0, seed=4, r_fractions=fractions)
    assert len(slices) == len(fractions)
    for frac, sl in zip(fractions, slices):
        (alone,) = propagate(traj, config.coeffs, seed_index(frac, traj.n_steps))
        assert sl.step_index == traj.n_steps
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
    assert np.array_equal(dq_c, (bumped.c[-1] - base.c[-1]) / (eps * delta))
    assert np.array_equal(dq_y, (bumped.y[-1] - base.y[-1]) / (eps * delta))


# ---------------------------------------------------------------------------
# the sweep inside the primal loop against the replay it replaced


def replay_step(z, dry, c, y, grid, coeffs, bc, dt, dW):
    """The recursion as a replay of stored frames computed it: the clamp
    gates recomputed from the primal formulas, strided interior views and
    fresh temporaries."""
    dim, h = grid.dim, grid.spacing
    core = (Ellipsis,) + (slice(1, -1),) * dim
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
    dw = np.asarray(dW, dtype=np.float64)
    dw = dw.reshape(dw.shape + (1,) * dim)
    dry_new = dry + coeffs.a_prime(y) * dry * dw + (
        coeffs.db_dc(c, y) * drc + coeffs.db_dy(c, y) * dry
    ) * dt
    y_pre = y + coeffs.a(y) * dw + coeffs.b(c, y) * dt
    return z_new, np.where(y_pre < 0.0, 0.0, dry_new)


def replay_sweep(traj, coeffs, r_indices, t_indices):
    """Every seed's slices as (step, t, z, drc, dry) from a replay of the
    dense frames, seeds joining the batch by concatenation."""
    emit = {}
    for j, ts in enumerate(t_indices):
        for k in sorted(set(ts)):
            emit.setdefault(k, []).append(j)
    joins = sorted((r, j) for j, (r, ts) in enumerate(zip(r_indices, t_indices)) if ts)
    out = [[] for _ in r_indices]
    z = dry = np.empty((0,) + traj.grid.shape)
    row = {}
    for k in range(joins[0][0], max(emit)):
        while joins and joins[0][0] == k:
            seed = init_malliavin(traj.y[k], coeffs)
            row[joins.pop(0)[1]] = len(z)
            z, dry = np.concatenate([z, seed.z[None]]), np.concatenate([dry, seed.dry[None]])
        z, dry = replay_step(
            z, dry, traj.c[k], traj.y[k], traj.grid, coeffs, traj.bc, traj.dt, traj.wiener.increments[k]
        )
        for j in emit.get(k + 1, ()):
            zj = z[row[j]]
            drc = recover_drc(zj, traj.c[k + 1], coeffs)
            out[j].append((k + 1, float(traj.times[k + 1]), zj.copy(), drc, dry[row[j]].copy()))
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
    """A dense trajectory (seeded or under explicit increments, some steps
    beyond the stability bound so that the clamps bite) and a seed set."""
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
        traj = simulate_path(config, c0, y0, seed=draw(st.integers(0, 99)), store_dense=True)
    else:
        scale = draw(st.sampled_from([np.sqrt(dt), 5.0]))
        wiener = WienerPath(dt, rng.normal(scale=scale, size=n))
        traj = simulate_path(config, c0, y0, wiener=wiener, store_dense=True)
    assert traj.n_steps == n
    r_indices = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=5))
    r_indices += draw(st.sampled_from([[], [0], [n - 1], [n - 1, 0]]))
    t_indices = [draw(st.lists(st.integers(r + 1, n), max_size=3)) for r in r_indices]
    t_indices[0].append(n)
    return traj, coeffs, r_indices, t_indices


@settings(max_examples=60, deadline=None)
@given(sweeps())
def test_sweep_in_the_primal_loop_is_bitwise_the_replay(case):
    traj, coeffs, r_indices, t_indices = case
    with np.errstate(all="ignore"):
        ref = replay_sweep(traj, coeffs, r_indices, t_indices)
        got = propagate_seeds(traj, coeffs, r_indices, t_indices)
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
    traj = simulate_path(config, c0, 1.0, wiener=wiener, store_dense=True)
    gates = StepBuffers(grid, gates=True)
    v_bites = y_bites = 0
    for k in range(12):
        step(traj.c[k], traj.y[k], grid, coeffs, config.bc, dt, wiener.increments[k], gates)
        v_bites += int(np.sum(gates.v_gate[(slice(1, -1),) * 2]))
        y_bites += int(np.sum(gates.y_gate))
    assert v_bites > 0 and y_bites > 0
    r_indices, t_indices = [0, 3, 3], [[4, 12], [12], [6, 9]]
    with np.errstate(all="ignore"):
        ref = replay_sweep(traj, coeffs, r_indices, t_indices)
        got = propagate_seeds(traj, coeffs, r_indices, t_indices)
    for slices, expected in zip(got, ref):
        for sl, (k, t, z, drc, dry) in zip(slices, expected):
            assert same_bits(sl.z, z) and same_bits(sl.drc, drc) and same_bits(sl.dry, dry)


def test_restart_takes_a_stored_frame_as_it_is():
    # the regularized family stores c = beta_inv(0) = -2e-19 where v+ = 0;
    # initial data that negative is refused, a stored frame is not
    grid = build_grid(1, 2)
    coeffs = COEFFS["regularized"]
    config = SimConfig(grid, coeffs, BoundaryKind.DIRICHLET, t_final=0.02, dt=0.01)
    traj = simulate_path(config, 0.0, 1.5, seed=1, store_dense=True)
    assert np.min(traj.c[1]) < 0.0
    (got,) = propagate_seeds(traj, coeffs, [1])
    ((k, t, z, drc, dry),) = replay_sweep(traj, coeffs, [1], [[2]])[0]
    assert got[0].step_index == k and same_bits(got[0].z, z) and same_bits(got[0].dry, dry)


# ---------------------------------------------------------------------------
# one-way coupling: the tangent skips z, which stays +0.0


ONE_WAY_SOURCES = {
    "zero": preset_coefficients("zero"),
    "logistic": preset_coefficients("logistic_f", {"lambda": 1.3, "K": 1.5, "mu_y": 0.0}),
}


@st.composite
def one_way_runs(draw):
    """A primal path under a source that ignores y (some steps beyond the
    stability bound so that the clamps bite) and a seed set."""
    dim = draw(st.integers(1, 3))
    grid = build_grid(dim, draw(st.integers(2, {1: 10, 2: 6, 3: 3}[dim])))
    bc = draw(st.sampled_from(list(BoundaryKind)))
    source = ONE_WAY_SOURCES[draw(st.sampled_from(sorted(ONE_WAY_SOURCES)))]
    noise = draw(st.sampled_from(["linear_a", "saturating_a"]))
    terms = dict(
        a=preset_coefficients(noise, {"sigma": 0.4}),
        b=preset_coefficients("coupling_b", {"kappa": 0.2, "rho": 1.1}),
    )
    coeffs = make_coefficients(pme_beta(draw(st.sampled_from([2.0, 3.0]))), f=source, **terms)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 12))
    dt = draw(st.floats(0.2, 5.0)) * cfl_dt(grid, coeffs, 2.0)
    if draw(st.booleans()):
        wiener = gen_wiener(n, dt, seed=draw(st.integers(0, 99)))
    else:
        scale = draw(st.sampled_from([np.sqrt(dt), 5.0]))
        wiener = WienerPath(dt, rng.normal(scale=scale, size=n))
    config = SimConfig(grid, coeffs, bc, t_final=n * dt, dt=dt)
    c0 = rng.uniform(0.0, 2.0, grid.shape) * (rng.random(grid.shape) < 0.8)
    y0 = rng.uniform(0.0, 2.0, grid.shape)
    r_indices = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=5))
    r_indices += draw(st.sampled_from([[], [0], [n - 1], [n - 1, 0]]))
    t_indices = [draw(st.lists(st.integers(r + 1, n), max_size=3)) for r in r_indices]
    t_indices[0].append(n)
    return config, terms, prepare_initial(config, c0, y0), wiener, r_indices, t_indices


def streamed_sweep(config, initial, wiener, r_indices, t_indices, path):
    """Slices of ``propagate_path`` and the bytes of the record it streams,
    written as ``rpmelab malliavin`` writes its own."""
    dt, n = wiener.dt, wiener.n_steps
    with RecordWriter(path, config.grid, 0, 0, dt, n + 1) as record:
        record.frame(0.0, *initial)
        _, seeds = propagate_path(
            config, *initial, wiener, r_indices, t_indices,
            on_frame=lambda k, c, y: record.frame(k * dt, c, y),
        )
        record.finish([DerivativePair(r * dt, s[-1].t, s[-1].drc, s[-1].dry) for r, s in zip(r_indices, seeds) if s])
    return seeds, Path(path).read_bytes()


@settings(max_examples=60, deadline=None)
@given(one_way_runs())
def test_one_way_sweep_is_bitwise_the_full_tangent(case):
    config, terms, initial, wiener, r_indices, t_indices = case
    source = config.coeffs.source
    assert not source.reads_y
    # the same reaction term, not declared to ignore y: z is stepped in full
    full_source = SourceTerm(source.label, source.fn, source.d_c, source.d_y)
    full_coeffs = make_coefficients(config.coeffs.beta_family, f=full_source, **terms)
    full = SimConfig(config.grid, full_coeffs, config.bc, t_final=config.t_final, dt=config.dt)
    with tempfile.TemporaryDirectory() as tmp, np.errstate(all="ignore"):
        got, got_bytes = streamed_sweep(config, initial, wiener, r_indices, t_indices, f"{tmp}/a.rpme1")
        ref, ref_bytes = streamed_sweep(full, initial, wiener, r_indices, t_indices, f"{tmp}/b.rpme1")
    assert got_bytes == ref_bytes
    assert len(got) == len(ref)
    for slices, expected in zip(got, ref):
        assert len(slices) == len(expected)
        for sl, ex in zip(slices, expected):
            assert sl.step_index == ex.step_index and sl.t == ex.t
            assert same_bits(sl.z, ex.z) and same_bits(sl.drc, ex.drc) and same_bits(sl.dry, ex.dry)
            assert same_bits(sl.z, np.zeros_like(sl.z))


def test_one_way_step_is_the_full_step_in_a_used_workspace():
    # z = -0.0 in a workspace that last held a two-way step: the skipped z
    # half leaves +0.0 in z and drc, as the full one does; a nonzero z is
    # stepped in full
    grid = build_grid(2, 6)
    one_way = make_coefficients(pme_beta(2.0), **readme_terms())
    assert not one_way.source.reads_y
    f = one_way.source
    full = make_coefficients(one_way.beta_family, **{**readme_terms(), "f": SourceTerm(f.label, f.fn, f.d_c, f.d_y)})
    rng = np.random.default_rng(4)
    primal = StepBuffers(grid, (1,), gates=True)
    c, y = primal.c[0], primal.y[0]
    c[...] = apply_bc(rng.uniform(0.5, 1.5, c.shape), grid, BoundaryKind.NEUMANN)
    y[...] = rng.uniform(0.5, 1.5, y.shape)
    dt = cfl_dt(grid, one_way, 2.0)
    step(c, y, grid, one_way, BoundaryKind.NEUMANN, dt, np.array([0.1]), work=primal)
    args = (c, y, grid, one_way, BoundaryKind.NEUMANN, dt, 0.1, primal)
    full_args = (c, y, grid, full, BoundaryKind.NEUMANN, dt, 0.1, primal)
    work = TangentBuffers((3,) + grid.shape, c.shape)
    dry = rng.standard_normal((3,) + grid.shape)
    busy = MalliavinState(rng.standard_normal((3,) + grid.shape), dry)
    ref = step_malliavin(busy, *full_args)
    got = step_malliavin(busy, *args, work)
    assert work.z.any() and work.drc.any()
    assert same_bits(got.z, ref.z) and same_bits(got.dry, ref.dry)
    zero = MalliavinState(-np.zeros((3,) + grid.shape), dry)
    ref = step_malliavin(zero, *full_args)
    got = step_malliavin(zero, *args, work)
    assert same_bits(got.z, np.zeros_like(dry)) and same_bits(work.drc, np.zeros_like(dry))
    assert same_bits(got.z, ref.z) and same_bits(got.dry, ref.dry)
