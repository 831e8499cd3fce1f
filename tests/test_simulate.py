"""Stepping engine: single-step arithmetic, conservation and positivity
invariants, noise generation, ensemble determinism, and the binary container."""
import math
import warnings

import numpy as np
import pytest

from rpmelab.grid import BoundaryKind, Field, build_grid, normal_diff
from rpmelab.model import (
    SourceTerm,
    make_coefficients,
    pme_beta,
    preset_coefficients,
    r2_bound,
)
from rpmelab.pathfile import DerivativePair, FormatError, PathRecord, read_record, write_record
from rpmelab.simulate import (
    SimConfig,
    cfl_dt,
    coarsen_wiener,
    gen_wiener,
    gen_wiener_batch,
    interior_v_mass,
    prepare_initial,
    simulate_ensemble,
    simulate_path,
    step,
)


def parabola(x):
    return x[..., 0] * (1.0 - x[..., 0])


def test_single_step_matches_hand_update():
    # c = x(1-x) has exact discrete Laplacian -2, the unknown is v = sqrt(c)
    grid = build_grid(1, 8)
    coeffs = make_coefficients(
        pme_beta(2.0),
        a=preset_coefficients("linear_a", {"sigma": 0.5}),
        b=preset_coefficients("coupling_b", {"kappa": 1.0, "rho": 0.0}),
    )
    c0 = parabola(grid.node_points())
    y0 = np.full(grid.shape, 2.0)
    dt, dw = 1e-4, 0.037
    res = step(c0, y0, grid, coeffs, BoundaryKind.DIRICHLET, dt, dw)
    x = grid.axis_coords()[1:-1]
    v_expected = np.sqrt(x * (1.0 - x)) - 2.0 * dt
    assert np.max(np.abs(res.c[1:-1] - v_expected**2)) < 1e-15
    assert res.c[0] == 0.0 and res.c[-1] == 0.0
    y_expected = y0 + 0.5 * y0 * dw + 1.0 * c0 * dt
    assert np.max(np.abs(res.y - y_expected)) < 1e-15
    assert float(res.clamp_mass) == 0.0


@pytest.mark.parametrize("dim,cells", [(1, 32), (1, 1024), (2, 32), (3, 12)])
def test_stacked_interior_mass_matches_one_state_at_a_time(dim, cells):
    grid = build_grid(dim, cells)
    coeffs = make_coefficients(pme_beta(3.0))
    frames = np.random.default_rng(dim * cells).uniform(0.0, 2.0, (17,) + grid.shape)
    core = (slice(1, -1),) * dim
    loop = [float(grid.spacing**dim * np.sum(coeffs.beta(c[core]))) for c in frames]
    assert np.array_equal(interior_v_mass(frames, grid, coeffs), loop)
    assert [interior_v_mass(c, grid, coeffs) for c in frames] == loop
    # a chunk of frames, (frames, paths, *grid), in one call or path by path
    chunk = frames[:16].reshape((4, 4) + grid.shape)
    stacked = interior_v_mass(chunk, grid, coeffs)
    assert all(stacked[:, j].tobytes() == interior_v_mass(chunk[:, j], grid, coeffs).tobytes() for j in range(4))


def test_neumann_mass_conservation_exact():
    grid = build_grid(1, 16)
    coeffs = make_coefficients(pme_beta(2.0))
    config = SimConfig(grid, coeffs, BoundaryKind.NEUMANN, t_final=0.05)

    def c0(x):
        return 0.5 + 0.3 * np.cos(np.pi * x[..., 0])

    run = simulate_path(config, c0, 0.0, seed=7, store_dense=True)
    assert run.n_steps >= 100
    masses = [interior_v_mass(run.c[k, 0], grid, coeffs) for k in range(len(run.times))]
    assert max(abs(m - masses[0]) for m in masses) < 1e-12
    assert run.clamp_mass[0] == 0.0
    # no-flux frames satisfy the discrete boundary rule exactly
    for k in (0, len(run.times) - 1):
        nd = normal_diff(Field(grid, run.c[k, 0]))
        assert np.max(np.abs(nd.values[nd.mask])) == 0.0


def test_dirichlet_mass_decays():
    grid = build_grid(1, 16)
    coeffs = make_coefficients(pme_beta(2.0))
    config = SimConfig(grid, coeffs, BoundaryKind.DIRICHLET, t_final=0.01)

    def c0(x):
        return np.sin(np.pi * x[..., 0])

    run = simulate_path(config, c0, 0.0, seed=7, store_dense=True)
    masses = interior_v_mass(run.c[:, 0], grid, coeffs)
    assert np.all(np.diff(masses) < 0.0)


def test_zero_state_is_a_fixed_point():
    grid = build_grid(2, 6)
    coeffs = make_coefficients(
        pme_beta(2.0),
        f=preset_coefficients("logistic_f", {"lambda": 1.0, "K": 1.0}),
        a=preset_coefficients("linear_a", {"sigma": 0.4}),
    )
    for bc in (BoundaryKind.DIRICHLET, BoundaryKind.NEUMANN):
        config = SimConfig(grid, coeffs, bc, t_final=1e-3, dt=5e-5)
        run = simulate_path(config, 0.0, 0.0, seed=3, store_dense=True)
        assert np.all(run.c == 0.0)
        assert np.all(run.y == 0.0)


def test_max_principle_and_positivity_without_source():
    grid = build_grid(1, 24)
    coeffs = make_coefficients(pme_beta(2.0))
    for bc in (BoundaryKind.DIRICHLET, BoundaryKind.NEUMANN):
        config = SimConfig(grid, coeffs, bc, t_final=0.02)

        def c0(x):
            return 0.8 * np.sin(np.pi * x[..., 0]) ** 2

        run = simulate_path(config, c0, 0.0, seed=11, store_dense=True)
        sups = np.max(run.c.reshape(len(run.times), -1), axis=1)
        assert np.all(np.diff(sups) <= 1e-14)
        assert np.min(run.c) >= 0.0


def test_sup_stays_below_growth_bound_with_source():
    grid = build_grid(1, 12)
    coeffs = make_coefficients(
        pme_beta(2.0), f=preset_coefficients("logistic_f", {"lambda": 1.0, "K": 1.0})
    )
    config = SimConfig(grid, coeffs, BoundaryKind.DIRICHLET, t_final=0.2)

    def c0(x):
        return 0.9 * np.sin(np.pi * x[..., 0])

    run = simulate_path(config, c0, 0.0, seed=2, store_dense=True)
    bound = r2_bound(0.2, 0.9, coeffs.beta_family)
    assert np.max(run.c) <= bound


def test_clamp_ledger_counts_forced_negativity():
    # a strongly negative source drives v below zero; the clamp keeps c >= 0
    # and reports the removed mass
    grid = build_grid(1, 8)
    neg = SourceTerm(
        "sink",
        lambda c, y, out=None: np.full_like(np.asarray(c, dtype=np.float64), -5.0),
        lambda c, y: np.zeros_like(np.asarray(c, dtype=np.float64)),
        lambda c, y: np.zeros_like(np.asarray(c, dtype=np.float64)),
    )
    coeffs = make_coefficients(pme_beta(2.0), f=neg)
    config = SimConfig(grid, coeffs, BoundaryKind.DIRICHLET, t_final=0.05, dt=1e-3)

    def c0(x):
        return 0.01 * np.sin(np.pi * x[..., 0])

    run = simulate_path(config, c0, 0.0, seed=1, store_dense=True)
    assert run.clamp_mass[0] > 0.0
    assert np.min(run.c) >= 0.0


def test_cfl_formula():
    grid = build_grid(2, 8)
    coeffs = make_coefficients(pme_beta(2.0))
    # 1/beta'(4) = 2 * sqrt(4) = 4
    expected = 0.5 * (1.0 / 81.0) / (2.0 * 2.0 * 4.0)
    assert cfl_dt(grid, coeffs, 4.0, theta=0.5) == pytest.approx(expected, rel=1e-15)
    with pytest.raises(ValueError):
        cfl_dt(grid, coeffs, 1.0, theta=0.0)


def test_resolve_steps_lands_on_horizon():
    grid = build_grid(1, 8)
    coeffs = make_coefficients(pme_beta(2.0))
    config = SimConfig(grid, coeffs, BoundaryKind.DIRICHLET, t_final=1.0, dt=0.3)
    dt, n = config.resolve_steps(1.0)
    assert n == 4 and dt == pytest.approx(0.25, rel=1e-15)
    dt, n = config.resolve_steps(1.0, multiple_of=6)
    assert n == 6 and dt * n == pytest.approx(1.0, rel=1e-15)
    auto = SimConfig(grid, coeffs, BoundaryKind.DIRICHLET, t_final=0.01)
    dt, n = auto.resolve_steps(0.5)
    radius = r2_bound(0.01, 0.5, coeffs.beta_family)
    assert dt <= cfl_dt(grid, coeffs, radius, 0.5) * (1.0 + 1e-12)
    assert dt * n == pytest.approx(0.01, rel=1e-15)


def test_wiener_statistics():
    w = gen_wiener(100_000, 1e-3, seed=123)
    inc = w.increments
    assert abs(float(np.mean(inc))) < 5.0 * math.sqrt(1e-3 / 100_000)
    assert float(np.var(inc)) == pytest.approx(1e-3, rel=0.05)


def test_wiener_reproducible_and_distinct():
    a = gen_wiener(64, 0.01, seed=9, path_id=4)
    b = gen_wiener(64, 0.01, seed=9, path_id=4)
    assert np.array_equal(a.increments, b.increments)
    firsts = {float(gen_wiener(4, 0.01, seed=9, path_id=pid).increments[0]) for pid in range(100)}
    assert len(firsts) == 100
    batch = gen_wiener_batch(64, 0.01, seed=9, path_ids=[3, 4, 5])
    assert np.array_equal(batch.increments[1], a.increments)


def test_wiener_keys_every_u64_seed_apart():
    # seeds at and above 2**63 each get their own stream, and 2**64 - 1 is
    # not seed 0; the key is the seed modulo 2**64
    seeds = [0, 2**63 - 1, 2**63, 2**63 + 1, 2**63 + 1024, 2**64 - 1]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        firsts = {float(gen_wiener(4, 0.01, seed=s).increments[0]) for s in seeds}
    assert len(firsts) == len(seeds)
    wrapped, plain = gen_wiener(4, 0.01, seed=2**64 + 5), gen_wiener(4, 0.01, seed=5)
    assert np.array_equal(wrapped.increments, plain.increments)


def test_coarsen_wiener_groups_increments():
    w = gen_wiener(16, 0.01, seed=5)
    c = coarsen_wiener(w, 4)
    assert c.dt == pytest.approx(0.04, rel=1e-15)
    assert c.n_steps == 4
    assert np.allclose(c.increments, w.increments.reshape(4, 4).sum(axis=1), rtol=0, atol=0)
    # same Brownian path at shared times, up to summation-order rounding
    assert np.allclose(np.cumsum(c.increments), np.cumsum(w.increments)[3::4], rtol=0, atol=1e-14)
    assert coarsen_wiener(w, 1) is w
    with pytest.raises(ValueError):
        coarsen_wiener(w, 3)


def _rich_config(m_cells=6, t_final=2e-3):
    grid = build_grid(1, m_cells)
    coeffs = make_coefficients(
        pme_beta(2.0),
        f=preset_coefficients("logistic_f", {"lambda": 1.0, "K": 1.0, "mu_y": 0.2}),
        a=preset_coefficients("linear_a", {"sigma": 0.4}),
        b=preset_coefficients("coupling_b", {"kappa": 0.5, "rho": 0.3}),
    )
    return SimConfig(grid, coeffs, BoundaryKind.NEUMANN, t_final=t_final)


def c0_sine(x):
    return 0.4 + 0.2 * np.sin(np.pi * x[..., 0])


def test_ensemble_matches_single_paths_bitwise():
    config = _rich_config()
    ens = simulate_ensemble(config, c0_sine, 1.0, n_paths=5, seed=21, first_path_id=10)
    for j, pid in enumerate(range(10, 15)):
        run = simulate_path(config, c0_sine, 1.0, seed=21, path_id=pid, store_dense=True)
        assert run.dt == ens.dt and run.n_steps == ens.n_steps
        assert run.path_ids.tolist() == [pid]
        assert np.array_equal(ens.c_final[j], run.c[-1, 0])
        assert np.array_equal(ens.y_final[j], run.y[-1, 0])
        assert ens.c_sup[j] == np.max(run.c)
        assert ens.clamp_mass[j] == run.clamp_mass[0]


def test_ensemble_worker_count_is_invisible():
    config = _rich_config(m_cells=4, t_final=1e-3)
    base = simulate_ensemble(config, c0_sine, 0.5, n_paths=300, seed=3, n_workers=1)
    quad = simulate_ensemble(config, c0_sine, 0.5, n_paths=300, seed=3, n_workers=4)
    for attr in ("path_ids", "c_final", "y_final", "c_sup", "c_min", "clamp_mass"):
        assert np.array_equal(getattr(base, attr), getattr(quad, attr)), attr


def _readme_config(cells=16):
    coeffs = make_coefficients(
        pme_beta(2.0),
        f=preset_coefficients("logistic_f", {"lambda": 0.5}),
        a=preset_coefficients("linear_a", {"sigma": 0.3}),
        b=preset_coefficients("coupling_b", {}),
    )
    return SimConfig(build_grid(1, cells), coeffs, BoundaryKind.NEUMANN, t_final=0.1)


def c0_cosine(x):
    return 1.0 + 0.5 * np.cos(np.pi * x[..., 0])


def test_ensemble_snapshots_use_the_single_path_grid():
    config = _readme_config()
    k = 7  # does not divide the unrounded step count
    chunks = []
    ens = simulate_ensemble(
        config, c0_cosine, 1.0, n_paths=4, seed=5, first_path_id=2,
        n_snapshots=k, on_chunk=chunks.append,
    )
    c_init, _ = prepare_initial(config, c0_cosine, 1.0)
    assert config.resolve_steps(float(np.max(c_init)))[1] % k != 0
    assert ens.n_steps % k == 0
    assert [int(p) for c in chunks for p in c.path_ids] == [2, 3, 4, 5]
    assert all(c.c is None and c.y is None for c in chunks)  # dropped after the callback
    chunks = []

    def keep_frames(chunk):
        chunks.append((chunk.path_ids, chunk.times, chunk.c, chunk.y, chunk.clamp_mass))

    simulate_ensemble(
        config, c0_cosine, 1.0, n_paths=4, seed=5, first_path_id=2,
        n_snapshots=k, on_chunk=keep_frames,
    )
    for ids, times, c, y, clamp_mass in chunks:
        for j, pid in enumerate(ids):
            run = simulate_path(config, c0_cosine, 1.0, seed=5, path_id=int(pid), n_snapshots=k)
            assert (run.dt, run.n_steps) == (ens.dt, ens.n_steps)
            assert np.array_equal(times, run.times)
            assert np.array_equal(c[:, j], run.c[:, 0])
            assert np.array_equal(y[:, j], run.y[:, 0])
            assert clamp_mass[j] == run.clamp_mass[0]


def test_sde_drift_only_matches_exponential_decay():
    grid = build_grid(1, 4)
    coeffs = make_coefficients(
        pme_beta(2.0), b=preset_coefficients("coupling_b", {"kappa": 0.0, "rho": 1.0})
    )
    config = SimConfig(grid, coeffs, BoundaryKind.DIRICHLET, t_final=0.5, dt=1e-3)
    run = simulate_path(config, 0.0, 2.0, seed=4)
    expected = 2.0 * math.exp(-0.5)
    assert np.max(np.abs(run.y_final - expected)) < 2e-3


def test_sde_clamp_keeps_y_nonnegative():
    grid = build_grid(1, 4)
    coeffs = make_coefficients(
        pme_beta(2.0), a=preset_coefficients("linear_a", {"sigma": 50.0})
    )
    config = SimConfig(grid, coeffs, BoundaryKind.DIRICHLET, t_final=0.1, dt=1e-3)
    run = simulate_path(config, 0.0, 1.0, seed=8, store_dense=True)
    assert np.min(run.y) >= 0.0


def test_snapshot_selection():
    config = _rich_config(t_final=4e-3)
    run = simulate_path(config, c0_sine, 1.0, seed=1, n_snapshots=4)
    assert len(run.times) == 5 and run.c.shape == (5, 1) + config.grid.shape
    assert run.times[0] == 0.0
    assert run.times[-1] == pytest.approx(4e-3, rel=1e-12)
    assert run.n_steps % 4 == 0
    # same step count (n_snapshots also pins the rounding), dense storage
    dense = simulate_path(config, c0_sine, 1.0, seed=1, n_snapshots=4, store_dense=True)
    assert dense.n_steps == run.n_steps and len(dense.times) == dense.n_steps + 1
    k = dense.n_steps // 4
    assert np.array_equal(run.c[1], dense.c[k])


def test_initial_data_validation():
    config = _rich_config()
    with pytest.raises(ValueError):
        simulate_path(config, -0.5, 0.0, seed=0)
    with pytest.raises(ValueError):
        simulate_path(config, lambda x: np.full(x.shape[:-1], np.nan), 0.0, seed=0)


@pytest.mark.parametrize("which", ["c0", "y0"])
@pytest.mark.parametrize("bad", [np.nan, -1.0])
@pytest.mark.parametrize("form", ["ndarray", "Field"])
def test_initial_arrays_are_checked_like_every_other_form(which, bad, form):
    # a Field refuses non-finite values when it is built; prepare_initial
    # refuses every other bad entry, in an array as in a Field
    config = _rich_config()
    values = np.full(config.grid.shape, 0.5)
    values[len(values) // 2] = bad
    with pytest.raises(ValueError):
        data = values if form == "ndarray" else Field(config.grid, values)
        initial = {"c0": 0.5, "y0": 1.0, which: data}
        prepare_initial(config, initial["c0"], initial["y0"])


def test_pathfile_round_trip(tmp_path):
    grid = build_grid(2, 5)
    rng = np.random.default_rng(0)
    times = np.array([0.0, 0.5, 1.0])
    c = rng.random((3,) + grid.shape)
    y = rng.random((3,) + grid.shape)
    pairs = (
        DerivativePair(0.25, 1.0, rng.random(grid.shape), rng.random(grid.shape)),
        DerivativePair(0.5, 1.0, rng.random(grid.shape), rng.random(grid.shape)),
    )
    rec = PathRecord(grid, seed=42, path_id=7, dt=1e-3, times=times, c=c, y=y, pairs=pairs)
    fn = tmp_path / "run.rpme1"
    write_record(fn, rec)
    back = read_record(fn)
    assert back.grid == grid
    assert back.seed == 42 and back.path_id == 7 and back.dt == 1e-3
    assert np.array_equal(back.times, times)
    assert np.array_equal(back.c, c) and np.array_equal(back.y, y)
    assert len(back.pairs) == 2
    assert back.pairs[1].r == 0.5
    assert np.array_equal(back.pairs[0].drc, pairs[0].drc)
    assert np.array_equal(back.pairs[1].dry, pairs[1].dry)


def test_pathfile_rejects_corruption(tmp_path):
    grid = build_grid(1, 4)
    rec = PathRecord(
        grid, 0, 0, 1e-3, np.array([0.0]), np.zeros((1,) + grid.shape),
        np.zeros((1,) + grid.shape), ()
    )
    fn = tmp_path / "run.rpme1"
    write_record(fn, rec)
    raw = bytearray(fn.read_bytes())
    bad_magic = tmp_path / "bad_magic.rpme1"
    bad_magic.write_bytes(b"XPME1" + bytes(raw[5:]))
    with pytest.raises(FormatError):
        read_record(bad_magic)
    truncated = tmp_path / "short.rpme1"
    truncated.write_bytes(bytes(raw[:-4]))
    with pytest.raises(FormatError):
        read_record(truncated)
    padded = tmp_path / "padded.rpme1"
    padded.write_bytes(bytes(raw) + b"\x00" * 8)
    with pytest.raises(FormatError):
        read_record(padded)
