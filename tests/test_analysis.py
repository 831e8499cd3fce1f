import math

import numpy as np
import pytest

from rpmelab.analysis import (
    EstimateReport,
    barenblatt_error,
    bump_time_profile,
    cauchy_refinement,
    energy_report,
    epsilon_sweep,
    holder_report,
    malliavin_report,
    malliavin_report_steps,
    moment_report,
    overlap_matrix,
    pc_cross_inner,
    transform_report,
    weak_residual,
)
from rpmelab.grid import BoundaryKind, Field, build_grid, free_node_count, sample_nodal
from rpmelab.interp import pc_eval, pc_l2_inner, pc_spline
from rpmelab.malliavin import propagate_path
from rpmelab.model import (
    initial_preset,
    make_coefficients,
    pme_beta,
    preset_coefficients,
    regularize_beta,
)
from rpmelab.simulate import SimConfig, gen_wiener, prepare_initial, simulate_path
from rpmelab.transform import build_transform_pair, degeneracy_weight


def test_estimate_report_pass_logic():
    assert EstimateReport("a", 1.0, 2.0).passed
    assert EstimateReport("b", 1.0, 1.0).passed  # equality passes
    assert not EstimateReport("c", 1.1, 1.0).passed
    assert EstimateReport("d", 1e9, None).passed  # diagnostic


# ---------------------------------------------------------------------------
# cross-grid geometry


def test_overlap_rows_partition_cells():
    ga, gb = build_grid(1, 2), build_grid(1, 5)
    o = overlap_matrix(ga, gb)
    # both families of clipped half-cells partition [0, 1]
    ca = ga.axis_coords()
    half = ga.spacing / 2.0
    len_a = np.minimum(ca + half, 1.0) - np.maximum(ca - half, 0.0)
    assert np.allclose(o.sum(axis=1), len_a, atol=1e-15)
    assert abs(o.sum() - 1.0) < 1e-14
    assert np.all(o >= 0.0)


def test_cross_inner_same_grid_matches_pc_inner():
    grid = build_grid(2, 5)
    rng = np.random.default_rng(3)
    u = Field(grid, rng.uniform(size=grid.shape))
    w = Field(grid, rng.uniform(size=grid.shape))
    assert pc_cross_inner(u, w) == pytest.approx(pc_l2_inner(u, w), rel=1e-13)


def test_cross_inner_matches_midpoint_quadrature():
    ga, gb = build_grid(1, 2), build_grid(1, 5)
    u = sample_nodal(ga, lambda x: x[..., 0] * (1.0 - x[..., 0]))
    w = sample_nodal(gb, lambda x: np.sin(np.pi * x[..., 0]))
    exact = pc_cross_inner(u, w)
    n = 200_000
    xs = (np.arange(n) + 0.5)[:, None] / n
    quad = float(
        np.mean(pc_eval(pc_spline(u), xs) * pc_eval(pc_spline(w), xs))
    )
    # the product is piecewise constant with a handful of jumps, so the
    # midpoint rule errs only in straddling cells
    assert quad == pytest.approx(exact, rel=1e-3)


def test_cross_inner_rejects_dim_mismatch():
    u = Field(build_grid(1, 3), np.zeros(5))
    w = Field(build_grid(2, 3), np.zeros((5, 5)))
    with pytest.raises(ValueError):
        pc_cross_inner(u, w)


# ---------------------------------------------------------------------------
# statistics


def test_moment_report_accepts_true_mean_rejects_wrong_one():
    rng = np.random.default_rng(11)
    samples = rng.standard_normal(20_000)
    good = moment_report(samples, 0.0, "centered")
    assert good.passed and good.measured < 3.0
    bad = moment_report(samples, 1.0, "shifted")
    assert not bad.passed and bad.measured > 50.0
    assert good.detail["n"] == 20_000


def test_moment_report_zero_spread():
    exact = moment_report(np.full(10, 2.0), 2.0, "exact")
    assert exact.measured == 0.0 and exact.passed
    miss = moment_report(np.full(10, 2.0), 2.5, "miss")
    assert miss.measured == math.inf and not miss.passed


def test_holder_exponent_of_brownian_paths_is_half():
    dt = 1e-3
    rng = np.random.default_rng(7)
    inc = rng.standard_normal((64, 4096)) * math.sqrt(dt)
    paths = np.cumsum(inc, axis=1)
    rep = holder_report(paths, dt)
    assert abs(rep.measured - 0.5) < 0.1
    rep1d = holder_report(paths[0], dt)  # single path accepted
    assert 0.2 < rep1d.measured < 0.8
    with pytest.raises(ValueError):
        holder_report(paths[:, :64], dt, lags=(8, 64))


# ---------------------------------------------------------------------------
# energy balance


def _dirichlet_sine_run(cells=16, t_final=0.05):
    grid = build_grid(1, cells)
    coeffs = make_coefficients(pme_beta(2.0))
    config = SimConfig(grid, coeffs, BoundaryKind.DIRICHLET, t_final=t_final)
    c0 = initial_preset("sine", 1, {"amplitude": 0.5})
    run = simulate_path(config, c0, 0.0, store_dense=True)
    return run, coeffs, config


def test_energy_balance_holds_for_diffusive_decay():
    run, coeffs, config = _dirichlet_sine_run()
    assert run.clamp_mass[0] == 0.0
    reports = energy_report(run, coeffs, config.theta)
    bal = reports[0]
    assert bal.name == "energy_balance"
    assert bal.passed
    # source-free Dirichlet decay: dissipation must be strictly paid for
    assert bal.detail["source_work"] == 0.0
    assert bal.detail["dissipation"] > 0.0
    assert bal.detail["final"] < bal.detail["initial"]


def test_energy_balance_with_source_and_noise():
    grid = build_grid(1, 12)
    coeffs = make_coefficients(
        pme_beta(2.0),
        f=preset_coefficients("logistic_f", {"lambda": 0.5, "K": 5.0, "mu_y": 0.2}),
        a=preset_coefficients("linear_a", {"sigma": 0.3}),
        b=preset_coefficients("coupling_b", {"kappa": 0.5, "rho": 0.4}),
    )
    config = SimConfig(grid, coeffs, BoundaryKind.NEUMANN, t_final=0.02)
    c0 = initial_preset("cosine", 1, {"offset": 1.0, "amplitude": 0.5})
    run = simulate_path(config, c0, 1.0, seed=5, store_dense=True)
    assert run.clamp_mass[0] == 0.0
    reports = energy_report(run, coeffs, config.theta)
    assert reports[0].passed
    assert reports[0].detail["source_work"] > 0.0


# ---------------------------------------------------------------------------
# weak residual


def _test_field(grid, seed=0):
    rng = np.random.default_rng(seed)
    return rng.uniform(0.5, 1.0, size=free_node_count(grid))


def test_weak_residual_constant_window_telescopes():
    run, coeffs, _ = _dirichlet_sine_run(cells=12, t_final=0.02)
    grid = run.grid
    xi = lambda t: np.ones_like(np.asarray(t, dtype=np.float64))
    xi_p = lambda t: np.zeros_like(np.asarray(t, dtype=np.float64))
    raw, scaled = weak_residual(run, coeffs, _test_field(grid), xi, xi_p)
    assert scaled < 1e-12


def test_weak_residual_shrinks_at_first_order_in_dt():
    from rpmelab.simulate import coarsen_wiener

    grid = build_grid(1, 10)
    coeffs = make_coefficients(
        pme_beta(2.0),
        f=preset_coefficients("logistic_f", {"lambda": 1.0, "K": 10.0, "mu_y": 0.5}),
        a=preset_coefficients("linear_a", {"sigma": 0.4}),
        b=preset_coefficients("coupling_b", {"kappa": 1.0, "rho": 0.5}),
    )
    t_final = 0.04
    config = SimConfig(grid, coeffs, BoundaryKind.NEUMANN, t_final=t_final)
    c0 = initial_preset("cosine", 1, {"offset": 1.0, "amplitude": 0.5})
    # 4x finer than the parabolic bound so the factor-4 coarsening still
    # satisfies it (else the coarse run clamps and breaks the identity)
    dt0, n0 = config.resolve_steps(1.5)
    n = 4 * n0
    fine = gen_wiener(n, t_final / n, seed=9)
    xi, xi_p = bump_time_profile(t_final)
    v = _test_field(grid, seed=2)

    scaled = []
    for factor in (1, 2, 4):
        w = coarsen_wiener(fine, factor)
        cfg = SimConfig(grid, coeffs, BoundaryKind.NEUMANN, t_final=t_final, dt=w.dt)
        run = simulate_path(cfg, c0, 1.0, wiener=w, store_dense=True)
        assert run.clamp_mass[0] == 0.0
        scaled.append(weak_residual(run, coeffs, v, xi, xi_p)[1])
    order_12 = math.log2(scaled[1] / scaled[0])
    order_24 = math.log2(scaled[2] / scaled[1])
    assert order_12 > 0.9, (scaled, order_12)
    assert order_24 > 0.9, (scaled, order_24)


def test_weak_residual_requires_dense_frames():
    run, coeffs, _ = _dirichlet_sine_run(cells=8, t_final=0.01)
    grid = run.grid
    config = SimConfig(grid, coeffs, BoundaryKind.DIRICHLET, t_final=0.01)
    sparse = simulate_path(config, initial_preset("sine", 1, None), 0.0, n_snapshots=2)
    xi = lambda t: np.ones_like(np.asarray(t, dtype=np.float64))
    with pytest.raises(ValueError):
        weak_residual(sparse, coeffs, _test_field(grid), xi, xi)


# ---------------------------------------------------------------------------
# benchmark and refinement


def test_barenblatt_error_small_and_decreasing():
    coarse = barenblatt_error(32)
    fine = barenblatt_error(64)
    assert coarse.rel_error < 0.2
    assert fine.rel_error < coarse.rel_error
    assert coarse.rel_error / fine.rel_error > 1.3
    assert fine.detail["support_radius"] < 0.5


def test_barenblatt_rejects_escaping_support():
    with pytest.raises(ValueError):
        barenblatt_error(16, t_final=50.0)


def test_cauchy_refinement_smoke():
    coeffs = make_coefficients(
        pme_beta(2.0),
        f=preset_coefficients("logistic_f", {"lambda": 0.5, "K": 5.0, "mu_y": 0.2}),
        a=preset_coefficients("linear_a", {"sigma": 0.3}),
        b=preset_coefficients("coupling_b", {"kappa": 0.5, "rho": 0.4}),
    )
    out = cauchy_refinement(
        SimConfig(build_grid(1, 4), coeffs, BoundaryKind.NEUMANN, t_final=0.02),
        initial_preset("cosine", 1, {"offset": 1.0, "amplitude": 0.5}),
        1.0,
        levels=(4, 8),
        n_paths=4,
        n_snapshots=2,
        seed=3,
    )
    assert len(out.c_distances) == 1 and len(out.y_distances) == 1
    assert out.c_distances[0] > 0.0 and math.isfinite(out.c_distances[0])
    assert out.y_distances[0] > 0.0 and math.isfinite(out.y_distances[0])
    # every level steps the same horizon and divides the finest step
    for lvl in out.levels:
        assert lvl.dt * lvl.n_steps == pytest.approx(0.02, rel=1e-12)
    assert out.levels[0].coarsen_factor > out.levels[-1].coarsen_factor
    assert out.levels[-1].coarsen_factor == 1


def test_epsilon_sweep_smoke():
    coeffs = make_coefficients(
        pme_beta(2.0),
        a=preset_coefficients("linear_a", {"sigma": 0.3}),
        b=preset_coefficients("coupling_b", {"kappa": 0.5, "rho": 0.4}),
    )
    out = epsilon_sweep(
        SimConfig(build_grid(1, 8), coeffs, BoundaryKind.NEUMANN, t_final=0.02),
        (1e-1, 2.5e-2),
        initial_preset("cosine", 1, {"offset": 1.0, "amplitude": 0.5}),
        1.0,
        n_paths=4,
        seed=1,
    )
    assert out.eps == (1e-1, 2.5e-2)  # sorted largest first
    assert out.gaps[0] > out.gaps[1] > 0.0  # regularization gap shrinks with eps
    assert len(out.c_distances) == 1
    assert out.c_distances[0] > 0.0 and math.isfinite(out.c_distances[0])


# ---------------------------------------------------------------------------
# derivative and transform diagnostics


def _seeded_wiener(config, c0, y0, seed):
    """The increments ``simulate_path`` draws for path 0 under ``seed``."""
    c, _ = prepare_initial(config, c0, y0)
    dt, n = config.resolve_steps(float(np.max(c)))
    return gen_wiener(n, dt, seed)


def test_malliavin_report_smoke():
    grid = build_grid(1, 8)
    coeffs = make_coefficients(
        pme_beta(2.0),
        f=preset_coefficients("logistic_f", {"lambda": 1.0, "K": 10.0, "mu_y": 0.5}),
        a=preset_coefficients("linear_a", {"sigma": 0.4}),
        b=preset_coefficients("coupling_b", {"kappa": 1.0, "rho": 0.5}),
    )
    config = SimConfig(grid, coeffs, BoundaryKind.NEUMANN, t_final=0.02)
    c0 = initial_preset("cosine", 1, {"offset": 1.0, "amplitude": 0.5})
    wiener = _seeded_wiener(config, c0, 1.0, seed=4)
    steps = malliavin_report_steps(wiener.n_steps, 2, 5)
    (slices,) = propagate_path(config, c0, 1.0, wiener, [2], [steps])[1]
    reports = malliavin_report(slices, grid, r_index=2, stride=5)
    names = [r.name for r in reports]
    assert "derivative_dry_sup_l2" in names and "derivative_z_time_slope_hm2" in names
    by_name = {r.name: r for r in reports}
    assert by_name["derivative_dry_sup_l2"].measured > 0.0
    assert by_name["derivative_drc_sup_l2"].measured > 0.0  # noise reaches c
    for r in reports:
        assert r.bound is None and math.isfinite(r.measured) and r.measured >= 0.0


def test_malliavin_report_is_the_same_from_one_sweep_or_one_seed_each():
    grid = build_grid(1, 8)
    coeffs = make_coefficients(
        pme_beta(2.0),
        f=preset_coefficients("logistic_f", {"lambda": 1.0, "K": 10.0, "mu_y": 0.5}),
        a=preset_coefficients("linear_a", {"sigma": 0.4}),
        b=preset_coefficients("coupling_b", {"kappa": 1.0, "rho": 0.5}),
    )
    config = SimConfig(grid, coeffs, BoundaryKind.NEUMANN, t_final=0.02)
    c0 = initial_preset("cosine", 1, {"offset": 1.0, "amplitude": 0.5})
    wiener = _seeded_wiener(config, c0, 1.0, seed=4)
    n = wiener.n_steps
    r_indices = [n // 2, 2, n - 1]
    strides = [max(1, (n - r) // 8) for r in r_indices]
    steps = [malliavin_report_steps(n, r, st) for r, st in zip(r_indices, strides)]
    assert all(idx[-1] == n for idx in steps)
    swept = propagate_path(config, c0, 1.0, wiener, r_indices, steps)[1]
    for r, st, idx, slices in zip(r_indices, strides, steps, swept):
        (alone,) = propagate_path(config, c0, 1.0, wiener, [r], [idx])[1]
        assert malliavin_report(slices, grid, r, st) == malliavin_report(alone, grid, r, st)


def test_malliavin_report_steps_end_at_the_horizon():
    assert malliavin_report_steps(40, 8, 4) == list(range(12, 41, 4))
    assert malliavin_report_steps(41, 8, 4) == list(range(12, 41, 4)) + [41]
    assert malliavin_report_steps(10, 9, 1) == [10]


def _ramp(x):
    # raw maximum 1.5 sits on the boundary node x = 1
    return 0.5 + x[..., 0]


def test_refinement_resolves_steps_from_the_boundary_applied_state():
    t_final, n_snapshots = 0.05, 2
    coeffs = make_coefficients(pme_beta(2.0))
    out = cauchy_refinement(
        SimConfig(build_grid(1, 4), coeffs, BoundaryKind.DIRICHLET, t_final),
        _ramp, 0.0, levels=(4, 8), n_paths=2, n_snapshots=n_snapshots,
    )
    fine = SimConfig(build_grid(1, 8), coeffs, BoundaryKind.DIRICHLET, t_final)
    c, _ = prepare_initial(fine, _ramp, 0.0)
    block = n_snapshots * out.levels[0].coarsen_factor  # the coarse level has the largest factor
    expected = block * math.ceil(fine.resolve_steps(float(np.max(c)))[1] / block)
    raw = block * math.ceil(fine.resolve_steps(1.5)[1] / block)
    assert expected != raw  # the two maxima resolve different grids here
    assert out.levels[-1].n_steps == expected
    assert out.levels[-1].dt == t_final / expected


def test_epsilon_sweep_resolves_steps_from_the_boundary_applied_state():
    t_final, eps_values = 0.05, (0.1, 0.05)
    grid = build_grid(1, 8)
    out = epsilon_sweep(
        SimConfig(grid, make_coefficients(pme_beta(2.0)), BoundaryKind.DIRICHLET, t_final),
        eps_values, _ramp, 0.0, n_paths=2,
    )
    configs = [
        SimConfig(grid, make_coefficients(regularize_beta(2.0, e)), BoundaryKind.DIRICHLET, t_final)
        for e in eps_values
    ]
    c, _ = prepare_initial(configs[0], _ramp, 0.0)

    def shared_dt(c0_max):
        dt = min(cf.resolve_steps(c0_max)[0] for cf in configs)
        return t_final / math.ceil(t_final / dt - 1e-12)

    assert shared_dt(float(np.max(c))) != shared_dt(1.5)
    assert out.dt == shared_dt(float(np.max(c)))


def test_transform_report_green_for_degenerate_weight():
    fam = pme_beta(2.0)
    phi = degeneracy_weight(fam, cap=1.0)
    big_phi, psi = build_transform_pair(phi, fam, 2.0, 2.0, n_k=80, n_d=80)
    reports = transform_report(big_phi, psi)
    assert all(r.passed for r in reports), [(r.name, r.measured, r.bound) for r in reports]
    assert {r.name for r in reports} >= {
        "big_phi_monotone_violation",
        "psi_monotone_violation",
        "big_phi_mixed_partial_min",
        "psi_round_trip",
    }
