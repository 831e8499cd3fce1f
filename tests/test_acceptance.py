"""Acceptance gate: one test per shipped guarantee.

Each test measures the quantity it certifies against a tolerance pinned in
place, prints a single ``[criterion NN] PASS/FAIL`` line, and asserts on it,
so the verdicts are readable straight off the pytest log.
"""
import dataclasses
import hashlib
import json
import math
from pathlib import Path

import numpy as np

from rpmelab import cli
from rpmelab.analysis import (
    barenblatt_error,
    bump_time_profile,
    cauchy_refinement,
    epsilon_sweep,
    holder_report,
    moment_report,
    weak_residual,
)
from rpmelab.grid import (
    BoundaryKind,
    Field,
    build_grid,
    forward_diff,
    free_node_count,
    grad_h1_seminorm,
    h02_embed,
    h1_seminorm,
    l2_inner,
    laplacian,
    lp_norm,
    sample_nodal,
)
from rpmelab.interp import (
    interp_gap,
    pa_eval,
    pa_grad_l2_norm,
    pa_lp_norm,
    pa_spline,
    pc_eval,
    pc_gap_to_function,
    pc_l2_inner,
    pc_spline,
    project,
)
from rpmelab.malliavin import (
    MalliavinState,
    perturbation_oracle,
    propagate_path,
    step_malliavin,
)
from rpmelab.model import (
    BetaFamily,
    initial_preset,
    make_coefficients,
    pme_beta,
    preset_coefficients,
    r2_bound,
    regularize_beta,
)
from rpmelab.simulate import (
    SimConfig,
    WienerPath,
    coarsen_wiener,
    gen_wiener,
    interior_v_mass,
    simulate_ensemble,
    simulate_path,
)
from rpmelab.transform import (
    build_transform_pair,
    constant_weight,
    degeneracy_weight,
    holder_power_transform,
    invert_psi,
    second_difference_quotient,
)


def _criterion(num: int, label: str, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {verdict} {label}: {detail}")
    assert ok, f"criterion {num:02d} FAIL {label}: {detail}"


# ---------------------------------------------------------------------------
# 1: difference operators are exact on polynomials and sum by parts


def test_criterion_01_operators_exact_and_summation_compatible():
    rng = np.random.default_rng(101)
    tol = 1e-12
    worst = 0.0
    cases = ((1, 16), (2, 8), (3, 5))
    for dim, m in cases:
        g = build_grid(dim, m)
        pts = g.node_points()
        quad = Field(g, np.sum(pts**2, axis=-1))
        lap = laplacian(quad)
        worst = max(worst, float(np.max(np.abs(lap.values[lap.mask] - 2.0 * dim))) / (2.0 * dim))
        for axis in range(dim):
            aff = Field(g, 1.0 + 3.0 * pts[..., axis])
            d = forward_diff(aff, axis)
            worst = max(worst, float(np.max(np.abs(d.values[d.mask] - 3.0))) / 3.0)

    # 100 random trials of the two discrete integration-by-parts identities
    trials = {1: 34, 2: 33, 3: 33}
    for dim, m in cases:
        g = build_grid(dim, m)
        h = g.spacing
        n_free = free_node_count(g)
        bmask = g.boundary_mask()
        for _ in range(trials[dim]):
            u = Field(g, rng.normal(size=g.shape))
            # symmetric form against a doubly vanishing field
            v = h02_embed(g, rng.normal(size=n_free))
            lhs = l2_inner(laplacian(u), v, "interior")
            rhs = l2_inner(u, laplacian(v), "interior")
            worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs)))
            # gradient form against a field vanishing on the boundary layer
            wv = rng.normal(size=g.shape)
            wv[bmask] = 0.0
            w = Field(g, wv)
            lhs = l2_inner(laplacian(u), w, "interior")
            rhs = 0.0
            for axis in range(dim):
                rhs -= float(np.sum(np.diff(u.values, axis=axis) * np.diff(wv, axis=axis)))
            rhs *= h ** (dim - 2)
            worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs)))
    _criterion(
        1,
        "difference operators exact, both by-parts identities hold",
        worst <= tol,
        f"max rel defect {worst:.3e} <= {tol:.0e} over dims 1-3, 100 trials",
    )


# ---------------------------------------------------------------------------
# 2: interpolants reproduce, preserve sign, and their estimates do not drift


def _sine(x):
    out = np.ones(x.shape[:-1])
    for k in range(x.shape[-1]):
        out = out * np.sin(np.pi * x[..., k])
    return out


_SINE_NORMS_1D = {1: 2.0 / np.pi, 2: np.sqrt(0.5), np.inf: 1.0}
_SINE_GRAD_1D = np.pi * np.sqrt(0.5)


def _ratio_suite(m):
    g = build_grid(1, m)
    h = g.spacing
    p = project(_sine, g)
    nodal = sample_nodal(g, _sine)
    out = {}
    for pp in (1, 2, np.inf):
        out[f"proj_lp_{pp}"] = lp_norm(p, pp, "full") / _SINE_NORMS_1D[pp]
    out["proj_h1"] = h1_seminorm(p) / _SINE_GRAD_1D
    out["pc_recon"] = pc_gap_to_function(p, _sine) / (h * _SINE_GRAD_1D)
    out["pa_lp"] = pa_lp_norm(nodal, 2) / lp_norm(nodal, 2, "full")
    out["pa_grad"] = pa_grad_l2_norm(nodal) / h1_seminorm(nodal)
    out["gap"] = interp_gap(nodal) / (h * grad_h1_seminorm(nodal))
    return out


def test_criterion_02_interpolant_identities_positivity_stable_ratios():
    rng = np.random.default_rng(202)
    # exact identities
    worst_id = 0.0
    for dim, m in ((1, 9), (2, 5)):
        g = build_grid(dim, m)
        for _ in range(10):
            u = Field(g, rng.normal(size=g.shape))
            v = h02_embed(g, rng.normal(size=free_node_count(g)))
            lhs = pc_l2_inner(u, v)
            rhs = l2_inner(u, v, "full")
            worst_id = max(worst_id, abs(lhs - rhs) / max(1.0, abs(rhs)))
    g2 = build_grid(2, 5)
    bilinear = lambda x: 1.0 + 2.0 * x[..., 0] - x[..., 1] + 3.0 * x[..., 0] * x[..., 1]
    u2 = sample_nodal(g2, bilinear)
    pts2 = rng.uniform(0.0, 1.0, size=(200, 2))
    worst_id = max(worst_id, float(np.max(np.abs(pa_eval(pa_spline(u2), pts2) - bilinear(pts2)))))
    ok_id = worst_id <= 1e-12

    # positivity on 100 nonnegative fields
    g1 = build_grid(1, 15)
    pts1 = np.linspace(0.0, 1.0, 301)[:, None]
    lowest = 0.0
    for _ in range(100):
        w = rng.normal(size=3)
        fn = lambda x: (
            w[0] * np.sin(np.pi * x[..., 0])
            + w[1] * np.sin(2 * np.pi * x[..., 0])
            + w[2] * np.sin(3 * np.pi * x[..., 0])
        ) ** 2
        p = project(fn, g1)
        lowest = min(lowest, float(p.values.min()))
        lowest = min(lowest, float(pc_eval(pc_spline(p), pts1).min()))
        lowest = min(lowest, float(pa_eval(pa_spline(sample_nodal(g1, fn)), pts1).min()))
    ok_pos = lowest >= -1e-15

    # normalized estimate ratios stay within 2x of the coarsest level
    base = _ratio_suite(7)
    worst_ratio = 0.0
    for m in (15, 31, 63):
        cur = _ratio_suite(m)
        worst_ratio = max(worst_ratio, max(cur[k] / base[k] for k in base))
    ok_ratio = worst_ratio <= 2.0

    _criterion(
        2,
        "interpolation identities, positivity, refinement-stable ratios",
        ok_id and ok_pos and ok_ratio,
        f"identity defect {worst_id:.2e}, min value {lowest:.2e}, "
        f"worst ratio vs coarse {worst_ratio:.3f} <= 2",
    )


# ---------------------------------------------------------------------------
# 3: self-similar benchmark error small and shrinking under refinement


def test_criterion_03_self_similar_benchmark():
    coarse = barenblatt_error(64)
    fine = barenblatt_error(128)
    ratio = coarse.rel_error / fine.rel_error
    ok = fine.rel_error <= 2e-2 and ratio >= 1.5
    _criterion(
        3,
        "space-time error of the conserved variable on the moving-support profile",
        ok,
        f"rel error {fine.rel_error:.3e} <= 2e-2 at 128 cells, "
        f"64->128 ratio {ratio:.2f} >= 1.5",
    )


# ---------------------------------------------------------------------------
# 4: reflecting walls conserve the transformed mass exactly


def test_criterion_04_mass_conservation():
    worst = 0.0
    for dim, m in ((1, 16), (2, 8)):
        g = build_grid(dim, m)
        coeffs = make_coefficients(
            pme_beta(2.0),
            a=preset_coefficients("linear_a", {"sigma": 0.4}),
            b=preset_coefficients("coupling_b", {"kappa": 0.6, "rho": 0.3}),
        )
        cfg = SimConfig(g, coeffs, BoundaryKind.NEUMANN, t_final=0.05)
        c0 = initial_preset("cosine", dim, {"offset": 1.0, "amplitude": 0.5})
        run = simulate_path(cfg, c0, 1.0, seed=3, n_snapshots=10)
        masses = np.array([interior_v_mass(run.c[k, 0], g, coeffs) for k in range(len(run.times))])
        worst = max(worst, float(np.max(np.abs(masses - masses[0]))) / abs(float(masses[0])))
    _criterion(
        4,
        "no-source reflecting runs hold the conserved mass",
        worst <= 1e-12,
        f"max rel drift {worst:.3e} <= 1e-12 over dims 1-2 with noisy coupling",
    )


# ---------------------------------------------------------------------------
# 5: paths stay inside the proven growth envelope


def test_criterion_05_growth_envelope():
    family = pme_beta(2.0)
    pin = r2_bound(1.0, 1.0, family)
    ok_pin = abs(pin - 19.6831) <= 1e-3
    ok_t0 = abs(r2_bound(0.0, 1.3, family) - 1.3) <= 1e-12

    grid = build_grid(1, 24)
    c0 = initial_preset("cosine", 1, {"offset": 1.0, "amplitude": 0.5})
    t_final = 0.25
    bound = r2_bound(t_final, 1.5, family)
    bundles = (
        dict(f=None, a=None, b=None),
        dict(
            f=preset_coefficients("logistic_f", {"lambda": 0.5, "K": 5.0, "mu_y": 0.2}),
            a=preset_coefficients("linear_a", {"sigma": 0.3}),
            b=preset_coefficients("coupling_b", {"kappa": 0.5, "rho": 0.4}),
        ),
        dict(
            f=preset_coefficients("logistic_f", {"lambda": 0.3, "K": 2.0, "mu_y": 0.1}),
            a=preset_coefficients("saturating_a", {"sigma": 0.4}),
            b=preset_coefficients("coupling_b", {"kappa": 0.3, "rho": 0.2}),
        ),
    )
    violations = 0
    sup = 0.0
    n_steps = 0
    for terms in bundles:
        coeffs = make_coefficients(family, **terms)
        config = SimConfig(grid, coeffs, BoundaryKind.NEUMANN, t_final=t_final)
        ens = simulate_ensemble(config, c0, 1.0, n_paths=100, seed=0)
        violations += int(np.count_nonzero(ens.c_sup > bound))
        sup = max(sup, float(np.max(ens.c_sup)))
        n_steps = ens.n_steps
    assert n_steps >= 1000
    _criterion(
        5,
        "sup of c under the exponential envelope, bound pinned",
        ok_pin and ok_t0 and violations == 0,
        f"0 of {3 * 100 * n_steps} node-steps violate, sup {sup:.4f} vs bound "
        f"{bound:.4f}; envelope(1,1)={pin:.6f} (|err| <= 1e-3), envelope(0,R0)=R0",
    )


# ---------------------------------------------------------------------------
# 6: pointwise SDE statistics match the geometric solution


def test_criterion_06_sde_moments_and_regularity():
    g = build_grid(1, 2)
    coeffs = make_coefficients(
        pme_beta(2.0), a=preset_coefficients("linear_a", {"sigma": 0.3})
    )
    config = SimConfig(g, coeffs, BoundaryKind.NEUMANN, t_final=1.0, dt=1e-3)
    flat = initial_preset("constant", 1, {"value": 0.0})

    ens = simulate_ensemble(config, flat, 1.0, n_paths=10_000, seed=2024)
    y_t = ens.y_final.reshape(ens.y_final.shape[0], -1)[:, 0]
    target = math.exp(0.3**2 * 1.0)
    rep = moment_report(y_t**2, target, "terminal_second_moment")
    z = (rep.detail["mean"] - target) / rep.detail["stderr"]

    # y at node 1 after every step, one row per path
    dense = simulate_ensemble(config, flat, 1.0, n_paths=128, seed=2024, n_snapshots=1000)
    hrep = holder_report(dense.y[:, :, 1].T, 1e-3, lags=(8, 16, 32, 64, 128))
    ok_h = abs(hrep.measured - 0.5) <= 0.15
    _criterion(
        6,
        "second moment of y(1) and path regularity exponent",
        rep.passed and ok_h,
        f"moment z-score {z:+.2f} (|z| <= 3) over 10^4 paths, "
        f"exponent {hrep.measured:.3f} in 0.5 +/- 0.15",
    )


# ---------------------------------------------------------------------------
# 7: the noise derivative agrees with both oracles, is local and linear


def test_criterion_07_noise_derivative_oracles():
    g = build_grid(1, 8)
    sine_half = initial_preset("sine", 1, {"amplitude": 0.5})

    # closed form: linear amplitude, no y-drift, so d_r y(T) = sigma * y(T)
    sigma = 0.4
    geo = make_coefficients(
        pme_beta(2.0), a=preset_coefficients("linear_a", {"sigma": sigma})
    )
    cfg = SimConfig(g, geo, BoundaryKind.DIRICHLET, t_final=0.1, dt=1e-3)
    run, seeds = propagate_path(cfg, sine_half, 1.0, gen_wiener(100, 1e-3, seed=7), [0, 25, 99])
    worst_cf = 0.0
    for (term,) in seeds:
        exact = sigma * run.y_final[0]
        worst_cf = max(
            worst_cf,
            float(np.max(np.abs(term.dry - exact))) / float(np.max(np.abs(exact))),
        )
    ok_cf = worst_cf <= 5e-2

    # bumped-path quotient on a fully coupled run
    coeffs = make_coefficients(
        pme_beta(2.0),
        f=preset_coefficients("logistic_f", {"lambda": 1.0, "K": 1.0, "mu_y": 0.5}),
        a=preset_coefficients("linear_a", {"sigma": 0.3}),
        b=preset_coefficients("coupling_b", {"kappa": 0.5, "rho": 0.4}),
    )
    cfg2 = SimConfig(g, coeffs, BoundaryKind.NEUMANN, t_final=0.1, dt=1e-3)
    wiener = gen_wiener(100, 1e-3, seed=31)
    r_index = 20
    dense = simulate_path(cfg2, sine_half, 1.0, wiener=wiener, store_dense=True)
    ((term2,),) = propagate_path(cfg2, sine_half, 1.0, wiener, [r_index])[1]
    dq_c, dq_y = perturbation_oracle(cfg2, sine_half, 1.0, wiener, r_index, 4, eps=1e-3)
    err_y = float(np.max(np.abs(dq_y - term2.dry))) / float(np.max(np.abs(term2.dry)))
    err_c = float(np.max(np.abs(dq_c - term2.drc))) / float(np.max(np.abs(term2.drc)))
    ok_oracle = err_y <= 5e-2 and err_c <= 5e-2

    # locality: increments before the seed step reach the derivative only
    # through the primal state there, so a restart from that state agrees
    tail = WienerPath(1e-3, wiener.increments[r_index:])
    restart = dataclasses.replace(cfg2, t_final=tail.t_final)
    c_r, y_r = dense.c[r_index, 0], dense.y[r_index, 0]
    ((term_t,),) = propagate_path(restart, c_r, y_r, tail, [0])[1]
    ok_local = (
        np.array_equal(term_t.z, term2.z)
        and np.array_equal(term_t.drc, term2.drc)
        and np.array_equal(term_t.dry, term2.dry)
    )

    # linearity of one propagation step in the derivative state
    z = np.abs(np.sin(np.pi * g.node_points()[..., 0])) + 0.2
    dry0 = np.full(g.shape, 0.7)
    cmid, ymid = dense.c[50, 0], dense.y[50, 0]
    one = step_malliavin(MalliavinState(z, dry0), cmid, ymid, g, coeffs, BoundaryKind.NEUMANN, 1e-3, 0.02)
    two = step_malliavin(MalliavinState(2 * z, 2 * dry0), cmid, ymid, g, coeffs, BoundaryKind.NEUMANN, 1e-3, 0.02)
    ok_lin = (
        float(np.max(np.abs(two.z - 2.0 * one.z))) <= 1e-14
        and float(np.max(np.abs(two.dry - 2.0 * one.dry))) <= 1e-14
    )

    _criterion(
        7,
        "derivative vs closed form, bumped-path quotient, locality, linearity",
        ok_cf and ok_oracle and ok_local and ok_lin,
        f"closed-form rel {worst_cf:.2e} <= 5e-2, quotient rel "
        f"(y {err_y:.2e}, c {err_c:.2e}) <= 5e-2, local exact, linear to 1e-14",
    )


# ---------------------------------------------------------------------------
# 8: regularizing transforms: closed forms, smoothing, inversion


def _identity_family() -> BetaFamily:
    ident = lambda v: np.asarray(v, dtype=np.float64)
    ones = lambda v: np.ones_like(np.asarray(v, dtype=np.float64))
    return BetaFamily(
        "identity", m=1.0, eps=0.0, beta=ident, beta_prime=ones,
        beta_inv=ident, recip_beta_prime=ones, smooth=True,
    )


def test_criterion_08_regularizing_transforms():
    big_phi, psi = build_transform_pair(
        constant_weight(1.0), _identity_family(), k_max=1.0, d_max=1.0, n_k=200, n_d=200
    )
    kk, dd = np.meshgrid(big_phi.k_grid, big_phi.d_grid, indexing="ij")
    err_phi = float(np.max(np.abs(big_phi.table - kk**3 * dd**2 / 24.0)))
    err_psi = float(np.max(np.abs(psi.table - kk**4 * dd**2 / 96.0)))
    ok_closed = err_phi < 1e-6 and err_psi < 1e-6

    # composing with the power map turns a growing second-difference quotient
    # into a shrinking one
    gamma = 0.5
    w = lambda x: abs(x) ** gamma
    tr = holder_power_transform(gamma)
    composed = lambda x: float(tr(w(x)))
    scales = (1e-2, 1e-3, 1e-4)
    raw = [second_difference_quotient(w, 0.0, s) for s in scales]
    smooth = [second_difference_quotient(composed, 0.0, s) for s in scales]
    ok_smooth = (
        raw[1] / raw[0] >= 10.0
        and raw[2] / raw[1] >= 10.0
        and smooth[0] <= 1.0
        and smooth[1] < smooth[0]
        and smooth[2] < smooth[1]
    )

    fam = pme_beta(2.0)
    _, psi_d = build_transform_pair(
        degeneracy_weight(fam, cap=1.0), fam, k_max=2.0, d_max=2.0, n_k=200, n_d=200
    )
    d = 1.3
    col_max = float(psi_d.eval(np.float64(2.0), np.float64(d)))
    values = np.random.default_rng(7).random(100) * col_max
    back = psi_d.eval(invert_psi(psi_d, values, d), np.full(100, d))
    err_rt = float(np.max(np.abs(back - values))) / col_max
    ok_rt = err_rt <= 1e-8

    _criterion(
        8,
        "table closed forms, second-difference taming, monotone inversion",
        ok_closed and ok_smooth and ok_rt,
        f"closed-form err ({err_phi:.1e}, {err_psi:.1e}) < 1e-6, raw quotients "
        f"grow >= 10x/decade while composed shrink, round trip {err_rt:.1e} <= 1e-8",
    )


# ---------------------------------------------------------------------------
# 9: the weak-form residual is first order in the step size


def test_criterion_09_weak_residual_first_order():
    grid = build_grid(1, 12)
    coeffs = make_coefficients(
        regularize_beta(2.0, 0.25),
        f=preset_coefficients("logistic_f", {"lambda": 1.0, "K": 10.0, "mu_y": 0.5}),
        a=preset_coefficients("linear_a", {"sigma": 0.4}),
        b=preset_coefficients("coupling_b", {"kappa": 1.0, "rho": 0.5}),
    )
    t_final = 0.04
    c0 = initial_preset("cosine", 1, {"offset": 1.0, "amplitude": 0.5})
    base = SimConfig(grid, coeffs, BoundaryKind.NEUMANN, t_final=t_final)
    # 4x finer than the parabolic bound so the factor-4 coarsening stays
    # stable and clamp-free
    n0 = base.plan(1.5).n_steps
    n = 4 * n0
    fine = gen_wiener(n, t_final / n, seed=17)
    xi, xi_p = bump_time_profile(t_final)
    v = np.random.default_rng(5).uniform(0.5, 1.0, size=free_node_count(grid))

    scaled = []
    for factor in (1, 2, 4):
        w = coarsen_wiener(fine, factor)
        cfg = SimConfig(grid, coeffs, BoundaryKind.NEUMANN, t_final=t_final, dt=w.dt)
        run = simulate_path(cfg, c0, 1.0, wiener=w, store_dense=True)
        assert run.clamp_mass[0] == 0.0
        scaled.append(weak_residual(run, coeffs, v, xi, xi_p)[1])
    order_12 = math.log2(scaled[1] / scaled[0])
    order_24 = math.log2(scaled[2] / scaled[1])
    _criterion(
        9,
        "weak residual shrinks at first order under shared-path dt refinement",
        order_12 >= 0.9 and order_24 >= 0.9,
        f"orders ({order_12:.3f}, {order_24:.3f}) >= 0.9, "
        f"residuals {[f'{s:.2e}' for s in scaled]}",
    )


# ---------------------------------------------------------------------------
# 10: refinement ladders contract for both nonlinearity families


def test_criterion_10_refinement_and_regularization_contraction():
    c0 = initial_preset("cosine", 1, {"offset": 1.0, "amplitude": 0.5})
    f = preset_coefficients("logistic_f", {"lambda": 0.5, "K": 5.0, "mu_y": 0.2})
    a = preset_coefficients("linear_a", {"sigma": 0.3})
    b = preset_coefficients("coupling_b", {"kappa": 0.5, "rho": 0.4})

    ladder = {}
    ok = True
    for tag, family in (("degenerate", pme_beta(2.0)), ("smoothed", regularize_beta(2.0, 0.1))):
        config = SimConfig(
            build_grid(1, 16), make_coefficients(family, f=f, a=a, b=b),
            BoundaryKind.NEUMANN, t_final=0.1,
        )
        res = cauchy_refinement(config, c0, 1.0, levels=(16, 32, 64), n_paths=100, seed=0)
        ok = ok and bool(np.all(np.diff(res.c_distances) < 0.0))
        ok = ok and bool(np.all(np.diff(res.y_distances) < 0.0))
        ladder[tag] = (res.c_distances, res.y_distances)

    config = SimConfig(
        build_grid(1, 16), make_coefficients(pme_beta(2.0), f=f, a=a, b=b),
        BoundaryKind.NEUMANN, t_final=0.05,
    )
    sweep = epsilon_sweep(config, (1e-1, 2.5e-2, 6.25e-3), c0, 1.0, n_paths=100, seed=0)
    ok = ok and bool(np.all(np.diff(sweep.gaps) < 0.0))
    ok = ok and bool(np.all(np.diff(sweep.c_distances) < 0.0))

    fmt = lambda arr: "[" + ", ".join(f"{x:.2e}" for x in arr) + "]"
    _criterion(
        10,
        "successive-level distances and smoothing-gap ladder strictly decrease",
        ok,
        f"c {fmt(ladder['degenerate'][0])} / {fmt(ladder['smoothed'][0])}, "
        f"y {fmt(ladder['degenerate'][1])}, sweep d {fmt(sweep.c_distances)}",
    )


# ---------------------------------------------------------------------------
# 11: artifacts are byte-identical across reruns and worker counts


def _artifact_bytes(out: Path) -> dict[str, str]:
    return {
        p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*"))
        if p.is_file() and p.name != "manifest.json"
    }


def test_criterion_11_worker_invariant_artifacts(tmp_path):
    text = (
        "cells = 8\nt_final = 0.02\nn_paths = 5\nseed = 42\n"
        "initial.c = cosine\ninitial.y = 1.0\n"
        "coeff.f = logistic\ncoeff.a = linear\ncoeff.a.sigma = 0.4\ncoeff.b = coupling\n"
    )
    outs = []
    for tag, extra in (("serial", ""), ("rerun", ""), ("pool", "workers = 3\n")):
        cfg = tmp_path / f"{tag}.cfg"
        cfg.write_text(text + extra, encoding="utf-8")
        out = tmp_path / f"out_{tag}"
        assert cli.main(["simulate", str(cfg), "--out", str(out)]) == 0
        outs.append(out)

    blobs = [_artifact_bytes(o) for o in outs]
    digests = [
        json.loads((o / "manifest.json").read_text())["digests"] for o in outs
    ]
    ok = blobs[0] == blobs[1] == blobs[2] and digests[0] == digests[1] == digests[2]
    _criterion(
        11,
        "binaries and reports identical across reruns and worker counts",
        ok,
        f"{len(blobs[0])} files compared by digest across 1/1/3 workers",
    )
