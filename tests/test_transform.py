"""Regularizing transforms: power-map smoothing, tabulated double integrals
against closed forms, and monotone inversion."""
import numpy as np
import pytest

from rpmelab.model import BetaFamily, pme_beta
from rpmelab.transform import (
    TabulatedTransform,
    build_transform_pair,
    constant_weight,
    cumulative_trapezoid,
    degeneracy_weight,
    holder_power_transform,
    invert_psi,
    second_difference_quotient,
)


def identity_family() -> BetaFamily:
    ident = lambda v: np.asarray(v, dtype=np.float64)
    ones = lambda v: np.ones_like(np.asarray(v, dtype=np.float64))
    return BetaFamily("identity", m=1.0, eps=0.0, beta=ident, beta_prime=ones,
                      beta_inv=ident, recip_beta_prime=ones, smooth=True)


def test_power_transform_half_gamma():
    tr = holder_power_transform(0.5)
    assert tr.coef == pytest.approx(0.2, rel=1e-15)
    assert tr.power == 5.0
    assert tr(2.0) == pytest.approx(6.4, rel=1e-14)
    # slope coef * power at k = 1, and the map inverts on the half line
    assert (tr(1.0 + 1e-6) - tr(1.0 - 1e-6)) / 2e-6 == pytest.approx(1.0, rel=1e-8)
    assert (tr(1.7) / tr.coef) ** (1.0 / tr.power) == pytest.approx(1.7, rel=1e-12)
    with pytest.raises(ValueError):
        holder_power_transform(1.0)


def test_power_transform_tames_second_differences():
    # the raw 1/2-Hoelder profile has second-difference quotients growing
    # ~ s**(-3/2); the composed profile's quotients shrink instead
    gamma = 0.5
    w = lambda x: abs(x) ** gamma
    tr = holder_power_transform(gamma)
    composed = lambda x: float(tr(w(x)))
    scales = [1e-2, 1e-3, 1e-4]
    raw = [second_difference_quotient(w, 0.0, s) for s in scales]
    smooth = [second_difference_quotient(composed, 0.0, s) for s in scales]
    assert raw[1] / raw[0] >= 10.0
    assert raw[2] / raw[1] >= 10.0
    assert smooth[0] <= 1.0
    assert smooth[1] < smooth[0] and smooth[2] < smooth[1]


def test_tables_match_closed_forms_for_unit_weight():
    # phi = 1 and beta' = 1:  Phi = k**3 d**2 / 24,  Psi = k**4 d**2 / 96
    big_phi, psi = build_transform_pair(
        constant_weight(1.0), identity_family(), k_max=1.0, d_max=1.0, n_k=200, n_d=200
    )
    kk, dd = np.meshgrid(big_phi.k_grid, big_phi.d_grid, indexing="ij")
    assert np.max(np.abs(big_phi.table - kk**3 * dd**2 / 24.0)) < 1e-6
    assert np.max(np.abs(psi.table - kk**4 * dd**2 / 96.0)) < 1e-6
    rng = np.random.default_rng(1)
    k, d = rng.random(50), rng.random(50)
    assert np.max(np.abs(big_phi.eval(k, d) - k**3 * d**2 / 24.0)) < 2e-6
    assert np.max(np.abs(psi.eval(k, d) - k**4 * d**2 / 96.0)) < 2e-6


def test_table_shape_validation():
    with pytest.raises(ValueError):
        TabulatedTransform(np.linspace(0, 1, 5), np.linspace(0, 1, 4), np.zeros((4, 5)))


def degenerate_pair(n=200, cap=1.0, k_max=2.0, d_max=2.0):
    fam = pme_beta(2.0)
    return build_transform_pair(
        degeneracy_weight(fam, cap=cap), fam, k_max=k_max, d_max=d_max, n_k=n, n_d=n
    )


def test_inversion_round_trip():
    _, psi = degenerate_pair()
    d = 1.3
    col_max = float(psi.eval(np.float64(2.0), np.float64(d)))
    rng = np.random.default_rng(7)
    values = rng.random(100) * col_max
    ks = invert_psi(psi, values, d)
    back = psi.eval(ks, np.full_like(ks, d))
    assert np.max(np.abs(back - values)) <= 1e-8 * col_max
    # k-space round trip away from the flat origin
    k_in = 0.5 + 1.5 * rng.random(100)
    recovered = invert_psi(psi, psi.eval(k_in, np.full_like(k_in, d)), d)
    assert np.max(np.abs(recovered - k_in)) <= 1e-10 * 2.0
    # out-of-range values clip to the table ends
    assert invert_psi(psi, 2.0 * col_max, d) == pytest.approx(2.0)
    decreasing = TabulatedTransform(
        np.linspace(0, 1, 4), np.linspace(0, 1, 3), -np.arange(12.0).reshape(4, 3)
    )
    with pytest.raises(ValueError):
        invert_psi(decreasing, 0.5, 0.5)


def test_mixed_partials_nonnegative_and_refinement_stable():
    coarse_phi, _ = degenerate_pair(n=61)
    fine_phi, _ = degenerate_pair(n=121)
    kc, dc, mc = coarse_phi.mixed_partial()
    kf, df, mf = fine_phi.mixed_partial()
    assert np.min(mc) >= -1e-12 and np.min(mf) >= -1e-12
    # coarse interior nodes sit at even fine indices: compare there; the
    # cubically small near-origin rows are below any honest relative floor,
    # so pair a 1% magnitude floor with a global absolute check
    sel = mf[1::2, 1::2]
    assert sel.shape == mc.shape
    assert np.max(np.abs(sel - mc)) < 1e-3 * np.max(mc)
    mask = np.abs(mc) > 1e-2 * np.max(mc)
    rel = np.abs(sel[mask] - mc[mask]) / np.abs(mc[mask])
    assert np.max(rel) < 5e-2


def test_psi_slope_is_phi_times_beta_prime_and_stays_linear():
    fam = pme_beta(2.0)
    big_phi, psi = degenerate_pair(n=200)
    d = 1.5
    # forward-difference k-derivative of the fixed-d column, at midpoints
    slopes = np.diff(psi.column(d)) / np.diff(psi.k_grid)
    mids = 0.5 * (psi.k_grid[:-1] + psi.k_grid[1:])
    assert np.min(slopes) >= -1e-15
    expected = big_phi.eval(mids, np.full_like(mids, d)) * fam.beta_prime(mids)
    sel = mids > 0.2
    rel = np.abs(slopes[sel] - expected[sel]) / expected[sel]
    assert np.max(rel) < 2e-2
    # no blow-up toward the degenerate origin: slope/k peaks away from k = 0
    ratios = slopes / mids
    assert np.all(np.isfinite(ratios))
    assert np.argmax(ratios) > len(ratios) // 10
    _, psi_fine = degenerate_pair(n=400)
    slopes_fine = np.diff(psi_fine.column(d)) / np.diff(psi_fine.k_grid)
    ratios_fine = slopes_fine / (0.5 * (psi_fine.k_grid[:-1] + psi_fine.k_grid[1:]))
    assert np.max(ratios_fine) <= 2.0 * np.max(ratios)
    assert np.max(ratios) <= 2.0 * np.max(ratios_fine)


def test_degeneracy_weight_cap_and_origin():
    fam = pme_beta(2.0)
    phi = degeneracy_weight(fam, cap=1.0)
    cs = np.array([0.0, 0.04, 1.0, 4.0])
    out = phi(cs, np.zeros_like(cs))
    # 1/beta' = 2 sqrt(c), capped at 1
    assert out[0] == 0.0
    assert out[1] == pytest.approx(0.4, rel=1e-14)
    assert out[2] == 1.0 and out[3] == 1.0
    uncapped = degeneracy_weight(fam)
    assert uncapped(np.array([4.0]), np.array([0.0]))[0] == pytest.approx(4.0, rel=1e-14)


def test_cumulative_trapezoid_matches_scipy_bitwise():
    scipy_integrate = pytest.importorskip("scipy.integrate")
    family = pme_beta(2.0)
    ks = np.linspace(0.0, 2.0, 4 * 49 + 1)
    ds = np.linspace(0.0, 1.5, 4 * 31 + 1)
    phi = degeneracy_weight(family, cap=1.0)
    surface = (ks[:, None] / 2.0) * phi(ks[:, None] / 2.0, ds[None, :]) ** 2
    surface = surface * (1.0 + np.sin(3.0 * ds))[None, :]
    for axis, x in ((0, ks), (1, ds)):
        ours = cumulative_trapezoid(surface, x, axis=axis)
        ref = scipy_integrate.cumulative_trapezoid(surface, x, axis=axis, initial=0.0)
        assert ours.shape == ref.shape
        assert np.array_equal(ours, ref), axis
