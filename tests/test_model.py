"""Coefficient families: nonlinearity algebra, presets and the growth bound."""
import math

import numpy as np
import pytest

from rpmelab.model import (
    barenblatt_profile,
    barenblatt_support_radius,
    beta_gap,
    initial_preset,
    make_coefficients,
    pme_beta,
    preset_coefficients,
    r2_bound,
    regularize_beta,
)


def test_pme_beta_values():
    fam = pme_beta(2.0)
    assert fam.beta(np.float64(4.0)) == pytest.approx(2.0, abs=1e-15)
    assert fam.beta_inv(np.float64(2.0)) == pytest.approx(4.0, abs=1e-14)
    # 1/beta'(1) = m for c = 1, and the degenerate origin maps to 0
    assert fam.recip_beta_prime(np.float64(1.0)) == pytest.approx(2.0, abs=1e-15)
    assert fam.recip_beta_prime(np.float64(0.0)) == 0.0
    assert np.isinf(fam.beta_prime(np.float64(0.0)))
    assert not fam.smooth


@pytest.mark.parametrize(
    "fam",
    [pme_beta(2.0), pme_beta(3.0), regularize_beta(2.0, 1e-3), regularize_beta(3.0, 1e-3)],
    ids=["pme:2", "pme:3", "regularized:2:1e-3", "regularized:3:1e-3"],
)
def test_pme_beta_roundtrip_and_monotone(fam):
    # beta inverts and increases strictly; beta' is positive and nonincreasing on (0, 7]
    cs = np.linspace(0.0, 7.0, 301)
    assert fam.beta(np.float64(0.0)) == 0.0
    assert np.max(np.abs(fam.beta_inv(fam.beta(cs)) - cs)) < 1e-12
    assert np.all(np.diff(fam.beta(cs)) > 0.0)
    bp = fam.beta_prime(cs[1:])
    assert np.all(bp > 0.0)
    assert np.all(np.diff(bp) <= 0.0)


@pytest.mark.parametrize(
    "fam",
    [pme_beta(2.0), pme_beta(3.0), regularize_beta(2.0, 1e-3), regularize_beta(3.0, 1e-3)],
    ids=["pme:2", "pme:3", "regularized:2:1e-3", "regularized:3:1e-3"],
)
def test_recip_beta_prime_hoelder(fam):
    # 1/beta' = m*(c + eps)**alpha, alpha = 1 - 1/m, has Hoelder constant m
    # for exponent alpha; the degenerate family attains it against c = 0
    alpha = 1.0 - 1.0 / fam.m
    cs = np.unique(np.concatenate([np.linspace(0.0, 7.0, 160), np.geomspace(1e-8, 7.0, 80)]))
    r = fam.recip_beta_prime(cs)
    gaps = np.abs(cs[:, None] - cs[None, :])
    off = gaps > 0.0
    quot = np.abs(r[:, None] - r[None, :])[off] / gaps[off] ** alpha
    assert np.max(quot) <= fam.m * (1.0 + 1e-12)
    if not fam.smooth:
        assert np.max(quot) == pytest.approx(fam.m, rel=1e-12)


def test_bad_exponent_rejected():
    with pytest.raises(ValueError):
        pme_beta(1.0)
    with pytest.raises(ValueError):
        regularize_beta(0.5, 1e-2)
    with pytest.raises(ValueError):
        regularize_beta(2.0, 0.0)


def test_regularized_beta_uniform_gap():
    # |beta_eps - beta| increases toward eps**(1/m) and never exceeds it
    m, eps = 2.0, 1e-2
    fam = regularize_beta(m, eps)
    cs = np.linspace(0.0, 100.0, 50001)
    diffs = np.abs(fam.beta(cs) - pme_beta(m).beta(cs))
    assert np.all(np.diff(diffs) > -1e-15)
    assert diffs[-1] <= eps ** (1.0 / m) + 1e-15
    assert diffs[-1] > 0.99 * eps ** (1.0 / m)
    assert beta_gap(fam, 100.0) == pytest.approx(diffs[-1], rel=1e-6)
    # gap shrinks with eps
    assert beta_gap(regularize_beta(m, 1e-4), 100.0) < beta_gap(fam, 100.0)


def test_regularized_beta_smooth_at_origin():
    fam = regularize_beta(2.0, 1e-2)
    assert np.isfinite(fam.beta_prime(np.float64(0.0)))
    assert fam.beta(np.float64(0.0)) == 0.0
    assert fam.recip_beta_prime(np.float64(0.0)) == pytest.approx(2.0 * 0.1, rel=1e-14)
    cs = np.linspace(0.0, 5.0, 101)
    assert np.max(np.abs(fam.beta_inv(fam.beta(cs)) - cs)) < 1e-12


@pytest.mark.parametrize("m", [1.1, 1.5, 2, 2.0, 2.5, 3.0, 4.0, 7.0])
@pytest.mark.parametrize("eps", [1e-6, 1e-4, 1e-3, 1e-2, 0.1, 0.3, 0.9])
def test_regularized_beta_maps_zero_to_zero_exactly(m, eps):
    # a clamped node stores c = beta_inv(0), which must not be a rounding
    # residue of either sign; numpy scalar and array powers can differ, so
    # both kinds of argument are checked, with and without out=
    fam = regularize_beta(m, eps)
    for fn in (fam.beta, fam.beta_inv):
        assert fn(0.0) == 0.0 and fn(np.float64(0.0)) == 0.0
        assert fn(np.zeros(())) == 0.0 and fn(np.zeros(()), out=np.empty(())) == 0.0
        zeros = np.zeros(19)
        assert np.all(fn(zeros) == 0.0) and np.all(fn(zeros, out=np.empty(19)) == 0.0)
        assert not np.signbit(fn(zeros)).any()


def test_r2_bound_closed_form():
    # m = 2, T = 1, R0 = 1: inner = 2e - 1, squared by the inverse map
    fam = pme_beta(2.0)
    r2 = r2_bound(1.0, 1.0, fam)
    assert r2 == pytest.approx((2.0 * math.e - 1.0) ** 2, rel=1e-13)
    assert r2 == pytest.approx(19.683097, abs=1e-5)


def test_r2_bound_degenerates_to_initial_radius():
    fam = pme_beta(2.0)
    assert r2_bound(0.0, 1.7, fam) == pytest.approx(1.7, rel=1e-14)
    famr = regularize_beta(3.0, 1e-3)
    assert r2_bound(0.0, 0.4, famr) == pytest.approx(0.4, rel=1e-12)
    # monotone in horizon
    assert r2_bound(0.5, 1.0, fam) < r2_bound(1.0, 1.0, fam)
    with pytest.raises(ValueError):
        r2_bound(-1.0, 1.0, fam)


def test_logistic_source_preset():
    src = preset_coefficients("logistic_f", {"lambda": 1.0, "K": 1.0, "mu_y": 0.0})
    assert src.fn(np.float64(0.5), np.float64(3.0)) == pytest.approx(0.25, abs=1e-15)
    assert src.fn(np.float64(0.0), np.float64(1.0)) == 0.0
    assert src.d_c(np.float64(0.5), np.float64(0.0)) == pytest.approx(0.0, abs=1e-15)
    damped = preset_coefficients("logistic_f", {"lambda": 2.0, "K": 1.0, "mu_y": 1.0})
    assert damped.fn(np.float64(0.5), np.float64(0.0)) == pytest.approx(0.5, abs=1e-15)
    assert damped.fn(np.float64(0.5), np.float64(1.0)) == pytest.approx(0.5 / math.e, rel=1e-14)
    assert damped.d_y(np.float64(0.5), np.float64(0.0)) == pytest.approx(-0.5, abs=1e-14)


def test_noise_and_drift_presets():
    a = preset_coefficients("linear_a", {"sigma": 0.3})
    assert a.fn(np.float64(2.0)) == pytest.approx(0.6, abs=1e-15)
    assert a.fn(np.float64(0.0)) == 0.0
    assert a.deriv(np.float64(5.0)) == pytest.approx(0.3, abs=1e-15)
    sat = preset_coefficients("saturating_a", {"sigma": 1.0})
    assert sat.fn(np.float64(1.0)) == pytest.approx(0.5, abs=1e-15)
    assert sat.deriv(np.float64(0.0)) == pytest.approx(1.0, abs=1e-15)
    b = preset_coefficients("coupling_b", {"kappa": 0.5, "rho": 2.0})
    assert b.fn(np.float64(1.0), np.float64(0.5)) == pytest.approx(-0.5, abs=1e-15)
    assert b.d_c(np.float64(0.0), np.float64(0.0)) == 0.5
    assert b.d_y(np.float64(0.0), np.float64(0.0)) == -2.0
    # only linear_a and coupling_b declare the affine form of the y step
    assert (a.slope, b.affine) == (0.3, (0.5, 2.0))
    assert sat.slope is None
    zero = make_coefficients(pme_beta(2.0))
    assert zero.noise.slope is None and zero.drift.affine is None


def test_presets_keep_concentration_and_y_nonnegative_on_the_edges():
    # f(0, y) >= 0, a(0) = 0 and b(c, 0) >= 0: no preset pushes c or y
    # below zero from the boundary of the nonnegative quadrant
    grid = np.linspace(0.0, 20.0, 201)
    zeros = np.zeros_like(grid)
    for params in ({}, {"lambda": 3.0, "K": 0.5, "mu_y": 0.7}):
        src = preset_coefficients("logistic_f", params)
        assert np.all(src.fn(zeros, grid) >= 0.0)
    for name in ("linear_a", "saturating_a"):
        noise = preset_coefficients(name, {"sigma": 0.8})
        assert noise.fn(np.float64(0.0)) == 0.0
        assert np.all(noise.fn(grid) >= 0.0)
    for params in ({}, {"kappa": 0.5, "rho": 4.0}, {"kappa": 0.0, "rho": 2.0}):
        drift = preset_coefficients("coupling_b", params)
        assert np.all(drift.fn(grid, zeros) >= 0.0)


def test_preset_rejects_unknown_keys_and_bad_signs():
    with pytest.raises(ValueError, match="lambd"):
        preset_coefficients("logistic_f", {"lambd": 1.0})
    with pytest.raises(ValueError):
        preset_coefficients("coupling_b", {"kappa": -1.0})
    with pytest.raises(ValueError):
        preset_coefficients("no_such_preset")
    with pytest.raises(ValueError):
        preset_coefficients("zero", {"x": 1.0})


# preset -> (parameters it declares with their defaults, label without parameters)
COEFFICIENT_DEFAULTS = {
    "logistic_f": ({"lambda": 1.0, "K": 1.0, "mu_y": 0.0}, "logistic_f(lambda=1,K=1,mu_y=0)"),
    "linear_a": ({"sigma": 0.5}, "linear_a(sigma=0.5)"),
    "saturating_a": ({"sigma": 0.5}, "saturating_a(sigma=0.5)"),
    "coupling_b": ({"kappa": 1.0, "rho": 1.0}, "coupling_b(kappa=1,rho=1)"),
}
# preset -> (parameters it declares with their defaults, value without
# parameters at the center of the cube)
INITIAL_DEFAULTS = {
    "constant": ({"value": 0.0}, 0.0),
    "sine": ({"amplitude": 0.5}, 0.5),
    "cosine": ({"offset": 1.0, "amplitude": 0.5}, 1.0),
    "bump": ({"amplitude": 0.5}, 0.5),
    "barenblatt": ({"m": 2.0, "t0": 0.05, "mass": 0.05}, (0.05 ** (-1.0 / 3.0) * 0.05) ** 2),
}


@pytest.mark.parametrize("name", list(COEFFICIENT_DEFAULTS))
def test_coefficient_preset_defaults_and_unknown_parameters(name):
    defaults, label = COEFFICIENT_DEFAULTS[name]
    with pytest.raises(ValueError, match=rf"^unknown {name} parameters \['bogus'\]$"):
        preset_coefficients(name, {**defaults, "bogus": 1.0})
    bare, given = preset_coefficients(name), preset_coefficients(name, defaults)
    assert bare.label == given.label == label
    args = [np.linspace(0.0, 2.0, 5)] * (1 if name.endswith("_a") else 2)
    assert np.array_equal(bare.fn(*args), given.fn(*args))


def test_zero_preset_takes_no_parameters():
    with pytest.raises(ValueError, match=r"^zero preset takes no parameters, got \['x'\]$"):
        preset_coefficients("zero", {"x": 1.0})


@pytest.mark.parametrize("name", list(INITIAL_DEFAULTS))
def test_initial_preset_defaults_and_unknown_parameters(name):
    defaults, center = INITIAL_DEFAULTS[name]
    dim = 1 if name == "barenblatt" else 2
    with pytest.raises(ValueError, match=rf"^unknown {name} parameters \['bogus'\]$"):
        initial_preset(name, dim, {**defaults, "bogus": 1.0})
    bare, given = initial_preset(name, dim), initial_preset(name, dim, defaults)
    x = np.stack(np.meshgrid(*[np.linspace(0.0, 1.0, 7)] * dim, indexing="ij"), axis=-1)
    assert np.array_equal(bare(x), given(x))
    assert float(bare(np.full(dim, 0.5))) == pytest.approx(center, rel=1e-14, abs=1e-15)


def test_make_coefficients_slots():
    coeffs = make_coefficients(
        pme_beta(2.0),
        f=preset_coefficients("logistic_f", {"lambda": 1.0, "K": 1.0}),
        a=preset_coefficients("linear_a", {"sigma": 0.3}),
        b=preset_coefficients("coupling_b", {"kappa": 0.5, "rho": 1.0}),
    )
    assert coeffs.f(np.float64(0.5), np.float64(0.0)) == pytest.approx(0.25)
    assert coeffs.a(np.float64(1.0)) == pytest.approx(0.3)
    assert coeffs.b(np.float64(2.0), np.float64(1.0)) == pytest.approx(0.0, abs=1e-15)
    bare = make_coefficients(pme_beta(2.0))
    assert bare.f(np.float64(1.0), np.float64(1.0)) == 0.0
    assert bare.a(np.float64(1.0)) == 0.0
    assert bare.b(np.float64(1.0), np.float64(1.0)) == 0.0
    with pytest.raises(TypeError):
        make_coefficients(pme_beta(2.0), a=preset_coefficients("logistic_f", {}))


def test_weighted_derivative_constant_for_matched_exponent():
    # c**(1 - 1/m2) * beta'(c) with m2 = m collapses to the constant 1/m;
    # for m = 3 that constant is 1/3
    fam = pme_beta(3.0)
    cs = np.geomspace(1e-10, 1.0, 200)
    weighted = cs ** (1.0 - 1.0 / 3.0) * fam.beta_prime(cs)
    assert np.max(np.abs(weighted - 1.0 / 3.0)) < 1e-12


def test_initial_presets():
    sine = initial_preset("sine", 2, {"amplitude": 0.5})
    pt = np.array([[0.5, 0.5], [0.0, 0.3]])
    vals = sine(pt)
    assert vals[0] == pytest.approx(0.5, rel=1e-14)
    assert vals[1] == 0.0
    bump = initial_preset("bump", 1, {"amplitude": 2.0})
    x = np.array([[0.5], [0.0], [1.0]])
    out = bump(x)
    assert out[0] == pytest.approx(2.0, rel=1e-14)
    assert out[1] == 0.0 and out[2] == 0.0
    cosine = initial_preset("cosine", 1, {"offset": 1.0, "amplitude": 0.5})
    assert cosine(np.array([[0.0]]))[0] == pytest.approx(1.5)
    assert np.min(cosine(np.linspace(0, 1, 101)[:, None])) >= 0.5 - 1e-14
    const = initial_preset("constant", 3, {"value": 0.25})
    assert const(np.zeros((4, 3)))[2] == 0.25
    with pytest.raises(ValueError):
        initial_preset("cosine", 1, {"offset": 0.1, "amplitude": 0.5})
    with pytest.raises(ValueError, match="amplitud"):
        initial_preset("sine", 1, {"amplitud": 0.5})


def test_barenblatt_solves_the_limit_pde():
    # v(x, t) must satisfy v_t = (v**m)_xx pointwise inside its support
    m, mass = 2.0, 0.05
    for x0, t0 in [(0.5, 0.1), (0.55, 0.1), (0.45, 0.2), (0.6, 0.3)]:
        dx, dt = 1e-4, 1e-6
        xs = np.array([x0 - dx, x0, x0 + dx])
        v_t = (
            barenblatt_profile(np.array([x0]), t0 + dt, m, mass)[0]
            - barenblatt_profile(np.array([x0]), t0 - dt, m, mass)[0]
        ) / (2.0 * dt)
        vm = barenblatt_profile(xs, t0, m, mass) ** m
        lap = (vm[0] - 2.0 * vm[1] + vm[2]) / dx**2
        assert v_t == pytest.approx(lap, rel=1e-5, abs=1e-8)


def test_barenblatt_mass_conserved_and_support():
    m, mass = 2.0, 0.05
    xs = np.linspace(0.0, 1.0, 20001)
    m1 = np.trapezoid(barenblatt_profile(xs, 0.05, m, mass), xs)
    m2 = np.trapezoid(barenblatt_profile(xs, 0.2, m, mass), xs)
    assert m1 == pytest.approx(m2, rel=1e-6)
    r = barenblatt_support_radius(0.2, m, mass)
    assert r < 0.5
    edge = barenblatt_profile(np.array([0.5 + r + 1e-9, 0.5 - r - 1e-9]), 0.2, m, mass)
    assert np.all(edge == 0.0)
    inside = barenblatt_profile(np.array([0.5 + r - 1e-3]), 0.2, m, mass)
    assert inside[0] > 0.0


def test_barenblatt_initial_preset_maps_to_concentration():
    init = initial_preset("barenblatt", 1, {"m": 2.0, "t0": 0.05, "mass": 0.05})
    xs = np.linspace(0.0, 1.0, 11)[:, None]
    expected = barenblatt_profile(xs[:, 0], 0.05, 2.0, 0.05) ** 2.0
    assert np.max(np.abs(init(xs) - expected)) < 1e-15
    with pytest.raises(ValueError):
        initial_preset("barenblatt", 2, {})
