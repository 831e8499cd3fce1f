import itertools

import numpy as np
import pytest

from rpmelab.grid import (
    Field,
    build_grid,
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
    cell_measures,
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


def test_project_affine_exact():
    g = build_grid(1, 7)
    h = g.spacing
    p = project(lambda x: x[..., 0], g, quad_refine=3)
    xs = g.axis_coords()
    # interior cells are symmetric around the node, so the average is the node
    assert np.allclose(p.values[1:-1], xs[1:-1], atol=1e-14)
    # the boundary cell (0, h/2) averages the identity to h/4
    assert p.values[0] == pytest.approx(h / 4.0, rel=1e-13)
    assert p.values[-1] == pytest.approx(1.0 - h / 4.0, rel=1e-13)


def test_project_constant_any_refinement():
    g = build_grid(2, 4)
    for q in (1, 2, 5):
        p = project(lambda x: np.full(x.shape[:-1], 2.5), g, quad_refine=q)
        assert np.allclose(p.values, 2.5, atol=1e-14)


def test_project_refinement_invariance_for_affine():
    g = build_grid(2, 3)
    fn = lambda x: 1.0 + 2.0 * x[..., 0] - 0.5 * x[..., 1]
    a = project(fn, g, quad_refine=1).values
    b = project(fn, g, quad_refine=6).values
    assert np.allclose(a, b, atol=1e-13)


def test_cell_measures_sum_to_one():
    for dim, m in ((1, 5), (2, 4), (3, 3)):
        g = build_grid(dim, m)
        assert float(cell_measures(g).sum()) == pytest.approx(1.0, rel=1e-13)


def test_pc_eval_ownership_and_ties():
    g = build_grid(1, 3)  # h = 1/4
    u = Field(g, np.arange(5, dtype=float))
    c = pc_spline(u)
    assert pc_eval(c, np.array([0.0])) == 0.0
    assert pc_eval(c, np.array([0.13])) == 1.0
    # a point exactly on a shared face belongs to the smaller node
    assert pc_eval(c, np.array([0.125])) == 0.0
    assert pc_eval(c, np.array([0.375])) == 1.0
    assert pc_eval(c, np.array([1.0])) == 4.0
    with pytest.raises(ValueError):
        pc_eval(c, np.array([1.2]))
    with pytest.raises(ValueError):
        pc_eval(pa_spline(u), np.array([0.5]))


def test_pa_eval_reproduces_multilinear():
    rng = np.random.default_rng(4)
    g = build_grid(2, 5)
    fn = lambda x: 1.0 + 2.0 * x[..., 0] - x[..., 1] + 3.0 * x[..., 0] * x[..., 1]
    u = sample_nodal(g, fn)
    c = pa_spline(u)
    pts = rng.uniform(0.0, 1.0, size=(200, 2))
    assert np.allclose(pa_eval(c, pts), fn(pts), atol=1e-12)
    # closed-cube corners included
    corners = np.array(list(itertools.product((0.0, 1.0), repeat=2)))
    assert np.allclose(pa_eval(c, corners), fn(corners), atol=1e-12)


def test_pc_inner_matches_grid_inner_on_test_space():
    # piecewise-constant L2 pairing equals the h-weighted nodal pairing when
    # one factor vanishes on the boundary layer
    rng = np.random.default_rng(9)
    for dim, m in ((1, 7), (2, 5)):
        g = build_grid(dim, m)
        u = Field(g, rng.normal(size=g.shape))
        v = h02_embed(g, rng.normal(size=free_node_count(g)))
        lhs = pc_l2_inner(u, v)
        rhs = l2_inner(u, v, "full")
        assert lhs == pytest.approx(rhs, abs=1e-13 * max(1.0, abs(lhs)))


def test_pc_eval_commutes_with_composition():
    rng = np.random.default_rng(12)
    g = build_grid(2, 4)
    u = Field(g, rng.uniform(0.1, 2.0, size=g.shape))
    pts = rng.uniform(0.0, 1.0, size=(50, 2))
    for phi in (np.sqrt, np.exp, lambda s: s**3, np.tanh, lambda s: 1.0 / (1.0 + s)):
        composed = Field(g, phi(u.values))
        a = pc_eval(pc_spline(composed), pts)
        b = phi(pc_eval(pc_spline(u), pts))
        assert np.allclose(a, b, atol=0.0)


def test_projection_and_splines_preserve_positivity():
    rng = np.random.default_rng(31)
    g = build_grid(1, 9)
    pts = rng.uniform(0.0, 1.0, size=(100, 1))
    for _ in range(100):
        a = rng.normal(size=3)

        def fn(x):
            s = sum(a[k] * np.sin((k + 1) * np.pi * x[..., 0]) for k in range(3))
            return s**2

        p = project(fn, g)
        assert (p.values >= 0.0).all()
        assert (pc_eval(pc_spline(p), pts) >= 0.0).all()
        assert (pa_eval(pa_spline(p), pts) >= -1e-15).all()


def test_interp_gap_identity_field():
    for m in (3, 7, 16):
        g = build_grid(1, m)
        u = sample_nodal(g, lambda x: x[..., 0])
        # staircase vs exact line: (M+1) cells, each contributing h^3/12
        assert interp_gap(u) == pytest.approx(g.spacing / np.sqrt(12.0), rel=1e-12)


def test_interp_gap_constant_zero():
    g = build_grid(2, 4)
    u = Field(g, np.full(g.shape, 3.7))
    assert interp_gap(u) <= 1e-12


def test_interp_gap_matches_fine_quadrature():
    # brute-force check of the exact half-cell formula in 1d
    g = build_grid(1, 5)
    rng = np.random.default_rng(8)
    u = Field(g, rng.normal(size=g.shape))
    xs = (np.arange(200_000) + 0.5) / 200_000
    pc = pc_eval(pc_spline(u), xs[:, None])
    pa = pa_eval(pa_spline(u), xs[:, None])
    brute = np.sqrt(np.mean((pc - pa) ** 2))
    assert interp_gap(u) == pytest.approx(brute, rel=1e-4)


def tensor_gauss(dim, pieces, order):
    """Points (N, dim) and weights (N,) of the tensor Gauss rule of ``order``
    points per axis on each of pieces**dim equal boxes of the unit cube."""
    x, w = np.polynomial.legendre.leggauss(order)
    pts = ((np.arange(pieces)[:, None] + 0.5 * (x + 1.0)) / pieces).ravel()
    wts = np.tile(0.5 * w / pieces, pieces)
    mesh = np.stack(np.meshgrid(*[pts] * dim, indexing="ij"), axis=-1)
    weights = np.prod(np.meshgrid(*[wts] * dim, indexing="ij"), axis=0)
    return mesh.reshape(-1, dim), weights.ravel()


@pytest.mark.parametrize("dim, cells", [(2, 4), (3, 3)])
def test_pa_functionals_match_sampled_splines_in_2d_and_3d(dim, cells):
    g = build_grid(dim, cells)
    h = g.spacing
    u = Field(g, np.random.default_rng(40 + dim).normal(size=g.shape))
    pa = pa_spline(u)
    # on each grid cell the spline is affine per axis, so two points per axis
    # integrate its square and its squared partials exactly
    pts, wts = tensor_gauss(dim, cells + 1, 2)
    assert pa_lp_norm(u, 2) == pytest.approx(np.sqrt(wts @ pa_eval(pa, pts) ** 2), rel=1e-12)
    grad2 = 0.0
    for k in range(dim):
        # the partial along k is the gap between the cell's two k-faces over h
        lo, hi = pts.copy(), pts.copy()
        cell = np.floor(pts[:, k] / h)
        lo[:, k], hi[:, k] = cell * h, np.minimum((cell + 1.0) * h, 1.0)
        grad2 += wts @ ((pa_eval(pa, hi) - pa_eval(pa, lo)) / h) ** 2
    assert pa_grad_l2_norm(u) == pytest.approx(np.sqrt(grad2), rel=1e-12)
    # on each half cell the piecewise-constant spline is constant as well
    pts, wts = tensor_gauss(dim, 2 * (cells + 1), 2)
    gap = pc_eval(pc_spline(u), pts) - pa_eval(pa, pts)
    assert interp_gap(u) == pytest.approx(np.sqrt(wts @ gap**2), rel=1e-12)


def test_pa_norms_against_quadrature():
    g = build_grid(1, 6)
    rng = np.random.default_rng(14)
    u = Field(g, rng.normal(size=g.shape))
    xs = (np.arange(400_000) + 0.5) / 400_000
    pa = pa_eval(pa_spline(u), xs[:, None])
    assert pa_lp_norm(u, 2) == pytest.approx(np.sqrt(np.mean(pa**2)), rel=1e-6)
    # |spline| is affine per cell only when the sign is constant
    pos = Field(g, u.values + 4.0)
    pa_pos = pa_eval(pa_spline(pos), xs[:, None])
    assert pa_lp_norm(pos, 1) == pytest.approx(np.mean(np.abs(pa_pos)), rel=1e-7)
    # gradient is piecewise constant in 1d
    grads = np.diff(u.values) / g.spacing
    assert pa_grad_l2_norm(u) == pytest.approx(
        np.sqrt(np.sum(grads**2) * g.spacing), rel=1e-12
    )


def test_pc_gap_to_function_exact_case():
    # distance from the zero field to the identity is the L2 norm of x
    g = build_grid(1, 3)
    z = Field(g, np.zeros(g.shape))
    val = pc_gap_to_function(z, lambda x: x[..., 0])
    assert val == pytest.approx(1.0 / np.sqrt(3.0), rel=1e-12)


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


def test_interp_estimate_ratios_stable_under_refinement():
    base = _ratio_suite(7)
    for m in (15, 31, 63):
        ratios = _ratio_suite(m)
        for name, val in ratios.items():
            assert np.isfinite(val) and val > 0.0, name
            assert val <= 2.0 * base[name], (name, m, val, base[name])


def _bump(x):
    s = (x - 0.5) / 0.4
    out = np.zeros_like(s)
    inside = np.abs(s) < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - s[inside] ** 2))
    return out


def _bump_dd(x):
    s = (x - 0.5) / 0.4
    out = np.zeros_like(s)
    inside = np.abs(s) < 0.999999
    si = s[inside]
    q = 1.0 - si**2
    gfac = -2.0 * si / q**2
    gprime = -2.0 / q**2 - 8.0 * si**2 / q**3
    out[inside] = np.exp(-1.0 / q) * (gfac**2 + gprime) / 0.4**2
    return out


def test_pc_laplacian_consistency_first_order():
    # the piecewise-constant spline of the discrete Laplacian of a smooth
    # compactly supported function tracks its continuum Laplacian at rate h
    consts = {}
    for m in (7, 15, 31, 63):
        g = build_grid(1, m)
        v = sample_nodal(g, lambda x: _bump(x[..., 0]))
        lap = laplacian(v)
        lap_full = Field(g, lap.values)
        # fixed central window: on the bump flanks the third derivative is
        # huge and h = 1/8 cannot resolve it yet, which would make the
        # measured constants preasymptotic rather than stable
        xs = np.linspace(0.25, 0.75, 2001)
        approx = pc_eval(pc_spline(lap_full), xs[:, None])
        exact = _bump_dd(xs)
        consts[m] = float(np.max(np.abs(approx - exact))) / g.spacing
    base = consts[7]
    for m in (15, 31, 63):
        assert consts[m] <= 2.0 * base
