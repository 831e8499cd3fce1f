import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg
from hypothesis import given, settings, strategies as st

from rpmelab import grid as grid_module
from rpmelab.grid import (
    Field,
    Hminus2Solver,
    backward_diff,
    build_grid,
    forward_diff,
    free_node_count,
    grad_h1_seminorm,
    h02_embed,
    h1_seminorm,
    hminus2_norm,
    l2_inner,
    laplacian,
    lp_norm,
    normal_diff,
    sample_nodal,
)


def test_build_grid_small():
    g = build_grid(1, 2)
    assert g.spacing == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert np.allclose(g.axis_coords(), [0.0, 1 / 3, 2 / 3, 1.0], atol=1e-15)
    assert g.axis_coords()[0] == 0.0 and g.axis_coords()[-1] == 1.0

    g2 = build_grid(2, 3)
    assert g2.spacing == 0.25
    assert g2.n_interior == 9
    assert g2.n_nodes == 25


def test_build_grid_spacing_identity():
    for m in (2, 3, 7, 16, 63):
        g = build_grid(1, m)
        assert g.spacing * (m + 1) == pytest.approx(1.0, abs=1e-15)


def test_build_grid_rejects_bad_args():
    with pytest.raises(ValueError):
        build_grid(0, 4)
    with pytest.raises(ValueError):
        build_grid(1, 1)


def test_field_rejects_nonfinite():
    g = build_grid(1, 3)
    vals = np.zeros(g.shape)
    vals[2] = np.nan
    with pytest.raises(ValueError):
        Field(g, vals)
    # undefined nodes are flagged by the mask, never filled with NaN
    mask = np.ones(g.shape, dtype=bool)
    mask[2] = False
    with pytest.raises(ValueError):
        Field(g, vals, mask)
    vals[2] = 0.0
    f = Field(g, vals, mask)
    assert not f.is_fully_defined()


def test_forward_diff_quadratic():
    g = build_grid(1, 7)
    h = g.spacing
    u = sample_nodal(g, lambda x: x[..., 0] ** 2)
    d = forward_diff(u, 0)
    xs = g.axis_coords()
    # exact forward difference of x^2 is 2x + h
    assert np.allclose(d.values[:-1], 2.0 * xs[:-1] + h, atol=1e-13)
    assert d.mask is not None
    assert not d.mask[-1]
    assert d.mask[:-1].all()


def test_forward_diff_axis_range():
    g = build_grid(2, 3)
    u = sample_nodal(g, lambda x: x[..., 0])
    with pytest.raises(ValueError):
        forward_diff(u, 2)
    with pytest.raises(ValueError):
        forward_diff(u, -1)


def test_backward_forward_compose_to_laplacian():
    rng = np.random.default_rng(7)
    for dim, m in ((1, 6), (2, 4)):
        g = build_grid(dim, m)
        u = Field(g, rng.normal(size=g.shape))
        lap = laplacian(u)
        acc = np.zeros(g.shape)
        for k in range(dim):
            acc += backward_diff(forward_diff(u, k), k).values
        sel = g.interior_mask()
        assert np.allclose(acc[sel], lap.values[sel], atol=1e-10)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(2, 5), st.integers(0, 2**32 - 1), st.sampled_from([None, 0.3, 0.8]))
def test_backward_diff_is_forward_diff_shifted_one_layer(dim, cells, seed, density):
    g = build_grid(dim, cells)
    rng = np.random.default_rng(seed)
    mask = None if density is None else rng.random(g.shape) < density
    u = Field(g, rng.normal(size=g.shape), mask)
    for k in range(dim):
        fwd, bwd = forward_diff(u, k), backward_diff(u, k)
        # the forward difference's last layer is empty, so the roll brings an
        # empty layer to the front
        assert not fwd.mask.take(-1, axis=k).any()
        assert np.array_equal(np.roll(fwd.mask, 1, axis=k), bwd.mask)
        assert np.array_equal(np.roll(fwd.values, 1, axis=k).view(np.uint64), bwd.values.view(np.uint64))


def test_laplacian_quadratic_exact():
    g = build_grid(1, 3)
    u = sample_nodal(g, lambda x: x[..., 0] ** 2)
    lap = laplacian(u)
    sel = g.interior_mask()
    assert np.allclose(lap.values[sel], 2.0, atol=1e-11)
    assert lap.mask is not None and (lap.mask == sel).all()


def test_laplacian_indicator():
    for dim in (1, 2, 3):
        g = build_grid(dim, 4)
        vals = np.zeros(g.shape)
        center = (2,) * dim
        vals[center] = 1.0
        lap = laplacian(Field(g, vals))
        expect = -2.0 * dim / g.spacing**2
        assert lap.values[center] == pytest.approx(expect, rel=1e-13)


def test_normal_diff_linear():
    g = build_grid(2, 5)
    u = sample_nodal(g, lambda x: x[..., 0])
    nd = normal_diff(u)
    # outward difference of x_1 is -1 on the x_1 = 0 face
    face = np.zeros(g.shape, dtype=bool)
    face[0, 1:-1] = True
    assert np.allclose(nd.values[face], -1.0, atol=1e-12)
    opposite = np.zeros(g.shape, dtype=bool)
    opposite[-1, 1:-1] = True
    assert np.allclose(nd.values[opposite], 1.0, atol=1e-12)
    assert nd.mask is not None and (nd.mask == g.boundary_mask()).all()


def test_lp_norm_constant():
    g = build_grid(1, 3)
    u = Field(g, np.ones(g.shape))
    assert lp_norm(u, 2, "full") == pytest.approx(np.sqrt(5 * g.spacing), rel=1e-14)
    assert lp_norm(u, 1, "interior") == pytest.approx(3 * g.spacing, rel=1e-14)
    assert lp_norm(u, np.inf, "full") == 1.0
    with pytest.raises(ValueError):
        lp_norm(u, 0.5)


def test_lp_norm_scaling_consistency():
    # for constant fields the p-norm over the full set is (h*count)**(1/p)
    rng = np.random.default_rng(0)
    g = build_grid(2, 5)
    c = float(rng.uniform(0.5, 2.0))
    u = Field(g, np.full(g.shape, c))
    w = g.spacing**2 * g.n_nodes
    for p in (1, 2, 3, 7):
        assert lp_norm(u, p, "full") == pytest.approx(c * w ** (1 / p), rel=1e-13)


def test_h1_seminorm_linear():
    g = build_grid(1, 3)
    u = sample_nodal(g, lambda x: x[..., 0])
    assert h1_seminorm(u) == pytest.approx(1.0, rel=1e-13)


def test_h1_seminorm_masked_pairs():
    g = build_grid(1, 4)
    vals = np.linspace(0.0, 1.0, g.nodes_per_axis)
    mask = np.ones(g.shape, dtype=bool)
    mask[-1] = False
    partial = Field(g, vals, mask)
    full = Field(g, vals)
    # dropping one node removes exactly one pair
    npairs_full = g.nodes_per_axis - 1
    npairs_part = npairs_full - 1
    ratio = h1_seminorm(partial) / h1_seminorm(full)
    assert ratio == pytest.approx(np.sqrt(npairs_part / npairs_full), rel=1e-12)


def test_summation_by_parts_identity():
    # sum_{i=1..M} (a_{i+1}-2a_i+a_{i-1}) b_i
    #   = -sum_{i=0..M} (a_{i+1}-a_i)(b_{i+1}-b_i)
    #     + (a_{M+1}-a_M) b_{M+1} - (a_1-a_0) b_0
    rng = np.random.default_rng(11)
    for _ in range(50):
        m = int(rng.integers(2, 40))
        a = rng.normal(size=m + 2)
        b = rng.normal(size=m + 2)
        lhs = np.sum((a[2:] - 2 * a[1:-1] + a[:-2]) * b[1:-1])
        da = a[1:] - a[:-1]
        db = b[1:] - b[:-1]
        rhs = -np.sum(da * db) + (a[-1] - a[-2]) * b[-1] - (a[1] - a[0]) * b[0]
        assert lhs == pytest.approx(rhs, abs=1e-12 * max(1.0, abs(lhs)))


def test_laplacian_self_adjoint_on_test_space():
    rng = np.random.default_rng(3)
    for dim, m in ((1, 8), (2, 6)):
        g = build_grid(dim, m)
        n = free_node_count(g)
        v = h02_embed(g, rng.normal(size=n))
        w = h02_embed(g, rng.normal(size=n))
        lhs = l2_inner(laplacian(v), w, "interior")
        rhs = l2_inner(v, laplacian(w), "interior")
        assert lhs == pytest.approx(rhs, abs=1e-10 * max(1.0, abs(lhs)))


def test_free_node_structure():
    # doubly vanishing fields are free exactly at distance >= 2h from the boundary
    assert free_node_count(build_grid(1, 2)) == 0
    assert free_node_count(build_grid(1, 3)) == 1
    assert free_node_count(build_grid(1, 5)) == 3
    assert free_node_count(build_grid(2, 5)) == 9
    g = build_grid(1, 5)
    v = h02_embed(g, np.array([1.0, 2.0, 3.0]))
    assert v.values[0] == 0.0 and v.values[1] == 0.0
    assert v.values[-1] == 0.0 and v.values[-2] == 0.0
    nd = normal_diff(v)
    assert np.allclose(nd.values[nd.mask], 0.0, atol=1e-14)


def test_hminus2_empty_space_returns_zero():
    g = build_grid(1, 2)
    u = Field(g, np.ones(g.shape))
    assert hminus2_norm(u) == 0.0
    assert Hminus2Solver(g).is_empty


def _dense_lap_columns(g):
    # columns of the interior-row Laplacian over free basis fields
    n = free_node_count(g)
    cols = []
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        v = h02_embed(g, e)
        cols.append(laplacian(v).values[g.interior_mask()])
    return np.array(cols).T


def test_hminus2_maximizer_family_value():
    # pick v0 in the test space whose interior values are themselves a
    # Laplacian image; then the dual norm of lap v0 equals ||v0||
    g = build_grid(1, 5)
    a = _dense_lap_columns(g)
    ns = scipy.linalg.null_space(a[[0, -1], :])
    assert ns.shape[1] >= 1
    x = ns[:, 0]
    img = a @ x
    assert abs(img[0]) < 1e-10 and abs(img[-1]) < 1e-10
    v0 = h02_embed(g, img[1:-1])
    u = laplacian(v0)
    expect = lp_norm(v0, 2, "interior")
    assert hminus2_norm(u) == pytest.approx(expect, rel=1e-10)


def test_hminus2_upper_bound_property():
    rng = np.random.default_rng(21)
    for dim, m in ((1, 9), (2, 6)):
        g = build_grid(dim, m)
        for _ in range(20):
            v = h02_embed(g, rng.normal(size=free_node_count(g)))
            u = laplacian(v)
            assert hminus2_norm(u) <= lp_norm(v, 2, "interior") * (1 + 1e-9)


def test_hminus2_homogeneity_and_triangle():
    rng = np.random.default_rng(5)
    g = build_grid(1, 9)
    sel = g.interior_mask()

    def make(vals):
        full = np.zeros(g.shape)
        full[sel] = vals
        return Field(g, full)

    a = rng.normal(size=g.n_interior)
    b = rng.normal(size=g.n_interior)
    na = hminus2_norm(make(a))
    nb = hminus2_norm(make(b))
    nab = hminus2_norm(make(a + b))
    assert hminus2_norm(make(3.0 * a)) == pytest.approx(3.0 * na, rel=1e-9)
    assert nab <= na + nb + 1e-9


def test_hminus2_cg_matches_dense():
    # the sparse factorization agrees with a dense solve of the Gram matrix
    rng = np.random.default_rng(17)
    for dim, m in ((1, 40), (2, 33)):
        g = build_grid(dim, m)
        vals = rng.normal(size=g.n_interior)
        a = _dense_lap_columns(g)
        gram = a.T @ a
        full = np.zeros(g.shape)
        full[g.interior_mask()] = vals
        u_free = full[g.free_mask()]
        ref = np.sqrt(g.spacing**dim * (u_free @ np.linalg.solve(gram, u_free)))
        assert Hminus2Solver(g).norm(vals) == pytest.approx(ref, rel=1e-10)


def test_free_space_helpers_need_no_factorization(monkeypatch):
    def refuse(*args, **kwargs):
        raise RuntimeError("factorization requested")

    monkeypatch.setattr(scipy.sparse.linalg, "splu", refuse)
    g = build_grid(3, 6)
    with pytest.raises(RuntimeError):
        Hminus2Solver(g)
    n = free_node_count(g)
    assert n == 4**3
    v = h02_embed(g, np.arange(1.0, n + 1.0))
    assert np.array_equal(v.values[g.free_mask()], np.arange(1.0, n + 1.0))
    assert np.all(v.values[~g.free_mask()] == 0.0)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.data())
def test_hminus2_norm_of_a_field_vanishing_on_the_free_nodes_is_the_solve(dim, data):
    # hminus2_norm returns without a factorization there, with the solve's bits
    g = build_grid(dim, data.draw(st.integers(2, {1: 12, 2: 8, 3: 5}[dim])))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    free, interior = g.free_mask(), g.interior_mask()
    off = {
        "nowhere": np.zeros_like(free),
        "boundary": ~interior,
        "inner layer": interior & ~free,
        "off the free nodes": ~free,
    }[data.draw(st.sampled_from(["nowhere", "boundary", "inner layer", "off the free nodes"]))]
    values = np.where(rng.random(g.shape) < 0.5, -0.0, 0.0)
    values[off] = rng.normal(size=g.shape)[off]
    got = hminus2_norm(Field(g, values))
    ref = Hminus2Solver(g).norm(values[interior])
    assert np.float64(got).tobytes() == np.float64(ref).tobytes()


def test_hminus2_norm_factorizes_only_for_a_field_nonzero_on_free_nodes(monkeypatch):
    built = []
    monkeypatch.setattr(grid_module, "_hm2_solver", lambda g: built.append(g) or Hminus2Solver(g))
    g = build_grid(2, 7)
    values = np.where(g.free_mask(), -0.0, 1.0)
    assert hminus2_norm(Field(g, values)) == 0.0 and built == []
    values[g.free_mask()] = 1.0
    assert hminus2_norm(Field(g, values)) > 0.0 and built == [g]


@pytest.mark.parametrize("order", [2, 4, 16])
def test_gauss01_exact_to_degree_two_order_minus_one(order):
    # the orders pa_grad_l2_norm, pa_lp_norm / pc_gap_to_function and
    # convex_energy use: exact for x**k, k <= 2*order - 1
    x, w = grid_module._gauss01(order)
    assert np.all((x > 0.0) & (x < 1.0)) and np.all(w > 0.0)
    for k in range(2 * order):
        assert np.dot(w, x**k) == pytest.approx(1.0 / (k + 1), rel=1e-13)


def test_grad_h1_seminorm_runs():
    g = build_grid(2, 6)
    u = sample_nodal(g, lambda x: np.sin(np.pi * x[..., 0]) * np.sin(np.pi * x[..., 1]))
    assert grad_h1_seminorm(u) > 0
