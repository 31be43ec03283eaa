import math
import re

import numpy as np
import pytest

from splitgeom import hyperdual as hd
from splitgeom.chart import Axis, ChartFrame, ChartManifold, GeometryError, sample_points
from splitgeom.expr import evaluate, parse_expr, variables
from splitgeom.hypersurface import hypersurface_catalog, principal_bundle
from splitgeom.identities import available_identities, integral_checks_batch, pointwise_fields
from splitgeom.scenarios import (
    Scenario,
    build_twisted_torus,
    build_warped,
    build_warped_twisted,
    kproduct_catalog,
    warped_checks,
)
from splitgeom.splitting import (
    SplitContext,
    SplitStructure,
    coordinate_split,
    gram_schmidt,
    pair_predicates,
    subsets,
)

TWO_PI = 2 * math.pi


def comb(k, r):
    return math.comb(k, r)


def complement(q, k):
    """The labels of ``1..k`` not in the subset ``q``."""
    return tuple(i for i in range(1, k + 1) if i not in q)


def test_subsets_counts_and_order():
    assert subsets(1, 3) == [(1,), (2,), (3,)]
    assert subsets(2, 3) == [(1, 2), (1, 3), (2, 3)]
    assert len(subsets(2, 3)) == 3  # the (k-1)-subsets of k=3 number k
    assert len(subsets(2, 5)) == 10
    for k in range(1, 9):
        for r in range(1, k + 1):
            assert len(subsets(r, k)) == comb(k, r)
    with pytest.raises(ValueError):
        subsets(0, 3)
    with pytest.raises(ValueError):
        subsets(4, 3)


@pytest.mark.parametrize("q, message", [
    ((), "subset must be non-empty"),
    ((2, 1), r"subset labels must be strictly increasing, got \(2, 1\)"),
    ((1, 1), r"subset labels must be strictly increasing, got \(1, 1\)"),
    ((4,), r"subset \(4,\) exceeds k=3"),
], ids=["empty", "decreasing", "repeated", "above_k"])
def test_fundamental_refuses_bad_subsets(q, message):
    scn = build_twisted_torus((1, 1, 1))
    ctx = SplitContext(scn.chart, scn.split, scn.sample(4, np.random.default_rng(0)))
    with pytest.raises(ValueError, match=message):
        ctx.fundamental(q)


def test_split_context_needs_a_spanning_frame():
    scn = build_twisted_torus((1, 1, 1))
    with pytest.raises(GeometryError, match="^split structure has no spanning frame$"):
        SplitContext(scn.chart, SplitStructure(scn.dims), scn.sample(4, np.random.default_rng(0)))


def product_chart_3d():
    return ChartManifold(
        [Axis(0.0, TWO_PI)] * 3,
        [["1", "0", "0"], ["0", "(2 + sin(x1))^2", "0"], ["0", "0", "4"]],
        name="product3",
    )


def test_adapted_frame_euclidean_identity():
    m = ChartManifold([Axis(0.0, TWO_PI)] * 3,
                      [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]])
    split = coordinate_split((1, 2))
    pts = sample_points(m, 5, np.random.default_rng(0))
    ctx = SplitContext(m, split, pts)
    np.testing.assert_allclose(ctx.E_val, np.broadcast_to(np.eye(3), (5, 3, 3)), atol=1e-15)


def orthonormality_residual(ctx):
    """Largest entry of ``E g E^T - I`` over the points of ``ctx``."""
    E = ctx.E_val
    gram = np.einsum("...va,...ab,...wb->...vw", E, hd.value_of(ctx.frame.g), E)
    return np.max(np.abs(gram - np.eye(ctx.n)))


def test_twisted_frame_orthonormality_and_projectors():
    scn = build_twisted_torus((1, 1, 1))
    pts = scn.sample(40, np.random.default_rng(1))
    ctx = SplitContext(scn.chart, scn.split, pts)
    assert orthonormality_residual(ctx) <= 1e-13

    P = ctx.projectors()
    eye = np.eye(3)
    total = P.sum(axis=-3)
    np.testing.assert_allclose(total, np.broadcast_to(eye, total.shape), atol=1e-12)
    for i in range(3):
        Pi = P[..., i, :, :]
        np.testing.assert_allclose(Pi @ Pi, Pi, atol=1e-12)
        for j in range(3):
            if i != j:
                Pj = P[..., j, :, :]
                assert np.max(np.abs(Pi @ Pj)) <= 1e-12


def test_scaled_frame_same_projectors():
    m = ChartManifold([Axis(0.0, TWO_PI)] * 3,
                      [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]])

    scaled = [["2", "0", "0"], ["0", "-3", "0"], ["0", "0", "0.5"]]
    pts = sample_points(m, 4, np.random.default_rng(2))
    ctx_scaled = SplitContext(m, SplitStructure((1, 2), scaled), pts)
    ctx_coord = SplitContext(m, coordinate_split((1, 2)), pts)
    np.testing.assert_allclose(ctx_scaled.projectors(), ctx_coord.projectors(), atol=1e-14)
    np.testing.assert_allclose(np.abs(ctx_scaled.E_val),
                               np.broadcast_to(np.eye(3), (4, 3, 3)), atol=1e-14)


def test_product_metric_fundamental_tensors_vanish():
    m = product_chart_3d()
    # direct product along (x1,x2) x (x3): no warp couples them... use the
    # genuinely product directions: {x3} is flat and decoupled
    split = coordinate_split((2, 1))
    pts = sample_points(m, 20, np.random.default_rng(3))
    ctx = SplitContext(m, split, pts)
    for q in [(1,), (2,)]:
        data = ctx.fundamental(q)
        # the (x1,x2) block is a warped surface: h_1 need not vanish; the
        # x3 block is parallel: everything vanishes
    data = ctx.fundamental((2,))
    assert np.max(np.abs(data.h_frame)) <= 1e-13
    assert np.max(np.abs(data.t_frame)) <= 1e-13
    assert np.max(np.abs(data.H_frame)) <= 1e-13

    # a true product: flat factors
    flat = ChartManifold([Axis(0.0, TWO_PI)] * 3,
                         [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]])
    ctx = SplitContext(flat, coordinate_split((1, 1, 1)), pts)
    for r in (1, 2):
        for q in subsets(r, 3):
            data = ctx.fundamental(q)
            assert np.max(np.abs(data.h_frame), initial=0.0) == 0.0
            assert np.max(np.abs(data.t_frame), initial=0.0) == 0.0
            assert np.max(np.abs(data.H_frame), initial=0.0) == 0.0


def twisted_frame_oracle(twist_ast, points):
    """Hand-coded frame and brackets of the rotated frame (flat metric).

    With ``V_1 = cos f e_1 + sin f e_2``, ``V_2 = -sin f e_1 + cos f e_2``,
    ``V_j = e_j`` and ``f`` a function of the last coordinate only:
    ``[V_1, V_2] = 0``, ``[V_1, V_n] = -f' V_2``, ``[V_2, V_n] = f' V_1``,
    and the flat covariant derivatives are
    ``nabla_{V_n} V_1 = f' V_2``, ``nabla_{V_n} V_2 = -f' V_1``, rest zero.
    """
    points = np.asarray(points, dtype=float)
    n = points.shape[-1]
    xs = hd.seed_jets(points)
    f = evaluate(twist_ast, xs)
    fval = hd.value_of(f)
    fprime = f.grad[..., n - 1] if hasattr(f, "grad") else np.zeros_like(fval)
    c, s = np.cos(fval), np.sin(fval)
    V = np.zeros(points.shape[:-1] + (n, n))
    V[..., 0, 0], V[..., 0, 1] = c, s
    V[..., 1, 0], V[..., 1, 1] = -s, c
    for j in range(2, n):
        V[..., j, j] = 1.0
    nabla = np.zeros(points.shape[:-1] + (n, n, n))  # nabla[a][b] = flat D_{V_a} V_b
    nabla[..., n - 1, 0, :] = fprime[..., None] * V[..., 1, :]
    nabla[..., n - 1, 1, :] = -fprime[..., None] * V[..., 0, :]
    return V, nabla, fprime


def test_twisted_torus_against_bracket_oracle():
    scn = build_twisted_torus((1, 1, 1))
    twist_ast = parse_expr(scn.meta["twist"], 3)
    pts = np.array([[0.0, 0.0, 0.0], [0.3, 1.0, 2.2], [1.1, 0.2, 4.0]])
    V, nabla, fprime = twisted_frame_oracle(twist_ast, pts)

    # spec spot value: the bracket cross-component at the origin is f'(0) = 1
    bracket_13 = nabla[0, 0, 2, :] * 0.0  # placeholder shape
    bracket_13 = nabla[..., 0, 2, :] - nabla[..., 2, 0, :]  # [V_1, V_3] = -f' V_2
    comp = np.einsum("...a,...a->...", bracket_13, V[..., 1, :])
    np.testing.assert_allclose(np.abs(comp[0]), 1.0, rtol=1e-15)
    np.testing.assert_allclose(comp, -fprime, atol=1e-14)

    ctx = SplitContext(scn.chart, scn.split, pts)
    # oracle fundamental tensors for q against engine values
    for q in [(1,), (3,), (1, 3), (2, 3)]:
        data = ctx.fundamental(q)
        arg = data.arg_idx
        perp = data.perp_idx
        for ia, a in enumerate(arg):
            for ib, b in enumerate(arg):
                for ic, c in enumerate(perp):
                    sym = 0.5 * (nabla[..., a, b, :] + nabla[..., b, a, :])
                    anti = 0.5 * (nabla[..., a, b, :] - nabla[..., b, a, :])
                    h_oracle = np.einsum("...x,...x->...", sym, V[..., c, :])
                    t_oracle = np.einsum("...x,...x->...", anti, V[..., c, :])
                    np.testing.assert_allclose(data.h_frame[..., ia, ib, ic], h_oracle,
                                               atol=1e-10)
                    np.testing.assert_allclose(data.t_frame[..., ia, ib, ic], t_oracle,
                                               atol=1e-10)


def test_h_symmetry_t_antisymmetry_random_scenarios():
    rng = np.random.default_rng(5)
    for name in ["twisted_torus_k3", "warped_t3_k3", "warped_twisted_t3",
                 "warped_t4_k3_ortho"]:
        scn = kproduct_catalog()[name]()
        pts = scn.sample(100, rng)
        ctx = SplitContext(scn.chart, scn.split, pts)
        for r in (1, scn.k - 1):
            for q in subsets(r, scn.k):
                data = ctx.fundamental(q)
                h, t = data.h_frame, data.t_frame
                assert np.max(np.abs(h - np.swapaxes(h, -3, -2))) <= 1e-12
                assert np.max(np.abs(t + np.swapaxes(t, -3, -2))) <= 1e-12


def test_mean_curvature_lies_in_complement():
    scn = kproduct_catalog()["warped_t4_k4"]()
    pts = scn.sample(30, np.random.default_rng(6))
    ctx = SplitContext(scn.chart, scn.split, pts)
    P = ctx.projectors()
    for r in (1, 3):
        for q in subsets(r, 4):
            Hv = ctx.H_values(q)
            proj = np.zeros_like(Hv)
            for i in q:
                proj += np.einsum("...ab,...b->...a", P[..., i - 1, :, :], Hv)
            assert np.max(np.abs(proj)) <= 1e-10


def test_projection_identity_for_subset_mean_curvature():
    # H_q equals the complement projection of the sum of the blockwise
    # mean curvature vectors
    for name in ["warped_t4_k4", "warped_twisted_t3"]:
        scn = kproduct_catalog()[name]()
        pts = scn.sample(25, np.random.default_rng(7))
        ctx = SplitContext(scn.chart, scn.split, pts)
        P = ctx.projectors()
        k = scn.k
        for r in range(1, k):
            for q in subsets(r, k):
                Hq = ctx.H_values(q)
                total = np.zeros_like(Hq)
                for i in q:
                    total += ctx.H_values((i,))
                proj = np.zeros_like(Hq)
                for j in complement(q, k):
                    proj += np.einsum("...ab,...b->...a", P[..., j - 1, :, :], total)
                assert np.max(np.abs(Hq - proj)) <= 1e-10


def test_warped_mean_curvature_closed_forms():
    for name in ["warped_t2", "warped_t3_fiber2", "warped_t4_k3_ortho",
                 "warped_t5_k3_multi"]:
        scn = kproduct_catalog()[name]()
        assert scn.meta["sec2_exact"]
        pts = scn.sample(50, np.random.default_rng(8))
        res = {key: float(np.max(v)) for key, v in
               warped_checks(scn, SplitContext(scn.chart, scn.split, pts)).items()}
        assert res["mean_curvature"] <= 1e-9
        assert res["div_mean_curvature"] <= 1e-9
        assert res["smix_warped"] <= 1e-9
        assert res["base_totally_geodesic"] <= 1e-10
        # every pair is mixed totally geodesic and mixed integrable
        assert res["mixed_pairs"] <= 1e-9


def test_warped_two_warps_on_line_base_not_sec2_exact():
    scn = kproduct_catalog()["warped_t3_k3"]()
    assert not scn.meta["sec2_exact"]
    pts = scn.sample(50, np.random.default_rng(9))
    res = {key: float(np.max(v)) for key, v in
               warped_checks(scn, SplitContext(scn.chart, scn.split, pts)).items()}
    # the mean curvature closed form holds regardless
    assert res["mean_curvature"] <= 1e-9
    assert res["base_totally_geodesic"] <= 1e-10
    # the two line-base warps interact: closed forms acquire cross terms
    assert res["smix_warped"] > 1e-3


def test_warped_t2_smix_spot_value():
    scn = kproduct_catalog()["warped_t2"]()
    p = np.array([[math.pi / 2, 0.4]])
    ctx = SplitContext(scn.chart, scn.split, p)
    np.testing.assert_allclose(ctx.smix(), [1.0 / 3.0], atol=1e-12)
    # K(D1, D2) at t=0 vanishes since u'' = 0 there
    ctx0 = SplitContext(scn.chart, scn.split, np.array([[0.0, 0.4]]))
    np.testing.assert_allclose(ctx0.mixed_curvature(1, 2), [0.0], atol=1e-13)


def test_smix_lemma_pair_splits():
    rng = np.random.default_rng(10)
    for name, builder in kproduct_catalog().items():
        scn = builder()
        pts = scn.sample(20, rng)
        ctx = SplitContext(scn.chart, scn.split, pts)
        total = np.zeros(pts.shape[0])
        for i in range(1, scn.k + 1):
            total = total + ctx.smix_pairsplit(i)
        assert np.max(np.abs(2.0 * ctx.smix() - total)) <= 1e-10


def partial_divergence(ctx, q, X, frame=None):
    """``Div_q X`` of a ``(..., a)`` vector jet on the slots of ``frame`` (a
    :class:`ChartFrame` at the context's points, default the context's): the
    part of the divergence along the frame blocks of the subset ``q``,
    summed over ``a`` in ``q`` of ``<nabla_{E_a} X, E_a>``, at value level."""
    frame = frame or ctx.frame
    E = ctx.E_val[..., ctx.split.block_indices(q), :]
    # nabla[d, c] = d_c X^d + Gamma^d_ce X^e
    nabla = (frame.scatter(X.grad)
             + np.einsum("...dce,...e->...dc", hd.value_of(frame.gamma), X.val))
    return np.einsum("...ac,...dc,...de,...ae->...", E, nabla, hd.value_of(frame.g), E,
                     optimize=True)


def test_partial_divergence_consistency():
    scn = kproduct_catalog()["warped_t3_k3"]()
    m, split = scn.chart, scn.split
    rng = np.random.default_rng(11)
    pts = scn.sample(15, rng)

    def field(coords):
        return [hd.sin(coords[1]) * hd.cos(coords[0]),
                hd.as_jet(1.0, coords[0]) + hd.sin(coords[2]),
                hd.cos(coords[0]) * hd.cos(coords[2])]

    # the field moves along every axis, the context's jets along x1 only
    ctx = SplitContext(m, split, pts)
    cf = ChartFrame(m, pts)
    comps = hd.stack(field(cf.coords), ref=cf.coords[0])
    full = partial_divergence(ctx, (1, 2, 3), comps, cf)
    coord_formula = cf.divergence_of(comps)
    np.testing.assert_allclose(full, coord_formula, atol=1e-10)

    part_a = partial_divergence(ctx, (1,), comps, cf)
    part_b = partial_divergence(ctx, (2, 3), comps, cf)
    np.testing.assert_allclose(part_a + part_b, coord_formula, atol=1e-10)


def connection_jet(ctx):
    """``<nabla_{E_a} E_b, E_c>`` as one order-1 ``(..., a, b, c)`` jet: every
    entry differentiated, where the context differentiates only the
    diagonal ``b = a``."""
    fr, E = ctx.frame, ctx.E
    dE = fr.differential(E)  # (..., b, d, x) = d_x E_b^d
    nabla = (hd.einsum("...ax,...bdx->...abd", E, dE)
             + hd.einsum("...dxy,...ax,...by->...abd", fr.gamma, E, E))
    return hd.einsum("...abd,...de,...ce->...abc", nabla, fr.g, E)


def mean_curvature_jet(ctx, q):
    """``H_q`` in coordinates as an order-1 ``(..., d)`` jet, from the full
    connection jet and the complement frame's gradient."""
    arg_idx = ctx.split.block_indices(q)
    perp_idx = ctx.split.block_indices(complement(q, ctx.k))
    d = connection_jet(ctx)[(Ellipsis,) + np.ix_(arg_idx, arg_idx, perp_idx)]
    E = ctx.E
    perp = hd.HyperDual(E.val[..., perp_idx, :], E.grad[..., perp_idx, :, :])
    return hd.einsum("...aac,...cd->...d", d, perp)


ORACLE_SCENARIOS = {
    **kproduct_catalog(),
    # twists that read an axis of the turning plane: H_q is not zero
    "twisted_x1": lambda: build_twisted_torus((1, 1, 1), twist="x1"),
    "twisted_mixed": lambda: build_twisted_torus(
        (1, 1, 1), twist="0.3*sin(x1) + 0.5*cos(x2) + 0.4*sin(x3)"),
    "warped_twisted_x2": lambda: build_warped_twisted(twist="x2 + sin(x1)"),
}


@pytest.mark.parametrize("name", sorted(ORACLE_SCENARIOS))
def test_div_H_matches_the_divergence_of_the_mean_curvature_jet(name):
    # oracle: the full connection jet, the H_q jet from it, then the
    # chart's divergence, against the diagonal-only divY sums
    scn = ORACLE_SCENARIOS[name]()
    pts = scn.sample(64, np.random.default_rng(27))
    ctx = SplitContext(scn.chart, scn.split, pts)
    moved = 0.0
    for r in range(1, scn.k):
        for q in subsets(r, scn.k):
            H = mean_curvature_jet(ctx, q)
            want = ctx.frame.divergence_of(H)
            data = ctx.fundamental(q)
            scale = 1.0 + np.abs(want)
            assert np.max(np.abs(data.div_H - want) / scale) <= 1e-13, q
            assert np.max(np.abs(data.H - H.val) / scale[..., None]) <= 1e-13, q
            moved = max(moved, float(np.max(np.abs(want))))
    if name in ("twisted_x1", "twisted_mixed", "warped_twisted_x2"):
        assert moved > 0.1  # the comparison is not 0 = 0


def test_partial_divergence_mean_curvature_identity():
    # Div restricted to the complement of block i equals Div H_i + |H_i|^2
    for name in ["warped_t3_k3", "warped_twisted_t3", "twisted_torus_k3"]:
        scn = kproduct_catalog()[name]()
        pts = scn.sample(20, np.random.default_rng(12))
        ctx = SplitContext(scn.chart, scn.split, pts)
        for i in range(1, scn.k + 1):
            data = ctx.fundamental((i,))
            H = mean_curvature_jet(ctx, (i,))
            div_full = ctx.frame.divergence_of(H)
            div_comp = partial_divergence(ctx, complement((i,), scn.k), H)
            np.testing.assert_allclose(div_comp, div_full + data.H_norm2, atol=1e-9)
            np.testing.assert_allclose(div_comp, data.div_H + data.H_norm2, atol=1e-9)


def test_divergence_frame_independence():
    # coordinate formula vs orthonormal-frame sum for 100 random fields/points
    scn = kproduct_catalog()["warped_t3_k3"]()
    rng = np.random.default_rng(13)
    pts = scn.sample(100, rng)
    ctx = SplitContext(scn.chart, scn.split, pts)
    cf = ChartFrame(scn.chart, pts)  # the fields move along every axis
    coeff = rng.uniform(-1, 1, size=(100, 3, 4))
    for t in range(3):  # 3 fields x 100 points
        def field(coords, t=t):
            out = []
            for a in range(3):
                c = coeff[t, a]
                out.append(c[0] * hd.sin(coords[0]) + c[1] * hd.cos(coords[1])
                           + c[2] * hd.sin(coords[2]) + hd.as_jet(c[3], coords[0]))
            return out

        comps = hd.stack(field(cf.coords), ref=cf.coords[0])
        frame_sum = partial_divergence(ctx, (1, 2, 3), comps, cf)
        coord = cf.divergence_of(comps)
        assert np.max(np.abs(frame_sum - coord)) <= 1e-10


def curved_twisted_torus():
    """The frame of ``twisted_torus_k3`` on the curved conformal metric
    ``(2 + sin(x3)) delta``: a twisted frame whose sectional curvatures are
    not all zero, unlike on the flat torus."""
    flat = kproduct_catalog()["twisted_torus_k3"]()
    metric = [["2 + sin(x3)" if a == b else "0" for b in range(3)] for a in range(3)]
    return Scenario(name="curved_twisted_k3", kind="twisted_torus",
                    chart=ChartManifold(flat.chart.axes, metric, name="curved_twisted_k3"),
                    split=SplitStructure(flat.dims, flat.split.frame.rows))


@pytest.mark.parametrize("name", sorted(kproduct_catalog()) + sorted(hypersurface_catalog())
                         + ["curved_twisted_k3"])
def test_sectional_matches_the_curvature_tensor(name):
    # the Christoffel-jet contraction against the full tensor, on the frames
    # of split contexts and on the eigenframes of hypersurface bundles
    builders = {**kproduct_catalog(), **hypersurface_catalog(),
                "curved_twisted_k3": curved_twisted_torus}
    scn = builders[name]()
    pts = scn.sample(16, np.random.default_rng(24))
    if scn.kind == "hypersurface":
        b = principal_bundle(scn, pts)
        frame, E, K = b["frame"], b["E"], b["frame"].sectional(b["E"])
    else:
        ctx = SplitContext(scn.chart, scn.split, pts)
        frame, E, K = ctx.frame, ctx.E_val, ctx.sectional
    want = np.einsum("...abcd,...xa,...yb,...xc,...yd->...xy", frame.riemann, E, E, E, E)
    assert np.max(np.abs(K - want)) <= 1e-14 * (1.0 + np.max(np.abs(want)))
    if name == "curved_twisted_k3":
        assert np.max(np.abs(want)) > 1e-2


def sweep_twist(seed=1):
    """The seeded twist of the benchmark's integral sweep: a trigonometric
    polynomial in every coordinate of ``T^3``."""
    coef = np.random.default_rng(seed).uniform(0.2, 0.6, size=(3, 2))
    return " + ".join(f"{s!r}*sin(x{a + 1}) + {c!r}*cos(x{a + 1})"
                      for a, (s, c) in enumerate(coef.tolist()))


@pytest.mark.parametrize("metric", [np.eye(3), np.array([[2.0, 0.3, 0.1], [0.3, 1.0, 0.2],
                                                         [0.1, 0.2, 1.5]])],
                         ids=["identity", "constant_spd"])
def test_gram_schmidt_takes_a_plain_metric_as_a_constant_jet(metric):
    scn = build_twisted_torus((1, 1, 1), twist=sweep_twist())
    pts = scn.sample(16, np.random.default_rng(29))
    frame = ChartFrame(scn.chart, pts)  # the twist reads every axis
    vectors = hd.stack(frame.entries(scn.split.frame, "frame"))
    g = np.array(np.broadcast_to(metric, (16, 3, 3)))
    constant = hd.HyperDual(g, np.zeros(g.shape + (3,)), np.zeros(g.shape + (3, 3)))
    got, want = gram_schmidt(g, vectors, pts), gram_schmidt(constant, vectors, pts)
    for slot in ("val", "grad", "hess"):
        assert np.max(np.abs(getattr(got, slot) - getattr(want, slot))) <= 1e-15, slot
    gram = np.einsum("...va,...ab,...wb->...vw", got.val, g, got.val)
    assert np.max(np.abs(gram - np.eye(3))) <= 1e-13


def test_constant_frame_on_a_flat_chart_is_parallel():
    # a constant metric and a constant frame: no jet, and a zero connection
    for scn in (build_twisted_torus((1, 1, 1), twist="0"),
                build_warped(1, (1, 1), ("2", "3"), name="warped_const")):
        ctx = SplitContext(scn.chart, scn.split, scn.sample(8, np.random.default_rng(31)))
        assert ctx.frame.axes == [] and not isinstance(ctx.E, hd.HyperDual)
        assert np.all(ctx.cov == 0.0) and np.all(ctx.sectional == 0.0)
        for r in range(1, ctx.k):
            for q in subsets(r, ctx.k):
                assert np.all(ctx.fundamental(q).div_H == 0.0)


FLAT_ROUTE = {
    **{name: kproduct_catalog()[name]
       for name in ("twisted_torus_k2", "twisted_torus_k3", "twisted_torus_k4")},
    "sweep_twisted_t3": lambda: build_twisted_torus((1, 1, 1), twist=sweep_twist(),
                                                    name="sweep_twisted_t3"),
}


@pytest.mark.parametrize("name", sorted(FLAT_ROUTE))
def test_flat_chart_route_matches_the_jet_route(name):
    flat_scn, jet_scn = FLAT_ROUTE[name](), FLAT_ROUTE[name]()
    # the same constant metric, differentiated as if it read the frame's axes
    jet_scn.chart.depends_on = jet_scn.split.depends_on
    pts = flat_scn.sample(16, np.random.default_rng(30))
    flat = SplitContext(flat_scn.chart, flat_scn.split, pts)
    jet = SplitContext(jet_scn.chart, jet_scn.split, pts)
    assert flat.frame.axes == jet.frame.axes
    assert not isinstance(flat.frame.g, hd.HyperDual)
    assert isinstance(jet.frame.g, hd.HyperDual)
    for slot in ("val", "grad", "hess"):
        assert np.max(np.abs(getattr(flat.E, slot) - getattr(jet.E, slot))) <= 1e-15, slot
    assert np.max(np.abs(flat.cov - jet.cov)) <= 1e-15
    for r in range(1, flat.k):
        for q in subsets(r, flat.k):
            assert np.max(np.abs(flat.fundamental(q).div_H - jet.fundamental(q).div_H)) <= 1e-15
    assert np.max(np.abs(flat.sectional - jet.sectional)) <= 1e-15
    # the integral reports, field for field
    idents = [i for i in available_identities(flat.k) if i != "smix_lemma"]
    grid = [8 if a in flat_scn.split.depends_on else 4 for a in range(flat.n)]
    reports = [[r.to_dict() for r in integral_checks_batch(s.chart, s.split, grid, idents)]
               for s in (flat_scn, jet_scn)]
    assert reports[0] == reports[1]


def test_pair_predicates():
    flat = ChartManifold([Axis(0.0, TWO_PI)] * 3,
                         [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]])
    pts = sample_points(flat, 10, np.random.default_rng(14))
    res = pair_predicates(SplitContext(flat, coordinate_split((1, 1, 1)), pts), 1, 2)
    assert res["mixed_tg"] and res["mixed_int"]
    assert res["sup_h_cross"] == 0.0

    # multiply warped products are mixed totally geodesic and mixed integrable
    scn = kproduct_catalog()["warped_t4_k4"]()
    ctx = SplitContext(scn.chart, scn.split, scn.sample(10, np.random.default_rng(15)))
    for i in range(1, 5):
        for j in range(i + 1, 5):
            res = pair_predicates(ctx, i, j)
            assert res["mixed_tg"], (i, j, res)
            assert res["mixed_int"], (i, j, res)

    # the twisted pair of the twisted torus is not mixed integrable
    scn = build_twisted_torus((1, 1, 1))
    ctx = SplitContext(scn.chart, scn.split, scn.sample(10, np.random.default_rng(16)))
    res13 = pair_predicates(ctx, 1, 3)
    assert not res13["mixed_int"]
    assert not res13["mixed_tg"]
    res12 = pair_predicates(ctx, 1, 2)
    assert res12["mixed_int"] and res12["mixed_tg"]


def test_untwisted_torus_is_a_product():
    scn = build_twisted_torus((1, 1, 1), twist="0")
    pts = scn.sample(8, np.random.default_rng(19))
    ctx = SplitContext(scn.chart, scn.split, pts)
    for r in (1, 2):
        for q in subsets(r, 3):
            data = ctx.fundamental(q)
            assert np.max(np.abs(data.h_frame), initial=0.0) == 0.0
            assert np.max(np.abs(data.t_frame), initial=0.0) == 0.0
            assert np.max(np.abs(data.H_frame), initial=0.0) == 0.0


def test_nonperiodic_twist_rejected():
    # a quarter turn per period maps the first distribution onto the second
    with pytest.raises(GeometryError, match="distribution 1 not periodic along axis 3"):
        build_twisted_torus((1, 1, 1), twist="0.25*x3")
    with pytest.raises(GeometryError, match="distribution 2 not periodic along axis 1"):
        build_warped_twisted(twist="0.25*x1")


def test_constant_warp_is_a_direct_product():
    scn = build_warped(1, (1,), ("2",), name="warped_const")
    pts = scn.sample(10, np.random.default_rng(20))
    ctx = SplitContext(scn.chart, scn.split, pts)
    for i in (1, 2):
        assert np.max(np.abs(ctx.H_values((i,)))) == 0.0
    assert np.max(np.abs(ctx.smix())) == 0.0


@pytest.mark.parametrize("name", sorted(kproduct_catalog()))
def test_split_depends_on_is_the_axes_its_frame_entries_read(name):
    split = kproduct_catalog()[name]().split
    assert split.depends_on == frozenset().union(
        *(variables(e) for row in split.frame.rows for e in row))


def test_split_depends_on_is_derived_from_the_frame():
    assert coordinate_split((1, 2)).depends_on == frozenset()
    assert SplitStructure((1, 1), [["1", "0"], ["0", "2 + sin(x2)"]]).depends_on == {1}
    assert build_twisted_torus((1, 1, 1), twist="sin(x1)*cos(x2)").split.depends_on == {0, 1}
    assert build_warped_twisted(twist="x1 + sin(x3)").split.depends_on == {0, 2}
    # a split without a frame reads every axis
    assert SplitStructure((1, 2)).depends_on == {0, 1, 2}


@pytest.mark.parametrize("frame", [
    [["1", "0"], ["0", "1"]],
    [["1", "0", "0"], ["0", "1", "0"], ["0", "0"]],
])
def test_frame_that_is_not_n_by_n_rejected(frame):
    with pytest.raises(GeometryError, match="spanning frame must be an n x n matrix"):
        SplitStructure((1, 2), frame)


@pytest.mark.parametrize("twist, grid", [
    ("sin(x{n})", [4, 4, 32]),
    ("sin(x1)", [32, 4, 4]),
    ("sin(x2) + cos(x3)", [4, 32, 32]),
    ("0", [4, 4, 4]),
])
def test_twisted_torus_grid_resolves_the_axes_the_twist_reads(twist, grid):
    assert build_twisted_torus((1, 1, 1), twist=twist).meta["integral_grid"] == grid


def test_nonpositive_warp_rejected():
    with pytest.raises(GeometryError, match="not positive"):
        build_warped(1, (1,), ("sin(x1)",))


def test_nonorthogonal_blocks_rejected():
    flat = ChartManifold([Axis(0.0, TWO_PI)] * 3,
                         [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]])

    # the first two vectors meet at the same angle everywhere, the second
    # and the third only where sin(x1) != 0: not at the first point
    skew = [["1", "0.5", "0"], ["0", "1", "0.5*sin(x1)"], ["0", "0", "1"]]
    pts = np.array([[0.0, 1.0, 2.0], [1.0, 2.0, 0.5]])
    message = r"spanning blocks 1 and 2 are not orthogonal at \[0\.0, 1\.0, 2\.0\] "
    with pytest.raises(GeometryError, match=message + r"\(inner product 5\.00e-01\)"):
        SplitContext(flat, SplitStructure((1, 1, 1), skew), pts)
    skew[0][1] = "0"
    with pytest.raises(GeometryError, match=r"spanning blocks 2 and 3 are not orthogonal "
                                            r"at \[1\.0, 2\.0, 0\.5\]"):
        SplitContext(flat, SplitStructure((1, 1, 1), skew), pts)


@pytest.mark.parametrize("order", ["alone", "first", "second"])
def test_orthogonality_gate_judges_each_point_alone(order):
    # g = I with a block inner product of 5e-9 (gate 2e-9) at [0.1, 0.2],
    # next to an orthogonal point with g = 20 I, whose max |g| must not
    # raise the gate of the other
    bad = (np.eye(2), np.array([[1.0, 0.0], [5e-9, 1.0]]), [0.1, 0.2])
    good = (20.0 * np.eye(2), np.eye(2), [0.3, 0.4])
    batch = {"alone": [bad], "first": [bad, good], "second": [good, bad]}[order]
    g, vectors, pts = (np.array(a) for a in zip(*batch))
    with pytest.raises(GeometryError, match=r"spanning blocks 1 and 2 are not orthogonal at "
                                            r"\[0\.1, 0\.2\] \(inner product 5\.00e-09\)"):
        gram_schmidt(g, vectors, pts, [range(0, 1), range(1, 2)])


def test_rank_deficient_frame_rejected():
    # two equal vectors in different blocks: rejected as non-orthogonal
    # blocks before Gram-Schmidt sees the rank deficiency
    flat = ChartManifold([Axis(0.0, TWO_PI)] * 2, [["1", "0"], ["0", "1"]])

    bad = [["1", "0"], ["1", "0"]]
    with pytest.raises(GeometryError):
        SplitContext(flat, SplitStructure((1, 1), bad),
                     sample_points(flat, 3, np.random.default_rng(18)))


def test_rank_deficient_frame_names_its_point():
    flat = ChartManifold([Axis(0.0, TWO_PI)] * 2, [["1", "0"], ["0", "1"]])

    # orthogonal blocks, but the second vector vanishes where sin(x1) = 0
    degenerate = [["1", "0"], ["0", "sin(x1)"]]

    pts = np.array([[1.0, 2.0], [0.0, 0.5], [2.0, 1.0]])
    with pytest.raises(GeometryError, match=r"rank deficient at \[0\.0, 0\.5\]"):
        SplitContext(flat, SplitStructure((1, 1), degenerate), pts)


@pytest.mark.parametrize("dims, frame, pts, bad", [
    # the first two rows are equal where x1 = 0: the factorisation fails there
    ((2, 1), [["1", "1", "0"], ["cos(x1)", "1", "0"], ["0", "0", "1"]],
     [[1.0, 2.0, 0.5], [0.0, 0.5, 0.5], [2.0, 1.0, 0.5]], [0.0, 0.5, 0.5]),
    # it succeeds, but with a squared pivot of 2.5e-25 at x1 = 0.5
    ((1, 1), [["1", "0"], ["0", "0.000000000001*x1"]],
     [[2.0, 1.0], [0.5, 0.3], [1.0, 2.0]], [0.5, 0.3]),
])
def test_dependent_frame_rows_name_the_first_bad_point(dims, frame, pts, bad):
    n = sum(dims)
    flat = ChartManifold([Axis(0.0, TWO_PI)] * n, coordinate_split(dims).frame.rows)
    message = "rank deficient at " + re.escape(str(bad))
    with pytest.raises(GeometryError, match=message):
        SplitContext(flat, SplitStructure(dims, frame), np.array(pts))


def sequential_gram_schmidt(g, vectors, points):
    """Sequential modified Gram-Schmidt of the rows of ``vectors``
    ``(..., v, a)`` in the metric ``g`` ``(..., a, b)``, one projection per
    pair of rows; the same code runs on jets and on plain arrays."""
    out = []
    for v in range(hd.value_of(vectors).shape[-2]):
        w = vectors[..., v, :]
        for e in out:
            c = hd.einsum("...a,...ab,...b->...", w, g, e)
            w = w - hd.einsum("...,...a->...a", c, e)
        nrm2 = hd.einsum("...a,...ab,...b->...", w, g, w)
        bad = np.flatnonzero(hd.value_of(nrm2) <= 1e-24)
        if bad.size:
            node = points.reshape(-1, points.shape[-1])[bad[0]]
            raise GeometryError(f"spanning frame is rank deficient at {node.tolist()}")
        out.append(hd.einsum("...,...a->...a", 1.0 / hd.sqrt(nrm2), w))
    return hd.einsum("...av->...va", hd.stack(out))


def random_field(rng, xs, shape):
    """A jet of entries ``a + b sin(x_i) + c cos(x_j)``, random ``a, b, c, i, j``."""
    n = len(xs)
    entries = np.empty(shape, dtype=object)
    for idx in np.ndindex(*shape):
        a, b, c = rng.uniform(-1.0, 1.0, size=3)
        i, j = rng.integers(n, size=2)
        entries[idx] = a + b * hd.sin(xs[i]) + c * hd.cos(xs[j])
    return hd.stack(entries.tolist())


def relative_error(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_cholesky_frame_matches_sequential_gram_schmidt(n):
    rng = np.random.default_rng(n)
    pts = rng.uniform(0.0, TWO_PI, size=(7, n))
    xs = hd.seed_jets(pts)
    A = random_field(rng, xs, (n, n))
    g = hd.einsum("...ac,...bc->...ab", A, A) + n * np.eye(n)  # SPD
    frame = random_field(rng, xs, (n, n)) * 0.3 + np.eye(n)
    for vectors in (frame, frame.val):  # a frame that moves, and a constant one
        got = gram_schmidt(g, vectors, pts)
        want = sequential_gram_schmidt(g, hd.as_jet(vectors, g), pts)
        for slot in ("val", "grad", "hess"):
            assert relative_error(getattr(got, slot), getattr(want, slot)) <= 1e-12, slot
    # the value-only path
    got = gram_schmidt(g.val, frame.val, pts)
    assert relative_error(got, sequential_gram_schmidt(g.val, frame.val, pts)) <= 1e-12


@pytest.mark.parametrize("name", sorted(kproduct_catalog()))
def test_frame_jet_is_exactly_zero_along_held_axes(name):
    scn = kproduct_catalog()[name]()
    pts = scn.sample(12, np.random.default_rng(21))
    ctx = SplitContext(scn.chart, scn.split, pts)
    seeded = sorted(scn.chart.depends_on | scn.split.depends_on)
    held = set(range(scn.chart.dim)) - set(seeded)
    assert held
    # the context's jets carry one slot per seeded axis
    m = len(seeded)
    assert ctx.frame.axes == seeded
    assert ctx.E.grad.shape[-1] == m and ctx.E.hess.shape[-2:] == (m, m)
    g = ctx.frame.g
    assert g.grad.shape[-1] == m if scn.chart.depends_on else not isinstance(g, hd.HyperDual)
    # differentiated along every axis, the frame does not move along the held ones
    full = ChartFrame(scn.chart, pts)
    E = gram_schmidt(full.g, hd.stack(scn.split.frame(full.coords)), pts)
    for a in held:
        assert np.all(E.grad[..., a] == 0.0)
        assert np.all(E.hess[..., a, :] == 0.0)
        assert np.all(E.hess[..., :, a] == 0.0)
    # and along the seeded ones it moves as the context's slots say
    np.testing.assert_allclose(ctx.E.grad, E.grad[..., seeded], rtol=0, atol=1e-13)
    np.testing.assert_allclose(ctx.E.hess, E.hess[..., seeded, :][..., seeded],
                               rtol=0, atol=1e-13)


def test_non_spd_metric_names_its_point():
    chart = ChartManifold([Axis(0.0, TWO_PI)] * 3,
                          [["sin(x1)", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]])
    pts = np.array([[1.0, 0.5, 0.5], [4.0, 0.5, 0.25], [5.0, 1.0, 1.0]])
    with pytest.raises(GeometryError,
                       match=r"metric not positive definite at \[4\.0, 0\.5, 0\.25\]"):
        pointwise_fields(chart, coordinate_split((1, 2)), pts, ["main"])
