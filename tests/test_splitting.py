import math

import numpy as np
import pytest

from splitgeom import hyperdual as hd
from splitgeom.chart import Axis, ChartManifold, GeometryError, divergence, sample_points
from splitgeom.expr import parse_expr
from splitgeom.identities import pointwise_fields
from splitgeom.scenarios import (
    WarpedSpec,
    build_twisted_torus,
    build_warped,
    build_warped_twisted,
    kproduct_catalog,
    twisted_frame_oracle,
    warped_checks,
)
from splitgeom.splitting import (
    SplitContext,
    SplitStructure,
    SubsetIndex,
    coordinate_split,
    pair_predicates,
    subsets,
)

TWO_PI = 2 * math.pi


def comb(k, r):
    return math.comb(k, r)


def test_subsets_counts_and_order():
    assert [s.q for s in subsets(1, 3)] == [(1,), (2,), (3,)]
    assert [s.q for s in subsets(2, 3)] == [(1, 2), (1, 3), (2, 3)]
    assert len(subsets(2, 3)) == 3  # the (k-1)-subsets of k=3 number k
    assert len(subsets(2, 5)) == 10
    for k in range(1, 9):
        for r in range(1, k + 1):
            assert len(subsets(r, k)) == comb(k, r)
    with pytest.raises(ValueError):
        subsets(0, 3)
    with pytest.raises(ValueError):
        subsets(4, 3)


def test_subset_index_validation():
    with pytest.raises(ValueError):
        SubsetIndex((2, 1))
    with pytest.raises(ValueError):
        SubsetIndex((1, 1))
    q = SubsetIndex((1, 3))
    assert q.complement(4).q == (2, 4)


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


def test_twisted_frame_orthonormality_and_projectors():
    scn = build_twisted_torus(3, (1, 1, 1))
    pts = scn.sample(40, np.random.default_rng(1))
    ctx = SplitContext(scn.chart, scn.split, pts)
    assert ctx.orthonormality_residual() <= 1e-13

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

    def scaled(coords):
        ref = coords[0]
        z = hd.constant_like(ref, 0.0)

        def e(*vals):
            return [hd.as_jet(v, ref) if not isinstance(v, hd.HyperDual) else v for v in vals]

        return [e(2.0, 0.0, 0.0), e(0.0, -3.0, 0.0), e(0.0, 0.0, 0.5)]

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
        data = ctx.fundamental(SubsetIndex(q))
        # the (x1,x2) block is a warped surface: h_1 need not vanish; the
        # x3 block is parallel: everything vanishes
    data = ctx.fundamental(SubsetIndex((2,)))
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


def test_twisted_torus_against_bracket_oracle():
    scn = build_twisted_torus(3, (1, 1, 1))
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
        qi = SubsetIndex(q)
        data = ctx.fundamental(qi)
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
                    total += ctx.H_values(SubsetIndex((i,)))
                proj = np.zeros_like(Hq)
                for j in q.complement(k):
                    proj += np.einsum("...ab,...b->...a", P[..., j - 1, :, :], total)
                assert np.max(np.abs(Hq - proj)) <= 1e-10


def test_warped_mean_curvature_closed_forms():
    for name in ["warped_t2", "warped_t3_fiber2", "warped_t4_k3_ortho",
                 "warped_t5_k3_multi"]:
        scn = kproduct_catalog()[name]()
        assert scn.meta["sec2_exact"]
        pts = scn.sample(50, np.random.default_rng(8))
        res = warped_checks(scn, pts)
        assert res["mean_curvature"] <= 1e-9
        assert res["div_mean_curvature"] <= 1e-9
        assert res["smix_warped"] <= 1e-9
        assert res["base_totally_geodesic"] <= 1e-10


def test_warped_two_warps_on_line_base_not_sec2_exact():
    scn = kproduct_catalog()["warped_t3_k3"]()
    assert not scn.meta["sec2_exact"]
    pts = scn.sample(50, np.random.default_rng(9))
    res = warped_checks(scn, pts)
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


def test_partial_divergence_consistency():
    scn = kproduct_catalog()["warped_t3_k3"]()
    m, split = scn.chart, scn.split
    rng = np.random.default_rng(11)
    pts = scn.sample(15, rng)

    def field(coords):
        return [hd.sin(coords[1]) * hd.cos(coords[0]),
                hd.as_jet(1.0, coords[0]) + hd.sin(coords[2]),
                hd.cos(coords[0]) * hd.cos(coords[2])]

    ctx = SplitContext(m, split, pts)
    comps = hd.stack(field(ctx.frame.coords), ref=ctx.frame.coords[0])
    full = ctx.partial_divergence(SubsetIndex((1, 2, 3)), comps)
    coord_formula = divergence(m, field, pts)
    np.testing.assert_allclose(full, coord_formula, atol=1e-10)

    part_a = ctx.partial_divergence(SubsetIndex((1,)), comps)
    part_b = ctx.partial_divergence(SubsetIndex((2, 3)), comps)
    np.testing.assert_allclose(part_a + part_b, coord_formula, atol=1e-10)


def test_partial_divergence_mean_curvature_identity():
    # Div restricted to the complement of block i equals Div H_i + |H_i|^2
    for name in ["warped_t3_k3", "warped_twisted_t3", "twisted_torus_k3"]:
        scn = kproduct_catalog()[name]()
        pts = scn.sample(20, np.random.default_rng(12))
        ctx = SplitContext(scn.chart, scn.split, pts)
        for i in range(1, scn.k + 1):
            q = SubsetIndex((i,))
            data = ctx.fundamental(q)
            div_full = ctx.divergence_values(data.H)
            div_comp = ctx.partial_divergence(q.complement(scn.k), data.H)
            np.testing.assert_allclose(div_comp, div_full + data.H_norm2, atol=1e-9)


def test_divergence_frame_independence():
    # coordinate formula vs orthonormal-frame sum for 100 random fields/points
    scn = kproduct_catalog()["warped_t3_k3"]()
    rng = np.random.default_rng(13)
    pts = scn.sample(100, rng)
    ctx = SplitContext(scn.chart, scn.split, pts)
    coeff = rng.uniform(-1, 1, size=(100, 3, 4))
    for t in range(3):  # 3 fields x 100 points
        def field(coords, t=t):
            out = []
            for a in range(3):
                c = coeff[t, a]
                out.append(c[0] * hd.sin(coords[0]) + c[1] * hd.cos(coords[1])
                           + c[2] * hd.sin(coords[2]) + hd.as_jet(c[3], coords[0]))
            return out

        comps = hd.stack(field(ctx.frame.coords), ref=ctx.frame.coords[0])
        frame_sum = ctx.partial_divergence(SubsetIndex((1, 2, 3)), comps)
        coord = ctx.divergence_values(comps)
        assert np.max(np.abs(frame_sum - coord)) <= 1e-10


def test_pair_predicates():
    flat = ChartManifold([Axis(0.0, TWO_PI)] * 3,
                         [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]])
    pts = sample_points(flat, 10, np.random.default_rng(14))
    res = pair_predicates(flat, coordinate_split((1, 1, 1)), 1, 2, pts)
    assert res["mixed_tg"] and res["mixed_int"]
    assert res["sup_h_cross"] == 0.0

    # multiply warped products are mixed totally geodesic and mixed integrable
    scn = kproduct_catalog()["warped_t4_k4"]()
    pts = scn.sample(10, np.random.default_rng(15))
    for i in range(1, 5):
        for j in range(i + 1, 5):
            res = pair_predicates(scn.chart, scn.split, i, j, pts)
            assert res["mixed_tg"], (i, j, res)
            assert res["mixed_int"], (i, j, res)

    # the twisted pair of the twisted torus is not mixed integrable
    scn = build_twisted_torus(3, (1, 1, 1))
    pts = scn.sample(10, np.random.default_rng(16))
    res13 = pair_predicates(scn.chart, scn.split, 1, 3, pts)
    assert not res13["mixed_int"]
    assert not res13["mixed_tg"]
    res12 = pair_predicates(scn.chart, scn.split, 1, 2, pts)
    assert res12["mixed_int"] and res12["mixed_tg"]


def test_untwisted_torus_is_a_product():
    scn = build_twisted_torus(3, (1, 1, 1), twist="0")
    pts = scn.sample(8, np.random.default_rng(19))
    ctx = SplitContext(scn.chart, scn.split, pts)
    for r in (1, 2):
        for q in subsets(r, 3):
            data = ctx.fundamental(q)
            assert np.max(np.abs(data.h_frame), initial=0.0) == 0.0
            assert np.max(np.abs(data.t_frame), initial=0.0) == 0.0
            assert np.max(np.abs(data.H_frame), initial=0.0) == 0.0


def test_nonperiodic_twist_rejected():
    with pytest.raises(GeometryError, match="not periodic"):
        build_twisted_torus(3, (1, 1, 1), twist="0.5*x3")


def test_constant_warp_is_a_direct_product():
    scn = build_warped(WarpedSpec(1, (1,), ("2",)), name="warped_const")
    pts = scn.sample(10, np.random.default_rng(20))
    ctx = SplitContext(scn.chart, scn.split, pts)
    for i in (1, 2):
        assert np.max(np.abs(ctx.H_values(SubsetIndex((i,))))) == 0.0
    assert np.max(np.abs(ctx.smix())) == 0.0


def test_nonpositive_warp_rejected():
    with pytest.raises(GeometryError, match="not positive"):
        build_warped(WarpedSpec(1, (1,), ("sin(x1)",)))


def test_nonorthogonal_blocks_rejected():
    flat = ChartManifold([Axis(0.0, TWO_PI)] * 3,
                         [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]])

    def skew(coords):
        ref = coords[0]

        def e(*vals):
            return [hd.as_jet(v, ref) for v in vals]

        return [e(1.0, 0.5, 0.0), e(0.0, 1.0, 0.0), e(0.0, 0.0, 1.0)]

    with pytest.raises(GeometryError):
        SplitContext(flat, SplitStructure((1, 1, 1), skew),
                     sample_points(flat, 4, np.random.default_rng(17)))


def test_rank_deficient_frame_rejected():
    flat = ChartManifold([Axis(0.0, TWO_PI)] * 2, [["1", "0"], ["0", "1"]])

    def bad(coords):
        ref = coords[0]
        one = hd.constant_like(ref, 1.0)
        zero = hd.constant_like(ref, 0.0)
        return [[one, zero], [one, zero]]

    with pytest.raises(GeometryError):
        SplitContext(flat, SplitStructure((1, 1), bad),
                     sample_points(flat, 3, np.random.default_rng(18)), validate=False)


def test_rank_deficient_frame_names_its_point():
    flat = ChartManifold([Axis(0.0, TWO_PI)] * 2, [["1", "0"], ["0", "1"]])

    def degenerate(coords):
        # orthogonal blocks, but the second vector vanishes where sin(x1) = 0
        return [[1.0, 0.0], [0.0, hd.sin(coords[0])]]

    pts = np.array([[1.0, 2.0], [0.0, 0.5], [2.0, 1.0]])
    with pytest.raises(GeometryError, match=r"rank deficient at \[0\.0, 0\.5\]"):
        SplitContext(flat, SplitStructure((1, 1), degenerate), pts)


def test_non_spd_metric_names_its_point():
    chart = ChartManifold([Axis(0.0, TWO_PI)] * 3,
                          [["sin(x1)", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]])
    pts = np.array([[1.0, 0.5, 0.5], [4.0, 0.5, 0.25], [5.0, 1.0, 1.0]])
    with pytest.raises(GeometryError,
                       match=r"metric not positive definite at \[4\.0, 0\.5, 0\.25\]"):
        pointwise_fields(chart, coordinate_split((1, 2)), pts, ["main"])
