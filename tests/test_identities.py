import math

import numpy as np
import pytest

from splitgeom.chart import Axis, ChartManifold, NonClosedChartError, sample_points
from splitgeom.identities import (
    Tolerances,
    _Evaluator,
    available_identities,
    integral_checks_batch,
    pointwise_checks,
    pointwise_fields,
    propagation_suprema,
    select_identities,
    umbilicity_residual,
)
from splitgeom.scenarios import kproduct_catalog
from splitgeom.splitting import SplitContext, SubsetIndex, coordinate_split, subsets

TWO_PI = 2 * math.pi


def flat3():
    return ChartManifold([Axis(0.0, TWO_PI)] * 3,
                         [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]])


def test_product_metric_all_residuals_zero():
    m = flat3()
    split = coordinate_split((1, 1, 1))
    pts = sample_points(m, 10, np.random.default_rng(0))
    fields = pointwise_fields(m, split, pts, ["main", "aux:2", "companion"])
    assert np.max(np.abs(fields["main"])) == 0.0
    assert np.max(np.abs(fields["aux:2"])) == 0.0
    assert np.max(np.abs(fields["companion"])) == 0.0


def test_main_residual_twisted_k3():
    scn = kproduct_catalog()["twisted_torus_k3"]()
    pts = scn.sample(20, np.random.default_rng(1))
    fields = pointwise_fields(scn.chart, scn.split, pts, ["main"])
    assert np.max(np.abs(fields["main"])) <= 1e-8
    # the right side is a cancellation of genuinely non-zero terms
    assert np.max(fields["max_term:main"]) > 1e-2


def test_main_residual_warped_k4():
    scn = kproduct_catalog()["warped_t4_k4"]()
    pts = scn.sample(50, np.random.default_rng(2))
    res = pointwise_fields(scn.chart, scn.split, pts, ["main"])["main"]
    assert np.max(np.abs(res)) <= 1e-8


def test_main_residual_warped_twisted_everything_nonzero():
    scn = kproduct_catalog()["warped_twisted_t3"]()
    pts = scn.sample(50, np.random.default_rng(3))
    ev = _Evaluator(SplitContext(scn.chart, scn.split, pts))
    m = ev.main()
    assert np.max(np.abs(m["residual"])) <= 1e-8
    assert np.min(np.abs(m["div"])) > 1e-6  # the divergence itself is nonzero


def test_main_k2_is_the_two_distribution_identity_bit_for_bit():
    scn = kproduct_catalog()["twisted_torus_k2"]()
    pts = scn.sample(30, np.random.default_rng(4))
    ctx = SplitContext(scn.chart, scn.split, pts)
    ev = _Evaluator(ctx)
    got = ev.main()

    # classical form, replicated with the same primitives and summation order
    q1, q2 = subsets(1, 2)
    field = 1.0 * ctx.fundamental(q1).H
    field = field + 1.0 * ctx.fundamental(q2).H
    div = ctx.divergence_values(field)
    rhs = 1 * ctx.smix()
    for q in (q1, q2):
        d = ctx.fundamental(q)
        rhs = rhs + d.h_norm2 - d.H_norm2 - d.t_norm2
    walczak = div - rhs
    assert np.array_equal(got["residual"], walczak)


def test_aux_residuals_all_required_cases():
    rng = np.random.default_rng(5)
    cases = [("twisted_torus_k3", 2), ("warped_t3_k3", 2),
             ("warped_t4_k4", 2), ("warped_t4_k4", 3)]
    for name, r in cases:
        scn = kproduct_catalog()[name]()
        pts = scn.sample(30, rng)
        res = pointwise_fields(scn.chart, scn.split, pts, [f"aux:{r}"])[f"aux:{r}"]
        assert np.max(np.abs(res)) <= 1e-8, (name, r)


def test_aux_printed_variant_does_not_balance_on_warped():
    # the as-printed right-hand side differs by O(1) once mean curvatures
    # are non-zero; kept only as a reported diagnostic
    scn = kproduct_catalog()["warped_t4_k4"]()
    pts = scn.sample(30, np.random.default_rng(6))
    fields = pointwise_fields(scn.chart, scn.split, pts, ["aux_printed:2", "aux:2"])
    assert np.max(np.abs(fields["aux:2"])) <= 1e-12
    assert np.max(np.abs(fields["aux_printed:2"])) > 1e-1


def test_aux_r_out_of_range():
    scn = kproduct_catalog()["twisted_torus_k3"]()
    pts = scn.sample(3, np.random.default_rng(7))
    with pytest.raises(ValueError, match="r out of range"):
        pointwise_fields(scn.chart, scn.split, pts, ["aux:3"])
    with pytest.raises(ValueError, match="r out of range"):
        pointwise_fields(scn.chart, scn.split, pts, ["aux:1"])


def test_companion_residual_and_linear_combination():
    for name in ["twisted_torus_k3", "warped_t4_k4", "warped_twisted_t3"]:
        scn = kproduct_catalog()[name]()
        pts = scn.sample(25, np.random.default_rng(8))
        ev = _Evaluator(SplitContext(scn.chart, scn.split, pts))
        comp = ev.companion()
        assert np.max(np.abs(comp["residual"])) <= 1e-8
        main = ev.main()
        aux = ev.aux(scn.k - 1)
        delta = comp["residual"] - (main["residual"] - aux["residual"])
        assert np.max(np.abs(delta)) <= 1e-9


def test_smix_lemma_everywhere():
    rng = np.random.default_rng(9)
    for name, builder in kproduct_catalog().items():
        scn = builder()
        pts = scn.sample(25, rng)
        [rep], _ = pointwise_checks(scn.chart, scn.split, pts, ["smix_lemma"],
                                    scenario=name)
        assert rep.max_abs_residual <= 1e-10, name


def test_k3_display_equals_aux_rhs_and_vanishes():
    scn = kproduct_catalog()["warped_twisted_t3"]()
    pts = scn.sample(30, np.random.default_rng(10))
    ctx = SplitContext(scn.chart, scn.split, pts)
    ev = _Evaluator(ctx)
    H = [ctx.H_values(q) for q in subsets(1, 3)]
    disp = np.zeros(pts.shape[0])
    for q in subsets(1, 3):
        disp = disp + ctx.fundamental(q).H_norm2
    for i in range(3):
        for j in range(i + 1, 3):
            disp = disp + 2.0 * ctx.inner_values(H[i], H[j])
    for q in subsets(2, 3):
        disp = disp - ctx.fundamental(q).H_norm2
    aux = ev.aux(2)
    scale = 1.0 + np.max(aux["max_term"])
    assert np.max(np.abs(disp - aux["rhs"])) <= 1e-12 * scale
    assert np.max(np.abs(disp)) <= 1e-12 * scale


def test_k4_display_with_exclusion_reading():
    scn = kproduct_catalog()["warped_t4_k4"]()
    pts = scn.sample(25, np.random.default_rng(11))
    ctx = SplitContext(scn.chart, scn.split, pts)
    ev = _Evaluator(ctx)
    H1 = [ctx.H_values(q) for q in subsets(1, 4)]
    disp = np.zeros(pts.shape[0])
    for q in subsets(1, 4):
        disp = disp + 2.0 * ctx.fundamental(q).H_norm2
    for q in subsets(2, 4):
        Hq = ctx.H_values(q)
        for i in range(1, 5):
            if i not in q:
                disp = disp + ctx.inner_values(H1[i - 1], Hq)
        disp = disp - ctx.fundamental(q).H_norm2
    aux = ev.aux(2)
    scale = 1.0 + np.max(aux["max_term"])
    assert np.max(np.abs(disp - aux["rhs"])) <= 1e-12 * scale


def test_bm_rewriting_of_companion_k3():
    # S_mix - sum|H_i|^2 - sum<H_i,H_j> + (1/2) sum (|h|^2 - |T|^2)
    # equals half of (main rhs - aux rhs)
    for name in ["warped_twisted_t3", "warped_t3_k3"]:
        scn = kproduct_catalog()[name]()
        pts = scn.sample(25, np.random.default_rng(12))
        ev = _Evaluator(SplitContext(scn.chart, scn.split, pts))
        bm = ev.ck2_k3_display()["rhs"]
        m = ev.main()
        a = ev.aux(2)
        scale = 1.0 + np.max(m["max_term"])
        assert np.max(np.abs(bm - 0.5 * (m["rhs"] - a["rhs"]))) <= 1e-12 * scale


def test_integral_checks_product_exactly_zero():
    m = flat3()
    split = coordinate_split((1, 1, 1))
    [rep] = integral_checks_batch(m, split, 4, ["main"], scenario="product")
    assert rep.integral_value == 0.0
    assert rep.integral_ratio == 0.0
    assert rep.verdict == "pass"


def test_integral_checks_catalog_closed_scenarios():
    for name in ["twisted_torus_k3", "warped_t3_k3", "warped_twisted_t3"]:
        scn = kproduct_catalog()[name]()
        grid = scn.meta["integral_grid"]
        for ident in ["main", "aux:2", "companion"]:
            [rep] = integral_checks_batch(scn.chart, scn.split, grid, [ident],
                                          scenario=name)
            assert rep.verdict == "pass", (name, ident, rep.integral_ratio)
            assert rep.integral_ratio <= 1e-10
            assert rep.stokes_ratio <= 1e-10


def test_integral_ck2_display_k3():
    scn = kproduct_catalog()["warped_twisted_t3"]()
    [rep] = integral_checks_batch(scn.chart, scn.split, scn.meta["integral_grid"],
                                  ["ck2_k3_display"], scenario=scn.name)
    assert rep.verdict == "pass"
    assert rep.integral_ratio <= 1e-10


def test_integral_grid_convergence():
    scn = kproduct_catalog()["warped_t3_conv"]()
    r8 = integral_checks_batch(scn.chart, scn.split, [8, 4, 4],
                                ["main"])[0].integral_ratio
    r16 = integral_checks_batch(scn.chart, scn.split, [16, 4, 4],
                                ["main"])[0].integral_ratio
    assert r8 > 1e-12  # the residue is visible at the coarse grid
    assert r16 <= r8 / 100.0
    r32 = integral_checks_batch(scn.chart, scn.split, [32, 4, 4],
                                ["main"])[0].integral_ratio
    assert r32 <= 1e-10


def test_integral_requires_closed_chart():
    m = ChartManifold([Axis(0.0, TWO_PI), Axis(0.0, 1.0, periodic=False)],
                      [["1", "0"], ["0", "1"]])
    with pytest.raises(NonClosedChartError):
        integral_checks_batch(m, coordinate_split((1, 1)), 8, ["main"])


def test_propagation_on_warped_k4():
    scn = kproduct_catalog()["warped_t4_k4"]()
    pts = scn.sample(40, np.random.default_rng(13))
    sup_h, sup_t = propagation_suprema(scn.chart, scn.split, pts)
    assert sup_h <= 1e-10
    assert sup_t <= 1e-10


def test_umbilicity_identity_on_orthogonal_warped():
    for name in ["warped_t4_k3_ortho", "warped_t5_k3_multi", "warped_t2",
                 "warped_t3_fiber2"]:
        scn = kproduct_catalog()[name]()
        pts = scn.sample(25, np.random.default_rng(14))
        assert umbilicity_residual(scn.chart, scn.split, pts) <= 1e-9, name


def test_pointwise_check_report_shape():
    scn = kproduct_catalog()["twisted_torus_k3"]()
    pts = scn.sample(10, np.random.default_rng(15))
    [rep], _ = pointwise_checks(scn.chart, scn.split, pts, ["main"], scenario=scn.name)
    assert rep.verdict == "pass"
    assert rep.kind == "pointwise"
    assert rep.n_points == 10
    d = rep.to_dict()
    assert "wall_time" not in d
    assert d["identity"] == "main"


def test_available_identities():
    assert available_identities(2) == ["main", "smix_lemma"]
    assert available_identities(4) == ["main", "smix_lemma", "aux:2", "aux:3", "companion"]
    assert select_identities(3, "integral") == ["main", "aux:2", "companion",
                                                "ck2_k3_display"]
    assert select_identities(4, "integral") == ["main", "aux:2", "aux:3", "companion"]
    # a filter keeps its order and drops the names without a check of that kind
    wanted = ["ck2_k3_display", "aux_printed:2", "smix_lemma", "main"]
    assert select_identities(3, "pointwise", wanted) == ["aux_printed:2", "smix_lemma",
                                                         "main"]
    assert select_identities(3, "integral", wanted) == ["ck2_k3_display", "main"]
    with pytest.raises(ValueError, match="not defined for k=2"):
        select_identities(2, "integral", ["ck2_k3_display"])
    with pytest.raises(ValueError, match="unknown identity"):
        select_identities(3, "pointwise", ["aux"])


def test_deterministic_under_threads():
    scn = kproduct_catalog()["warped_t3_k3"]()
    grid = [16, 4, 4]
    [a] = integral_checks_batch(scn.chart, scn.split, grid, ["main"], chunk=64, threads=1)
    [b] = integral_checks_batch(scn.chart, scn.split, grid, ["main"], chunk=64, threads=4)
    assert a.integral_value == b.integral_value
    assert a.normalizer == b.normalizer
