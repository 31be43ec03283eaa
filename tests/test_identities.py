import concurrent.futures
import dataclasses
import functools
import itertools
import json
import math
import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitgeom import cli, expr, hyperdual, identities, splitting
from splitgeom.chart import (Axis, ChartFrame, ChartManifold, GeometryError,
                             NonClosedChartError, rectangle_rule, sample_points)
from splitgeom.cli import HYPERSURFACE_SAMPLE_CAP, full_catalog
from splitgeom.identities import (
    BUNDLE,
    CHECKS,
    CONTEXT,
    GRID,
    INTEGRAL,
    POINTWISE,
    Tolerances,
    _Evaluator,
    available_identities,
    integral_checks_batch,
    pointwise_fields,
    run_checks,
    select_checks,
)
from splitgeom.hypersurface import GapError, hypersurface_catalog
from splitgeom.scenarios import build_twisted_torus, kproduct_catalog
from splitgeom.splitting import SplitContext, SplitStructure, coordinate_split, subsets

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
    m = ev.identity("main")
    assert np.max(np.abs(m["residual"])) <= 1e-8
    assert np.min(np.abs(m["div"])) > 1e-6  # the divergence itself is nonzero


def test_main_k2_is_the_two_distribution_identity_bit_for_bit():
    scn = kproduct_catalog()["twisted_torus_k2"]()
    pts = scn.sample(30, np.random.default_rng(4))
    ctx = SplitContext(scn.chart, scn.split, pts)
    ev = _Evaluator(ctx)
    got = ev.identity("main")

    # classical form, replicated with the same primitives and summation order
    q1, q2 = subsets(1, 2)
    div = 1.0 * ctx.fundamental(q1).div_H
    div = div + 1.0 * ctx.fundamental(q2).div_H
    rhs = 1 * ctx.smix()
    for q in (q1, q2):
        d = ctx.fundamental(q)
        rhs = rhs + d.h_norm2 - d.H_norm2 - d.t_norm2
    walczak = div - rhs
    assert np.array_equal(got["residual"], walczak)


def test_pointwise_note_names_the_point_that_sets_the_relative_residual():
    # the largest |residual| sits where the term scale is large; the verdict
    # reads the residual relative to 1 + the term scale, and so does the note
    check = next(c for c in CHECKS if c.name == "main" and c.kind == POINTWISE)
    values = {"residual": np.array([1e-9, -4e-9, 2e-9]),
              "max_term": np.array([0.0, 9.0, 0.5])}
    points = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [2.0, 2.0, 2.0]])
    report = identities._report("flat", identities.Row("main", check, ()), values.get,
                                Tolerances(), points, None, 0.0)
    assert report.max_abs_residual == 4e-9
    assert report.max_rel_residual == 2e-9 / 1.5
    assert report.note == "worst point [2.0, 2.0, 2.0]"


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
    # a right side sometimes quoted for aux:r, sum_q (|H_q|^2 + <V, W> -
    # r <H_q, W>), misses by O(1) once mean curvatures are non-zero
    scn = kproduct_catalog()["warped_t4_k4"]()
    pts = scn.sample(30, np.random.default_rng(6))
    ev = _Evaluator(SplitContext(scn.chart, scn.split, pts))
    aux = identities.FORMULAS["aux"](scn.k, 2)
    terms = ((1, "H2"), (1, "VW"), (-2, "HqW"))   # r = 2
    printed = identities.Formula(
        aux.lhs, tuple((c, (name, q)) for q in subsets(2, scn.k) for c, name in terms))
    assert np.max(np.abs(ev.sides(aux)["residual"])) <= 1e-12
    assert np.max(np.abs(ev.sides(printed)["residual"])) > 1e-1


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
        comp = ev.identity("companion")
        assert np.max(np.abs(comp["residual"])) <= 1e-8
        main = ev.identity("main")
        aux = ev.identity("aux", scn.k - 1)
        delta = comp["residual"] - (main["residual"] - aux["residual"])
        assert np.max(np.abs(delta)) <= 1e-9


def test_smix_lemma_everywhere():
    rng = np.random.default_rng(9)
    for name, builder in kproduct_catalog().items():
        scn = builder()
        pts = scn.sample(25, rng)
        [rep], _ = run_checks(scn, select_checks(scn, ["smix_lemma"]), pts)
        assert rep.max_abs_residual <= 1e-10, name


def test_smix_lemma_row_keeps_the_bits_of_the_pair_split_sum():
    # 0 - (-2 S_mix + sum_i S_mix(D_i, D_i^perp)) and the term scale
    # max(0, |2 S_mix|, |sum|), with the sum taken from zero in label order
    rng = np.random.default_rng(13)
    for name, builder in kproduct_catalog().items():
        scn = builder()
        ev = _Evaluator(SplitContext(scn.chart, scn.split, scn.sample(20, rng)))
        total = np.zeros(20)
        for i in range(1, scn.k + 1):
            total = total + ev.ctx.smix_pairsplit(i)
        smix2 = 2.0 * ev.ctx.smix()
        row = ev.identity("smix_lemma")
        assert row["residual"].tobytes() == (smix2 - total).tobytes(), name
        assert (row["max_term"].tobytes()
                == np.maximum(np.abs(smix2), np.abs(total)).tobytes()), name


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
    aux = ev.identity("aux", 2)
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
    aux = ev.identity("aux", 2)
    scale = 1.0 + np.max(aux["max_term"])
    assert np.max(np.abs(disp - aux["rhs"])) <= 1e-12 * scale


def test_bm_rewriting_of_companion_k3():
    # S_mix - sum|H_i|^2 - sum<H_i,H_j> + (1/2) sum (|h|^2 - |T|^2)
    # equals half of (main rhs - aux rhs)
    for name in ["warped_twisted_t3", "warped_t3_k3"]:
        scn = kproduct_catalog()[name]()
        pts = scn.sample(25, np.random.default_rng(12))
        ev = _Evaluator(SplitContext(scn.chart, scn.split, pts))
        bm = ev.identity("ck2_k3_display")["rhs"]
        m = ev.identity("main")
        a = ev.identity("aux", 2)
        scale = 1.0 + np.max(m["max_term"])
        assert np.max(np.abs(bm - 0.5 * (m["rhs"] - a["rhs"]))) <= 1e-12 * scale


def _coefficients(lhs):
    out = {}
    for c, q in lhs:
        out[q] = out.get(q, 0) + c
    return {q: c for q, c in out.items() if c != 0}


@pytest.mark.parametrize("k", [3, 4, 5])
def test_companion_left_side_is_main_minus_aux(k):
    main, aux, companion = (identities.FORMULAS[name](k, *args) for name, args in
                            [("main", ()), ("aux", (k - 1,)), ("companion", ())])
    assert _coefficients(companion.lhs) == {q: 2 for q in subsets(1, k)}
    difference = _coefficients(main.lhs + tuple((-c, q) for c, q in aux.lhs))
    assert _coefficients(companion.lhs) == difference


def test_main_at_k2_counts_each_distribution_and_smix_once():
    main = identities.FORMULAS["main"](2)
    assert main.lhs == ((1, (1,)), (1, (2,)))
    assert [c for c, t in main.rhs if t == ("smix",)] == [1]


@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_aux_single_subset_coefficient_is_minus_binomial(k):
    for r in range(2, k):
        lhs = _coefficients(identities.FORMULAS["aux"](k, r).lhs)
        assert {lhs[q] for q in subsets(1, k)} == {-math.comb(k - 2, r - 1)}, (k, r)


def test_every_split_check_row_is_a_formula():
    split_rows = {c.name for c in CHECKS
                  if c.geometry == identities.CONTEXT and c.kind in (POINTWISE, INTEGRAL)}
    assert split_rows == set(identities.FORMULAS)


def test_every_check_and_formula_default_is_changed_by_some_row():
    # a default that no row changes is a constant, not a per-row switch
    formulas = [identities.FORMULAS[c.name](k, *args) for c in CHECKS if c.name in
                identities.FORMULAS for k in range(2, 6) for _, args in c.names(k)]
    unchanged = [f"{cls.__name__}.{f.name}"
                 for cls, rows in ((identities.Check, CHECKS), (identities.Formula, formulas))
                 for f in dataclasses.fields(cls) if f.default is not dataclasses.MISSING
                 and all(getattr(row, f.name) == f.default for row in rows)]
    assert not unchanged, f"defaults that no row changes: {unchanged}"


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
    prop = _Evaluator(SplitContext(scn.chart, scn.split, pts)).propagation()
    sup_h, sup_t = float(np.max(prop["sup_h"])), float(np.max(prop["sup_t"]))
    assert sup_h <= 1e-10
    assert sup_t <= 1e-10


def test_umbilicity_identity_on_orthogonal_warped():
    for name in ["warped_t4_k3_ortho", "warped_t5_k3_multi", "warped_t2",
                 "warped_t3_fiber2"]:
        scn = kproduct_catalog()[name]()
        pts = scn.sample(25, np.random.default_rng(14))
        ev = _Evaluator(SplitContext(scn.chart, scn.split, pts))
        assert np.max(ev.umbilicity()["residual"]) <= 1e-9, name


def test_warped_closed_forms_catch_a_jet_sin_with_a_wrong_gradient(monkeypatch):
    # the closed forms differentiate the warps with expr.diff trees on plain
    # values, so a defect of the jet calculus shows instead of cancelling
    scn = kproduct_catalog()["warped_t2"]()
    pts = scn.sample(8, np.random.default_rng(0))

    def sin(x):
        y = hyperdual.sin(x)
        if isinstance(y, hyperdual.HyperDual):
            y = hyperdual.HyperDual(y.val, 1.001 * y.grad, y.hess)
        return y

    monkeypatch.setitem(expr._FN_IMPL, "sin", sin)
    rows = [row for row in select_checks(scn) if row.name.startswith("warped_")]
    verdicts = {rep.identity: rep.verdict for rep in run_checks(scn, rows, pts)[0]}
    assert verdicts["warped_mean_curvature"] == "fail"


def test_pointwise_check_report_shape():
    scn = kproduct_catalog()["twisted_torus_k3"]()
    pts = scn.sample(10, np.random.default_rng(15))
    rows = [row for row in select_checks(scn, ["main"]) if row.check.kind == POINTWISE]
    [rep], _ = run_checks(scn, rows, pts)
    assert rep.verdict == "pass"
    assert rep.kind == "pointwise"
    assert rep.n_points == 10
    d = rep.to_dict()
    assert "wall_time" not in d
    assert d["identity"] == "main"


def test_available_identities():
    assert available_identities(2) == ["main", "smix_lemma"]
    assert available_identities(4) == ["main", "smix_lemma", "aux:2", "aux:3", "companion"]
    catalog = kproduct_catalog()
    for name, integral in [("twisted_torus_k3", ["main", "aux:2", "companion",
                                                 "ck2_k3_display"]),
                           ("twisted_torus_k4", ["main", "aux:2", "aux:3", "companion"])]:
        rows = select_checks(catalog[name]())
        assert [row.name for row in rows if row.check.kind == INTEGRAL] == integral
    # the k = 3 display is refused at k = 2 and k = 4, and a bare aux at any k
    for name in ("warped_t2", "twisted_torus_k4"):
        with pytest.raises(ValueError, match="unknown identity 'ck2_k3_display' for scenario"):
            select_checks(catalog[name](), ["ck2_k3_display"])
    with pytest.raises(ValueError, match="unknown identity 'aux' for scenario"):
        select_checks(catalog["twisted_torus_k3"](), ["aux"])


def test_adapters_refuse_names_without_a_check_of_their_kind():
    scn = kproduct_catalog()["twisted_torus_k3"]()
    pts = scn.sample(4, np.random.default_rng(27))
    with pytest.raises(ValueError, match="'ck2_k3_display' has no pointwise check"):
        pointwise_fields(scn.chart, scn.split, pts, ["ck2_k3_display"])
    with pytest.raises(ValueError, match="'smix_lemma' has no integral check"):
        integral_checks_batch(scn.chart, scn.split, 8, ["smix_lemma"])
    for name in ("bogus", "aux"):
        with pytest.raises(ValueError, match=f"unknown identity {name!r}"):
            pointwise_fields(scn.chart, scn.split, pts, [name])
        with pytest.raises(ValueError, match=f"unknown identity {name!r}"):
            integral_checks_batch(scn.chart, scn.split, 8, [name])
    k2 = kproduct_catalog()["warped_t2"]()
    with pytest.raises(ValueError, match="unknown identity 'ck2_k3_display'"):
        integral_checks_batch(k2.chart, k2.split, 8, ["ck2_k3_display"])


def test_integral_adapter_names_the_chart_by_default():
    scn = kproduct_catalog()["warped_t2"]()
    [rep] = integral_checks_batch(scn.chart, scn.split, 8, ["main"])
    assert rep.scenario == scn.chart.name == "warped_t2"
    with pytest.raises(ValueError, match="unknown identity 'ck2_k3_display' for scenario "
                                         "warped_t2; known: main"):
        integral_checks_batch(scn.chart, scn.split, 8, ["ck2_k3_display"])


@pytest.mark.parametrize("name", ["warped_t3_k3", "twisted_torus_k4"])
def test_adapters_give_what_run_checks_gives(name):
    scn = kproduct_catalog()[name]()
    pts = scn.sample(16, np.random.default_rng(28))
    grid = scn.meta["integral_grid"]
    rows = select_checks(scn)
    pointwise = [row for row in rows if row.check.kind == POINTWISE]
    _, want = run_checks(scn, pointwise, pts)
    got = pointwise_fields(scn.chart, scn.split, pts, [row.name for row in pointwise])
    assert got.keys() == want.keys()
    assert all(np.array_equal(got[key], want[key]) for key in want)
    integral = [row for row in rows if row.check.kind == INTEGRAL]
    want = {r.identity: r.to_dict() for r in run_checks(scn, integral, None, grid)[0]}
    got = integral_checks_batch(scn.chart, scn.split, grid, [row.name for row in integral],
                                scenario=scn.name)
    assert [r.to_dict() for r in got] == list(want.values())
    # the reports come in the order asked for
    got = integral_checks_batch(scn.chart, scn.split, grid, ["companion", "main"],
                                scenario=scn.name)
    assert [r.to_dict() for r in got] == [want["companion"], want["main"]]


@pytest.mark.parametrize("name", sorted(kproduct_catalog()))
def test_samples_and_nodes_in_one_point_set_give_each_kind_alone(name, monkeypatch):
    # one context per chunk of the samples followed by the quadrature nodes;
    # with chunk=7 some chunk holds samples and nodes alike
    scn = kproduct_catalog()[name]()
    pts = scn.sample(16, np.random.default_rng(30))
    grid = scn.meta["integral_grid"]
    rows = select_checks(scn)
    sampled = [row for row in rows if row.check.kind != INTEGRAL]
    integral = [row for row in rows if row.check.kind == INTEGRAL]
    assert {row.check.kind for row in sampled} >= {POINTWISE} and integral
    alone, fields = run_checks(scn, sampled, pts)
    alone += run_checks(scn, integral, None, grid)[0]
    want = {(r.identity, r.kind): r.to_dict() for r in alone}
    for chunk in (None, 7):
        built = []

        def counting(chart, split, pts):
            built.append(len(pts))
            return SplitContext(chart, split, pts)

        with monkeypatch.context() as m:
            m.setattr(identities, "SplitContext", counting)
            reports, got = run_checks(scn, rows, pts, grid, chunk=chunk)
        assert [r.to_dict() for r in reports] == [want[row.name, row.check.kind]
                                                  for row in rows]
        assert got.keys() == fields.keys()
        assert all(got[key].tobytes() == fields[key].tobytes() for key in fields)
        nodes = len(rectangle_rule(scn.chart, grid,
                                   scn.chart.depends_on | scn.split.depends_on).nodes)
        assert sum(built) == 16 + nodes
        if chunk:
            assert len(built) < -(-16 // chunk) + -(-nodes // chunk)  # a shared chunk
        else:
            assert len(built) == 1


def test_deterministic_under_threads(four_cpus):
    scn = kproduct_catalog()["warped_t3_k3"]()
    grid = [16, 4, 4]
    [a] = integral_checks_batch(scn.chart, scn.split, grid, ["main"], chunk=64, threads=1)
    [b] = integral_checks_batch(scn.chart, scn.split, grid, ["main"], chunk=64, threads=4)
    assert a.integral_value == b.integral_value
    assert a.normalizer == b.normalizer


def seeded_twist():
    """A twisted 3-torus whose twist, a trig polynomial with seeded
    coefficients, reads every axis."""
    coef = np.random.default_rng(7).uniform(0.2, 0.6, size=(3, 2))
    return build_twisted_torus((1, 1, 1), twist=" + ".join(
        f"{s!r}*sin(x{a + 1}) + {c!r}*cos(x{a + 1})" for a, (s, c) in enumerate(coef.tolist())))


def test_deterministic_across_chunks_and_threads(monkeypatch, four_cpus):
    # the quadrature evaluates the 16 base nodes of warped_t3_k3: four chunks
    scn = kproduct_catalog()["warped_t3_k3"]()
    grid = [16, 4, 4]
    [a] = integral_checks_batch(scn.chart, scn.split, grid, ["main"], chunk=64, threads=1)
    [b] = integral_checks_batch(scn.chart, scn.split, grid, ["main"], chunk=4, threads=4)
    assert a.integral_value == b.integral_value
    assert a.normalizer == b.normalizer
    # the default, budgeted chunk on a seeded twist that reads every axis
    scn = seeded_twist()
    rows = [row for row in select_checks(scn) if row.check.kind == INTEGRAL]
    built = []

    def counting(chart, split, pts):
        built.append(len(pts))
        return SplitContext(chart, split, pts)

    with monkeypatch.context() as m:
        m.setattr(identities, "SplitContext", counting)
        default = run_checks(scn, rows, None, [12, 12, 12])[0]
    assert len(built) >= 2 and sum(built) == 12 ** 3
    body = json.dumps([r.to_dict() for r in default])
    chunked = run_checks(scn, rows, None, [12, 12, 12], chunk=64, threads=4)[0]
    assert body == json.dumps([r.to_dict() for r in chunked])
    # the default chunks shrink with the worker count
    for threads in (2, 3):
        reports = run_checks(scn, rows, None, [12, 12, 12], threads=threads)[0]
        assert body == json.dumps([r.to_dict() for r in reports]), threads


def near_gap(eps):
    """A graph whose two principal curvatures come within ``1e-3 max |mu|``
    of each other at some samples, the closer the smaller ``eps``."""
    return cli.build_inline_scenario({
        "kind": "hypersurface",
        "axes": [{"lo": -1, "hi": 1, "periodic": False},
                 {"lo": -0.05, "hi": 0.05, "periodic": False}],
        "immersion": ["x1", "x2", f"0.01*exp(2*x1)*(1 + {2 * (1 + eps)!r}*x2^2)"],
        "expected_dims": [1, 1]})


# (scenario, seed): two small split scenarios, and near-gap graphs at seeds
# whose samples straddle the gap threshold
OUTCOME_CASES = [("warped_t2", 1), ("twisted_torus_k3", 2), *(
    (eps, seed) for eps in (0.002, 0.006) for seed in (14, 15, 17))]


@functools.cache
def outcome(case, chunk, threads):
    """The report bodies of every check of the ``case``, or the message of
    its :class:`GapError`, at ``chunk`` and ``threads``."""
    name, seed = case
    scn = full_catalog()[name]() if isinstance(name, str) else near_gap(name)
    count = 6 if scn.kind == "split" else HYPERSURFACE_SAMPLE_CAP
    pts = scn.sample(count, cli.scenario_rng(seed, scn.name))
    try:
        reports = run_checks(scn, select_checks(scn), pts, 4, chunk=chunk, threads=threads)[0]
    except GapError as e:
        return f"GapError: {e}"
    return json.dumps([r.to_dict() for r in reports])


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(st.sampled_from(OUTCOME_CASES), st.sampled_from([1, 2, 7, 10, None]),
       st.sampled_from([1, 2]))
def test_no_outcome_depends_on_the_chunk_or_the_workers(case, chunk, threads):
    with pytest.MonkeyPatch.context() as m:
        m.setattr(os, "sched_getaffinity", lambda pid: set(range(4)), raising=False)
        assert outcome(case, chunk, threads) == outcome(case, None, 1)


def test_a_near_gap_refusal_is_one_message_at_every_chunk():
    # ε = 0.002 at seed 15: only the default chunk refused when the gap
    # threshold was taken over each chunk
    messages = {outcome((0.002, 15), chunk, 1) for chunk in (1, 2, 7, 10, None)}
    assert len(messages) == 1
    assert messages.pop().startswith("GapError: principal curvature groups closer than")


def test_default_chunks_bound_the_memory_of_a_run_whatever_its_workers(four_cpus):
    # one budget for the chunks that all the workers hold at once: two
    # workers hold two chunks of half the size
    scn = seeded_twist()
    rows = [row for row in select_checks(scn) if row.check.kind == INTEGRAL]
    peaks = []
    for threads in (1, 2):
        tracemalloc.start()
        try:
            run_checks(scn, rows, None, [16, 16, 16], threads=threads)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.2 * peaks[0], [p / 2 ** 20 for p in peaks]


def test_default_chunks_bound_the_memory_of_a_frame_that_reads_every_axis():
    # n = 5 and every axis seeded: about 4850 live doubles (38 KiB) per
    # point, so one chunk of all 2048 points would peak near 76 MiB
    scn = build_twisted_torus((1, 2, 2), twist="0.3*sin(x1) + 0.4*cos(x2) + "
                              "0.5*sin(x3) + 0.2*cos(x4) + 0.6*sin(x5)")
    pts = scn.sample(2048, np.random.default_rng(0))
    names = available_identities(scn.k)
    tracemalloc.start()
    try:
        fields = pointwise_fields(scn.chart, scn.split, pts, names)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2 ** 20
    small = pointwise_fields(scn.chart, scn.split, pts, names, chunk=64)
    assert fields.keys() == small.keys()
    assert all(fields[key].tobytes() == small[key].tobytes() for key in fields)


def test_default_chunks_hold_the_memory_they_were_sized_for():
    # one default-size chunk of every geometry of the catalog, whose grid
    # gets 4096 nodes so that its chunk is full, and of a twist that reads
    # every axis: its traced peak against the live doubles of its width
    ratios = {}
    # keyed by catalog name: the seeded twist is also named twisted_torus_k3
    for name, build in [*full_catalog().items(), ("seeded_twist", seeded_twist)]:
        scn = build()
        groups = {}
        for row in select_checks(scn):
            groups.setdefault(row.check.geometry, []).append(row)
        for geometry, rows in groups.items():
            axes = scn.chart.depends_on | scn.split.depends_on if geometry == CONTEXT else None
            width = identities._width(scn, geometry, axes)
            count = identities._chunk_size(width, 1)
            if geometry == GRID:
                pts = rectangle_rule(scn.chart, 64).nodes[:count]
            else:
                pts = scn.sample(count, np.random.default_rng(0)).reshape(-1, scn.chart.dim)
            assert len(pts) == count
            if geometry == BUNDLE:
                # the samples of a hypersurface's checks are one chunk
                assert count >= HYPERSURFACE_SAMPLE_CAP
            chunk = identities._chunk_values(scn, rows, INTEGRAL in {r.check.kind for r in rows})
            chunk(pts[:4])
            tracemalloc.start()
            try:
                chunk(pts)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            ratios[name, geometry] = round(peak / (8 * width * count), 2)
    assert all(0.5 <= ratio <= 1.5 for ratio in ratios.values()), ratios


def test_workers_are_capped_at_the_cpus_the_process_may_use(monkeypatch):
    # a million workers would size one-point chunks and start a thread each
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    pools = []

    class Serial:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, chunks):
            return map(fn, chunks)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Serial)
    scn = kproduct_catalog()["warped_t4_k3_ortho"]()
    rows = select_checks(scn)
    pts = scn.sample(8, np.random.default_rng(4))
    grid = scn.meta["integral_grid"]
    capped = run_checks(scn, rows, pts, grid, threads=10 ** 6)[0]
    assert pools == [3]
    body = json.dumps([r.to_dict() for r in run_checks(scn, rows, pts, grid)[0]])
    assert json.dumps([r.to_dict() for r in capped]) == body


# per chart dimension, a grid whose repeat counts are not powers of two
ODD_GRIDS = {2: [24, 6], 3: [24, 6, 6], 4: [12, 6, 6, 5], 5: [6, 6, 5, 5, 5]}


@pytest.mark.parametrize("name", sorted(kproduct_catalog()))
def test_reduced_quadrature_matches_full_grid(name, monkeypatch):
    scn = kproduct_catalog()[name]()
    n = scn.chart.dim
    every = frozenset(range(n))
    assert scn.chart.depends_on | scn.split.depends_on < every
    rows = [row for row in select_checks(scn) if row.check.kind == INTEGRAL]
    assert rows
    for grid in (scn.meta["integral_grid"], ODD_GRIDS[n]):
        reduced = [r.to_dict() for r in run_checks(scn, rows, None, grid)[0]]
        with monkeypatch.context() as m:
            # every node of the grid, on contexts seeded along the same axes
            m.setattr(identities, "rectangle_rule",
                      lambda chart, grid, axes: rectangle_rule(chart, grid))
            full = [r.to_dict() for r in run_checks(scn, rows, None, grid)[0]]
        assert reduced == full, grid


def test_reduced_quadrature_builds_one_context_per_distinct_node(monkeypatch):
    built = []

    def counting(chart, split, pts):
        built.append(len(pts))
        return SplitContext(chart, split, pts)

    monkeypatch.setattr(identities, "SplitContext", counting)
    scn = kproduct_catalog()["twisted_torus_k3"]()
    [rep] = integral_checks_batch(scn.chart, scn.split, 64, ["main"])
    assert sum(built) == 64
    assert rep.grid == [64, 64, 64] and rep.n_points == 64 ** 3


UNDECLARED = "the frame varies along axis 1, which neither the metric nor the frame declares"


@pytest.mark.parametrize("twist", ["sin(x1)", "cos(x1)", "sin(x1)^3"])
def test_undeclared_frame_axis_raises(twist):
    # the refusal reads the frame's expressions, not values at the nodes:
    # sin(x1)^3 has zero first and second derivatives at the pinned x1 = 0
    scn = build_twisted_torus((1, 1, 1), twist=twist)
    assert scn.split.depends_on == {0}
    scn.split.depends_on = frozenset({2})
    for grid in ([8, 8, 8], [4, 4, 4]):
        with pytest.raises(GeometryError) as err:
            integral_checks_batch(scn.chart, scn.split, grid, ["main"])
        assert str(err.value) == UNDECLARED
    # a split without a frame reads every axis
    assert SplitStructure(scn.dims).depends_on == {0, 1, 2}


@pytest.mark.parametrize("name", sorted(kproduct_catalog()))
def test_seeded_axes_give_the_fields_of_every_axis(name, monkeypatch):
    scn = kproduct_catalog()[name]()
    rows = select_checks(scn)
    pts = scn.sample(64, np.random.default_rng(22))
    grid = scn.meta["integral_grid"]
    seeded, fields = run_checks(scn, rows, pts, grid)
    # the same checks on contexts differentiated along every axis
    monkeypatch.setattr(splitting, "ChartFrame",
                        lambda chart, points, axes=None: ChartFrame(chart, points))
    every, reference = run_checks(scn, rows, pts, grid)
    assert [r.verdict for r in seeded] == [r.verdict for r in every]
    assert fields.keys() == reference.keys()
    for row in rows:
        scale = 1.0 + reference.get(f"max_term:{row.name}", 0.0)
        for key in (k for k in reference if k == row.name or k.endswith(":" + row.name)):
            assert np.all(np.abs(fields[key] - reference[key]) <= 1e-14 * scale), key
    # integrals agree to roundoff of their normalizer
    for got, want in zip(seeded, every):
        if want.kind != INTEGRAL:
            continue
        assert got.identity == want.identity and got.grid == want.grid
        assert got.normalizer == pytest.approx(want.normalizer, rel=1e-14)
        for key in ("integral_value", "stokes_value"):
            diff = abs(getattr(got, key) - getattr(want, key))
            assert diff <= 1e-14 * want.normalizer, (want.identity, key)
        for key in ("integral_ratio", "stokes_ratio"):
            assert abs(getattr(got, key) - getattr(want, key)) <= 1e-14, (want.identity, key)


@pytest.mark.parametrize("name", ["warped_t5_k3_multi", "torus_revolution"])
def test_checks_never_build_the_curvature_tensor(name, monkeypatch):
    # the identities read sectional curvatures contracted from the
    # Christoffel jet; the full tensor is a test reference only
    scn = {**kproduct_catalog(), **hypersurface_catalog()}[name]()

    def refuse(frame):
        raise AssertionError("ChartFrame.riemann built on the verify path")

    monkeypatch.setattr(ChartFrame, "riemann", property(refuse))
    rows = select_checks(scn)
    assert name != "torus_revolution" or "kmix_pairs" in [row.name for row in rows]
    reports, _ = run_checks(scn, rows, scn.sample(32, np.random.default_rng(26)),
                            scn.meta.get("integral_grid", 16))
    assert reports and all(r.verdict == "pass" for r in reports)


@pytest.mark.parametrize("twist", ["sin(x1)", "cos(x1)", "sin(x1)^3"])
def test_pointwise_fields_refuse_a_frame_moving_along_an_unseeded_axis(twist):
    # the same refusal at sampled points and at the single point [0, 0, 0],
    # where no derivative of sin(x1)^3 along x1 up to the second moves
    scn = build_twisted_torus((1, 1, 1), twist=twist)
    scn.split.depends_on = frozenset({2})
    for pts in (scn.sample(5, np.random.default_rng(23)), np.zeros((1, 3))):
        with pytest.raises(GeometryError) as err:
            pointwise_fields(scn.chart, scn.split, pts, ["main"])
        assert str(err.value) == UNDECLARED


def test_readme_table_lists_every_report_name():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    head = "| name | kind | applies to |"
    lines = readme[readme.index(head):].splitlines()[2:]
    rows = [[cell.strip() for cell in line.strip("|").split("|")]
            for line in itertools.takewhile(lambda line: line.startswith("|"), lines)]
    table = {}
    for c in CHECKS:
        name = f"`{c.name}:r`" if c.ranged else f"`{c.name}`"
        table.setdefault(name, []).append(c.kind)
    assert [row[0] for row in rows] == list(table)
    assert [row[1] for row in rows] == [", ".join(kinds) for kinds in table.values()]
