"""Acceptance suite: the contract-level checks, one test per criterion.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` or ``-v``
to see them) and asserts the stated tolerance.
"""

import json
import math
import time

import numpy as np
import pytest

from splitgeom.chart import grid_points
from splitgeom.cli import main as cli_main
from splitgeom.hypersurface import (
    build_graph_r4,
    build_torus_revolution,
    codazzi_checks,
    hypersurface_catalog,
    hypersurface_identity,
    principal_bundle,
)
from splitgeom.identities import (
    _Evaluator,
    integral_checks_batch,
    pointwise_fields,
)
from splitgeom.scenarios import kproduct_catalog, warped_checks
from splitgeom.splitting import SplitContext, pair_predicates, subsets


def report(criterion, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} -- {detail}")
    assert passed, f"criterion {criterion}: {detail}"


def test_criterion_1_k2_regression_32cubed_under_10s():
    scn = kproduct_catalog()["twisted_torus_k2"]()
    pts = grid_points(scn.chart, 32)
    t0 = time.perf_counter()
    fields = pointwise_fields(scn.chart, scn.split, pts, ["main"], chunk=8192)
    elapsed = time.perf_counter() - t0
    worst = float(np.max(np.abs(fields["main"])))
    report(1, worst <= 1e-8 and elapsed <= 10.0,
           f"k=2 split on twisted flat T^3, 32^3 lattice: max|residual| = "
           f"{worst:.3e}, runtime = {elapsed:.2f}s")


def test_criterion_2_main_identity_500_points():
    rng = np.random.default_rng(2024)
    worsts = {}
    for name in ("twisted_torus_k3", "warped_t4_k4"):
        scn = kproduct_catalog()[name]()
        pts = scn.sample(500, rng)
        fields = pointwise_fields(scn.chart, scn.split, pts, ["main"])
        worsts[name] = float(np.max(np.abs(fields["main"])))
    ok = all(w <= 1e-8 for w in worsts.values())
    report(2, ok, "main divergence identity at 500 random points: " +
           ", ".join(f"{k}: {v:.3e}" for k, v in worsts.items()))


def test_criterion_3_smix_pair_split_lemma_everywhere():
    rng = np.random.default_rng(3)
    worst = 0.0
    where = ""
    for name, builder in kproduct_catalog().items():
        scn = builder()
        pts = scn.sample(40, rng)
        ctx = SplitContext(scn.chart, scn.split, pts)
        total = np.zeros(pts.shape[0])
        for i in range(1, scn.k + 1):
            total = total + ctx.smix_pairsplit(i)
        val = float(np.max(np.abs(2.0 * ctx.smix() - total)))
        if val > worst:
            worst, where = val, name
    # hypersurface scenarios contribute through their eigen-frames: the
    # sectional curvatures of the eigenframe planes, summed by block
    for name, builder in hypersurface_catalog().items():
        scn = builder()
        pts = scn.sample(15, rng)
        b = principal_bundle(scn, pts)
        K = b["frame"].sectional(b["E"])
        blocks = scn.split.blocks
        smix = sum(K[..., a, c] for i, bi in enumerate(blocks) for bj in blocks[i + 1:]
                   for a in bi for c in bj)
        total = sum(K[..., a, c] for bi in blocks for a in bi
                    for c in range(scn.chart.dim) if c not in bi)
        val = float(np.max(np.abs(2.0 * smix - total)))
        if val > worst:
            worst, where = val, name
    report(3, worst <= 1e-10,
           f"pair-split decomposition of the mixed scalar curvature over the "
           f"whole catalog: worst {worst:.3e} ({where})")


def test_criterion_4_integral_formula_and_grid_convergence():
    scn = kproduct_catalog()["twisted_torus_k3"]()
    [rep] = integral_checks_batch(scn.chart, scn.split, 64, ["main"], scenario=scn.name)
    conv = kproduct_catalog()["warped_t3_conv"]()
    r8 = integral_checks_batch(conv.chart, conv.split, [8, 4, 4],
                                ["main"])[0].integral_ratio
    r16 = integral_checks_batch(conv.chart, conv.split, [16, 4, 4],
                                ["main"])[0].integral_ratio
    converged = r8 <= 1e-12 or r16 <= r8 / 100.0
    report(4, rep.integral_ratio <= 1e-10 and rep.stokes_ratio <= 1e-10 and converged,
           f"closed twisted T^3 at 64^3: ratio = {rep.integral_ratio:.3e}, "
           f"Stokes = {rep.stokes_ratio:.3e}; grid doubling 8->16 on the rational "
           f"warp: {r8:.3e} -> {r16:.3e}")


def test_criterion_5_auxiliary_identity_and_integrals():
    rng = np.random.default_rng(5)
    cases = [("twisted_torus_k3", 3, 2), ("warped_t3_k3", 3, 2),
             ("warped_t4_k4", 4, 2), ("warped_t4_k4", 4, 3)]
    worst_pt = 0.0
    worst_int = 0.0
    for name, k, r in cases:
        scn = kproduct_catalog()[name]()
        pts = scn.sample(100, rng)
        fields = pointwise_fields(scn.chart, scn.split, pts, [f"aux:{r}"])
        worst_pt = max(worst_pt, float(np.max(np.abs(fields[f"aux:{r}"]))))
        [rep] = integral_checks_batch(scn.chart, scn.split, scn.meta["integral_grid"],
                                      [f"aux:{r}"], scenario=name)
        worst_int = max(worst_int, rep.integral_ratio, rep.stokes_ratio)
    report(5, worst_pt <= 1e-8 and worst_int <= 1e-10,
           f"auxiliary identity (k,r) in {{(3,2),(4,2),(4,3)}}: pointwise "
           f"{worst_pt:.3e}, integral {worst_int:.3e}")


def test_criterion_6_companion_identity_and_consistency():
    rng = np.random.default_rng(6)
    worst = 0.0
    worst_combo = 0.0
    worst_int = 0.0
    for name in ("twisted_torus_k3", "warped_t4_k4", "warped_twisted_t3"):
        scn = kproduct_catalog()[name]()
        pts = scn.sample(100, rng)
        ev = _Evaluator(SplitContext(scn.chart, scn.split, pts))
        comp = ev.identity("companion")
        main = ev.identity("main")
        aux = ev.identity("aux", scn.k - 1)
        worst = max(worst, float(np.max(np.abs(comp["residual"]))))
        combo = comp["residual"] - (main["residual"] - aux["residual"])
        worst_combo = max(worst_combo, float(np.max(np.abs(combo))))
        [rep] = integral_checks_batch(scn.chart, scn.split, scn.meta["integral_grid"],
                                      ["companion"], scenario=name)
        worst_int = max(worst_int, rep.integral_ratio)
    report(6, worst <= 1e-8 and worst_combo <= 1e-9 and worst_int <= 1e-10,
           f"companion identity: residual {worst:.3e}, linear-combination "
           f"consistency {worst_combo:.3e}, integral {worst_int:.3e}")


def test_criterion_7_warped_product_closed_forms():
    rng = np.random.default_rng(7)
    worst = 0.0
    tg_ok = True
    for name in ("warped_t2", "warped_t3_fiber2"):
        scn = kproduct_catalog()[name]()
        pts = scn.sample(50, rng)
        res = {key: float(np.max(v)) for key, v in
               warped_checks(scn, SplitContext(scn.chart, scn.split, pts)).items()}
        worst = max(worst, res["mean_curvature"], res["div_mean_curvature"],
                    res["smix_warped"])
    for name in ("warped_t2", "warped_t3_fiber2", "warped_t3_k3", "warped_t4_k4",
                 "warped_t4_k3_ortho", "warped_t5_k3_multi"):
        scn = kproduct_catalog()[name]()
        ctx = SplitContext(scn.chart, scn.split, scn.sample(25, rng))
        for i in range(1, scn.k + 1):
            for j in range(i + 1, scn.k + 1):
                pred = pair_predicates(ctx, i, j)
                tg_ok = tg_ok and pred["mixed_tg"]
    report(7, worst <= 1e-9 and tg_ok,
           f"warped closed forms (mean curvature, its divergence, mixed scalar "
           f"curvature): worst {worst:.3e}; all pairs mixed totally geodesic: {tg_ok}")


def test_criterion_8_hypersurface_checks():
    rng = np.random.default_rng(8)
    torus = build_torus_revolution()
    b = principal_bundle(torus, torus.sample(10, rng))
    worst_t = float(np.max(np.abs(hypersurface_identity(torus, b)["residual"])))

    graph = build_graph_r4()
    res = codazzi_checks(graph, principal_bundle(graph, graph.sample(5, rng)))
    worst_cod = max(float(np.max(res[key])) for key in (
        "total_symmetry", "eigen_offdiag", "eigen_diag", "exchange", "frame_metric"))
    b = principal_bundle(graph, graph.sample(20, rng))
    worst_k3 = float(np.max(np.abs(hypersurface_identity(graph, b)["residual"])))

    s3 = math.sqrt(3.0)
    # the three-curvature right side with constant curvatures (c = 1, all
    # gradient terms zero): (1/2) sum_{i<j} (c + mu_i mu_j)
    mu = (s3, 0.0, -s3)
    const_case = abs(sum(0.5 * (1.0 + mu[i] * mu[j])
                         for i in range(3) for j in range(i + 1, 3)))
    ok = (worst_t <= 1e-11 and worst_cod <= 1e-11 and worst_k3 <= 1e-11
          and const_case <= 1e-12)
    report(8, ok,
           f"torus-of-revolution identity {worst_t:.3e} (<=1e-11); graph Codazzi "
           f"{worst_cod:.3e} (<=1e-11); three-curvature identity {worst_k3:.3e} "
           f"(<=1e-11); constant triple {const_case:.3e} (<=1e-12)")


def test_criterion_9_combinatorics_projection_propagation():
    counts_ok = all(len(subsets(r, k)) == math.comb(k, r)
                    for k in range(1, 9) for r in range(1, k + 1))

    rng = np.random.default_rng(9)
    worst_proj = 0.0
    for name in ("warped_t4_k4", "warped_twisted_t3"):
        scn = kproduct_catalog()[name]()
        pts = scn.sample(30, rng)
        ctx = SplitContext(scn.chart, scn.split, pts)
        P = ctx.projectors()
        for r in range(1, scn.k):
            for q in subsets(r, scn.k):
                Hq = ctx.H_values(q)
                total = np.zeros_like(Hq)
                for i in q:
                    total += ctx.H_values((i,))
                proj = np.zeros_like(Hq)
                for j in [j for j in range(1, scn.k + 1) if j not in q]:
                    proj += np.einsum("...ab,...b->...a", P[..., j - 1, :, :], total)
                worst_proj = max(worst_proj, float(np.max(np.abs(Hq - proj))))

    scn = kproduct_catalog()["warped_t4_k4"]()
    pts = scn.sample(40, rng)
    prop = _Evaluator(SplitContext(scn.chart, scn.split, pts)).propagation()
    sup_h, sup_t = float(np.max(prop["sup_h"])), float(np.max(prop["sup_t"]))
    ok = counts_ok and worst_proj <= 1e-10 and sup_h <= 1e-10 and sup_t <= 1e-10
    report(9, ok,
           f"subset counts C(k,r) up to k=8: {counts_ok}; mean-curvature "
           f"projection identity {worst_proj:.3e}; propagation sup (h, T) = "
           f"({sup_h:.3e}, {sup_t:.3e})")


def test_criterion_10_full_catalog_run_deterministic(tmp_path):
    t0 = time.perf_counter()
    code = cli_main(["verify", "--all", "--seed", "12345",
                     "--out", str(tmp_path / "full.json")])
    elapsed = time.perf_counter() - t0
    reports = json.loads((tmp_path / "full.json").read_text())
    all_pass = code == 0 and all(r["verdict"] == "pass" for r in reports)

    # determinism on a representative subset, byte for byte
    cfg = tmp_path / "det.json"
    cfg.write_text(json.dumps({
        "scenario": ["twisted_torus_k3", "warped_t3_k3", "warped_twisted_t3"],
        "samples": 15, "seed": 77, "grid": 8,
        "out": str(tmp_path / "d1.json"),
    }))
    assert cli_main(["verify", "--scenario", str(cfg)]) == 0
    assert cli_main(["verify", "--scenario", str(cfg), "--out",
                     str(tmp_path / "d2.json")]) == 0
    identical = ((tmp_path / "d1.json").read_bytes()
                 == (tmp_path / "d2.json").read_bytes())
    report(10, all_pass and elapsed <= 300.0 and identical,
           f"full catalog: {len(reports)} checks in {elapsed:.1f}s "
           f"(exit {code}); fixed-seed reports byte-identical: {identical}")
