import dataclasses
import math
import re

import numpy as np
import pytest

from splitgeom import hypersurface
from splitgeom.chart import Axis, ChartFrame, GeometryError, integrate
from splitgeom.expr import diff, parse_expr
from splitgeom.hypersurface import (
    GapError,
    build_clifford_torus,
    build_hypersurface,
    build_graph_r4,
    build_round_sphere,
    build_torus_cylinder,
    build_torus_revolution,
    codazzi_checks,
    dperp_integrability,
    hypersurface_catalog,
    hypersurface_identity,
    principal_bundle,
    shape_data,
)
from splitgeom.identities import INTEGRAL, _Evaluator, run_checks, select_checks
from splitgeom.scenarios import Scenario
from splitgeom.splitting import SplitContext, coordinate_split

TWO_PI = 2 * math.pi


def torus_gauss_curvature(theta, R=2.0, r=1.0):
    return math.cos(theta) / (r * (R + r * math.cos(theta)))


def test_torus_principal_curvatures():
    scn = build_torus_revolution()
    mu = principal_bundle(scn, np.array([[math.pi / 2, 0.7]]))["mu"][0]
    np.testing.assert_allclose(mu, [0.0, 1.0], atol=1e-12)
    mu0 = principal_bundle(scn, np.array([[0.0, 2.0]]))["mu"][0]
    np.testing.assert_allclose(mu0, [1.0 / 3.0, 1.0], atol=1e-12)
    # product of the curvatures is the intrinsic curvature
    for theta in [0.3, 1.0, 2.5, 4.0]:
        mu = principal_bundle(scn, np.array([[theta, 1.0]]))["mu"][0]
        assert abs(mu[0] * mu[1] - torus_gauss_curvature(theta)) <= 1e-12


def test_clifford_torus_curvatures():
    scn = build_clifford_torus()
    pts = scn.sample(10, np.random.default_rng(0))
    b = principal_bundle(scn, pts)
    np.testing.assert_allclose(b["mu"], np.broadcast_to([-1.0, 1.0], (10, 2)),
                               atol=1e-12)
    # ambient curvature plus curvature product vanishes: intrinsically flat
    assert abs(1.0 + (-1.0) * 1.0) == 0.0
    R = ChartFrame(scn.chart, pts).riemann
    assert np.max(np.abs(R)) <= 1e-13


def test_graph_r4_curvatures_and_gaps():
    scn = build_graph_r4()
    mu0 = principal_bundle(scn, np.zeros((1, 3)))["mu"][0]
    np.testing.assert_allclose(mu0, [0.2, 0.4, 0.6], atol=1e-14)
    pts = scn.sample(50, np.random.default_rng(1))
    principal_bundle(scn, pts)  # group structure must hold on the box


def test_shape_data_refuses_points_off_the_unit_sphere():
    # the build checks the sample box; shape_data checks the points it is given
    scn = build_clifford_torus()
    torus = [parse_expr(src, 2) for src in ("cos(x1)", "sin(x1)", "cos(x2)", "sin(x2)")]
    pts = scn.sample(3, np.random.default_rng(0))
    with pytest.raises(GeometryError, match=re.escape(
            f"sphere immersion does not lie on the unit sphere at {pts[0].tolist()}")):
        shape_data(dataclasses.replace(scn, immersion=torus), pts)


def test_shape_data_takes_no_derivative_of_the_immersion(monkeypatch):
    # build_hypersurface forms every d_a d_b F^j once; shape_data evaluates them
    scn = build_torus_cylinder()
    n = scn.chart.dim
    for f, d2 in zip(scn.immersion, scn.second_derivatives):
        assert d2 == [[diff(diff(f, a), b) for b in range(1, n + 1)] for a in range(1, n + 1)]
    pts = scn.sample(8, np.random.default_rng(3))
    want = shape_data(scn, pts)["DDF"]
    monkeypatch.setattr(hypersurface, "diff", None)
    got = shape_data(scn, pts)["DDF"]
    for part in ("val", "grad", "hess"):
        assert np.array_equal(getattr(got, part), getattr(want, part))


def test_round_sphere_rejected_as_two_groups():
    scn = build_round_sphere()
    with pytest.raises(GapError):
        principal_bundle(scn, np.array([[1.0, 2.0]]))


def test_shape_operator_self_adjoint_and_metric_consistency():
    for name, builder in hypersurface_catalog().items():
        scn = builder()
        pts = scn.sample(20, np.random.default_rng(2))
        data = shape_data(scn, pts)
        gA = np.einsum("...ab,...bc->...ac", data["g"], data["A"])
        assert np.max(np.abs(gA - np.swapaxes(gA, -1, -2))) <= 1e-10, name
        # the chart's metric expressions, from expr.diff, against the
        # forward-mode jets of the immersion
        g_chart = scn.chart.metric_values(pts)
        scale = 1.0 + np.max(np.abs(g_chart))
        assert np.max(np.abs(g_chart - data["g"])) <= 1e-12 * scale, name
        # normal is unit and orthogonal to the tangents
        nrm = np.linalg.norm(data["N"], axis=-1)
        np.testing.assert_allclose(nrm, 1.0, atol=1e-12)
        tangency = np.einsum("...am,...m->...a", data["J"], data["N"])
        assert np.max(np.abs(tangency)) <= 1e-12, name


def test_principal_data_gradients():
    scn = build_torus_revolution()
    pts = np.array([[0.8, 1.1]])
    b = principal_bundle(scn, pts)
    assert scn.dims == (1, 1)
    # contravariant gradients of the group curvatures
    grad_mu = np.linalg.solve(b["g"][0], b["mu_hat"].grad[0].T).T
    # closed form: d/dtheta of cos(t)/(2+cos(t)) = -2 sin t/(2+cos t)^2
    t = pts[0, 0]
    expected = -2.0 * math.sin(t) / (2.0 + math.cos(t)) ** 2
    np.testing.assert_allclose(grad_mu[0], [expected, 0.0], atol=1e-12)
    np.testing.assert_allclose(grad_mu[1], [0.0, 0.0], atol=1e-12)


def test_mixed_curvature_matches_shape_operator_product():
    # engine curvature over eigen-frames against c + mu_i mu_j per unit pair
    rng = np.random.default_rng(3)
    for builder, c in [(build_torus_revolution, 0.0), (build_clifford_torus, 1.0),
                       (build_torus_cylinder, 0.0)]:
        scn = builder()
        pts = scn.sample(12, rng)
        b = principal_bundle(scn, pts)
        K = b["frame"].sectional(b["E"])  # every curvature is simple
        k = scn.k
        for i in range(1, k + 1):
            for j in range(i + 1, k + 1):
                got = K[..., i - 1, j - 1]
                want = c + b["mu"][..., i - 1] * b["mu"][..., j - 1]
                assert np.max(np.abs(got - want)) <= 1e-8, (scn.name, i, j)


def test_smix_lemma_on_hypersurface_eigen_frames():
    scn = build_graph_r4()
    pts = scn.sample(15, np.random.default_rng(4))
    b = principal_bundle(scn, pts)
    K = b["frame"].sectional(b["E"])  # three simple curvatures
    smix = K[..., 0, 1] + K[..., 0, 2] + K[..., 1, 2]
    total = np.zeros(pts.shape[0])
    for i in range(3):
        total = total + sum(K[..., i, j] for j in range(3) if j != i)
    assert np.max(np.abs(2.0 * smix - total)) <= 1e-10


def test_codazzi_checks_torus_and_clifford():
    scn = build_torus_revolution()
    res = codazzi_checks(scn, principal_bundle(scn, np.array([[0.8, 1.3]])))
    assert res["total_symmetry"] <= 1e-12
    assert res["eigen_offdiag"] <= 1e-12
    assert res["eigen_diag"] <= 1e-12
    assert res["frame_metric"] <= 1e-12

    # isoparametric: the shape operator is parallel, the 3-tensor vanishes;
    # ``scale`` is 1 + max |<(nabla_{X_i} A) X_j, X_l>| over the eigenframe
    cliff = build_clifford_torus()
    res2 = codazzi_checks(cliff, principal_bundle(cliff, np.array([[0.4, 2.0]])))
    assert res2["scale"] - 1.0 <= 1e-12


def test_codazzi_checks_graph_r4():
    scn = build_graph_r4()
    rng = np.random.default_rng(5)
    res = codazzi_checks(scn, principal_bundle(scn, scn.sample(5, rng)))
    assert np.max(res["total_symmetry"]) <= 1e-12
    assert np.max(res["eigen_offdiag"]) <= 1e-12
    assert np.max(res["eigen_diag"]) <= 1e-12
    assert np.max(res["exchange"]) <= 1e-12
    assert np.max(res["frame_metric"]) <= 1e-12


def test_identity_torus_of_revolution():
    scn = build_torus_revolution()
    rng = np.random.default_rng(6)
    pts = scn.sample(8, rng)
    out = hypersurface_identity(scn, principal_bundle(scn, pts))
    assert np.max(np.abs(out["residual"])) <= 1e-12
    # the right side reduces to the intrinsic curvature (simple groups)
    for rhs, p in zip(out["rhs"], pts):
        assert abs(rhs - torus_gauss_curvature(p[0])) <= 1e-12


def test_identity_clifford_zero():
    scn = build_clifford_torus()
    out = hypersurface_identity(scn, principal_bundle(scn, np.array([[0.7, 1.9]])))
    assert abs(out["lhs"][0]) <= 1e-12
    assert abs(out["rhs"][0]) <= 1e-12


def test_identity_k3_graph_20_points():
    scn = build_graph_r4()
    rng = np.random.default_rng(7)
    out = hypersurface_identity(scn, principal_bundle(scn, scn.sample(20, rng)))
    worst = np.max(np.abs(out["residual"]))
    worst_printed = np.max(np.abs(out["residual_printed"]))
    assert worst <= 1e-12
    # the halved curvature sum misses by half the curvature scale
    assert worst_printed > 1e-2


def test_identity_k3_torus_cylinder():
    scn = build_torus_cylinder()
    rng = np.random.default_rng(8)
    out = hypersurface_identity(scn, principal_bundle(scn, scn.sample(6, rng)))
    assert np.max(np.abs(out["residual"])) <= 1e-12


def test_identity_k3_agrees_with_split_engine_on_cylinder():
    # the eigen-splitting of the cylinder is the coordinate splitting, so the
    # divergence of the subset mean curvature fields must be twice the
    # divergence of the projected-gradient field built from eigen data
    scn = build_torus_cylinder()
    split = coordinate_split((1, 1, 1))
    rng = np.random.default_rng(9)
    pts = scn.sample(5, rng)
    ev = _Evaluator(SplitContext(scn.chart, split, pts))
    div_jets = ev.identity("main")["div"]
    out = hypersurface_identity(scn, principal_bundle(scn, pts))
    assert np.max(np.abs(div_jets - 2.0 * out["lhs"])) <= 1e-12


def k3_identity_rhs_constant(c, mu, dims=(1, 1, 1)):
    """Right side of the three-curvature identity with constant curvatures
    (all gradient terms zero): ``(1/2) sum_{i<j} n_i n_j (c + mu_i mu_j)``."""
    rhs = 0.0
    for i in range(3):
        for j in range(i + 1, 3):
            rhs += 0.5 * dims[i] * dims[j] * (c + mu[i] * mu[j])
    return rhs


def test_constant_triple_arithmetic_case():
    s3 = math.sqrt(3.0)
    assert abs(k3_identity_rhs_constant(1.0, (s3, 0.0, -s3))) <= 1e-12
    # scaled variants stay exact
    assert abs(k3_identity_rhs_constant(1.0, (-s3, 0.0, s3))) <= 1e-12


def all_points(flags):
    """The per-point dperp flags over a whole sample set, and their agreement."""
    cal, bracket = bool(np.all(flags["cal_zero"])), bool(np.all(flags["bracket_zero"]))
    return {"cal_zero": cal, "bracket_zero": bracket,
            "flags_agree": bool(np.all(flags["cal_zero"] == flags["bracket_zero"]))}


def test_dperp_integrability_both_branches():
    scn = build_torus_cylinder()
    pts = scn.sample(4, np.random.default_rng(10))
    res = all_points(dperp_integrability(scn, principal_bundle(scn, pts)))
    assert res["cal_zero"] and res["bracket_zero"] and res["flags_agree"]

    scn2 = build_graph_r4()
    pts2 = scn2.sample(4, np.random.default_rng(11))
    res2 = all_points(dperp_integrability(scn2, principal_bundle(scn2, pts2)))
    assert not res2["cal_zero"]
    assert not res2["bracket_zero"]
    assert res2["flags_agree"]

    torus = build_torus_revolution()
    b_torus = principal_bundle(torus, pts[:1, :2])
    with pytest.raises(Exception):
        dperp_integrability(torus, b_torus)


def test_gauss_bonnet_on_torus():
    # total intrinsic curvature of the torus vanishes; the integrand is the
    # determinant of the shape operator
    scn = build_torus_revolution()

    def k_field(pts):
        return np.linalg.det(shape_data(scn, pts)["A"])

    total = integrate(scn.chart, k_field, [48, 8], chunk=4096)
    area = integrate(scn.chart, lambda p: np.ones(p.shape[0]), [48, 8], chunk=4096)
    assert abs(total) <= 1e-12 * area


def test_main_identity_on_torus_chart_agrees_with_fd_path():
    # jets on the closed-form chart vs the eigen-perturbation pipeline
    scn = build_torus_revolution()
    split = coordinate_split((1, 1))
    rng = np.random.default_rng(12)
    pts = scn.sample(6, rng)
    ev = _Evaluator(SplitContext(scn.chart, split, pts))
    m = ev.identity("main")
    assert np.max(np.abs(m["residual"])) <= 1e-10
    out = hypersurface_identity(scn, principal_bundle(scn, pts))
    assert np.max(np.abs(m["div"] - out["lhs"])) <= 1e-12


def test_batched_checks_match_single_points():
    scn = build_graph_r4()
    pts = scn.sample(6, np.random.default_rng(13))
    b = principal_bundle(scn, pts)
    cod = codazzi_checks(scn, b)
    ident = hypersurface_identity(scn, b)
    for idx in range(len(pts)):
        one = principal_bundle(scn, pts[idx:idx + 1])
        single = codazzi_checks(scn, one)
        assert set(single) == set(cod)
        for key, v in single.items():
            assert abs(cod[key][idx] - v[0]) <= 1e-14 * (1.0 + abs(v[0])), key
        out = hypersurface_identity(scn, one)
        assert abs(ident["lhs"][idx] - out["lhs"][0]) <= 1e-14
        assert abs(ident["rhs"][idx] - out["rhs"][0]) <= 1e-14


def test_graph_shape_operator_derivatives_match_symbolic_oracle():
    # independent oracle: for the graph w = f(x) with the upward normal,
    # g = I + grad f grad f^T and II = Hess f / sqrt(1 + |grad f|^2); sympy
    # differentiates A = g^-1 II and the metric, and the curvatures are
    # mu = lam / sqrt(1 + |grad f|^2) with lam a root of the polynomial
    # det(Hess f - lam g), differentiated implicitly; no engine code is used
    sp = pytest.importorskip("sympy")
    from splitgeom.hypersurface import _nabla_A

    x = sp.symbols("x1:4")
    f = (sp.Rational(3, 10) * x[0] ** 2 + sp.Rational(1, 5) * x[1] ** 2
         + sp.Rational(1, 10) * x[2] ** 2 + sp.Rational(1, 20) * x[0] * x[1] * x[2])
    v = sp.Matrix([sp.diff(f, xi) for xi in x])
    w2 = 1 + (v.T * v)[0, 0]
    g = sp.eye(3) + v * v.T
    ginv = sp.eye(3) - v * v.T / w2
    A = ginv * sp.hessian(f, x) / sp.sqrt(w2)
    gamma = [[[sum(ginv[c, d] * (sp.diff(g[b, d], x[a]) + sp.diff(g[a, d], x[b])
                                  - sp.diff(g[a, b], x[d])) for d in range(3)) / 2
               for b in range(3)] for a in range(3)] for c in range(3)]
    dA = [[[sp.diff(A[a, b], x[c]) for b in range(3)] for a in range(3)] for c in range(3)]
    geom = sp.lambdify([x], [A, dA, gamma], cse=True)
    lam = sp.Symbol("lam")
    P = sp.expand((sp.hessian(f, x) - lam * g).det(method="berkowitz"))
    poly = sp.lambdify((x, lam), [
        sp.diff(P, lam), sp.diff(P, lam, 2), [sp.diff(P, xi) for xi in x],
        [sp.diff(P, xi, lam) for xi in x], [[sp.diff(P, xi, xj) for xj in x] for xi in x]],
        cse=True)
    u = 1 / sp.sqrt(w2)
    scale = sp.lambdify([x], [u, [sp.diff(u, xi) for xi in x],
                              [[sp.diff(u, xi, xj) for xj in x] for xi in x]], cse=True)

    scn = build_graph_r4()
    pts = scn.sample(3, np.random.default_rng(14))
    b = principal_bundle(scn, pts)
    nabla, _ = _nabla_A(b)
    gj, IIj = b["g_jet"], b["II_jet"]
    for idx, q in enumerate(pts):
        A_q, dA_q, gam = (np.array(t, dtype=float) for t in geom(q))
        # jet path: d_c A = g^-1 (d_c II - d_c g A)
        dg = np.moveaxis(gj.grad[idx], -1, 0)
        dII = np.moveaxis(IIj.grad[idx], -1, 0)
        jet_dA = np.linalg.solve(gj.val[idx], dII - dg @ b["A"][idx])
        np.testing.assert_allclose(jet_dA, dA_q, atol=1e-12)
        # Weingarten path, covariantly: nabla_c A^a_b = d_c A^a_b
        #   + Gamma^a_cd A^d_b - Gamma^d_cb A^a_d
        want = (dA_q + np.einsum("acd,db->cab", gam, A_q)
                - np.einsum("dcb,ad->cab", gam, A_q))
        np.testing.assert_allclose(nabla[idx], want, atol=1e-12)
        u_q, ux, uxx = (np.array(t, dtype=float) for t in scale(q))
        for i, m in enumerate(b["mu"][idx]):
            lam_q = m / u_q
            pl, pll, px, pxl, pxx = (np.array(t, dtype=float) for t in poly(q, lam_q))
            dl = -px / pl
            d2l = -(pxx + np.outer(pxl, dl) + np.outer(dl, pxl) + pll * np.outer(dl, dl)) / pl
            dmu = dl * u_q + lam_q * ux
            d2mu = d2l * u_q + np.outer(dl, ux) + np.outer(ux, dl) + lam_q * uxx
            np.testing.assert_allclose(b["mu_hat"].grad[idx, i], dmu, atol=1e-12)
            np.testing.assert_allclose(b["mu_hat"].hess[idx, i], d2mu, atol=1e-12)


# the immersion sources of each catalog hypersurface, and of a tube of radius 1
# around a 2-sphere of radius 2 in R^4 (curvatures of multiplicities 1 and 2)
IMMERSIONS = {
    "torus_revolution": ["(2.0 + 1.0*cos(x1))*cos(x2)", "(2.0 + 1.0*cos(x1))*sin(x2)",
                         "1.0*sin(x1)"],
    "clifford_torus": [f"0.7071067811865475*{f}(x{a})" for a in (1, 2) for f in ("cos", "sin")],
    "graph_r4": ["x1", "x2", "x3", "0.3*x1^2 + 0.2*x2^2 + 0.1*x3^2 + 0.05*x1*x2*x3"],
    "torus_cylinder_k3": ["(2.0 + cos(x1))*cos(x2)", "(2.0 + cos(x1))*sin(x2)", "sin(x1)", "x3"],
    "tube_s2": ["(2 + cos(x1))*sin(x2)*cos(x3)", "(2 + cos(x1))*sin(x2)*sin(x3)",
                "(2 + cos(x1))*cos(x2)", "sin(x1)"],
}


def test_induced_metric_and_curvatures_match_a_symbolic_oracle():
    # independent oracle from the immersion sources alone: sympy differentiates
    # F, and then g = J^T J, II along the unit normal (the generalized cross
    # product of the tangents, and of F itself in the unit sphere) and mu,
    # the generalized eigenvalues of (II, g), come from numpy and LAPACK;
    # no engine code is used
    sp = pytest.importorskip("sympy")
    import scipy.linalg

    scenarios = [builder() for builder in hypersurface_catalog().values()]
    scenarios.append(build_hypersurface(
        "tube_s2", [Axis(-1.0, 1.0, periodic=False), Axis(0.4, 2.74, periodic=False),
                    Axis(0.0, TWO_PI)], IMMERSIONS["tube_s2"], (1, 2)))
    assert sorted(scn.name for scn in scenarios) == sorted(IMMERSIONS)
    for scn in scenarios:
        n, m = scn.chart.dim, len(scn.immersion)
        x = sp.symbols(f"x1:{n + 1}")
        F = sp.Matrix([sp.sympify(src.replace("^", "**")) for src in IMMERSIONS[scn.name]])
        geom = sp.lambdify([x], [F, F.jacobian(x), [sp.hessian(f, x) for f in F]], cse=True)
        pts = scn.sample(16, np.random.default_rng(16))
        g_want, mu_want = [], []
        for q in pts:
            Fq, J, H = (np.array(t, dtype=float) for t in geom(q))
            rows = list(J.T) + ([Fq[:, 0]] if m == n + 2 else [])
            N = np.array([np.linalg.det(np.stack([np.eye(m)[j]] + rows)) for j in range(m)])
            N = (-N if scn.normal_flip else N) / np.linalg.norm(N)
            g = J.T @ J
            g_want.append(g)
            mu_want.append(scipy.linalg.eigh(np.einsum("mab,m->ab", H, N), g,
                                             eigvals_only=True))
        g_want, mu_want = np.array(g_want), np.array(mu_want)
        for got in (scn.chart.metric_values(pts), shape_data(scn, pts)["g"]):
            assert np.max(np.abs(got - g_want)) <= 1e-13 * np.max(np.abs(g_want)), scn.name
        mu = principal_bundle(scn, pts)["mu"]
        assert np.max(np.abs(mu - mu_want)) <= 1e-13 * np.max(np.abs(mu_want)), scn.name


def test_rank_loss_names_its_point():
    # at the pole the sphere's tangent along the longitude vanishes
    scn = build_round_sphere()
    with pytest.raises(GeometryError, match=r"immersion loses rank at \[0\.0, 1\.0\]"):
        shape_data(scn, np.array([[0.9, 1.0], [0.0, 1.0]]))


def test_hypersurface_scenario_reads_its_shape_from_split_and_chart():
    scn = build_graph_r4()
    assert isinstance(scn, Scenario)
    assert (scn.kind, scn.k, scn.dims, scn.closed) == ("hypersurface", 3, (1, 1, 1), False)
    assert scn.split.frame is None
    b = principal_bundle(scn, scn.sample(3, np.random.default_rng(0)))
    # the eigenframe, orthonormal in the chart metric, in the split's blocks
    assert b["frame"].chart is scn.chart and b["E"].shape == (3, 3, 3)
    gram = np.einsum("...va,...ab,...wb->...vw", b["E"], b["frame"].g.val, b["E"])
    assert np.max(np.abs(gram - np.eye(3))) <= 1e-12


@pytest.mark.parametrize("name", sorted(hypersurface_catalog()))
def test_hypersurface_values_do_not_depend_on_the_chunk(name):
    # each point's values are its own, however the points are cut
    scn = hypersurface_catalog()[name]()
    rows = [row for row in select_checks(scn) if row.check.kind != INTEGRAL]
    pts = scn.sample(20, np.random.default_rng(3))
    whole = run_checks(scn, rows, pts, chunk=20)[1]
    for chunk in (1, 7, 13):
        part = run_checks(scn, rows, pts, chunk=chunk)[1]
        assert [key for key in whole if whole[key].tobytes() != part[key].tobytes()] == [], chunk
