import ast
import math
import pathlib
import re

import numpy as np
import pytest
import scipy.integrate
import scipy.special

from splitgeom import chart as chart_module
from splitgeom import expr as ex
from splitgeom import hyperdual as hd
from splitgeom.chart import (
    Axis,
    ChartManifold,
    ChartFrame,
    ExpressionMatrix,
    GeometryError,
    NonClosedChartError,
    grid_points,
    integrate,
    lower_inverse,
    map_batched,
    rectangle_rule,
    sample_points,
)
from splitgeom.chart import _repeated_fsum, _volume_element, cholesky
from splitgeom.scenarios import kproduct_catalog
from splitgeom.splitting import SplitContext, SplitStructure, coordinate_split

TWO_PI = 2 * math.pi


def flat_torus(n):
    g = [["1" if a == b else "0" for b in range(n)] for a in range(n)]
    return ChartManifold([Axis(0.0, TWO_PI)] * n, g, name=f"flat_t{n}")


def sphere_chart():
    # round unit sphere, polar cap excluded; theta = x1, phi = x2
    return ChartManifold(
        [Axis(0.3, math.pi - 0.3, periodic=False), Axis(0.0, TWO_PI)],
        [["1", "0"], ["0", "sin(x1)^2"]],
        name="round_s2",
    )


def revolution_chart(u_src="2 + sin(x1)"):
    return ChartManifold(
        [Axis(0.0, TWO_PI), Axis(0.0, TWO_PI)],
        [["1", "0"], ["0", f"({u_src})^2"]],
        name="warped_surface",
    )


def test_flat_chart_connection_vanishes():
    m = flat_torus(3)
    rng = np.random.default_rng(0)
    pts = sample_points(m, 20, rng)
    data = ChartFrame(m, pts)
    # a metric that reads no axis is a plain array, its connection plain zeros
    assert data.flat and not isinstance(data.g, hd.HyperDual)
    assert data.gamma.shape == (20, 3, 3, 3)
    assert np.max(np.abs(data.gamma)) <= 1e-12
    assert np.max(np.abs(data.riemann)) <= 1e-12


def test_constant_metric_flat():
    g = [["2", "0.3", "0"], ["0.3", "1", "0"], ["0", "0", "1.5"]]
    m = ChartManifold([Axis(0.0, TWO_PI)] * 3, g)
    pts = sample_points(m, 10, np.random.default_rng(1))
    data = ChartFrame(m, pts)
    assert np.max(np.abs(data.gamma)) <= 1e-12
    assert np.max(np.abs(data.riemann)) <= 1e-12
    np.testing.assert_allclose(data.ginv @ data.g, np.broadcast_to(np.eye(3), (10, 3, 3)),
                               rtol=0, atol=1e-15)


@pytest.mark.parametrize("g", [[["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
                               [["2", "0.3", "0"], ["0.3", "1", "0.2"], ["0", "0.2", "1.5"]]])
def test_flat_inverse_metric_is_factored_once(g, monkeypatch):
    # at the first point, with the bits of the factorisation at every point
    m = ChartManifold([Axis(0.0, TWO_PI)] * 3, g)
    pts = sample_points(m, 40, np.random.default_rng(2)).reshape(5, 8, 3)
    Linv = lower_inverse(cholesky(m.metric_values(pts), pts))
    want = np.einsum("...ca,...cb->...ab", Linv, Linv)
    calls = []
    monkeypatch.setattr(chart_module, "cholesky",
                        lambda G, *a: calls.append(G.shape) or cholesky(G, *a))
    got = ChartFrame(m, pts).ginv
    assert calls == [(1, 3, 3)] and got.shape == (5, 8, 3, 3)
    assert np.array_equal(got, want)
    indefinite = ChartManifold([Axis(0.0, TWO_PI)] * 2, [["1", "0.5"], ["0.5", "-1"]])
    with pytest.raises(GeometryError, match=re.escape(
            f"metric not positive definite at {pts[0, 0, :2].tolist()}")):
        ChartFrame(indefinite, pts[..., :2]).ginv


def test_sphere_sectional_curvature_is_plus_one():
    # oracle: unit round sphere has sectional curvature +1 everywhere
    m = sphere_chart()
    p = np.array([math.pi / 2, 1.0])
    data = ChartFrame(m, p)
    # orthonormal frame at the equator: d_theta, d_phi/sin(theta)
    e1 = np.array([1.0, 0.0])
    e2 = np.array([0.0, 1.0 / math.sin(p[0])])
    K = np.einsum("abcd,a,b,c,d->", data.riemann, e1, e2, e1, e2)
    assert abs(K - 1.0) <= 1e-12
    np.testing.assert_allclose(data.sectional(np.array([e1, e2])), [[0, 1], [1, 0]],
                               rtol=0, atol=1e-12)

    # off-equator too
    p = np.array([1.1, 2.0])
    data = ChartFrame(m, p)
    e2 = np.array([0.0, 1.0 / math.sin(p[0])])
    K = np.einsum("abcd,a,b,c,d->", data.riemann, e1, e2, e1, e2)
    assert abs(K - 1.0) <= 1e-10
    np.testing.assert_allclose(data.sectional(np.array([e1, e2])), [[0, 1], [1, 0]],
                               rtol=0, atol=1e-10)


def test_revolution_surface_curvature_matches_u_ratio():
    # oracle: surface of revolution dt^2 + u(t)^2 dθ^2 has K = -u''/u
    m = revolution_chart()
    for t in [0.0, 0.7, math.pi / 2, 4.0]:
        p = np.array([t, 0.3])
        data = ChartFrame(m, p)
        u = 2 + math.sin(t)
        e1 = np.array([1.0, 0.0])
        e2 = np.array([0.0, 1.0 / u])
        K = np.einsum("abcd,a,b,c,d->", data.riemann, e1, e2, e1, e2)
        assert abs(K - (math.sin(t) / u)) <= 1e-12  # -u''/u with u'' = -sin t
        np.testing.assert_allclose(data.sectional(np.array([e1, e2])),
                                   [[0, math.sin(t) / u], [math.sin(t) / u, 0]],
                                   rtol=0, atol=1e-12)
    # spec spot value: t=0 gives exactly 0
    data = ChartFrame(m, np.array([0.0, 0.1]))
    K = data.riemann[0, 1, 0, 1] / (2 + math.sin(0.0)) ** 2
    assert abs(K) <= 1e-14
    assert abs(data.sectional(np.array([[1.0, 0.0], [0.0, 0.5]]))[0, 1]) <= 1e-14


def test_riemann_symmetries_and_bianchi():
    m = revolution_chart()
    m3 = ChartManifold(
        [Axis(0.0, TWO_PI)] * 3,
        [["1", "0", "0"],
         ["0", "(2 + sin(x1))^2", "0"],
         ["0", "0", "(2 + 0.5*cos(x1))^2"]],
    )
    for chart in (m, m3, sphere_chart()):
        pts = sample_points(chart, 15, np.random.default_rng(3))
        R = ChartFrame(chart, pts).riemann
        assert np.max(np.abs(R + np.swapaxes(R, -4, -3))) <= 1e-10
        assert np.max(np.abs(R + np.swapaxes(R, -2, -1))) <= 1e-10
        assert np.max(np.abs(R - np.einsum("...abcd->...cdab", R))) <= 1e-10
        bianchi = R + np.einsum("...abcd->...acdb", R) + np.einsum("...abcd->...adbc", R)
        assert np.max(np.abs(bianchi)) <= 1e-10


def test_christoffel_and_riemann_match_symbolic_oracle():
    # independent oracle: sympy differentiates a small non-diagonal metric
    # symbolically; nothing here shares code with the jet engine
    sp = pytest.importorskip("sympy")
    src = [["2 + sin(x2)", "0.5*cos(x3)", "0"],
           ["0.5*cos(x3)", "3", "0.4*sin(x1)"],
           ["0", "0.4*sin(x1)", "2 + cos(x2)"]]
    n = 3
    x = sp.symbols("x1:4")
    names = {f"x{a + 1}": x[a] for a in range(n)}
    G = sp.Matrix(n, n, lambda a, b: sp.sympify(src[a][b], locals=names))
    Ginv = G.adjugate() / G.det()
    gam = [[[sum(Ginv[c, d] * (sp.diff(G[b, d], x[a]) + sp.diff(G[a, d], x[b])
                               - sp.diff(G[a, b], x[d])) for d in range(n)) / 2
             for b in range(n)] for a in range(n)] for c in range(n)]
    dgam = [[[[sp.diff(gam[c][a][b], x[e]) for e in range(n)] for b in range(n)]
              for a in range(n)] for c in range(n)]
    f_g = sp.lambdify(x, G.tolist(), "math")
    f_gam = sp.lambdify(x, gam, "math", cse=True)
    f_dgam = sp.lambdify(x, dgam, "math", cse=True)

    rng = np.random.default_rng(21)
    pts = rng.uniform(0.0, TWO_PI, size=(4, n))
    frame = ChartFrame(ChartManifold([Axis(0.0, TWO_PI)] * n, src), pts)
    # rows that are not orthonormal read the whole biquadratic form
    rows = rng.uniform(-1.0, 1.0, size=(4, n + 1, n))
    K = frame.sectional(rows)
    for i, p in enumerate(pts):
        g = np.array(f_g(*p), dtype=float)
        Gam = np.array(f_gam(*p), dtype=float)     # Gam[c, a, b] = Gamma^c_ab
        dGam = np.array(f_dgam(*p), dtype=float)   # dGam[c, a, b, e] = d_e Gamma^c_ab
        # R[e, c, a, b] = d_a Gamma^e_bc - d_b Gamma^e_ac
        #               + Gamma^e_af Gamma^f_bc - Gamma^e_bf Gamma^f_ac
        R = np.zeros((n,) * 4)
        for e, c, a, b in np.ndindex(*R.shape):
            R[e, c, a, b] = dGam[e, b, c, a] - dGam[e, a, c, b] + sum(
                Gam[e, a, f] * Gam[f, b, c] - Gam[e, b, f] * Gam[f, a, c] for f in range(n))
        # engine orientation: riemann[a, b, c, d] = -g_de R^e_cab
        want = -np.einsum("de,ecab->abcd", g, R)
        np.testing.assert_allclose(frame.gamma.val[i], Gam, rtol=0, atol=1e-12)
        np.testing.assert_allclose(frame.gamma.grad[i], dGam, rtol=0, atol=1e-12)
        np.testing.assert_allclose(frame.riemann[i], want, rtol=0, atol=1e-12)
        E = rows[i]
        np.testing.assert_allclose(K[i], np.einsum("abcd,xa,yb,xc,yd->xy", want, E, E, E, E),
                                   rtol=0, atol=1e-12)


def differential_gamma(frame):
    """The Christoffel jet through the full-size coordinate differential of
    the metric, summed as three transposed copies: the reference route."""
    dg = frame.differential(frame.g)  # (..., a, b, d) = d_d g_ab
    combo = hd.einsum("...bda->...abd", dg) + hd.einsum("...adb->...abd", dg) - dg
    return 0.5 * hd.einsum("...cd,...abd->...cab", frame.ginv, combo)


TWO_AXIS_METRIC = [["2 + sin(x1)", "0.3*cos(x3)", "0.2*sin(x1 + x3)"],
                   ["0.3*cos(x3)", "(2 + cos(x1))^2", "0.1*sin(x3)"],
                   ["0.2*sin(x1 + x3)", "0.1*sin(x3)", "3 + sin(x1)*cos(x3)"]]


@pytest.mark.parametrize("name", sorted(kproduct_catalog()) + ["two seeded axes"])
def test_christoffel_from_slot_derivatives_keeps_the_bits_of_the_differential(name):
    if name == "two seeded axes":
        # a, b and d each land on both seeded axes, 1 and 3, and on the unseeded 2
        chart, split_axes = ChartManifold([Axis(0.0, TWO_PI)] * 3, TWO_AXIS_METRIC), set()
    else:
        scn = kproduct_catalog()[name]()
        chart, split_axes = scn.chart, scn.split.depends_on
    pts = sample_points(chart, 64, np.random.default_rng(8))
    if not chart.depends_on:
        # no metric derivative: exact zeros on either route
        assert not np.any(ChartFrame(chart, pts, split_axes).gamma)
        return
    for axes in (sorted(chart.depends_on | split_axes), None):
        frame = ChartFrame(chart, pts, axes)
        want = differential_gamma(frame)
        got = frame.gamma
        assert got.hess is None and want.hess is None
        assert got.val.tobytes() == want.val.tobytes(), axes
        assert got.grad.tobytes() == want.grad.tobytes(), axes


def test_sectional_on_seeded_axes_matches_every_axis():
    # the metric reads x1 only: a frame seeded on that axis alone contracts
    # the same curvature as one seeded on all three
    m = ChartManifold([Axis(0.0, TWO_PI)] * 3,
                      [["1", "0.3*sin(x1)", "0"],
                       ["0.3*sin(x1)", "(2 + sin(x1))^2", "0"],
                       ["0", "0", "(2 + 0.5*cos(x1))^2"]])
    rng = np.random.default_rng(5)
    pts = sample_points(m, 12, rng)
    rows = rng.uniform(-1.0, 1.0, size=(12, 3, 3))
    seeded = ChartFrame(m, pts, axes=[0])
    full = ChartFrame(m, pts)
    assert seeded.gamma.grad.shape[-1] == 1
    want = full.sectional(rows)
    np.testing.assert_allclose(seeded.sectional(rows), want, rtol=0,
                               atol=1e-14 * (1.0 + np.max(np.abs(want))))


def test_non_spd_metric_rejected():
    m = ChartManifold([Axis(0.0, TWO_PI)], [["sin(x1)"]])
    with pytest.raises(GeometryError):
        m.validate()


def test_periodicity_validation():
    good = revolution_chart()
    assert good.validate()
    bad = ChartManifold([Axis(0.0, TWO_PI)], [["2 + sin(0.5*x1)"]])
    with pytest.raises(GeometryError):
        bad.validate()


def test_divergence_trivial_fields():
    m = flat_torus(3)
    rng = np.random.default_rng(5)
    pts = sample_points(m, 8, rng)

    frame = ChartFrame(m, pts)
    x = frame.coords

    const = hd.stack([hd.as_jet(1.0, x[0]), hd.as_jet(-2.0, x[0]), hd.as_jet(0.5, x[0])])
    assert np.max(np.abs(frame.divergence_of(const))) <= 1e-14

    linear = hd.stack([x[0], hd.as_jet(0.0, x[0]), hd.as_jet(0.0, x[0])])
    np.testing.assert_allclose(frame.divergence_of(linear), 1.0, rtol=1e-14)


def test_narrow_frame_has_one_layout(monkeypatch):
    # the metric reads x1 only: a frame seeded along that axis carries one
    # derivative slot in every jet, its coordinate jets included
    m = ChartManifold([Axis(0.0, TWO_PI)] * 3,
                      [["1", "0", "0"], ["0", "(2 + sin(x1))^2", "0"], ["0", "0", "1"]])
    pts = sample_points(m, 9, np.random.default_rng(8))
    narrow, full = ChartFrame(m, pts, axes=[0]), ChartFrame(m, pts)
    assert [x.dim for x in narrow.coords] == [1, 1, 1] and narrow.g.dim == 1
    assert [x.dim for x in full.coords] == [3, 3, 3]

    # on fields that move along the seeded axis only, the operators agree
    def field(x):
        return hd.stack([hd.sin(x[0]) * hd.cos(x[0]), x[0] * x[0], hd.sin(x[0])])

    np.testing.assert_allclose(narrow.divergence_of(field(narrow.coords)),
                               full.divergence_of(field(full.coords)), rtol=1e-14, atol=1e-14)
    def grad(frame, f):  # contravariant gradient, an order-1 jet on the seeded slots
        return hd.einsum("...ab,...b->...a", frame.ginv, frame.differential(f))

    got = narrow.divergence_of(grad(narrow, narrow.g[..., 1, 1]))
    want = full.divergence_of(grad(full, full.g[..., 1, 1]))
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-14)
    # a jet with another slot count, the full frame's included, is refused
    for axes in ([0, 1], [0, 1, 2]):
        with pytest.raises(GeometryError, match=f"{len(axes)} derivative slots"):
            narrow.divergence_of(hd.stack(hd.seed_jets(pts, axes=axes)))

    # a narrow split context seeds m = 1 slot and evaluates the metric and
    # the frame once each, on jets with that one slot
    seeded, evaluated = [], []
    monkeypatch.setattr("splitgeom.chart.seed_jets", lambda points, axes=None: (
        seeded.append(axes) or hd.seed_jets(points, axes)))
    call = ExpressionMatrix.__call__

    def counting(matrix, coords):
        evaluated.append((matrix, {x.dim for x in coords}))
        return call(matrix, coords)

    monkeypatch.setattr(ExpressionMatrix, "__call__", counting)
    split = SplitStructure((1, 2), [["1", "0", "0"], ["0", "cos(x1)", "sin(x1)"],
                                    ["0", "-sin(x1)", "cos(x1)"]])
    ctx = SplitContext(m, split, pts)
    ctx.cov  # builds the diagonal jet of the connection
    assert ctx.E.grad.shape[-1] == 1 and ctx.E.hess.shape[-2:] == (1, 1)
    assert ctx._diag.grad.shape[-1] == 1
    assert seeded == [[0]]
    assert evaluated == [(m.metric_at, {1}), (split.frame, {1})]


@pytest.mark.parametrize("v", [1, 2, 3, 4, 5])
def test_lower_inverse_matches_the_general_inverse(v):
    # batched Cholesky factors of random SPD matrices
    rng = np.random.default_rng(40 + v)
    A = rng.standard_normal((6, 7, v, v))
    L = np.linalg.cholesky(A @ np.swapaxes(A, -1, -2) + 0.1 * np.eye(v))
    got, want = lower_inverse(L), np.linalg.inv(L)
    assert np.all(np.triu(got, 1) == 0.0)
    scale = np.max(np.abs(want), axis=(-2, -1), keepdims=True)
    assert np.max(np.abs(got - want) / scale) <= 1e-14
    assert np.max(np.abs(got @ L - np.eye(v))) <= 1e-12


def test_no_module_calls_the_general_inverse():
    # metrics, frames and immersions are inverted through their Cholesky
    # factors (lower_inverse), whose triangle np.linalg.inv would ignore
    src = pathlib.Path(hd.__file__).parent
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute) and node.attr == "inv"
                    and isinstance(node.value, ast.Attribute) and node.value.attr == "linalg"):
                raise AssertionError(f"{path.name}:{node.lineno} calls np.linalg.inv; "
                                     f"use chart.lower_inverse of a Cholesky factor")


def test_inverse_metric_refuses_an_indefinite_metric_and_names_the_point():
    m = ChartManifold([Axis(0.0, TWO_PI)] * 2, [["1", "0"], ["0", "cos(x1)"]])
    pts = np.array([[0.5, 1.0], [2.0, 0.25], [3.0, 1.0]])
    with pytest.raises(GeometryError, match=r"metric not positive definite at \[2\.0, 0\.25\]"):
        ChartFrame(m, pts).ginv
    np.testing.assert_allclose(ChartFrame(m, pts[:1]).ginv.val[0],
                               [[1.0, 0.0], [0.0, 1.0 / math.cos(0.5)]], rtol=1e-15)


def test_sphere_laplacian_l1_eigenfunction():
    # oracle: on the unit sphere, Div grad(cos θ) = -2 cos θ (l=1 mode)
    m = sphere_chart()
    pts = sample_points(m, 12, np.random.default_rng(7))
    frame = ChartFrame(m, pts)
    grad = hd.einsum("...ab,...b->...a", frame.ginv,
                     frame.differential(hd.cos(frame.coords[0])))
    got = frame.divergence_of(grad)
    np.testing.assert_allclose(got, -2.0 * np.cos(pts[..., 0]), atol=1e-10)
    # so the geometers' Laplacian -Div grad has a positive spectrum
    np.testing.assert_allclose(-got, 2.0 * np.cos(pts[..., 0]), atol=1e-10)


def test_integrate_unit_volume():
    m = flat_torus(3)
    m_unit = ChartManifold([Axis(0.0, 1.0)] * 3,
                           [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]])
    vol = integrate(m_unit, lambda p: np.ones(p.shape[0]), 8, chunk=4096)
    assert abs(vol - 1.0) <= 1e-14
    vol2 = integrate(m, lambda p: np.ones(p.shape[0]), 6, chunk=4096)
    assert abs(vol2 - TWO_PI ** 3) <= 1e-10 * TWO_PI ** 3


def test_integrate_oscillation_cancels():
    m = flat_torus(3)
    val = integrate(m, lambda p: np.sin(p[..., 0]), 8, chunk=4096)
    assert abs(val) <= 1e-13 * TWO_PI ** 3


def test_integrate_warped_volume():
    # oracle: independent 1-d quadrature of the volume density
    m = revolution_chart()
    vol = integrate(m, lambda p: np.ones(p.shape[0]), 32, chunk=4096)
    one_d, _ = scipy.integrate.quad(lambda t: 2 + math.sin(t), 0, TWO_PI)
    expected = TWO_PI * one_d  # = 8 pi^2
    assert abs(expected - 8 * math.pi ** 2) <= 1e-10
    assert abs(vol - expected) <= 1e-12 * expected


def test_integrate_requires_closed_chart():
    with pytest.raises(NonClosedChartError):
        integrate(sphere_chart(), lambda p: np.ones(p.shape[0]), 8, chunk=4096)
    with pytest.raises(GeometryError):
        integrate(flat_torus(2), lambda p: np.ones(p.shape[0]), 3, chunk=4096)


def test_quadrature_spectral_convergence():
    # three closed-form integrals; error must fall at least geometrically
    m1 = ChartManifold([Axis(0.0, TWO_PI)], [["1"]])
    cases = [
        (lambda p: np.exp(np.sin(p[..., 0])), TWO_PI * scipy.special.iv(0, 1.0)),
        (lambda p: 1.0 / (2.0 + np.sin(p[..., 0])), TWO_PI / math.sqrt(3.0)),
        (lambda p: np.exp(np.cos(p[..., 0])) * np.cos(np.sin(p[..., 0])), TWO_PI),
    ]
    for f, exact in cases:
        errs = []
        for res in (4, 8, 16, 32):
            errs.append(abs(integrate(m1, f, [res], chunk=4096) - exact))
        for lo, hi in zip(errs[1:], errs[:-1]):
            assert lo <= 0.5 * hi or lo <= 1e-14 * abs(exact)
        assert errs[-1] <= 1e-12 * abs(exact)


def test_integration_deterministic_under_threads():
    m = revolution_chart()
    f = lambda p: np.exp(np.sin(p[..., 0])) * np.cos(p[..., 1])
    a = integrate(m, f, 16, chunk=64, threads=1)
    b = integrate(m, f, 16, chunk=64, threads=4)
    assert a == b
    # a dict-valued integrand gives the same integrals from one sweep
    both = integrate(m, lambda p: {"f": f(p), "one": np.ones(p.shape[0])}, 16,
                     chunk=64, threads=4)
    one = integrate(m, lambda p: np.ones(p.shape[0]), 16, chunk=4096)
    assert both == {"f": a, "one": one}


def test_depends_on_is_the_union_of_metric_axes():
    assert revolution_chart().depends_on == {0}
    assert flat_torus(3).depends_on == frozenset()


def test_expression_matrix_names_the_entry_it_cannot_parse():
    rows = [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]
    rows[0][1] = "x4"
    with pytest.raises(ex.ExprError) as err:
        ExpressionMatrix(rows, 3, "metric")
    assert str(err.value) == ("coordinate x4 exceeds chart dimension 3 (byte offset 0) "
                              "in metric entry (1, 2) 'x4'")
    rows[0][1], rows[2][0] = "0", "sin(x1"
    with pytest.raises(ex.ExprError, match=r" in spanning frame entry \(3, 1\) 'sin\(x1'$"):
        ExpressionMatrix(rows, 3, "spanning frame")


def test_expression_matrix_parses_each_distinct_source_once(monkeypatch):
    # a coordinate split's n^2 literals are two trees; a repeated bad source
    # is named by its first entry
    calls = []
    parse = ex.parse_expr
    monkeypatch.setattr(chart_module, "parse_expr", lambda *a: calls.append(a) or parse(*a))
    rows = coordinate_split((1, 2, 2)).frame.rows
    assert sorted(src for src, _ in calls) == ["0", "1"]
    assert all(rows[a][b] is rows[0][0 if a == b else 1] for a in range(5) for b in range(5))
    bad = [["1", "sin(x1", "0"], ["sin(x1", "1", "0"], ["0", "0", "sin(x1"]]
    with pytest.raises(ex.ExprError, match=r" in metric entry \(1, 2\) 'sin\(x1'$"):
        ExpressionMatrix(bad, 3, "metric")


def test_validate_names_the_metric_entry_and_lattice_point_of_a_domain_error():
    # the lattice is evaluated whole, and entry by entry (ExpressionMatrix.locate)
    # only after that fails
    axes = [Axis(-1.0, 1.0, periodic=False), Axis(0.4, 2.74, periodic=False),
            Axis(0.0, TWO_PI)]
    chart = ChartManifold(axes, [["sqrt(x1)", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]])
    with pytest.raises(ex.ExprError) as err:
        chart.validate()
    head = "sqrt: sqrt of negative value in metric entry (1, 1) 'sqrt(x1)' at "
    assert str(err.value).startswith(head)
    point = ast.literal_eval(str(err.value)[len(head):])
    lattice = grid_points(chart, [5] * 3, inset=1e-3).reshape(-1, 3).tolist()
    assert point in lattice and point[0] < 0.0


def test_expression_matrix_evaluates_a_repeated_subexpression_once(monkeypatch):
    # a rotation by sin(x1): the inner sin(x1) is evaluated once for all four
    # entries, the outer sin once for two, and the values keep their bits
    calls = []
    sin = hd.sin
    monkeypatch.setitem(ex._FN_IMPL, "sin", lambda x: calls.append(1) or sin(x))
    t = "sin(x1)"
    rot = ExpressionMatrix([[f"cos({t})", f"sin({t})"], [f"-sin({t})", f"cos({t})"]],
                           2, "frame")
    assert rot.depends_on == {0}
    xs = hd.seed_jets(np.array([[0.3, 1.0], [2.0, 0.5]]))
    values = rot(xs)
    assert len(calls) == 2
    for row, asts in zip(values, rot.rows):
        for v, ast in zip(row, asts):
            want = ex.evaluate(ast, xs)
            for part in ("val", "grad", "hess"):
                assert np.array_equal(getattr(v, part), getattr(want, part))


def test_rectangle_rule_over_declared_axes_gives_the_full_grid_bits():
    # the integrand and the metric read x1 only; 24 values, each counted 6 times
    m = revolution_chart()

    def integral(quad):
        p = quad.nodes
        w = _volume_element(m.metric_values(p), p)
        return quad.integrals({"f": np.exp(np.sin(p[..., 0]))}, w)["f"]

    full, reduced = rectangle_rule(m, [24, 6]), rectangle_rule(m, [24, 6], axes={0})
    assert integral(reduced) == integral(full)
    assert full.grid == reduced.grid == [24, 6] and full.cell == reduced.cell
    assert (len(full.nodes), full.count, len(reduced.nodes), reduced.count) == (144, 1, 24, 6)
    np.testing.assert_array_equal(reduced.nodes, full.nodes[::6])


@pytest.mark.parametrize("count, chunk, threads", [
    (10, 4, 1), (10, 4, 2), (10, 4, 3), (576, 512, 2), (13824, 809, 2), (13824, 539, 3),
    (5, 1000, 3), (2, 1000, 3), (1, 1, 2)])
def test_map_batched_balances_its_chunks_over_the_workers(count, chunk, threads):
    pts = np.arange(2.0 * count).reshape(count, 2)
    sizes = []

    def fn(p):
        sizes.append(len(p))  # list.append is atomic across the workers
        return p[:, 0] - 2.0 * p[:, 1]

    out = map_batched(fn, pts, chunk=chunk, threads=threads)
    assert np.array_equal(out, pts[:, 0] - 2.0 * pts[:, 1])
    assert sum(sizes) == count and max(sizes) <= chunk
    assert max(sizes) - min(sizes) <= 1
    # the chunks bound memory only: their count does not depend on the workers
    assert len(sizes) == -(-count // chunk)


@pytest.mark.parametrize("count", [1, 3, 6, 150, 4097])
def test_repeated_sum_has_the_bits_of_the_repeated_values(count):
    rng = np.random.default_rng(count)
    for trial in range(40):
        v = rng.normal(size=37) * 10.0 ** rng.integers(-12, 12, size=37)
        if trial % 2:
            # near-cancelling pairs: the sum is far below its terms
            v = np.concatenate([v, -v * (1.0 + 1e-15 * rng.normal(size=v.size))])
        want = math.fsum(np.repeat(v, count).tolist())
        assert _repeated_fsum(v, count) == want


@pytest.mark.parametrize("v", [
    [1e300, -1e300, 3.0, 2.0 ** 1000],   # a split would overflow
    [1e-300, 3.0, -1e-300],              # a split could lose bits
    [1.0, math.inf], [1.0, -math.inf], [1.0, math.nan],
])
def test_repeated_sum_falls_back_to_repeating(v):
    want = math.fsum(np.repeat(v, 7).tolist())
    got = _repeated_fsum(np.array(v), 7)
    assert got == want or (math.isnan(got) and math.isnan(want))


def test_integrate_rejects_non_positive_volume_element():
    # det g = sin(x1) vanishes at the first node and is negative on half the grid
    m = ChartManifold([Axis(0.0, TWO_PI)] * 2, [["sin(x1)", "0"], ["0", "1"]])
    with pytest.raises(GeometryError, match=r"not positive at \[0\.0, 0\.0\]"):
        integrate(m, lambda p: np.ones(p.shape[0]), 8, chunk=4096)


def test_grid_points_shape():
    m = flat_torus(2)
    pts = grid_points(m, [4, 6])
    assert pts.shape == (4, 6, 2)
    assert pts[0, 0, 0] == 0.0
