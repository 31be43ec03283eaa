import math

import numpy as np
import pytest
import scipy.integrate
import scipy.special

from splitgeom import hyperdual as hd
from splitgeom.chart import (
    Axis,
    ChartManifold,
    ChartFrame,
    GeometryError,
    NonClosedChartError,
    connection_at,
    divergence,
    div_grad,
    laplacian_geom,
    grid_points,
    integrate,
    sample_points,
)

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
    data = connection_at(m, pts)
    assert np.max(np.abs(data.gamma)) <= 1e-12
    assert np.max(np.abs(data.riemann)) <= 1e-12


def test_constant_metric_flat():
    g = [["2", "0.3", "0"], ["0.3", "1", "0"], ["0", "0", "1.5"]]
    m = ChartManifold([Axis(0.0, TWO_PI)] * 3, g)
    pts = sample_points(m, 10, np.random.default_rng(1))
    data = connection_at(m, pts)
    assert np.max(np.abs(data.gamma)) <= 1e-12
    assert np.max(np.abs(data.riemann)) <= 1e-12


def test_sphere_sectional_curvature_is_plus_one():
    # oracle: unit round sphere has sectional curvature +1 everywhere
    m = sphere_chart()
    p = np.array([math.pi / 2, 1.0])
    data = connection_at(m, p)
    # orthonormal frame at the equator: d_theta, d_phi/sin(theta)
    e1 = np.array([1.0, 0.0])
    e2 = np.array([0.0, 1.0 / math.sin(p[0])])
    K = np.einsum("abcd,a,b,c,d->", data.riemann, e1, e2, e1, e2)
    assert abs(K - 1.0) <= 1e-12

    # off-equator too
    p = np.array([1.1, 2.0])
    data = connection_at(m, p)
    e2 = np.array([0.0, 1.0 / math.sin(p[0])])
    K = np.einsum("abcd,a,b,c,d->", data.riemann, e1, e2, e1, e2)
    assert abs(K - 1.0) <= 1e-10


def test_revolution_surface_curvature_matches_u_ratio():
    # oracle: surface of revolution dt^2 + u(t)^2 dθ^2 has K = -u''/u
    m = revolution_chart()
    for t in [0.0, 0.7, math.pi / 2, 4.0]:
        p = np.array([t, 0.3])
        data = connection_at(m, p)
        u = 2 + math.sin(t)
        e1 = np.array([1.0, 0.0])
        e2 = np.array([0.0, 1.0 / u])
        K = np.einsum("abcd,a,b,c,d->", data.riemann, e1, e2, e1, e2)
        assert abs(K - (math.sin(t) / u)) <= 1e-12  # -u''/u with u'' = -sin t
    # spec spot value: t=0 gives exactly 0
    data = connection_at(m, np.array([0.0, 0.1]))
    K = data.riemann[0, 1, 0, 1] / (2 + math.sin(0.0)) ** 2
    assert abs(K) <= 1e-14


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
        R = connection_at(chart, pts).riemann
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

    pts = np.random.default_rng(21).uniform(0.0, TWO_PI, size=(4, n))
    frame = ChartFrame(ChartManifold([Axis(0.0, TWO_PI)] * n, src), pts)
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

    const = lambda x: [hd.as_jet(1.0, x[0]), hd.as_jet(-2.0, x[0]), hd.as_jet(0.5, x[0])]
    assert np.max(np.abs(divergence(m, const, pts))) <= 1e-14

    linear = lambda x: [x[0], hd.as_jet(0.0, x[0]), hd.as_jet(0.0, x[0])]
    np.testing.assert_allclose(divergence(m, linear, pts), 1.0, rtol=1e-14)


def test_sphere_laplacian_l1_eigenfunction():
    # oracle: on the unit sphere, Div grad(cos θ) = -2 cos θ (l=1 mode)
    m = sphere_chart()
    pts = sample_points(m, 12, np.random.default_rng(7))
    f = lambda x: hd.cos(x[0])
    got = div_grad(m, f, pts)
    np.testing.assert_allclose(got, -2.0 * np.cos(pts[..., 0]), atol=1e-10)
    np.testing.assert_allclose(laplacian_geom(m, f, pts), 2.0 * np.cos(pts[..., 0]),
                               atol=1e-10)


def test_integrate_unit_volume():
    m = flat_torus(3)
    m_unit = ChartManifold([Axis(0.0, 1.0)] * 3,
                           [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]])
    vol = integrate(m_unit, lambda p: np.ones(p.shape[0]), 8)
    assert abs(vol - 1.0) <= 1e-14
    vol2 = integrate(m, lambda p: np.ones(p.shape[0]), 6)
    assert abs(vol2 - TWO_PI ** 3) <= 1e-10 * TWO_PI ** 3


def test_integrate_oscillation_cancels():
    m = flat_torus(3)
    val = integrate(m, lambda p: np.sin(p[..., 0]), 8)
    assert abs(val) <= 1e-13 * TWO_PI ** 3


def test_integrate_warped_volume():
    # oracle: independent 1-d quadrature of the volume density
    m = revolution_chart()
    vol = integrate(m, lambda p: np.ones(p.shape[0]), 32)
    one_d, _ = scipy.integrate.quad(lambda t: 2 + math.sin(t), 0, TWO_PI)
    expected = TWO_PI * one_d  # = 8 pi^2
    assert abs(expected - 8 * math.pi ** 2) <= 1e-10
    assert abs(vol - expected) <= 1e-12 * expected


def test_integrate_requires_closed_chart():
    with pytest.raises(NonClosedChartError):
        integrate(sphere_chart(), lambda p: np.ones(p.shape[0]), 8)
    with pytest.raises(GeometryError):
        integrate(flat_torus(2), lambda p: np.ones(p.shape[0]), 3)


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
            errs.append(abs(integrate(m1, f, [res]) - exact))
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
    assert both == {"f": a, "one": integrate(m, lambda p: np.ones(p.shape[0]), 16)}


def test_integrate_rejects_non_positive_volume_element():
    # det g = sin(x1) vanishes at the first node and is negative on half the grid
    m = ChartManifold([Axis(0.0, TWO_PI)] * 2, [["sin(x1)", "0"], ["0", "1"]])
    with pytest.raises(GeometryError, match=r"not positive at \[0\.0, 0\.0\]"):
        integrate(m, lambda p: np.ones(p.shape[0]), 8)


def test_grid_points_shape():
    m = flat_torus(2)
    pts = grid_points(m, [4, 6])
    assert pts.shape == (4, 6, 2)
    assert pts[0, 0, 0] == 0.0
