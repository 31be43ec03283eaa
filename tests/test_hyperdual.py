import math

import numpy as np
import pytest

from splitgeom import hyperdual as hd
from splitgeom.hyperdual import HyperDual, seed_jets, differential


# Independent oracle: central finite differences of a plain-float function.

def fd_grad(f, x, h=1e-4):
    x = np.asarray(x, dtype=float)
    n = x.size
    g = np.zeros(n)
    for a in range(n):
        xp, xm = x.copy(), x.copy()
        xp[a] += h
        xm[a] -= h
        g[a] = (f(xp) - f(xm)) / (2 * h)
    return g


def fd_hess(f, x, h=1e-3):
    x = np.asarray(x, dtype=float)
    n = x.size
    H = np.zeros((n, n))
    f0 = f(x)
    for a in range(n):
        for b in range(a, n):
            if a == b:
                xp, xm = x.copy(), x.copy()
                xp[a] += h
                xm[a] -= h
                H[a, a] = (f(xp) - 2 * f0 + f(xm)) / h**2
            else:
                xpp, xpm, xmp, xmm = x.copy(), x.copy(), x.copy(), x.copy()
                xpp[[a, b]] += h
                xmm[[a, b]] -= h
                xpm[a] += h
                xpm[b] -= h
                xmp[a] -= h
                xmp[b] += h
                H[a, b] = H[b, a] = (f(xpp) - f(xpm) - f(xmp) + f(xmm)) / (4 * h**2)
    return H


def jet_of(f, x):
    xs = seed_jets(np.asarray(x, dtype=float))
    return f(xs)


def test_sin_jet_at_zero():
    j = jet_of(lambda x: hd.sin(x[0]), [0.0])
    assert j.val == 0.0
    assert j.grad[0] == 1.0
    assert j.hess[0, 0] == 0.0


def test_bilinear_jet():
    j = jet_of(lambda x: x[0] * x[1], [2.0, 3.0])
    assert j.val == 6.0
    np.testing.assert_allclose(j.grad, [3.0, 2.0])
    np.testing.assert_allclose(j.hess, [[0.0, 1.0], [1.0, 0.0]])


def test_exp_square_against_analytic_and_fd():
    # d/dx exp(x^2) = 2x exp(x^2); d2/dx2 = (2 + 4x^2) exp(x^2)
    j = jet_of(lambda x: hd.exp(x[0] ** 2), [1.0])
    e = math.e
    np.testing.assert_allclose(j.grad, [2 * e], rtol=1e-14)
    np.testing.assert_allclose(j.hess, [[6 * e]], rtol=1e-14)

    f = lambda x: math.exp(x[0] ** 2)
    assert abs(j.grad[0] - fd_grad(f, [1.0])[0]) <= 1e-6 * (1 + abs(j.grad[0]))
    assert abs(j.hess[0, 0] - fd_hess(f, [1.0])[0, 0]) <= 1e-5 * (1 + abs(j.hess[0, 0]))


def test_quotient_and_sqrt_chain():
    def expr(x):
        return hd.sqrt(x[0] ** 2 + x[1] ** 2) / (2.0 + hd.cos(x[0] * x[1]))

    def plain(x):
        return math.sqrt(x[0] ** 2 + x[1] ** 2) / (2.0 + math.cos(x[0] * x[1]))

    p = np.array([0.7, -1.3])
    j = jet_of(expr, p)
    np.testing.assert_allclose(j.val, plain(p), rtol=1e-15)
    np.testing.assert_allclose(j.grad, fd_grad(plain, p), atol=1e-7)
    np.testing.assert_allclose(j.hess, fd_hess(plain, p), atol=1e-5)


def test_random_compositions_match_fd():
    rng = np.random.default_rng(7)
    ops_bin = [lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b]
    ops_un = [hd.sin, hd.cos, hd.exp, lambda t: t * t]
    plain_un = [math.sin, math.cos, math.exp, lambda t: t * t]

    for _ in range(200):
        n = rng.integers(1, 4)
        p = rng.uniform(-1.0, 1.0, size=n)
        iu = rng.integers(0, len(ops_un), size=3)
        ib = rng.integers(0, len(ops_bin), size=2)
        a_idx, b_idx = rng.integers(0, n, size=2)

        def build(x, uns):
            t1 = uns[iu[0]](x[a_idx])
            t2 = uns[iu[1]](x[b_idx])
            t = ops_bin[ib[0]](t1, t2)
            t = ops_bin[ib[1]](t, uns[iu[2]](x[0]))
            return t

        j = build(seed_jets(p), ops_un)
        f = lambda x: build(list(x), plain_un)
        scale = 1.0 + np.max(np.abs(j.grad))
        np.testing.assert_allclose(j.grad, fd_grad(f, p), atol=1e-5 * scale)
        hscale = 1.0 + np.max(np.abs(j.hess))
        np.testing.assert_allclose(j.hess, fd_hess(f, p), atol=2e-4 * hscale)


def test_hessian_symmetry_random():
    rng = np.random.default_rng(3)
    for _ in range(50):
        p = rng.uniform(0.2, 1.5, size=3)
        x = seed_jets(p)
        j = hd.exp(x[0] * x[1]) * hd.sin(x[2] + x[0] ** 3) + hd.log(x[1]) / x[2]
        np.testing.assert_array_equal(j.hess, np.swapaxes(j.hess, -1, -2))


def test_differential_gives_first_order_jet():
    x = seed_jets(np.array([0.4, 1.1]))
    f = hd.sin(x[0]) * x[1]  # df/dx0 = cos(x0)*x1
    d = differential(f)
    assert d.order == 1
    d0 = d[..., 0]
    np.testing.assert_allclose(d0.val, math.cos(0.4) * 1.1, rtol=1e-15)
    # gradient of df/dx0 is (-sin(x0)*x1, cos(x0))
    np.testing.assert_allclose(d0.grad, [-math.sin(0.4) * 1.1, math.cos(0.4)], rtol=1e-14)
    with pytest.raises(hd.JetOrderError):
        differential(d0)


def test_batched_evaluation_matches_scalar():
    pts = np.array([[0.3, 0.9], [1.2, -0.4], [2.0, 0.1]])
    xs = seed_jets(pts)
    j = hd.exp(x := xs[0] * xs[1]) + hd.cos(xs[0])  # noqa: F841 (x unused)
    for i, p in enumerate(pts):
        ji = jet_of(lambda y: hd.exp(y[0] * y[1]) + hd.cos(y[0]), p)
        np.testing.assert_allclose(j.val[i], ji.val, rtol=1e-15)
        np.testing.assert_allclose(j.grad[i], ji.grad, rtol=1e-15)
        np.testing.assert_allclose(j.hess[i], ji.hess, rtol=1e-15)


def test_domain_errors():
    x = seed_jets(np.array([-1.0]))
    with pytest.raises(hd.JetDomainError):
        hd.log(x[0])
    with pytest.raises(hd.JetDomainError):
        hd.sqrt(x[0])
    with pytest.raises(hd.JetDomainError):
        x[0] ** 0.5
    y = seed_jets(np.array([0.0]))
    with pytest.raises(hd.JetDomainError):
        1.0 / y[0]


def test_integer_powers_including_negative():
    x = seed_jets(np.array([1.7]))[0]
    j = x ** (-2)
    np.testing.assert_allclose(j.val, 1.7 ** (-2.0), rtol=1e-15)
    np.testing.assert_allclose(j.grad, [-2 * 1.7 ** (-3.0)], rtol=1e-14)
    np.testing.assert_allclose(j.hess, [[6 * 1.7 ** (-4.0)]], rtol=1e-14)


# Tensor jets against the same contraction written with scalar jets.

def _random_scalar(xs, rng):
    i, j, k = rng.integers(0, len(xs), size=3)
    c = rng.uniform(0.5, 1.5, size=3)
    return c[0] * hd.sin(xs[i]) * hd.cos(xs[j]) + c[1] * xs[k] * xs[i] + hd.exp(c[2] * xs[j])


def _random_nested(xs, rng, shape):
    if not shape:
        return _random_scalar(xs, rng)
    return [_random_nested(xs, rng, shape[1:]) for _ in range(shape[0])]


def _first_order(j):
    return HyperDual(j.val, j.grad)


def _assert_entry(tensor, idx, scalar):
    """Entry ``idx`` of a tensor jet equals a scalar jet (value, gradient and,
    where the scalar has one, Hessian); the tensor has a Hessian iff it does."""
    at = (Ellipsis,) + idx
    np.testing.assert_allclose(tensor.val[at], scalar.val, rtol=1e-13, atol=1e-13)
    np.testing.assert_allclose(tensor.grad[at + (slice(None),)], scalar.grad,
                               rtol=1e-13, atol=1e-13)
    assert tensor.order == scalar.order
    if scalar.hess is not None:
        np.testing.assert_allclose(tensor.hess[at + (slice(None),) * 2], scalar.hess,
                                   rtol=1e-13, atol=1e-12)


def test_stack_nested_and_along_an_axis():
    rng = np.random.default_rng(31)
    xs = seed_jets(rng.uniform(-1.0, 1.0, size=(5, 3)))
    rows = _random_nested(xs, rng, (2, 3))
    rows[1][2] = 0.5  # a constant entry becomes a constant jet
    M = hd.stack(rows, ref=xs[0])
    assert M.val.shape == (5, 2, 3) and M.hess.shape == (5, 2, 3, 3, 3)
    for a, b in np.ndindex(2, 3):
        _assert_entry(M, (a, b), hd.as_jet(rows[a][b], xs[0]))
    # stacking row vectors along axis -2 gives the same matrix
    V = hd.stack([hd.stack(r, ref=xs[0]) for r in rows], axis=-2)
    for slot in ("val", "grad", "hess"):
        np.testing.assert_array_equal(getattr(V, slot), getattr(M, slot))
    # one order-1 entry drops the Hessian of the whole stack
    rows[0][0] = _first_order(rows[0][0])
    assert hd.stack(rows).order == 1
    # without jets the result is a plain array
    np.testing.assert_array_equal(hd.stack([[1.0, 2.0], [3.0, 4.0]]), [[1.0, 2.0], [3.0, 4.0]])


def test_einsum_matches_scalar_jet_loops():
    rng = np.random.default_rng(32)
    xs = seed_jets(rng.uniform(-1.0, 1.0, size=(4, 3)))
    A = _random_nested(xs, rng, (2, 3))
    B = _random_nested(xs, rng, (3, 2))
    u = _random_nested(xs, rng, (3,))
    M = rng.uniform(-1.0, 1.0, size=(4, 3, 3))  # plain array operand
    JA, JB, Ju = hd.stack(A), hd.stack(B), hd.stack(u)

    # two jets: matrix product
    AB = hd.einsum("...ab,...bc->...ac", JA, JB)
    for a, c in np.ndindex(2, 2):
        ref = A[a][0] * B[0][c] + A[a][1] * B[1][c] + A[a][2] * B[2][c]
        _assert_entry(AB, (a, c), ref)

    # three operands, the middle one a plain array
    q = hd.einsum("...a,...ab,...b->...", Ju, M, Ju)
    ref = None
    for a, b in np.ndindex(3, 3):
        term = u[a] * M[:, a, b] * u[b]
        ref = term if ref is None else ref + term
    _assert_entry(q, (), ref)

    # three jets, all of order 2
    G = _random_nested(xs, rng, (3, 3))
    q = hd.einsum("...a,...ab,...b->...", Ju, hd.stack(G), Ju)
    ref = None
    for a, b in np.ndindex(3, 3):
        term = u[a] * G[a][b] * u[b]
        ref = term if ref is None else ref + term
    _assert_entry(q, (), ref)

    # three jets with a repeated index and an order-1 operand: no Hessian
    u1 = [_first_order(c) for c in u]
    w = hd.einsum("...ab,...b,...b->...a", JA, hd.stack(u1), Ju)
    for a in range(2):
        ref = A[a][0] * u1[0] * u[0] + A[a][1] * u1[1] * u[1] + A[a][2] * u1[2] * u[2]
        _assert_entry(w, (a,), ref)
    assert w.hess is None

    # no jet operand: plain einsum
    np.testing.assert_array_equal(hd.einsum("...ab->...ba", M), np.swapaxes(M, -1, -2))


def test_differential_matches_scalar_slices():
    rng = np.random.default_rng(33)
    xs = seed_jets(rng.uniform(-1.0, 1.0, size=(3, 3)))
    F = _random_nested(xs, rng, (2, 2))
    D = hd.differential(hd.stack(F))
    assert D.order == 1 and D.val.shape == (3, 2, 2, 3)
    for a, b, c in np.ndindex(2, 2, 3):
        # d_c F_ab: value from the gradient, gradient from the Hessian
        _assert_entry(D, (a, b, c), HyperDual(F[a][b].grad[..., c], F[a][b].hess[..., c, :]))
    with pytest.raises(hd.JetOrderError):
        hd.differential(D)
