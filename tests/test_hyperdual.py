import ast
import math
import operator
import pathlib
import sys
from concurrent.futures import ThreadPoolExecutor

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


def test_seed_jets_along_chosen_axes_are_the_slices_of_every_axis():
    rng = np.random.default_rng(3)
    pts = rng.uniform(-1.0, 1.0, size=(6, 3))

    def f(x):
        return hd.sin(x[2] * x[0]) + x[0] * x[0] * hd.exp(x[2])

    every = f(seed_jets(pts))
    for axes in ([2, 0], [0, 2], [1], []):
        xs = seed_jets(pts, axes)
        assert all(x.grad.shape == (6, len(axes)) and x.hess.shape == (6, len(axes), len(axes))
                   for x in xs)
        if axes:
            j = f(xs)
            np.testing.assert_array_equal(j.val, every.val)
            np.testing.assert_array_equal(j.grad, every.grad[..., axes])
            np.testing.assert_array_equal(j.hess, every.hess[..., axes, :][..., axes])


def test_einsum_of_jets_with_no_slots():
    # a metric seeded along no axis, between plain frames (as for a
    # constant metric and frame): the result has no slots either
    rng = np.random.default_rng(4)
    x = seed_jets(rng.uniform(-1.0, 1.0, size=(5, 3)), axes=[])[0]
    A = rng.normal(size=(3, 3))
    g = hd.stack([[hd.as_jet(v, x) for v in row] for row in A @ A.T + 3.0 * np.eye(3)])
    F = rng.normal(size=(5, 3, 3))
    H = hd.einsum("...va,...ab,...wb->...vw", F, g, F)
    np.testing.assert_allclose(H.val, np.einsum("...va,...ab,...wb->...vw", F, g.val, F),
                               rtol=1e-14)
    assert H.grad.shape == (5, 3, 3, 0) and H.hess.shape == (5, 3, 3, 0, 0)


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
    # stacking the columns, then transposing, gives the same matrix
    cols = [[rows[a][b] for a in range(2)] for b in range(3)]
    V = hd.einsum("...ij->...ji", hd.stack(cols, ref=xs[0]))
    for slot in ("val", "grad", "hess"):
        np.testing.assert_array_equal(getattr(V, slot), getattr(M, slot))
    # one order-1 entry drops the Hessian of the whole stack
    rows[0][0] = _first_order(rows[0][0])
    assert hd.stack(rows).order == 1
    # without jets the result is a plain array
    np.testing.assert_array_equal(hd.stack([[1.0, 2.0], [3.0, 4.0]]), [[1.0, 2.0], [3.0, 4.0]])


def test_jets_refuse_iteration():
    x = seed_jets(np.array([[0.1, 0.2], [0.3, 0.4]]))
    v = hd.stack(x)
    with pytest.raises(TypeError, match="not iterable"):
        list(v)
    # a jet where a nested list is expected is named, not reshaped
    with pytest.raises(TypeError, match="not iterable"):
        hd.stack([[x[0], x[1]], v])


@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul, operator.truediv])
def test_numpy_left_operands_give_jets(op):
    x, y = seed_jets(np.array([[0.5, 1.0], [1.5, -2.0], [2.0, 0.3], [-1.0, 0.7]]))
    u = hd.sin(x) * y + 2.0
    for left in (np.array([2.0, -3.0, 0.5, 4.0]), np.float64(1.5)):
        got, want = op(left, u), op(hd.constant_like(u, left), u)
        assert isinstance(got, HyperDual)
        for slot in ("val", "grad", "hess"):
            np.testing.assert_allclose(getattr(got, slot), getattr(want, slot),
                                       rtol=1e-15, atol=0)
    # numpy functions are refused, not applied to an object array of jets
    with pytest.raises(TypeError):
        np.sin(u)


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


def test_einsum_path_cache_shared_by_threads(monkeypatch):
    # many workers fill one empty plan cache at once; each contraction keeps
    # the bits of the path numpy plans itself
    monkeypatch.setattr(hd, "_PLANS", {})
    rng = np.random.default_rng(3)
    xs = seed_jets(rng.uniform(0.0, 1.0, size=(9, 3)))
    u = hd.stack([hd.sin(xs[0]) * xs[1], hd.cos(xs[2]), xs[0] * xs[2]])
    m = rng.normal(size=(9, 3, 3))
    cases = [("...a,...ab,...b->...", (u, m, u)), ("...ab,...b->...a", (m, u)),
             ("...ab,...bc,...cd->...ad", (m, m, m))]

    def contract_all(_):
        return [hd.einsum(spec, *ops) for spec, ops in cases]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            runs = list(pool.map(contract_all, range(64), timeout=60))
    finally:
        sys.setswitchinterval(interval)
    want = [np.einsum("...a,...ab,...b->...", u.val, m, u.val, optimize=True),
            np.einsum("...ab,...b->...a", m, u.val, optimize=True),
            np.einsum("...ab,...bc,...cd->...ad", m, m, m, optimize=True)]
    for run in runs:
        for got, ref, first in zip(run, want, runs[0]):
            assert np.array_equal(hd.value_of(got), ref)
            if isinstance(got, HyperDual):
                assert np.array_equal(got.grad, first.grad)
                assert np.array_equal(got.hess, first.hess)


def _random_jet(rng, shape, order):
    # random slots of a jet at 5 points in 3 coordinates
    v = rng.uniform(-1.0, 1.0, size=(5,) + shape)
    return HyperDual(v, rng.uniform(-1.0, 1.0, size=v.shape + (3,)),
                     rng.uniform(-1.0, 1.0, size=v.shape + (3, 3)) if order == 2 else None)


def _planner_cases(rng, order):
    # (spec, operands) with jets of the given order (1, 2 or "mixed":
    # order-1 and order-2 jets together) and plain arrays
    def jet(shape, o):
        return _random_jet(rng, shape, o)

    o1, o2 = (1, 1) if order == 1 else (2, 2) if order == 2 else (1, 2)
    plain = rng.uniform(-1.0, 1.0, size=(5, 3, 3))
    return [
        ("...bda->...abd", (jet((3, 3, 3), o2),)),
        ("...ab,...bc->...ac", (jet((2, 3), o1), jet((3, 2), o2))),
        ("...a,...ab,...b->...", (jet((3,), o1), jet((3, 3), o2), jet((3,), o2))),
        ("...a,...ab,...b->...", (jet((3,), o2), plain, jet((3,), o1))),
        ("...ab,...b->...a", (plain[0], jet((3,), o2))),
        ("...ab,...b,...b->...a", (jet((2, 3), o2), jet((3,), o1), plain[..., 0])),
        ("...aac,...cd->...d", (jet((3, 3, 3), o2), plain)),
        ("...abc,...bc->...a", (rng.uniform(-1.0, 1.0, size=(5, 4, 6, 7)), jet((6, 7), o1))),
    ]


@pytest.mark.parametrize("order", [1, 2, "mixed"])
def test_einsum_never_writes_into_or_aliases_its_operands(order, monkeypatch):
    monkeypatch.setattr(hd, "_PLANS", {})
    rng = np.random.default_rng(41)
    for spec, ops in _planner_cases(rng, order):
        arrays = [a for o in ops for a in ((o.val, o.grad, o.hess) if isinstance(o, HyperDual)
                                           else (o,)) if a is not None]
        before = [a.tobytes() for a in arrays]
        got = hd.einsum(spec, *ops)
        hd.einsum(spec, *ops)  # a replayed plan as well as a new one
        assert [a.tobytes() for a in arrays] == before, spec
        for slot in (got.val, got.grad, got.hess):
            assert slot is None or not any(np.shares_memory(slot, a) for a in arrays), spec


@pytest.mark.skipif(np.lib.NumpyVersion(np.__version__) < "2.4.0",
                    reason="numpy lowers two-operand einsum steps to matmul from 2.4 on")
@pytest.mark.parametrize("order", [1, 2, "mixed"])
def test_planned_values_equal_numpy_einsum_on_the_same_path(order):
    rng = np.random.default_rng(42)
    for spec, ops in _planner_cases(rng, order):
        vals = [hd.value_of(o) for o in ops]
        path = np.einsum_path(spec, *vals, optimize=hd._GREEDY)[0]
        ref = np.einsum(spec, *vals, optimize=path)
        assert np.array_equal(hd.einsum(spec, *ops).val, ref), spec
    # with one jet operand the gradient and the Hessian are one term each
    ops = (rng.uniform(-1.0, 1.0, size=(3, 3)), _random_jet(rng, (3, 2), 2))
    got = hd.einsum("ab,...bc->...ac", *ops)
    for slot, sub in (("grad", "z"), ("hess", "zy")):
        arrays = (ops[0], getattr(ops[1], slot))
        spec = f"ab,...bc{sub}->...ac{sub}"
        path = np.einsum_path(spec, *arrays, optimize=hd._GREEDY)[0]
        assert np.array_equal(getattr(got, slot), np.einsum(spec, *arrays, optimize=path))


def test_catalog_plans_contract_at_most_two_operands_per_step(tmp_path, monkeypatch):
    from splitgeom.cli import main
    monkeypatch.setattr(hd, "_PLANS", {})
    assert main(["verify", "--all", "--seed", "1", "--out", str(tmp_path / "r.json")]) == 0
    steps = [inds for plan in hd._PLANS.values() for term in plan for inds, _ in term[2]]
    assert len(hd._PLANS) > 100 and steps
    assert max(len(inds) for inds in steps) <= 2


def test_no_module_imports_numpy_internals():
    # the engine keeps to numpy's public API: no numpy._core or numpy.core
    src = pathlib.Path(hd.__file__).parent
    internal = ("numpy._core", "numpy.core")
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = []
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                names = [node.module] + [f"{node.module}.{a.name}" for a in node.names]
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in ("np", "numpy")):
                names = [f"numpy.{node.attr}"]
            bad = [m for m in names if any(m == i or m.startswith(i + ".") for i in internal)]
            assert not bad, f"{path.name}:{node.lineno} uses {bad}"


def test_no_module_plans_numpy_einsum_on_every_call():
    # np.einsum(..., optimize=...) runs np.einsum_path on each call;
    # hd.einsum plans a contraction once per spec and operand layout
    src = pathlib.Path(hd.__file__).parent
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "einsum" and isinstance(node.func.value, ast.Name)
                    and node.func.value.id in ("np", "numpy")):
                assert not any(kw.arg == "optimize" for kw in node.keywords), (
                    f"{path.name}:{node.lineno} calls np.einsum with optimize=; "
                    f"use hd.einsum")
