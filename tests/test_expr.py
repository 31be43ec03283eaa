import collections
import json
import math
import re

import numpy as np
import pytest

from splitgeom import expr as ex
from splitgeom import hyperdual as hd
from splitgeom.cli import main
from splitgeom.expr import parse_expr, evaluate

from test_hyperdual import fd_grad, fd_hess


def to_source(node):
    """Canonical fully-parenthesized rendering; parses back to an equal AST."""
    if isinstance(node, ex.Num):
        return repr(node.value)
    if isinstance(node, ex.Var):
        return f"x{node.index}"
    if isinstance(node, ex.Neg):
        return f"(-{to_source(node.child)})"
    if isinstance(node, ex.Call):
        return f"{node.fn}({to_source(node.child)})"
    if isinstance(node, ex.Bin):
        return f"({to_source(node.left)} {node.op} {to_source(node.right)})"
    raise ex.ExprError(f"unknown node {node!r}")


def jet_at(ast, p):
    """Second-order jet of ``ast`` at ``p`` ``(..., n)``; a constant
    expression gives a constant jet."""
    xs = hd.seed_jets(p)
    return hd.as_jet(evaluate(ast, xs), xs[0])


def test_basic_eval():
    ast = parse_expr("2 + sin(x1)", 1)
    assert evaluate(ast, [0.0]) == 2.0

    ast = parse_expr("x1^2 * x2", 2)
    assert evaluate(ast, [3.0, 2.0]) == 18.0


def test_log_domain_error():
    ast = parse_expr("log(x1)", 1)
    with pytest.raises(ex.DomainError):
        evaluate(ast, [-1.0])


def test_negative_power_of_zero_domain_error():
    # plain arrays and jets reject a zero base alike, with no numpy warning
    ast = parse_expr("x1^-2", 1)
    with pytest.raises(ex.DomainError):
        evaluate(ast, [np.array([0.0, 1.0])])
    with pytest.raises(ex.DomainError):
        jet_at(ast, np.array([[0.0], [1.0]]))
    np.testing.assert_array_equal(evaluate(ast, [np.array([2.0, -1.0])]), [0.25, 1.0])


# source, values of x1, refusal on jets, refusal on plain values (None: accepted)
DOMAIN_CASES = [
    ("log(x1)", [1.0, -1.0], "log: log of non-positive value", "log: log of non-positive value"),
    ("log(x1)", [1.0, 0.0], "log: log of non-positive value", "log: log of non-positive value"),
    ("sqrt(x1)", [1.0, 0.0],
     "sqrt: sqrt of non-positive value (jet derivative undefined at 0)", None),
    ("sqrt(x1)", [1.0, -1.0],
     "sqrt: sqrt of non-positive value (jet derivative undefined at 0)",
     "sqrt: sqrt of negative value"),
    ("x1^0.5", [1.0, -1.0], "non-integer power of non-positive base",
     "non-integer power of non-positive base"),
    ("x1^0.5", [1.0, 0.0], "non-integer power of non-positive base",
     "non-integer power of non-positive base"),
    ("x1^-2", [1.0, 0.0], "negative power of a zero base", "negative power of a zero base"),
    ("x1^-1.5", [1.0, 0.0], "negative power of a zero base", "negative power of a zero base"),
    ("1/x1", [1.0, 0.0], "division by zero", "division by zero"),
    ("x1/0", [1.0, 2.0], "division by zero", "division by zero"),  # not inf, on jets
]


def test_domain_errors():
    # expr owns every domain rule: jets and plain values are refused alike
    # (but for sqrt at 0, whose jet derivative is undefined), with no numpy
    # warning first
    import warnings

    for src, xs, on_jets, on_values in DOMAIN_CASES:
        ast = parse_expr(src, 1)
        values = np.array(xs)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ex.DomainError) as refused:
                evaluate(ast, hd.seed_jets(values[:, None]))
            assert str(refused.value) == on_jets, src
            if on_values is None:
                np.testing.assert_array_equal(evaluate(ast, [values]), np.sqrt(values))
                continue
            with pytest.raises(ex.DomainError) as refused:
                evaluate(ast, [values])
            assert str(refused.value) == on_values, src


def test_precedence():
    assert evaluate(parse_expr("2 + 3 * 4", 1), [0.0]) == 14.0
    assert evaluate(parse_expr("2 * 3 ^ 2", 1), [0.0]) == 18.0
    assert evaluate(parse_expr("-2 ^ 2", 1), [0.0]) == -4.0  # ^ binds tighter than unary -
    assert evaluate(parse_expr("2 ^ -1", 1), [0.0]) == 0.5
    assert evaluate(parse_expr("(2 + 3) * 4", 1), [0.0]) == 20.0
    assert evaluate(parse_expr("2 - 3 - 4", 1), [0.0]) == -5.0  # left associative
    assert evaluate(parse_expr("2 ^ 3 ^ 2", 1), [0.0]) == 512.0  # right associative


def test_parse_errors_carry_offsets():
    with pytest.raises(ex.ParseError) as e:
        parse_expr("2 + $", 1)
    assert e.value.offset == 4

    with pytest.raises(ex.ParseError):
        parse_expr("sin(x1", 1)

    with pytest.raises(ex.ParseError) as e:
        parse_expr("foo(x1)", 1)
    assert "unknown identifier" in str(e.value)

    with pytest.raises(ex.ParseError) as e:
        parse_expr("x3 + 1", 2)
    assert "exceeds chart dimension" in str(e.value)

    with pytest.raises(ex.ParseError):
        parse_expr("x1 ^ x2", 2)  # variable exponent rejected


# -- the grammar's edges ------------------------------------------------------

Num, Var, Neg, Call, Bin = ex.Num, ex.Var, ex.Neg, ex.Call, ex.Bin


@pytest.mark.parametrize("source, tree", [
    (" \tx1 +\n  x2\t", Bin("+", Var(1), Var(2))),
    ("\t sin (x1)\n^2", Bin("^", Call("sin", Var(1)), Num(2.0))),
    ("-2 ^ 2", Neg(Bin("^", Num(2.0), Num(2.0)))),
    ("2 ^ 3 ^ 2", Bin("^", Num(2.0), Bin("^", Num(3.0), Num(2.0)))),
    ("2 * -3", Bin("*", Num(2.0), Neg(Num(3.0)))),
    ("x1^-2", Bin("^", Var(1), Neg(Num(2.0)))),
    (".5", Num(0.5)),
    ("3.", Num(3.0)),
    ("1e-3", Num(0.001)),
])
def test_grammar_edges_accepted(source, tree):
    assert parse_expr(source, 3) == tree


# every message parse_expr gives for these, none of them Python's own
_OWN_MESSAGE = re.compile(r"(invalid syntax|unsupported syntax|unsupported operator"
                          r"|the power operator is '\^', not '\*\*'|sin takes one argument)"
                          r" \(byte offset \d+\)")


@pytest.mark.parametrize("source", [
    "+x1", "x1**2", "1_0", "0x1", "1j", "007", "x1 % 2", "x1 // 2", "x1[0]", "x1.real",
    "'a'", "x1 if x2 else 1", "sin x1", "sin(x1, x2)", "sin(x=1)", "sin(x1,)", "2 x1",
    "x1 # comment", "x1\x00", "x\uff11", "\uff53in(x1)", "\uff12", "x1\u00a0+ 1",
])
def test_grammar_edges_refused(source):
    with pytest.raises(ex.ParseError) as e:
        parse_expr(source, 3)
    assert 0 <= e.value.offset < len(source)
    assert _OWN_MESSAGE.fullmatch(str(e.value)), str(e.value)


def test_non_ascii_is_refused_at_its_offset():
    for source, offset in (("x\uff11", 1), ("\uff53in(x1)", 0), ("x1 + \u0663", 5)):
        with pytest.raises(ex.ParseError) as e:
            parse_expr(source, 3)
        assert e.value.offset == offset


def test_coordinate_call_names_the_coordinate():
    with pytest.raises(ex.ParseError, match="x4 exceeds chart dimension 3"):
        parse_expr("x4(1)", 3)


def _depth(node):
    if isinstance(node, (Num, Var)):
        return 1
    if isinstance(node, (Neg, Call)):
        return 1 + _depth(node.child)
    return 1 + max(_depth(node.left), _depth(node.right))


@pytest.mark.parametrize("deep", [
    lambda k: "sin(" * (k - 1) + "x1" + ")" * (k - 1),
    lambda k: "-" * (k - 1) + "x1",
    lambda k: "x1" + " + x2" * (k - 1),
    lambda k: "(" * (k - 1) + "x1" + " ^ 2)" * (k - 1),
])
def test_depth_limit(deep):
    assert _depth(parse_expr(deep(ex.MAX_DEPTH), 2)) == ex.MAX_DEPTH
    with pytest.raises(ex.ParseError, match=f"nested deeper than {ex.MAX_DEPTH} levels"):
        parse_expr(deep(ex.MAX_DEPTH + 1), 2)
    # far beyond, Python's parser refuses it itself, still as a ParseError
    with pytest.raises(ex.ParseError, match="nested deeper|invalid syntax"):
        parse_expr(deep(5000), 2)


def test_second_derivatives_at_the_depth_limit_evaluate():
    # a quotient nested in the denominator deepens each derivative the most
    # (about 5 levels per level after two rounds); evaluating the second
    # derivative takes two frames per level, inside the default limit
    k = ex.MAX_DEPTH - 2
    ast = parse_expr("x1/(" * k + "x1*x2" + ")" * k, 2)
    d2 = ex.diff(ex.diff(ast, 1), 2)
    assert _depth(d2) > 3 * ex.MAX_DEPTH
    assert math.isfinite(evaluate(d2, [0.7, 1.3]))


def _subtrees(node, seen):
    """Add every distinct subtree of ``node`` to the set ``seen``."""
    if node not in seen:
        seen.add(node)
        for child in ([node.child] if isinstance(node, (Neg, Call)) else
                      [node.left, node.right] if isinstance(node, Bin) else []):
            _subtrees(child, seen)
    return seen


def test_second_derivative_evaluates_each_distinct_subtree_once(monkeypatch):
    # diff shares some subtrees by identity and builds equal copies of
    # others; evaluation visits each distinct one once, at any depth
    k = 20
    ast = parse_expr("x1/(" * k + "x1*x2" + ")" * k, 2)
    d2 = ex.diff(ex.diff(ast, 1), 2)
    distinct = len(_subtrees(d2, set()))
    calls = []
    inner = ex._evaluate
    monkeypatch.setattr(ex, "_evaluate", lambda *args: calls.append(1) or inner(*args))
    xs = hd.seed_jets(np.array([[0.7, 1.3], [0.4, 0.9]]))
    assert np.all(np.isfinite(evaluate(d2, xs).val))
    assert len(calls) <= distinct


def test_eval_jet_examples():
    j = jet_at(parse_expr("sin(x1)", 1), [0.0])
    assert j.val == 0.0 and j.grad[0] == 1.0 and j.hess[0, 0] == 0.0

    j = jet_at(parse_expr("x1*x2", 2), [2.0, 3.0])
    assert j.val == 6.0
    np.testing.assert_allclose(j.grad, [3.0, 2.0])
    assert j.hess[0, 1] == 1.0 and j.hess[1, 0] == 1.0

    j = jet_at(parse_expr("exp(x1^2)", 1), [1.0])
    e = math.e
    np.testing.assert_allclose(j.grad, [2 * e], rtol=1e-14)
    np.testing.assert_allclose(j.hess, [[6 * e]], rtol=1e-14)
    # finite-difference cross check at the spec steps
    f = lambda x: math.exp(x[0] ** 2)
    assert abs(j.grad[0] - fd_grad(f, [1.0], h=1e-4)[0]) <= 1e-6 * abs(j.grad[0])


def test_eval_jet_batched():
    ast = parse_expr("x1 * cos(x2)", 2)
    pts = np.array([[1.0, 0.0], [2.0, math.pi / 3]])
    j = jet_at(ast, pts)
    np.testing.assert_allclose(j.val, [1.0, 2 * 0.5], rtol=1e-15)
    np.testing.assert_allclose(j.grad[:, 0], np.cos(pts[:, 1]), rtol=1e-15)


def test_constant_expression_jet():
    j = jet_at(parse_expr("3.5", 2), [1.0, 2.0])
    assert j.val == 3.5
    np.testing.assert_array_equal(j.grad, [0.0, 0.0])


# -- random expression generator (seeded, rejection-sampled for domain) ----

_BIN_OPS = ["+", "-", "*", "/"]
_FUNCS = ["sin", "cos", "exp", "log", "sqrt"]


def random_ast(rng, dim, depth):
    if depth == 0 or rng.random() < 0.3:
        r = rng.random()
        if r < 0.45:
            return ex.Var(int(rng.integers(1, dim + 1)))
        return ex.Num(round(float(rng.uniform(0.5, 3.0)), 3))
    r = rng.random()
    if r < 0.15:
        return ex.Neg(random_ast(rng, dim, depth - 1))
    if r < 0.45:
        fn = _FUNCS[rng.integers(0, len(_FUNCS))]
        child = random_ast(rng, dim, depth - 1)
        if fn in ("log", "sqrt"):
            # keep the argument strictly positive
            child = ex.Bin("+", ex.Num(2.0), ex.Call("sin", child))
        return ex.Call(fn, child)
    if r < 0.55:
        return ex.Bin("^", random_ast(rng, dim, depth - 1), ex.Num(float(rng.integers(2, 4))))
    op = _BIN_OPS[rng.integers(0, len(_BIN_OPS))]
    left = random_ast(rng, dim, depth - 1)
    right = random_ast(rng, dim, depth - 1)
    if op == "/":
        right = ex.Bin("+", ex.Num(2.0), ex.Call("cos", right))
    return ex.Bin(op, left, right)


def test_random_expressions_match_finite_differences():
    rng = np.random.default_rng(20240817)
    checked = 0
    attempts = 0
    while checked < 1000 and attempts < 5000:
        attempts += 1
        dim = int(rng.integers(1, 4))
        ast = random_ast(rng, dim, depth=5)
        p = rng.uniform(-1.2, 1.2, size=dim)
        try:
            j = jet_at(ast, p)
        except ex.ExprError:
            continue
        if not np.all(np.isfinite(j.val)) or not np.all(np.isfinite(j.hess)):
            continue
        if np.max(np.abs(j.val)) > 1e3:
            continue  # steep compositions make the FD oracle itself unreliable

        def f(x):
            return float(evaluate(ast, list(x)))

        g_fd = fd_grad(f, p, h=1e-4)
        h_fd = fd_hess(f, p, h=1e-3)
        gs = 1.0 + np.max(np.abs(j.grad))
        hs = 1.0 + np.max(np.abs(j.hess))
        # qualify the oracle: halving the step must not move it, else the
        # stencil's own truncation error exceeds the tolerance being tested
        if np.max(np.abs(g_fd - fd_grad(f, p, h=5e-5))) > 2e-6 * gs:
            continue
        if np.max(np.abs(h_fd - fd_hess(f, p, h=5e-4))) > 2e-6 * hs:
            continue
        np.testing.assert_allclose(j.grad, g_fd, atol=1e-5 * gs)
        np.testing.assert_allclose(j.hess, h_fd, atol=1e-5 * hs)
        checked += 1
    assert checked == 1000


def test_print_parse_round_trip():
    rng = np.random.default_rng(99)
    for _ in range(300):
        dim = int(rng.integers(1, 4))
        ast = random_ast(rng, dim, depth=4)
        assert parse_expr(to_source(ast), dim) == ast


# spliced into inline expressions: refused input of every kind, deep input too
_JUNK = ["**", "^", "(", ")", ",", "%", "#", "x9", "foo", "007", "0x1", "1_0", "1j", "sin",
         "\u00a0", "\uff12", "\x00", "-" * 300, "(" * 250, " + 0*x1" * 80, "sin(" * 70]


def test_inline_expressions_end_in_an_exit_code(tmp_path, capsys):
    # random warps and twists, periodic on the torus, half of them with junk
    # spliced in, through the CLI: every run ends with exit 0, 1 or 2
    rng = np.random.default_rng(2226)
    codes = collections.Counter()
    for i in range(100):
        src = to_source(random_ast(rng, 1, depth=int(rng.integers(1, 5))))
        if i % 2:
            spec = {"kind": "twisted_torus", "dims": [1, 1, 1],
                    "twist": f"x3 + 0.5*sin({src.replace('x1', 'sin(x3)')})"}
            key = "twist"
        else:
            spec = {"kind": "warped", "base_dim": 1, "fiber_dims": [1],
                    "warps": f"3 + sin({src.replace('x1', 'sin(x1)')})"}
            key = "warps"
        if rng.random() < 0.5:
            at = int(rng.integers(0, len(spec[key]) + 1))
            spec[key] = spec[key][:at] + _JUNK[rng.integers(len(_JUNK))] + spec[key][at:]
        if key == "warps":
            spec[key] = [spec[key]]
        cfg = tmp_path / "fuzz.json"
        cfg.write_text(json.dumps({"scenario": spec, "samples": 2,
                                   "out": str(tmp_path / "fuzz_report.json")}))
        codes[main(["verify", "--scenario", str(cfg)])] += 1
    capsys.readouterr()
    assert set(codes) <= {0, 1, 2} and codes[0] and codes[2], codes


# -- symbolic differentiation ------------------------------------------------

_DIFF_CASES = [
    "3.5",                      # Num
    "x2",                       # Var
    "-x1",                      # Neg
    "sin(x1*x2)", "cos(x1 + x2)", "exp(x1*x2)", "log(x1 + x2)", "sqrt(x1*x2)",
    "x1 + x2^2", "x1 - x2^2", "x1*x2", "x1/x2",
    "x1^3", "x2^-2", "x1^1.5", "(x1*x2)^0.5", "(x1 + x2)^(1/3)",
]


@pytest.mark.parametrize("source", _DIFF_CASES)
def test_diff_matches_jet_derivatives(source):
    # diff(node, i) evaluated as a jet is the i-th gradient component of the
    # node's jet, and its gradient is the matching Hessian row
    rng = np.random.default_rng(31)
    pts = rng.uniform(0.5, 2.0, size=(7, 2))
    ast = parse_expr(source, 2)
    j = jet_at(ast, pts)
    for i in (1, 2):
        d = jet_at(ex.diff(ast, i), pts)
        np.testing.assert_allclose(d.val, j.grad[..., i - 1], rtol=1e-13, atol=1e-13)
        np.testing.assert_allclose(d.grad, j.hess[..., i - 1, :], rtol=1e-13, atol=1e-13)


def test_diff_folds_constants_and_round_trips():
    assert ex.diff(parse_expr("0.3*x1^2 + 0.05*x1*x2", 2), 1) == parse_expr(
        "0.3*(2.0*x1) + 0.05*x2", 2)
    assert ex.diff(ex.diff(parse_expr("x1^2*x2", 2), 1), 1) == parse_expr("2.0*x2", 2)
    assert ex.diff(parse_expr("sin(x2)", 2), 1) == ex.Num(0.0)
    rng = np.random.default_rng(32)
    asts = [parse_expr(s, 2) for s in _DIFF_CASES]
    asts += [random_ast(rng, 2, depth=4) for _ in range(200)]
    for ast in asts:
        for i in (1, 2):
            d = ex.diff(ast, i)
            assert parse_expr(to_source(d), 2) == d
            dd = ex.diff(d, 3 - i)
            assert parse_expr(to_source(dd), 2) == dd


def test_diff_domain_error_at_sqrt_zero():
    import warnings

    d = ex.diff(parse_expr("sqrt(x1)", 1), 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ex.DomainError):
            jet_at(d, [0.0])
        with pytest.raises(ex.DomainError):
            evaluate(d, [np.array([1.0, 0.0])])


def test_variables_are_the_axes_read():
    assert ex.variables(parse_expr("x1*sin(x3)^2 + exp(-x1)", 3)) == {0, 2}
    assert ex.variables(parse_expr("-cos(2)/3", 3)) == frozenset()
