"""Closed-form expression language for metric entries and warp functions.

Grammar (standard precedence, ``^`` binds tightest, then unary minus,
then ``* /``, then ``+ -``):

    expr    := term (('+' | '-') term)*
    term    := factor (('*' | '/') factor)*
    factor  := '-' factor | power
    power   := atom ('^' factor)?          # right-associative exponent
    atom    := NUMBER | 'x'<k> | FUNC '(' expr ')' | '(' expr ')'
    FUNC    := sin | cos | exp | log | sqrt

This is Python's expression grammar with ``^`` for ``**``; Python's own
parser reads it.  Input is ASCII only, a NUMBER is a decimal literal (not
``007``, ``1_0`` or ``0x1``), and a tree is at most ``MAX_DEPTH`` (64)
levels deep, root and leaves included.

Coordinates are ``x1 .. xn`` (1-based, validated against the chart
dimension at parse time).  Evaluation is generic over the scalar type:
plain floats, numpy arrays of points, or :class:`~splitgeom.hyperdual.HyperDual`
jets all work, so one parsed expression serves both fast value sampling
and exact differentiation.  Evaluation checks the domain of every function,
division and power on the values of its operands, for every scalar type
alike (jets refuse ``sqrt`` at 0 too, where its derivative is undefined);
the jet primitives of :mod:`~splitgeom.hyperdual` check none.
"""

from __future__ import annotations

import ast
import contextlib
import operator
import warnings
from dataclasses import dataclass

import numpy as np

from . import hyperdual as hd
from .hyperdual import HyperDual

__all__ = [
    "ExprError",
    "ParseError",
    "DomainError",
    "Num",
    "Var",
    "Call",
    "Bin",
    "Neg",
    "parse_expr",
    "labelled",
    "evaluate",
    "evaluate_at",
    "variables",
    "diff",
]


class ExprError(ValueError):
    pass


class ParseError(ExprError):
    def __init__(self, message, offset):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class DomainError(ExprError):
    pass


@contextlib.contextmanager
def labelled(label, src):
    """Name the expression ``src`` (``label``) in an :class:`ExprError`
    raised inside the block."""
    try:
        yield
    except ExprError as e:
        raise ExprError(f"{e} in {label} {src!r}") from e


# -- AST -------------------------------------------------------------------

def _hash(node):
    # computed once per node: a memo lookup would otherwise rehash the subtree
    try:
        return node._hash
    except AttributeError:
        h = hash((type(node), *node.__dict__.values()))
        object.__setattr__(node, "_hash", h)
        return h


@dataclass(frozen=True)
class Num:
    value: float
    __hash__ = _hash


@dataclass(frozen=True)
class Var:
    index: int  # 1-based coordinate index
    __hash__ = _hash


@dataclass(frozen=True)
class Neg:
    child: object
    __hash__ = _hash


@dataclass(frozen=True)
class Call:
    fn: str
    child: object
    __hash__ = _hash


@dataclass(frozen=True)
class Bin:
    op: str
    left: object
    right: object
    __hash__ = _hash


_FN_IMPL = {"sin": hd.sin, "cos": hd.cos, "exp": hd.exp, "log": hd.log, "sqrt": hd.sqrt}
_OPS = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/", ast.Pow: "^"}
# ASCII whitespace reads as a space, and '#' and NUL as '?', which Python refuses
_BLANKS = str.maketrans("\t\n\v\f\r\x1c\x1d\x1e\x1f#\0", " " * 9 + "??")
MAX_DEPTH = 64  # deepest tree parse_expr accepts, root and leaves included


def variables(node):
    """The 0-based coordinate axes the AST ``node`` reads."""
    if isinstance(node, Var):
        return frozenset({node.index - 1})
    if isinstance(node, (Neg, Call)):
        return variables(node.child)
    if isinstance(node, Bin):
        return variables(node.left) | variables(node.right)
    return frozenset()


def parse_expr(source, dim):
    """Parse ``source`` into an AST over coordinates ``x1..x<dim>``."""
    if not isinstance(source, str):
        raise ExprError(f"expression must be a string, got {type(source).__name__}")
    text = source.encode("ascii", "replace").decode().translate(_BLANKS)  # non-ASCII: "?"
    if "**" in text:
        raise ParseError("the power operator is '^', not '**'", text.index("**"))
    body = text.lstrip()
    py = body.replace("^", "**")

    def fail(message, t):
        # ``t`` counts characters of ``py``, in which each ``^`` is two
        raise ParseError(message, len(text) - len(body) + t - py.count("**", 0, t))

    def read(node, depth):
        if depth > MAX_DEPTH:
            fail(f"expression nested deeper than {MAX_DEPTH} levels", node.col_offset)
        kind = type(node)
        if kind is ast.Constant:
            literal = py[node.col_offset:node.end_col_offset]
            # a non-decimal literal keeps a letter or '_' inside (0x1, 1_0)
            if type(node.value) in (int, float) and not literal.strip("0123456789.eE+-"):
                return Num(float(literal))
        elif kind is ast.Name:
            if node.id[:1] == "x" and node.id[1:].isdigit():
                idx = int(node.id[1:])
                if not 1 <= idx <= dim:
                    fail(f"coordinate x{idx} exceeds chart dimension {dim}", node.col_offset)
                return Var(idx)
            if node.id in _FN_IMPL:
                fail("expected '('", node.end_col_offset)
            fail(f"unknown identifier {node.id!r}", node.col_offset)
        elif kind is ast.UnaryOp and type(node.op) is ast.USub:
            return Neg(read(node.operand, depth + 1))
        elif kind is ast.BinOp:
            left = read(node.left, depth + 1)
            op = _OPS.get(type(node.op))
            op_at = len(py) - len(py[node.left.end_col_offset:].lstrip(") "))
            if op is None:
                fail("unsupported operator", op_at)
            right = read(node.right, depth + 1)
            if op == "^" and variables(right):
                fail("exponent must be a constant", op_at)
            return Bin(op, left, right)
        elif kind is ast.Call:
            fn, args = node.func, node.args
            paren = py.index("(", fn.end_col_offset)
            if (type(fn) is not ast.Name or fn.id not in _FN_IMPL
                    or py[fn.end_col_offset:paren].strip()):
                read(fn, depth + 1)  # names an unknown identifier or coordinate first
                fail("unexpected '('", paren)
            if (len(args) != 1 or node.keywords  # or a trailing comma, as in "sin(x1,)"
                    or py[:node.end_col_offset - 1].rstrip(") ").endswith(",")):
                fail(f"{fn.id} takes one argument", paren)
            return Call(fn.id, read(args[0], depth + 1))
        fail("unsupported syntax", node.col_offset)

    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # e.g. "invalid decimal literal" in "1if"
            tree = ast.parse(py, mode="eval").body
    except SyntaxError as e:
        fail("invalid syntax", e.offset - 1 if e.offset else len(py))
    except (RecursionError, MemoryError):  # how Python's parser refuses deep input
        fail(f"expression nested deeper than {MAX_DEPTH} levels", 0)
    return read(tree, 1)


# -- evaluation ------------------------------------------------------------

def evaluate(node, coords, memo=None):
    """Evaluate an AST at ``coords`` (sequence of scalars, arrays or jets).

    Each distinct subexpression is evaluated once, also across calls that
    share a ``memo`` dict at the same ``coords`` (the twist inside ``cos(t)``
    and ``sin(t)``); ``memo`` None starts a fresh one.
    """
    if memo is None:
        memo = {}
    value = memo.get(node, memo)  # the memo itself marks a miss
    if value is memo:
        value = memo[node] = _evaluate(node, coords, memo)
    return value


def evaluate_at(label, src, node, points):
    """The values of ``node`` at the points ``points`` ``(N, n)``; an error
    names the expression ``src`` (``label``; ``src`` None for an AST given
    without one) and the first of ``points`` where it fails."""
    try:
        return np.asarray(evaluate(node, list(points.T)), dtype=float)
    except ExprError as e:
        name = label if src is None else f"{label} {src!r}"
        for p in points:
            try:
                evaluate(node, list(p[:, None]))
            except ExprError:
                raise ExprError(f"{e} in {name} at {p.tolist()}") from e
        raise ExprError(f"{e} in {name}") from e


def _evaluate(node, coords, memo):
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        return coords[node.index - 1]
    if isinstance(node, Neg):
        return -evaluate(node.child, coords, memo)
    if isinstance(node, Call):
        x = evaluate(node.child, coords, memo)
        v = hd.value_of(x)
        if node.fn == "log" and np.any(v <= 0.0):
            raise DomainError("log: log of non-positive value")
        if node.fn == "sqrt" and isinstance(x, HyperDual) and np.any(v <= 0.0):
            raise DomainError("sqrt: sqrt of non-positive value (jet derivative undefined at 0)")
        if node.fn == "sqrt" and np.any(v < 0.0):
            raise DomainError("sqrt: sqrt of negative value")
        return _FN_IMPL[node.fn](x)
    if isinstance(node, Bin):
        a = evaluate(node.left, coords, memo)
        b = evaluate(node.right, coords, memo)
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return a * b
        if node.op == "/":
            if np.any(hd.value_of(b) == 0.0):
                raise DomainError("division by zero")
            return a / b
        if node.op == "^":
            p = float(b)  # the parser admits only constant exponents
            v = hd.value_of(a)
            if p < 0.0 and np.any(v == 0.0):
                raise DomainError("negative power of a zero base")
            if not p.is_integer() and np.any(v <= 0.0):
                raise DomainError("non-integer power of non-positive base")
            return a ** p if isinstance(a, HyperDual) else np.power(a, p)
    raise ExprError(f"unknown node {node!r}")


# -- symbolic differentiation ----------------------------------------------

def _const(node):
    """Value of a constant leaf (``Num`` or negated ``Num``), else ``None``."""
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Neg) and isinstance(node.child, Num):
        return -node.child.value
    return None


def _num(v):
    # negative constants as Neg(Num), the form the parser gives them
    v = float(v)
    return Num(abs(v)) if v >= 0.0 else Neg(Num(-v))


def _neg(a):
    ca = _const(a)
    if ca is not None:
        return _num(-ca)
    return a.child if isinstance(a, Neg) else Neg(a)


_FOLD = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def _bin(op, a, b):
    """``Bin(op, a, b)`` with constants folded and units and zeros dropped."""
    ca, cb = _const(a), _const(b)
    if ca is not None and cb is not None and not (op == "/" and cb == 0.0):
        return _num(_FOLD[op](ca, cb))
    if (op in "+-" and cb == 0.0) or (op in "*/" and cb == 1.0):
        return a
    if (op == "+" and ca == 0.0) or (op == "*" and ca == 1.0):
        return b
    if op == "-" and ca == 0.0:
        return _neg(b)
    if (op in "*/" and ca == 0.0) or (op == "*" and cb == 0.0):
        return Num(0.0)
    return Bin(op, a, b)


def _pow(a, p):
    if p == 0.0:
        return Num(1.0)
    return a if p == 1.0 else Bin("^", a, _num(p))


def diff(node, i):
    """AST of the partial derivative of ``node`` with respect to ``x<i>``.

    Sums, products and quotients follow the usual rules, functions the chain
    rule, and ``u ^ p`` (constant ``p``) becomes ``p * u ^ (p - 1) * u'``.
    Constant subtrees are folded, so derivatives of polynomials terminate in
    ``Num(0.0)``.  The result evaluates like any parsed AST (its domain is
    checked at evaluation: ``diff(sqrt(x1))`` raises :class:`DomainError` at
    ``x1 = 0``).
    """
    if isinstance(node, Num):
        return Num(0.0)
    if isinstance(node, Var):
        return Num(1.0 if node.index == i else 0.0)
    if isinstance(node, Neg):
        return _neg(diff(node.child, i))
    if isinstance(node, Call):
        u = node.child
        outer = {"sin": Call("cos", u), "cos": Neg(Call("sin", u)), "exp": node,
                 "log": _bin("/", Num(1.0), u), "sqrt": _bin("/", Num(0.5), node)}
        return _bin("*", outer[node.fn], diff(u, i))
    if isinstance(node, Bin):
        a, b = node.left, node.right
        if node.op == "^":
            p = float(evaluate(b, ()))
            return _bin("*", _bin("*", _num(p), _pow(a, p - 1.0)), diff(a, i))
        da, db = diff(a, i), diff(b, i)
        if node.op in "+-":
            return _bin(node.op, da, db)
        if node.op == "*":
            return _bin("+", _bin("*", da, b), _bin("*", a, db))
        if node.op == "/":
            return _bin("-", _bin("/", da, b), _bin("/", _bin("*", a, db), _pow(b, 2.0)))
    raise ExprError(f"unknown node {node!r}")

