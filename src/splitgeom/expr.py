"""Closed-form expression language for metric entries and warp functions.

Grammar (standard precedence, ``^`` binds tightest, then unary minus,
then ``* /``, then ``+ -``):

    expr    := term (('+' | '-') term)*
    term    := factor (('*' | '/') factor)*
    factor  := '-' factor | power
    power   := atom ('^' factor)?          # right-associative exponent
    atom    := NUMBER | 'x'<k> | FUNC '(' expr ')' | '(' expr ')'
    FUNC    := sin | cos | exp | log | sqrt

Coordinates are ``x1 .. xn`` (1-based, validated against the chart
dimension at parse time).  Evaluation is generic over the scalar type:
plain floats, numpy arrays of points, or :class:`~splitgeom.hyperdual.HyperDual`
jets all work, so one parsed expression serves both fast value sampling
and exact differentiation.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass

import numpy as np

from . import hyperdual as hd
from .hyperdual import HyperDual, JetDomainError

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
    "evaluate",
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


# -- AST -------------------------------------------------------------------

@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    index: int  # 1-based coordinate index


@dataclass(frozen=True)
class Neg:
    child: object


@dataclass(frozen=True)
class Call:
    fn: str
    child: object


@dataclass(frozen=True)
class Bin:
    op: str
    left: object
    right: object


_FUNCTIONS = ("sin", "cos", "exp", "log", "sqrt")

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(source):
    tokens = []
    pos = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None or m.end() == pos:
            # skip over whitespace-only tail
            rest = source[pos:]
            if rest.strip() == "":
                break
            bad = pos + len(rest) - len(rest.lstrip())
            raise ParseError(f"unexpected character {source[bad]!r}", bad)
        if m.group("num") is not None:
            tokens.append(("num", float(m.group("num")), m.start("num")))
        elif m.group("name") is not None:
            tokens.append(("name", m.group("name"), m.start("name")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", None, len(source)))
    return tokens


class _Parser:
    def __init__(self, tokens, dim):
        self.tokens = tokens
        self.pos = 0
        self.dim = dim

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op):
        kind, value, offset = self.peek()
        if kind != "op" or value != op:
            raise ParseError(f"expected {op!r}", offset)
        return self.advance()

    def parse(self):
        node = self.expr()
        kind, _, offset = self.peek()
        if kind != "end":
            raise ParseError("trailing input", offset)
        return node

    def expr(self):
        node = self.term()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in ("+", "-"):
                self.advance()
                node = Bin(value, node, self.term())
            else:
                return node

    def term(self):
        node = self.factor()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in ("*", "/"):
                self.advance()
                node = Bin(value, node, self.factor())
            else:
                return node

    def factor(self):
        kind, value, _ = self.peek()
        if kind == "op" and value == "-":
            self.advance()
            return Neg(self.factor())
        return self.power()

    def power(self):
        base = self.atom()
        kind, value, offset = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            exponent = self.factor()
            if variables(exponent):
                raise ParseError("exponent must be a constant", offset)
            return Bin("^", base, exponent)
        return base

    def atom(self):
        kind, value, offset = self.advance()
        if kind == "num":
            return Num(value)
        if kind == "name":
            if value in _FUNCTIONS:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return Call(value, arg)
            m = re.fullmatch(r"x(\d+)", value)
            if m:
                idx = int(m.group(1))
                if not 1 <= idx <= self.dim:
                    raise ParseError(
                        f"coordinate x{idx} exceeds chart dimension {self.dim}", offset)
                return Var(idx)
            raise ParseError(f"unknown identifier {value!r}", offset)
        if kind == "op" and value == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ParseError("expected a number, coordinate, function or '('", offset)


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
    return _Parser(_tokenize(source), dim).parse()


# -- evaluation ------------------------------------------------------------

_FN_IMPL = {"sin": hd.sin, "cos": hd.cos, "exp": hd.exp, "log": hd.log, "sqrt": hd.sqrt}


def evaluate(node, coords, memo=None):
    """Evaluate an AST at ``coords`` (sequence of scalars, arrays or jets).

    Calls that share a ``memo`` dict at the same ``coords`` evaluate each
    distinct subexpression once (the twist inside ``cos(t)`` and ``sin(t)``).
    """
    if memo is None:
        return _evaluate(node, coords, None)
    if node not in memo:
        memo[node] = _evaluate(node, coords, memo)
    return memo[node]


def _evaluate(node, coords, memo):
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        return coords[node.index - 1]
    if isinstance(node, Neg):
        return -evaluate(node.child, coords, memo)
    if isinstance(node, Call):
        try:
            return _FN_IMPL[node.fn](evaluate(node.child, coords, memo))
        except JetDomainError as e:
            raise DomainError(f"{node.fn}: {e}") from e
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
            try:
                if isinstance(a, HyperDual) or isinstance(b, HyperDual):
                    return a / b
                b_arr = np.asarray(b, dtype=float)
                if np.any(b_arr == 0.0):
                    raise DomainError("division by zero")
                return a / b_arr
            except JetDomainError as e:
                raise DomainError(str(e)) from e
        if node.op == "^":
            p = float(evaluate(node.right, ()))
            if p < 0.0 and np.any(hd.value_of(a) == 0.0):
                raise DomainError("negative power of a zero base")
            try:
                if isinstance(a, HyperDual):
                    return a ** p
                a_arr = np.asarray(a, dtype=float)
                if not p.is_integer() and np.any(a_arr <= 0.0):
                    raise DomainError("non-integer power of non-positive base")
                return np.power(a_arr, p)
            except JetDomainError as e:
                raise DomainError(str(e)) from e
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

