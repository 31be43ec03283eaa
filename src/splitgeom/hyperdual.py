"""Second-order forward-mode scalars (value, gradient, Hessian).

A :class:`HyperDual` carries the 2-jet of a quantity with respect to the
chart coordinates: its value, its gradient and its (symmetric) Hessian.
Arithmetic implements the exact product and chain rules, so any quantity
built from seeded coordinates carries machine-precision first and second
derivatives -- no truncation error.

Values may be scalars or numpy arrays of any shape: a batch of evaluation
points ``B`` followed by tensor axes ``T``.  Then ``grad`` has shape
``B + T + (m,)`` and ``hess`` ``B + T + (m, m)``, one slot per seeded
direction (see below).  Elementwise arithmetic combines jets of one value
shape with each other and with plain numbers.  One jet thus carries a
whole tensor field with its derivatives (the vector forward mode of
Griewank & Walther, *Evaluating Derivatives*, on the hyper-dual numbers of
Fike & Alonso):

* :func:`stack` builds a tensor jet from (nested) lists of scalar jets,
* :func:`einsum` contracts jets and plain arrays with the product rule,
* :func:`differential` turns the 2-jet of ``f`` into the 1-jet of all its
  partial derivatives, the derivative (slot) index as a new last value axis.

Derivative slots are not coordinate axes.  :func:`seed_jets` seeds ``m``
slots along chosen axes of an ``n``-dimensional chart, slot ``j`` along
``axes[j]`` (by default ``m = n``, slot ``j`` along axis ``j``); every jet
built from those coordinates carries ``m`` gradient and ``m x m`` Hessian
slots, and its derivatives along the other axes are zero and not stored.
This module works on slots only: :func:`differential` appends the slot
index, not a coordinate index.  Mapping slots back to coordinates is the
job of the code that chose the axes (:class:`~splitgeom.chart.ChartFrame`).

A jet without a Hessian slot (``hess=None``) has order 1.  Value and
gradient slots of any expression stay exact when an operand has order 1,
because no rule reads an operand's Hessian to produce the value or gradient
of the result; the result simply has order 1 as well.  Taking the
differential of an order-1 jet raises: that would be a third metric
derivative, which this engine never needs.

The primitives (:func:`sin` ... :func:`sqrt`), division and powers are pure
calculus: none checks its domain, so a zero divisor or the log of a
negative value gives numpy's ``inf`` or ``nan``.  What an input expression
may take is checked where it is evaluated, in :mod:`splitgeom.expr`.
"""

from __future__ import annotations

import itertools
import math
import string
import sys

import numpy as np

__all__ = [
    "HyperDual",
    "seed_jets",
    "constant_like",
    "as_jet",
    "stack",
    "einsum",
    "differential",
    "value_of",
    "sin",
    "cos",
    "exp",
    "log",
    "sqrt",
    "JetOrderError",
]


class JetOrderError(RuntimeError):
    """Raised when a derivative beyond the tracked order is requested."""


_LETTERS = string.ascii_letters
_PLANS = {}  # einsum plan per (spec, operand layout), see _plan
_GREEDY = ("greedy", sys.maxsize)  # no memory limit: every step takes two operands


def _outer(u, v):
    # symmetric part of the rank-1 update u (x) v + v (x) u
    return u[..., :, None] * v[..., None, :] + v[..., :, None] * u[..., None, :]


class HyperDual:
    __slots__ = ("val", "grad", "hess")
    # numpy defers to the reflected operators (``array * jet`` is a jet)
    # instead of building an object array of whole jets
    __array_ufunc__ = None

    def __init__(self, val, grad, hess=None):
        self.val = np.asarray(val, dtype=float)
        self.grad = np.asarray(grad, dtype=float)
        self.hess = None if hess is None else np.asarray(hess, dtype=float)

    @property
    def dim(self):
        return self.grad.shape[-1]

    @property
    def order(self):
        return 1 if self.hess is None else 2

    def __repr__(self):
        return f"HyperDual(val={self.val!r}, order={self.order})"

    def __getitem__(self, idx):
        """Index the value axes; ``idx`` must start with ``...`` so that it
        addresses the trailing (tensor) axes, e.g. ``E[..., a, :]``."""
        if not (isinstance(idx, tuple) and idx and idx[0] is Ellipsis):
            raise IndexError("jet indices must start with '...'")
        return HyperDual(self.val[idx], self.grad[idx + (slice(None),)],
                         None if self.hess is None
                         else self.hess[idx + (slice(None), slice(None))])

    def __iter__(self):
        # without this, Python would iterate through __getitem__, which
        # refuses every integer index: a jet would read as an empty sequence
        raise TypeError("a jet is not iterable; index its value axes with '...'")

    # -- arithmetic ------------------------------------------------------

    def __neg__(self):
        return HyperDual(-self.val, -self.grad,
                         None if self.hess is None else -self.hess)

    def __add__(self, other):
        if isinstance(other, HyperDual):
            h = None
            if self.hess is not None and other.hess is not None:
                h = self.hess + other.hess
            return HyperDual(self.val + other.val, self.grad + other.grad, h)
        return HyperDual(self.val + other, self.grad.copy(),
                         None if self.hess is None else self.hess.copy())

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, HyperDual):
            h = None
            if self.hess is not None and other.hess is not None:
                h = self.hess - other.hess
            return HyperDual(self.val - other.val, self.grad - other.grad, h)
        return HyperDual(self.val - other, self.grad.copy(),
                         None if self.hess is None else self.hess.copy())

    def __rsub__(self, other):
        return HyperDual(other - self.val, -self.grad,
                         None if self.hess is None else -self.hess)

    def __mul__(self, other):
        if isinstance(other, HyperDual):
            val = self.val * other.val
            grad = self.grad * other.val[..., None] + other.grad * self.val[..., None]
            h = None
            if self.hess is not None and other.hess is not None:
                h = (self.hess * other.val[..., None, None]
                     + other.hess * self.val[..., None, None]
                     + _outer(self.grad, other.grad))
            return HyperDual(val, grad, h)
        other = np.asarray(other, dtype=float)
        return HyperDual(self.val * other, self.grad * other[..., None],
                         None if self.hess is None else self.hess * other[..., None, None])

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, HyperDual):
            return self * other._reciprocal()
        other = np.asarray(other, dtype=float)
        return self * (1.0 / other)

    def __rtruediv__(self, other):
        return self._reciprocal() * other

    def _reciprocal(self):
        inv = 1.0 / self.val
        d1 = -inv * inv
        d2 = 2.0 * inv * inv * inv
        return self._lift(inv, d1, d2)

    def __pow__(self, p):
        if isinstance(p, HyperDual):
            raise TypeError("exponent must be a constant, not a jet")
        if isinstance(p, (int, np.integer)) or (isinstance(p, float) and p.is_integer()):
            p = int(p)
            if p == 0:
                return constant_like(self, 1.0)
            if p == 1:
                return HyperDual(self.val.copy(), self.grad.copy(),
                                 None if self.hess is None else self.hess.copy())
            if p < 0:
                return (self ** (-p))._reciprocal()
            v = np.power(self.val, p)
            d1 = p * np.power(self.val, p - 1)
            d2 = p * (p - 1) * np.power(self.val, p - 2)
            return self._lift(v, d1, d2)
        v = np.power(self.val, p)
        d1 = p * np.power(self.val, p - 1.0)
        d2 = p * (p - 1.0) * np.power(self.val, p - 2.0)
        return self._lift(v, d1, d2)

    def _lift(self, v, d1, d2):
        """Chain rule for a primitive u with u(x)=v, u'(x)=d1, u''(x)=d2."""
        grad = d1[..., None] * self.grad
        h = None
        if self.hess is not None:
            h = (d1[..., None, None] * self.hess
                 + d2[..., None, None] * (self.grad[..., :, None] * self.grad[..., None, :]))
        return HyperDual(v, grad, h)


# -- seeding and extraction ----------------------------------------------

def seed_jets(points, axes=None):
    """Coordinate jets at ``points`` of shape ``(..., n)``, differentiated
    along ``axes`` (default: every axis), slot ``j`` along ``axes[j]``.

    Returns a list of ``n`` HyperDuals, the a-th having value ``x_a``, zero
    Hessian and gradient ``e_j`` if ``a = axes[j]``, else zero.
    """
    points = np.asarray(points, dtype=float)
    n = points.shape[-1]
    axes = list(range(n)) if axes is None else list(axes)
    m = len(axes)
    shape = points.shape[:-1]
    out = []
    for a in range(n):
        grad = np.zeros(shape + (m,))
        if a in axes:
            grad[..., axes.index(a)] = 1.0
        out.append(HyperDual(points[..., a], grad, np.zeros(shape + (m, m))))
    return out

def constant_like(ref, value):
    """A constant jet broadcast-compatible with ``ref``."""
    val = np.broadcast_to(np.asarray(value, dtype=float), ref.val.shape).copy()
    grad = np.zeros_like(ref.grad)
    hess = None if ref.hess is None else np.zeros_like(ref.hess)
    return HyperDual(val, grad, hess)

def as_jet(x, ref):
    """Coerce a plain number/array to a constant jet like ``ref``."""
    if isinstance(x, HyperDual):
        return x
    return constant_like(ref, x)

def stack(items, ref=None):
    """One jet from a (nested) sequence of jets or constants of one value shape.

    Like ``np.stack`` with one new axis per nesting level, in nesting order,
    after the value shape (so the batch shape is free): an ``n x n`` nested
    list of scalar jets becomes a ``(..., n, n)`` jet.  Constants get zero
    derivatives and the slots and batch shape of ``ref`` (default: the first
    jet among the items); with no jet at all the result is a plain array.
    The result has order 2 only if every jet has.
    """
    shape, leaves = (), [items]
    while isinstance(leaves[0], (list, tuple)):
        shape += (len(leaves[0]),)
        leaves = [x for seq in leaves for x in seq]
    jets = [x for x in leaves if isinstance(x, HyperDual)]
    if ref is None and not jets:
        vals = np.broadcast_arrays(*[np.asarray(x, dtype=float) for x in leaves])
        return np.stack(vals, axis=-1).reshape(vals[0].shape + shape)
    if ref is None:
        ref = jets[0]
    if len(jets) < len(leaves):
        jets.append(ref)  # the constants' order and batch shape
    batch = np.broadcast_shapes(*(j.val.shape for j in jets))
    m, L = ref.dim, len(leaves)
    val = np.empty(batch + (L,))
    grad = np.zeros(batch + (L, m))
    hess = np.zeros(batch + (L, m, m)) if all(j.hess is not None for j in jets) else None
    for i, x in enumerate(leaves):
        if isinstance(x, HyperDual):
            val[..., i] = x.val
            grad[..., i, :] = x.grad
            if hess is not None:
                hess[..., i, :, :] = x.hess
        else:
            val[..., i] = x
    return HyperDual(val.reshape(batch + shape), grad.reshape(batch + shape + (m,)),
                     None if hess is None else hess.reshape(batch + shape + (m, m)))


def einsum(spec, *ops):
    """``np.einsum(spec, *ops)`` over jets and plain arrays, with the product rule.

    ``spec`` names its output (``"...ab,...b->...a"``).  The gradient is the
    sum over jet operands of the same contraction with that operand's
    gradient in place of its value, the derivative axis appended; the
    Hessian adds the symmetrised cross terms of every pair of gradients.
    The result has order 2 only if every jet operand has; with no jet
    operand it is a plain array.  No slot of the result shares memory with
    an operand.

    The product-rule terms and their contraction chains are planned once
    per spec and operand layout (see :func:`_plan`); a call replays the plan.
    """
    slots = [(o.val, o.grad, o.hess) if isinstance(o, HyperDual)
             else (np.asarray(o, dtype=float),) for o in ops]
    key = (spec,) + tuple(tuple(None if a is None else a.shape for a in s) for s in slots)
    plan = _PLANS.get(key)
    if plan is None:
        plan = _PLANS[key] = _plan(spec, slots)
    out = [None, None, None]
    for slot, sources, steps, fresh, cross in plan:
        xs = [slots[k][s] for k, s in sources]
        for inds, lowering in steps:
            if isinstance(lowering, str):
                xs.append(np.einsum(lowering, xs.pop(inds[0])))
            else:
                xs.append(_pair(xs.pop(inds[0]), xs.pop(inds[1]), *lowering))
        t = xs.pop()
        if out[slot] is None:
            out[slot] = t if fresh else t.copy(order="K")
        else:
            out[slot] += t
            if cross:
                out[slot] += np.swapaxes(t, -1, -2)
        del t  # not alive while the next term is computed
    val, grad, hess = out
    return val if grad is None else HyperDual(val, grad, hess)


def _plan(spec, slots):
    """The terms of :func:`einsum` on operand ``slots`` (``(val, grad, hess)``
    of a jet, ``(array,)`` of a plain operand), each a contraction chain.

    A term is ``(slot, sources, steps, fresh, cross)``: it adds into output
    slot 0 (value), 1 (gradient) or 2 (Hessian; a ``cross`` term adds its
    transpose too) the contraction of the operand slots ``sources`` (pairs
    of operand index and 0 = value, 1 = gradient, 2 = Hessian).  ``steps``
    is numpy's greedy path without a memory limit, so that no step takes
    more than two operands.  A step ``(inds, lowering)`` pops the operands
    ``inds`` off the list of pending ones and pushes its result: a
    one-operand step is ``np.einsum`` on the subscripts ``lowering``, a pair
    a batched ``np.matmul`` or a broadcast product (:func:`_lower`).
    ``fresh`` is False when the last step may return a view of an operand.
    A plan depends on nothing but its key, so worker threads share the
    cache, and two that plan the same key store equal plans.
    """
    ins, out = spec.replace(" ", "").split("->")
    ins = ins.split(",")
    d1, d2 = [c for c in _LETTERS if c not in spec][:2]
    jets = [k for k, s in enumerate(slots) if len(s) == 3]
    terms = [(0, {}, "", False)]
    if jets:
        terms += [(1, {k: (1, d1)}, d1, False) for k in jets]
        if all(slots[k][2] is not None for k in jets):
            terms += [(2, {k: (2, d1 + d2)}, d1 + d2, False) for k in jets]
            terms += [(2, {a: (1, d1), b: (1, d2)}, d1 + d2, True)
                      for a, b in itertools.combinations(jets, 2)]
    plan = []
    for slot, swap, extra, cross in terms:
        sources = [(k, swap[k][0] if k in swap else 0) for k in range(len(slots))]
        subs = ",".join(ins[k] + swap[k][1] if k in swap else ins[k]
                        for k in range(len(slots)))
        shapes = [slots[k][s].shape for k, s in sources]
        _, chain = np.einsum_path(f"{subs}->{out}{extra}", *(slots[k][s] for k, s in sources),
                                  optimize=_GREEDY, einsum_call=True)
        steps = []
        for contraction in chain:
            inds = contraction[0]
            # the step's subscripts, e.g. "lab,la->bl": the one string field of
            # the entry (numpy < 2.4 adds a set and a BLAS flag around it)
            eq = next(f for f in contraction if isinstance(f, str))
            terms_in, term_out = eq.split("->")
            shapes_in = [shapes.pop(i) for i in inds]
            size = {}
            for term, shape in zip(terms_in.split(","), shapes_in):
                for ix, d in zip(term, shape):
                    if size.get(ix, 1) == 1:  # an axis of size one broadcasts
                        size[ix] = d
            shapes.append(tuple(size[ix] for ix in term_out))
            steps.append((inds, eq if len(inds) == 1 else _lower(eq, *shapes_in)))
        fresh = not isinstance(steps[-1][1], str)
        plan.append((slot, tuple(sources), tuple(steps), fresh, cross))
    return tuple(plan)


def _pair(a, b, prep_a, shape_a, prep_b, shape_b, product, shape_ab, perm_ab):
    """Replay one two-operand step lowered by :func:`_lower`."""
    a = _prepare(a, prep_a, shape_a)
    b = _prepare(b, prep_b, shape_b)
    if product:
        return np.multiply(a, b)
    ab = np.matmul(a, b)
    if shape_ab is not None:
        ab = ab.reshape(shape_ab)
    return ab if perm_ab is None else ab.transpose(perm_ab)


def _prepare(x, prep, shape):
    # an operand of a pair: reordered by :func:`_reorder`, then fused
    if isinstance(prep, str):
        x = np.einsum(prep, x)
    elif prep is not None:
        x = x.transpose(prep)
    return x if shape is None else x.reshape(shape)


def _lower(eq, shape_a, shape_b):
    """The einsum-to-bmm lowering of a two-operand step ``eq`` that numpy
    >= 2.4 applies itself (J. Gray, einsum_bmm), as the arguments of
    :func:`_pair`: so the plan computes the same bits as ``np.einsum`` on
    the same path.

    Axes of size one are dropped, and reinserted in the output.  Each
    operand is transposed to (batch, kept, contracted) axes -- through
    ``np.einsum`` when that also sums an axis no other term reads -- and
    fused to three axes for ``np.matmul``.  With no contracted axis the
    step is a product of broadcast operands.
    """
    lhs, out = eq.split("->")
    ta, tb = lhs.split(",")
    left = {ix: d for ix, d in zip(ta, shape_a) if d != 1}
    right = {ix: d for ix, d in zip(tb, shape_b) if d != 1}
    sizes = {**left, **right}
    bat = [ix for ix in left if ix in right and ix in out]
    con = [ix for ix in left if ix in right and ix not in out]
    keep_a = [ix for ix in left if ix not in right and ix in out]
    keep_b = [ix for ix in right if ix not in left and ix in out]
    if not con:
        def spread(term, shape):
            # the operand on the output's axes, size one where it has none
            return (_reorder(term, "".join(ix for ix in out if ix in term)),
                    tuple(shape[term.index(ix)] if ix in term else 1 for ix in out))
        return spread(ta, shape_a) + spread(tb, shape_b) + (True, None, None)
    groups_a, groups_b, groups_ab = (bat, keep_a, con), (bat, con, keep_b), (bat, keep_a, keep_b)
    if not bat:
        groups_a, groups_b, groups_ab = groups_a[1:], groups_b[1:], groups_ab[1:]
    ones = [ix for ix in out if ix not in sizes]  # of size one in both operands
    shape_ab = None
    if ones or any(len(g) != 1 for g in groups_ab):
        shape_ab = (1,) * len(ones) + tuple(sizes[ix] for g in groups_ab for ix in g)
    produced = "".join(ones + bat + keep_a + keep_b)
    return (_reorder(ta, "".join(bat + keep_a + con)), _fused(groups_a, sizes),
            _reorder(tb, "".join(bat + con + keep_b)), _fused(groups_b, sizes),
            False, shape_ab, None if produced == out else tuple(produced.index(ix) for ix in out))


def _reorder(term, want):
    """None, an axis permutation, or the one-operand einsum from ``term`` to ``want``."""
    if term == want:
        return None
    if sorted(term) == sorted(want):
        return tuple(term.index(ix) for ix in want)
    return f"{term}->{want}"


def _fused(groups, sizes):
    if all(len(g) == 1 for g in groups):
        return None
    return tuple(math.prod(sizes[ix] for ix in g) for g in groups)


def differential(f):
    """First-order jet of all partial derivatives of ``f``: value ``f.grad``,
    gradient ``f.hess``; the derivative index is the new last value axis."""
    if not isinstance(f, HyperDual):
        raise TypeError("differential needs a HyperDual")
    if f.hess is None:
        raise JetOrderError(
            "second-order information exhausted: cannot differentiate an order-1 jet")
    return HyperDual(f.grad, f.hess, None)

def value_of(x):
    """Plain value of a jet or passthrough for arrays/floats."""
    if isinstance(x, HyperDual):
        return x.val
    return np.asarray(x, dtype=float)


# -- primitives (dispatch on type: jets, arrays and floats) -------------

def sin(x):
    if isinstance(x, HyperDual):
        return x._lift(np.sin(x.val), np.cos(x.val), -np.sin(x.val))
    return np.sin(x)

def cos(x):
    if isinstance(x, HyperDual):
        return x._lift(np.cos(x.val), -np.sin(x.val), -np.cos(x.val))
    return np.cos(x)

def exp(x):
    if isinstance(x, HyperDual):
        e = np.exp(x.val)
        return x._lift(e, e, e)
    return np.exp(x)

def log(x):
    if isinstance(x, HyperDual):
        return x._lift(np.log(x.val), 1.0 / x.val, -1.0 / (x.val * x.val))
    return np.log(x)

def sqrt(x):
    if isinstance(x, HyperDual):
        r = np.sqrt(x.val)
        return x._lift(r, 0.5 / r, -0.25 / (r * x.val))
    return np.sqrt(x)
