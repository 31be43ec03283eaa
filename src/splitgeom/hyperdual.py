"""Second-order forward-mode scalars (value, gradient, Hessian).

A :class:`HyperDual` carries the 2-jet of a quantity with respect to the
chart coordinates: its value, its gradient and its (symmetric) Hessian.
Arithmetic implements the exact product and chain rules, so any quantity
built from seeded coordinates carries machine-precision first and second
derivatives -- no truncation error.

Values may be scalars or numpy arrays of any shape: a batch of evaluation
points ``B`` followed by tensor axes ``T``.  Then ``grad`` has shape
``B + T + (n,)`` and ``hess`` ``B + T + (n, n)``.  Elementwise arithmetic
combines jets of one value shape with each other and with plain numbers.
One jet thus carries a whole tensor field with
its derivatives (the vector forward mode of Griewank & Walther, *Evaluating
Derivatives*, on the hyper-dual numbers of Fike & Alonso):

* :func:`stack` builds a tensor jet from (nested) lists of scalar jets,
* :func:`einsum` contracts jets and plain arrays with the product rule,
* :func:`differential` turns the 2-jet of ``f`` into the 1-jet of all its
  partial derivatives, the derivative index as a new last value axis.

A jet without a Hessian slot (``hess=None``) has order 1.  Value and
gradient slots of any expression stay exact when an operand has order 1,
because no rule reads an operand's Hessian to produce the value or gradient
of the result; the result simply has order 1 as well.  Taking the
differential of an order-1 jet raises: that would be a third metric
derivative, which this engine never needs.
"""

from __future__ import annotations

import itertools
import string

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
    "JetDomainError",
]


class JetOrderError(RuntimeError):
    """Raised when a derivative beyond the tracked order is requested."""


class JetDomainError(ValueError):
    """Raised when a primitive is evaluated outside its domain."""


_LETTERS = string.ascii_letters


def _outer(u, v):
    # symmetric part of the rank-1 update u (x) v + v (x) u
    return u[..., :, None] * v[..., None, :] + v[..., :, None] * u[..., None, :]


class HyperDual:
    __slots__ = ("val", "grad", "hess")

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
        v = self.val
        if np.any(v == 0.0):
            raise JetDomainError("division by zero")
        inv = 1.0 / v
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
        # real exponent: positive base only (avoids branch cuts)
        if np.any(self.val <= 0.0):
            raise JetDomainError("non-integer power of non-positive base")
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

def seed_jets(points, order=2):
    """Coordinate jets at ``points`` of shape ``(..., n)``.

    Returns a list of ``n`` HyperDuals, the a-th having value ``x_a``,
    gradient ``e_a`` and zero Hessian.
    """
    points = np.asarray(points, dtype=float)
    n = points.shape[-1]
    shape = points.shape[:-1]
    out = []
    for a in range(n):
        grad = np.zeros(shape + (n,))
        grad[..., a] = 1.0
        hess = np.zeros(shape + (n, n)) if order == 2 else None
        out.append(HyperDual(points[..., a], grad, hess))
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

def _depth(items):
    return 1 + _depth(items[0]) if isinstance(items, (list, tuple)) else 0


def stack(items, axis=-1, ref=None):
    """One jet from a sequence of jets or constants of one value shape.

    Like ``np.stack`` with the new axis at ``axis < 0``, counted from the end
    of the value shape (so the batch shape is free).  Nested sequences give
    one axis per level, in nesting order, the innermost at ``axis``: an
    ``n x n`` nested list of scalar jets becomes a ``(..., n, n)`` jet.
    Constants become constant jets like ``ref`` (default: the first jet
    among the stacked items); with no jet at all the result is a plain
    array.  The result has order 2 only if every jet has.
    """
    if axis >= 0:
        raise ValueError("stack axis must be negative")
    new = axis - (_depth(items) - 1)
    parts = [stack(it, axis, ref) if isinstance(it, (list, tuple)) else it
             for it in items]
    if ref is None:
        ref = next((p for p in parts if isinstance(p, HyperDual)), None)
    if ref is None:
        return np.stack(np.broadcast_arrays(*[np.asarray(p, dtype=float) for p in parts]),
                        axis=new)
    jets = [as_jet(p, ref) for p in parts]
    shape = np.broadcast_shapes(*(j.val.shape for j in jets))
    n = ref.dim
    val = np.stack([np.broadcast_to(j.val, shape) for j in jets], axis=new)
    grad = np.stack([np.broadcast_to(j.grad, shape + (n,)) for j in jets], axis=new - 1)
    hess = None
    if all(j.hess is not None for j in jets):
        hess = np.stack([np.broadcast_to(j.hess, shape + (n, n)) for j in jets],
                        axis=new - 2)
    return HyperDual(val, grad, hess)


def einsum(spec, *ops):
    """``np.einsum(spec, *ops)`` over jets and plain arrays, with the product rule.

    ``spec`` names its output (``"...ab,...b->...a"``).  The gradient is the
    sum over jet operands of the same contraction with that operand's
    gradient in place of its value, the derivative axis appended; the
    Hessian adds the symmetrised cross terms of every pair of gradients.
    The result has order 2 only if every jet operand has; with no jet
    operand it is a plain array.
    """
    ins, out = spec.replace(" ", "").split("->")
    ins = ins.split(",")
    d1, d2 = [c for c in _LETTERS if c not in spec][:2]
    vals = [value_of(o) for o in ops]
    jets = [k for k, o in enumerate(ops) if isinstance(o, HyperDual)]

    def term(swap, extra):
        # ``swap`` maps operand index -> (array, its appended derivative axes)
        subs = ",".join(ins[k] + swap[k][1] if k in swap else ins[k]
                        for k in range(len(ops)))
        arrays = [swap[k][0] if k in swap else vals[k] for k in range(len(ops))]
        return np.einsum(f"{subs}->{out}{extra}", *arrays, optimize=True)

    val = term({}, "")
    if not jets:
        return val
    grad = sum(term({k: (ops[k].grad, d1)}, d1) for k in jets)
    hess = None
    if all(ops[k].hess is not None for k in jets):
        hess = sum(term({k: (ops[k].hess, d1 + d2)}, d1 + d2) for k in jets)
        for a, b in itertools.combinations(jets, 2):
            cross = term({a: (ops[a].grad, d1), b: (ops[b].grad, d2)}, d1 + d2)
            hess = hess + cross + np.swapaxes(cross, -1, -2)
    return HyperDual(val, grad, hess)


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


# -- primitives (dispatch on type, usable in frame/metric callbacks) -----

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
        if np.any(x.val <= 0.0):
            raise JetDomainError("log of non-positive value")
        return x._lift(np.log(x.val), 1.0 / x.val, -1.0 / (x.val * x.val))
    if np.any(np.asarray(x) <= 0.0):
        raise JetDomainError("log of non-positive value")
    return np.log(x)

def sqrt(x):
    if isinstance(x, HyperDual):
        if np.any(x.val <= 0.0):
            raise JetDomainError("sqrt of non-positive value (jet derivative undefined at 0)")
        r = np.sqrt(x.val)
        return x._lift(r, 0.5 / r, -0.25 / (r * x.val))
    if np.any(np.asarray(x) < 0.0):
        raise JetDomainError("sqrt of negative value")
    return np.sqrt(x)
