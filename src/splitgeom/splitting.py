"""Orthogonal splittings of the tangent bundle and their fundamental tensors.

A :class:`SplitStructure` holds the dimensions ``(n_1, ..., n_k)`` of k
mutually orthogonal distributions together with a spanning frame field: a
jet-capable callback returning ``n`` vector fields in block order (the first
``n_1`` spanning the first distribution, and so on).

:class:`SplitContext` evaluates everything at a batch of points on a chart:

* the adapted orthonormal frame (blockwise Gram-Schmidt in fixed order, run
  on jets so frame derivatives are exact),
* the frame components ``cov[a, b, c] = <nabla_{E_a} E_b, E_c>`` of the
  covariant derivatives of frame fields, as one order-1 jet,
* for any index subset ``q``: the symmetric second fundamental form ``h_q``,
  the skew integrability tensor ``T_q``, the mean curvature vector ``H_q``
  (trace of ``h_q``, expanded in the orthogonal complement) and their squared
  norms, summed over ordered orthonormal argument pairs,
* the sectional curvature matrix of frame planes and its block sums,
* divergences restricted to the frame blocks of a subset.

The squared-norm convention counts ordered pairs: ``|h_q|^2`` sums the
squared frame components over all ordered pairs ``(a, b)`` of arguments and
all complement directions.  This is the normalisation under which the
two-distribution divergence identity balances (pinned by tests on warped
scenarios with a 2-dimensional block).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import hyperdual as hd
from .chart import ChartFrame, GeometryError, check_positive_definite

__all__ = [
    "SubsetIndex",
    "subsets",
    "SplitStructure",
    "SplitContext",
    "FundamentalData",
    "coordinate_split",
    "pair_predicates",
]


@dataclass(frozen=True)
class SubsetIndex:
    """Strictly increasing tuple of distribution labels from ``1..k``."""

    q: tuple

    def __post_init__(self):
        if not self.q:
            raise ValueError("subset must be non-empty")
        if list(self.q) != sorted(set(self.q)):
            raise ValueError(f"subset labels must be strictly increasing, got {self.q}")

    @property
    def r(self):
        return len(self.q)

    def complement(self, k):
        return SubsetIndex(tuple(i for i in range(1, k + 1) if i not in self.q))

    def __iter__(self):
        return iter(self.q)

    def __contains__(self, i):
        return i in self.q


def subsets(r, k):
    """All ``r``-element subsets of ``{1..k}`` in lexicographic order."""
    if not 1 <= r <= k:
        raise ValueError(f"r out of range: need 1 <= r <= k, got r={r}, k={k}")
    return [SubsetIndex(c) for c in itertools.combinations(range(1, k + 1), r)]


class SplitStructure:
    """Dimensions and spanning frame of the k orthogonal distributions."""

    def __init__(self, dims, frame=None, name="split"):
        self.dims = tuple(int(d) for d in dims)
        if any(d < 1 for d in self.dims):
            raise ValueError("distribution dimensions must be positive")
        self.n = sum(self.dims)
        self.k = len(self.dims)
        self.frame = frame
        self.name = name
        starts = np.concatenate([[0], np.cumsum(self.dims)])
        self._blocks = [range(starts[i], starts[i + 1]) for i in range(self.k)]

    def block(self, i):
        """Frame index range of distribution ``i`` (1-based label)."""
        return self._blocks[i - 1]

    def block_indices(self, q):
        out = []
        for i in q:
            out.extend(self.block(i))
        return out

    def block_of(self, a):
        for i in range(1, self.k + 1):
            if a in self.block(i):
                return i
        raise IndexError(a)


def coordinate_split(dims, name="coordinate"):
    """Split along coordinate directions, in order."""
    n = sum(dims)

    def frame(coords):
        return np.eye(n).tolist()

    return SplitStructure(dims, frame, name=name)


def gram_schmidt(g, vectors, points):
    """Sequential modified Gram-Schmidt of the rows of ``vectors``
    ``(..., v, a)`` in the metric ``g`` ``(..., a, b)``; the same code runs
    on jets and on plain arrays.  Raises :class:`GeometryError` naming the
    first of ``points`` where the rows are linearly dependent."""
    out = []
    for v in range(hd.value_of(vectors).shape[-2]):
        w = vectors[..., v, :]
        for e in out:
            c = hd.einsum("...a,...ab,...b->...", w, g, e)
            w = w - hd.einsum("...,...a->...a", c, e)
        nrm2 = hd.einsum("...a,...ab,...b->...", w, g, w)
        bad = np.flatnonzero(hd.value_of(nrm2) <= 1e-24)
        if bad.size:
            node = points.reshape(-1, points.shape[-1])[bad[0]]
            raise GeometryError(f"spanning frame is rank deficient at {node.tolist()}")
        out.append(hd.einsum("...,...a->...a", 1.0 / hd.sqrt(nrm2), w))
    return hd.stack(out, axis=-2)


@dataclass
class FundamentalData:
    """Per-point tensors of one subset ``q`` in the adapted frame.

    ``h_frame``/``t_frame`` have shape ``batch + (nq, nq, nc)``: component of
    ``h_q(E_a, E_b)`` (resp. ``T_q``) along the complement frame vector
    ``E_c``.  ``H_frame`` has shape ``batch + (nc,)``; ``H`` is the mean
    curvature vector in coordinates, a ``batch + (n,)`` jet with exact
    gradients (differentiable once).
    """

    q: SubsetIndex
    arg_idx: list
    perp_idx: list
    h_frame: np.ndarray
    t_frame: np.ndarray
    H_frame: np.ndarray
    H: hd.HyperDual
    h_norm2: np.ndarray
    t_norm2: np.ndarray
    H_norm2: np.ndarray


class SplitContext:
    """All split-dependent quantities of a scenario at a batch of points."""

    def __init__(self, chart, split, points, validate=True, frame_values=None):
        if split.n != chart.dim:
            raise GeometryError(
                f"split dimensions sum to {split.n}, chart dimension is {chart.dim}")
        self.chart = chart
        self.split = split
        self.frame = ChartFrame(chart, points)
        self.points = self.frame.points
        self.n = chart.dim
        self.k = split.k
        self._value_only = frame_values is not None
        self._fund = {}
        self._cov = None
        self._K = None

        if frame_values is not None:
            raw = np.asarray(frame_values, dtype=float)
            g = self.frame.g.val
        else:
            if split.frame is None:
                raise GeometryError("split structure has no spanning frame")
            vecs = split.frame(self.frame.coords)
            if len(vecs) != self.n:
                raise GeometryError("spanning frame must supply n vector fields")
            raw = hd.stack(vecs, ref=self.frame.coords[0])
            g = self.frame.g
        check_positive_definite(self.frame.g.val, self.points)
        if validate:
            self._validate_raw_blocks(hd.value_of(raw))
        self.E = gram_schmidt(g, raw, self.points)

    def _validate_raw_blocks(self, raw, tol=1e-9):
        gv = self.frame.g.val
        gram = np.einsum("...va,...ab,...wb->...vw", raw, gv, raw)
        scale = 1.0 + np.max(np.abs(gv))
        for i in range(1, self.k + 1):
            for j in range(i + 1, self.k + 1):
                cross = gram[..., self.split.block(i), :][..., self.split.block(j)]
                ip = np.max(np.abs(cross))
                if ip > tol * scale:
                    raise GeometryError(
                        f"spanning blocks {i} and {j} are not orthogonal "
                        f"(inner product {ip:.2e})")

    # -- frame-level data ---------------------------------------------------

    @property
    def E_val(self):
        """Adapted frame values ``(..., v, a)``: row ``v`` is ``E_v``."""
        return hd.value_of(self.E)

    def orthonormality_residual(self):
        g = self.frame.g.val
        E = self.E_val
        gram = np.einsum("...va,...ab,...wb->...vw", E, g, E)
        eye = np.eye(self.n)
        return np.max(np.abs(gram - eye))

    def projectors(self):
        """Value-level orthoprojector matrices ``P_i``, shape ``(..., k, n, n)``."""
        g = self.frame.g.val
        E = self.E_val
        flat = np.einsum("...ab,...vb->...va", g, E)  # lowered frame vectors
        out = np.zeros(self.points.shape[:-1] + (self.k, self.n, self.n))
        for i in range(1, self.k + 1):
            for a in self.split.block(i):
                out[..., i - 1, :, :] += E[..., a, :, None] * flat[..., a, None, :]
        return out

    @property
    def cov(self):
        """``cov[..., a, b, c] = <nabla_{E_a} E_b, E_c>``: order-1 jet of the
        frame components of the covariant derivatives of frame fields."""
        if self._value_only:
            raise GeometryError("covariant derivatives need a jet-capable frame")
        if self._cov is None:
            fr, E = self.frame, self.E
            dE = hd.differential(E)  # (..., b, d, x) = d_x E_b^d
            # coordinate components (..., a, b, d) of nabla_{E_a} E_b
            nabla = (hd.einsum("...ax,...bdx->...abd", E, dE)
                     + hd.einsum("...dxy,...ax,...by->...abd", fr.gamma, E, E))
            self._cov = hd.einsum("...abd,...de,...ce->...abc", nabla, fr.g, E)
        return self._cov

    # -- fundamental tensors -------------------------------------------------

    def fundamental(self, q):
        """Fundamental data of the subset ``q`` (cached)."""
        if isinstance(q, tuple):
            q = SubsetIndex(q)
        if q.q in self._fund:
            return self._fund[q.q]
        if max(q.q) > self.k:
            raise ValueError(f"subset {q.q} exceeds k={self.k}")
        arg_idx = self.split.block_indices(q)
        comp_labels = [i for i in range(1, self.k + 1) if i not in q]
        perp_idx = self.split.block_indices(comp_labels)
        # d[a, b, c] = <nabla_{E_a} E_b, E_c>, arguments a, b in q, c in the complement
        d = self.cov[(Ellipsis,) + np.ix_(arg_idx, arg_idx, perp_idx)]
        dT = np.swapaxes(d.val, -3, -2)
        h_frame = 0.5 * (d.val + dT)
        t_frame = 0.5 * (d.val - dT)
        # the trace of h_q, expanded in the complement frame
        H = hd.einsum("...aac,...cd->...d", d, self.E[..., perp_idx, :])
        H_frame = np.einsum("...aac->...c", d.val)

        # ordered-pair norm convention
        h_norm2 = np.sum(h_frame ** 2, axis=(-3, -2, -1))
        t_norm2 = np.sum(t_frame ** 2, axis=(-3, -2, -1))
        H_norm2 = np.sum(H_frame ** 2, axis=-1)

        data = FundamentalData(q=q, arg_idx=arg_idx, perp_idx=perp_idx,
                               h_frame=h_frame, t_frame=t_frame, H_frame=H_frame,
                               H=H, h_norm2=h_norm2, t_norm2=t_norm2,
                               H_norm2=H_norm2)
        self._fund[q.q] = data
        return data

    def H_values(self, q):
        return self.fundamental(q).H.val

    def inner_values(self, u_vals, v_vals):
        return np.einsum("...ab,...a,...b->...", self.frame.g.val, u_vals, v_vals)

    def cross_block_sup(self, q):
        """Per-point sup of ``|h_q|`` and ``|T_q|`` components over argument
        pairs ``(E_a, E_b)`` from different blocks of ``q``."""
        data = self.fundamental(q)
        blocks = np.array([self.split.block_of(a) for a in data.arg_idx])
        cross = blocks[:, None] != blocks[None, :]
        return tuple(np.max(np.abs(t[..., cross, :]), axis=(-2, -1), initial=0.0)
                     for t in (data.h_frame, data.t_frame))

    # -- curvature sums -------------------------------------------------------

    @property
    def sectional(self):
        """``K[..., a, b] = R(E_a, E_b, E_a, E_b)``: the sectional curvature of
        every frame plane (cached); the curvature sums below add its blocks."""
        if self._K is None:
            E = self.E_val
            self._K = np.einsum("...abcd,...xa,...yb,...xc,...yd->...xy",
                                self.frame.riemann, E, E, E, E)
        return self._K

    def _block_sum(self, rows, cols):
        K = self.sectional
        total = np.zeros(self.points.shape[:-1])
        for a in rows:
            for b in cols:
                total = total + K[..., a, b]
        return total

    def mixed_curvature(self, i, j):
        """Sum of sectional curvatures over mixed frame pairs of ``D_i, D_j``."""
        if i == j:
            raise ValueError("mixed curvature needs two distinct distributions")
        i, j = min(i, j), max(i, j)
        return self._block_sum(self.split.block(i), self.split.block(j))

    def smix(self):
        total = np.zeros(self.points.shape[:-1])
        for i in range(1, self.k + 1):
            for j in range(i + 1, self.k + 1):
                total = total + self.mixed_curvature(i, j)
        return total

    def smix_pairsplit(self, i):
        """Mixed scalar curvature of the 2-split ``(D_i, D_i^perp)``."""
        block = self.split.block(i)
        return self._block_sum(block, [b for b in range(self.n) if b not in block])

    # -- divergences ----------------------------------------------------------

    def divergence_values(self, X):
        return self.frame.divergence_of(X)

    def partial_divergence(self, q, X):
        """``Div_q X`` of a ``(..., a)`` vector jet: the frame-block part of
        the divergence, at value level."""
        if isinstance(q, tuple):
            q = SubsetIndex(q)
        E = self.E_val[..., self.split.block_indices(q), :]
        # nabla[d, c] = d_c X^d + Gamma^d_ce X^e
        nabla = X.grad + np.einsum("...dce,...e->...dc", self.frame.gamma.val, X.val)
        # sum over a in q of <nabla_{E_a} X, E_a>
        return np.einsum("...ac,...dc,...de,...ae->...", E, nabla, self.frame.g.val, E,
                         optimize=True)


def pair_predicates(chart, split, i, j, sample_pts, tol=1e-9):
    """Mixed totally-geodesic / mixed-integrable flags for the pair ``(i, j)``.

    Returns sup norms of the cross-block components of ``h_{ij}`` and
    ``T_{ij}`` over the sample points and booleans against ``tol``.
    """
    if i == j:
        raise ValueError("pair predicates need two distinct distributions")
    ctx = SplitContext(chart, split, sample_pts)
    sup_h, sup_t = (float(np.max(s, initial=0.0))
                    for s in ctx.cross_block_sup(SubsetIndex(tuple(sorted((i, j))))))
    return {
        "mixed_tg": sup_h <= tol,
        "mixed_int": sup_t <= tol,
        "sup_h_cross": sup_h,
        "sup_t_cross": sup_t,
    }
