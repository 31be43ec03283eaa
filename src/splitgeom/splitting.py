"""Orthogonal splittings of the tangent bundle and their fundamental tensors.

A :class:`SplitStructure` holds the dimensions ``(n_1, ..., n_k)`` of k
mutually orthogonal distributions together with a spanning frame field: an
``n x n`` matrix of closed-form expressions, like the metric, whose rows are
the frame vectors in block order (the first ``n_1`` spanning the first
distribution, and so on).

:class:`SplitContext` differentiates that frame and evaluates everything at
a batch of points on a chart:

* the adapted orthonormal frame (:func:`gram_schmidt` in fixed order, as one
  Cholesky factorisation of the frame's Gram matrix, run on jets so frame
  derivatives are exact),
* the frame components ``cov[a, b, c] = <nabla_{E_a} E_b, E_c>`` of the
  covariant derivatives of frame fields, as values; only the diagonal
  ``D[a, c] = cov[a, a, c]`` is differentiated, into the per-point table
  ``divY[a, c] = E_c(D_ac) + D_ac Div E_c``,
* for any subset ``q``, a strictly increasing tuple of labels as
  :func:`subsets` gives them: the symmetric second fundamental form
  ``h_q``, the skew integrability tensor ``T_q``, the mean curvature vector
  ``H_q = sum_{a in q, c not in q} D_ac E_c`` (trace of ``h_q``, expanded
  in the orthogonal complement), its divergence ``Div H_q``, the sum of
  ``divY`` over the same pairs, and the squared norms, summed over ordered
  orthonormal argument pairs,
* the sectional curvature matrix of frame planes and its block sums.

The divergence identities read ``Div H_q`` for their left sides and the
connection values and sectional curvatures for their right sides, so the
two sides share the frame but no derivative of the connection.
:func:`gram_schmidt` also orthonormalises plain arrays: a hypersurface's
eigenframe, which has no expression matrix, and the frame rows of the
periodicity check of the scenario builders.

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
from .chart import ChartFrame, ExpressionMatrix, GeometryError, cholesky, lower_inverse

__all__ = [
    "subsets",
    "SplitStructure",
    "SplitContext",
    "FundamentalData",
    "coordinate_split",
    "pair_predicates",
]


def subsets(r, k):
    """All ``r``-element subsets of ``{1..k}``, as strictly increasing
    tuples in lexicographic order."""
    if not 1 <= r <= k:
        raise ValueError(f"r out of range: need 1 <= r <= k, got r={r}, k={k}")
    return list(itertools.combinations(range(1, k + 1), r))


class SplitStructure:
    """Dimensions and spanning frame of the k orthogonal distributions.

    ``frame`` is an ``n x n`` nested list of expressions, one row per frame
    vector in block order (see :class:`~splitgeom.chart.ExpressionMatrix`),
    or ``None`` for a split without one (a hypersurface's eigen-split, whose
    frame comes from the shape operator).  ``blocks`` are the frame index
    ranges of the distributions in label order; ``depends_on`` is the set of
    0-based axes some frame entry reads, every axis without a frame.
    """

    def __init__(self, dims, frame=None):
        self.dims = tuple(int(d) for d in dims)
        if any(d < 1 for d in self.dims):
            raise ValueError("distribution dimensions must be positive")
        self.n = sum(self.dims)
        self.k = len(self.dims)
        self.frame = None if frame is None else ExpressionMatrix(frame, self.n, "spanning frame")
        self.depends_on = self.frame.depends_on if self.frame else frozenset(range(self.n))
        starts = np.concatenate([[0], np.cumsum(self.dims)])
        self.blocks = [range(starts[i], starts[i + 1]) for i in range(self.k)]

    def block(self, i):
        """Frame index range of distribution ``i`` (1-based label)."""
        return self.blocks[i - 1]

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


def coordinate_split(dims):
    """Split along coordinate directions, in order."""
    n = sum(dims)
    return SplitStructure(dims, [["1" if a == b else "0" for b in range(n)]
                                 for a in range(n)])


def gram_schmidt(g, vectors, points, blocks=()):
    """Gram-Schmidt of the rows of ``vectors`` ``(..., v, a)`` in row order,
    in the metric ``g`` ``(..., a, b)``: order-2 jets or plain arrays.

    One Cholesky factorisation of the values of the Gram matrix
    ``G = F g F^T = L L^T`` gives the frame ``E = L^-1 F``.  On jets,
    ``E = K F' = F' + (K - I) F'``: ``F' = L^-1 F`` holds ``L`` at its
    values, and ``K`` is the inverse Cholesky factor of ``H = F' g F'^T``,
    whose value is the identity, so ``K - I`` has value zero and adds only
    its derivative terms.  A plain ``g`` (a constant metric) adds no
    product-rule terms to ``H``; with plain ``vectors`` too, ``K = I``.  Raises
    :class:`GeometryError` naming the first of ``points`` where rows of two
    different ``blocks`` (index ranges) are not orthogonal, or where the
    rows are linearly dependent (:func:`~splitgeom.chart.cholesky`).  The
    orthogonality gate of a point is ``1e-9 * (1 + max |g|)`` at that point,
    whatever other points share the batch.
    """
    fv, gv = hd.value_of(vectors), hd.value_of(g)
    gram = hd.einsum("...va,...ab,...wb->...vw", fv, gv, fv)
    gate = 1e-9 * (1.0 + np.max(np.abs(gv), axis=(-2, -1)).reshape(-1))
    for (i, bi), (j, bj) in itertools.combinations(enumerate(blocks, start=1), 2):
        ip = np.max(np.abs(gram[..., bi, :][..., bj]), axis=(-2, -1)).reshape(-1)
        bad = np.flatnonzero(ip > gate)
        if bad.size:
            node = points.reshape(-1, points.shape[-1])[bad[0]]
            raise GeometryError(f"spanning blocks {i} and {j} are not orthogonal at "
                                f"{node.tolist()} (inner product {ip[bad[0]]:.2e})")
    M = lower_inverse(cholesky(gram, points, "spanning frame is rank deficient"))
    frame = hd.einsum("...vw,...wa->...va", M, vectors)
    if not isinstance(g, hd.HyperDual) and not isinstance(frame, hd.HyperDual):
        return frame
    # F' g once, then against F'^T: two pairwise contractions, where the
    # three-operand product rule would recompute F' g in each of its terms
    H = hd.einsum("...vb,...wb->...vw", hd.einsum("...va,...ab->...vb", frame, g), frame)
    D = _unit_inverse_factor(H)
    if not isinstance(frame, hd.HyperDual):
        return frame + hd.einsum("...vw,...wa->...va", D, frame)
    # D has value zero: of the product rule of D F' only the terms that
    # differentiate D remain
    grad = hd.einsum("...vwx,...wa->...vax", D.grad, frame.val)
    hess = hd.einsum("...vwxy,...wa->...vaxy", D.hess, frame.val)
    cross = hd.einsum("...vwx,...way->...vaxy", D.grad, frame.grad)
    hess += cross
    hess += np.swapaxes(cross, -1, -2)
    return hd.HyperDual(frame.val, frame.grad + grad, frame.hess + hess)


def _unit_inverse_factor(H):
    """The jet of ``K - I``, ``K = L^-1``, for an order-2 Gram matrix jet
    ``H = L L^T`` whose value is the identity, by the forward rule of the
    Cholesky factor (Murray, arXiv:1602.07527) at ``L = I``: value zero and,
    with ``Phi`` the lower triangle with a halved diagonal,
    ``K_x = -Phi(H_x)`` and ``K_xy = -Phi(B + B^T + H_xy) - Phi(H_x) K_y``,
    where ``B = K_y H_x``.  Along an axis ``H`` does not move, ``K_x`` and
    ``K_xy`` are exactly zero.  Overwrites ``H.hess``."""
    n = H.val.shape[-1]
    phi = np.tril(np.ones((n, n))) - 0.5 * np.eye(n)
    Kx = H.grad * -phi[:, :, None]
    # in place, to bound the (..., n, n, m, m) temporaries
    B = hd.einsum("...viy,...iwx->...vwxy", Kx, H.grad)
    S = H.hess
    S += B
    S += np.swapaxes(B, -4, -3)
    del B
    S *= -phi[:, :, None, None]
    S += hd.einsum("...vix,...iwy->...vwxy", Kx, Kx)
    return hd.HyperDual(np.zeros(H.val.shape), Kx, S)


@dataclass
class FundamentalData:
    """Per-point tensors of one subset ``q`` in the adapted frame.

    ``h_frame``/``t_frame`` have shape ``batch + (nq, nq, nc)``: component of
    ``h_q(E_a, E_b)`` (resp. ``T_q``) along the complement frame vector
    ``E_c``.  ``H_frame`` has shape ``batch + (nc,)``; ``H`` is the mean
    curvature vector in coordinates, ``batch + (n,)``.  Every field is a
    value.  ``div_H`` is ``Div H_q``, the sum of ``divY[a, c]`` over ``a``
    in ``q`` and ``c`` in the complement (see :attr:`SplitContext.cov`):
    the left sides of the identities are sums of it.
    """

    q: tuple
    arg_idx: list
    perp_idx: list
    h_frame: np.ndarray
    t_frame: np.ndarray
    H_frame: np.ndarray
    H: np.ndarray
    div_H: np.ndarray
    h_norm2: np.ndarray
    t_norm2: np.ndarray
    H_norm2: np.ndarray


class SplitContext:
    """All split-dependent quantities of a scenario at a batch of points.

    Jets are differentiated only along the axes the metric or the spanning
    frame reads (``chart.depends_on | split.depends_on``; see
    :class:`~splitgeom.chart.ChartFrame`).
    """

    def __init__(self, chart, split, points):
        if split.n != chart.dim:
            raise GeometryError(
                f"split dimensions sum to {split.n}, chart dimension is {chart.dim}")
        if split.frame is None:
            raise GeometryError("split structure has no spanning frame")
        self.chart = chart
        self.split = split
        self.frame = ChartFrame(chart, points, chart.depends_on | split.depends_on)
        self.points = self.frame.points
        self.n = chart.dim
        self.k = split.k
        self._fund = {}
        self._cov = None
        self._diag = None
        self._divY = None
        self._K = None
        self._smix = None
        g = self.frame.g
        self.g_val = hd.value_of(g)
        self.frame.ginv  # refuses a metric that is not positive definite, naming the point
        self.E = gram_schmidt(g, hd.stack(self.frame.entries(split.frame, "frame")),
                              self.points, split.blocks)

    # -- frame-level data ---------------------------------------------------

    @property
    def E_val(self):
        """Adapted frame values ``(..., v, a)``: row ``v`` is ``E_v``."""
        return hd.value_of(self.E)

    def projectors(self):
        """Value-level orthoprojector matrices ``P_i``, shape ``(..., k, n, n)``."""
        E = self.E_val
        flat = np.einsum("...ab,...vb->...va", self.g_val, E)  # lowered frame vectors
        out = np.zeros(self.points.shape[:-1] + (self.k, self.n, self.n))
        for i in range(1, self.k + 1):
            for a in self.split.block(i):
                out[..., i - 1, :, :] += E[..., a, :, None] * flat[..., a, None, :]
        return out

    @property
    def cov(self):
        """``cov[..., a, b, c] = <nabla_{E_a} E_b, E_c>``: the frame components
        of the covariant derivatives of frame fields, as values (cached).

        The same step differentiates only the diagonal
        ``D[a, c] = cov[a, a, c]``, an order-1 jet (``_diag``), and from it
        builds the per-point table ``divY[a, c] = E_c(D_ac) + D_ac Div E_c``
        (``_divY``), the divergence of the field ``D_ac E_c``.  Every
        mean-curvature divergence is a sum of its entries
        (:meth:`fundamental`); no right side reads them.  On a flat chart
        the Christoffel term drops; a constant frame there (a plain ``E``)
        is parallel, and both tables are zero."""
        if self._cov is None:
            fr, E, g = self.frame, self.E, self.frame.g
            if not isinstance(E, hd.HyperDual):
                shape = self.points.shape[:-1] + (self.n, self.n)
                self._divY = np.zeros(shape)
                self._cov = np.zeros(shape + (self.n,))
                return self._cov
            # DG[b, d, x] = d_x E_b^d + Gamma^d_xy E_b^y: the coordinate
            # components of nabla_{E_a} E_b are E_a^x DG[b, d, x]
            DG = fr.differential(E)
            if not fr.flat:
                DG = DG + hd.einsum("...dxy,...by->...bdx", fr.gamma, E)
                g = hd.HyperDual(g.val, g.grad)
            # the lowered frame F[c, d] = E_c^e g_ed, differentiated once
            F = hd.einsum("...ce,...ed->...cd", hd.HyperDual(E.val, E.grad), g)
            self._cov = hd.einsum("...ax,...bdx,...cd->...abc", E.val, DG.val, F.val)
            D = hd.einsum("...ad,...cd->...ac", hd.einsum("...ax,...adx->...ad", E, DG), F)
            div_E = np.einsum("...cxx->...c", DG.val)  # d_x E_c^x + Gamma^x_xy E_c^y
            self._diag = D
            self._divY = (np.einsum("...acs,...cs->...ac", D.grad, E.val[..., fr.axes])
                          + D.val * div_E[..., None, :])
        return self._cov

    # -- fundamental tensors -------------------------------------------------

    def fundamental(self, q):
        """Fundamental data of the subset ``q``, a strictly increasing tuple
        of labels from ``1..k`` (cached)."""
        if q in self._fund:
            return self._fund[q]
        if not q:
            raise ValueError("subset must be non-empty")
        if list(q) != sorted(set(q)):
            raise ValueError(f"subset labels must be strictly increasing, got {q}")
        if q[-1] > self.k:
            raise ValueError(f"subset {q} exceeds k={self.k}")
        arg_idx = self.split.block_indices(q)
        comp_labels = [i for i in range(1, self.k + 1) if i not in q]
        perp_idx = self.split.block_indices(comp_labels)
        # d[a, b, c] = <nabla_{E_a} E_b, E_c>, arguments a, b in q, c in the complement
        d = self.cov[(Ellipsis,) + np.ix_(arg_idx, arg_idx, perp_idx)]
        dT = np.swapaxes(d, -3, -2)
        h_frame = 0.5 * (d + dT)
        t_frame = 0.5 * (d - dT)
        # the trace of h_q, expanded in the complement frame, and its
        # divergence: the sum of divY[a, c] over a in q, c in the complement
        H_frame = np.einsum("...aac->...c", d)
        H = np.einsum("...c,...cd->...d", H_frame, self.E_val[..., perp_idx, :])
        div_H = np.sum(self._divY[(Ellipsis,) + np.ix_(arg_idx, perp_idx)], axis=(-2, -1))

        # ordered-pair norm convention
        h_norm2 = np.sum(h_frame ** 2, axis=(-3, -2, -1))
        t_norm2 = np.sum(t_frame ** 2, axis=(-3, -2, -1))
        H_norm2 = np.sum(H_frame ** 2, axis=-1)

        data = FundamentalData(q=q, arg_idx=arg_idx, perp_idx=perp_idx,
                               h_frame=h_frame, t_frame=t_frame, H_frame=H_frame,
                               H=H, div_H=div_H, h_norm2=h_norm2, t_norm2=t_norm2,
                               H_norm2=H_norm2)
        self._fund[q] = data
        return data

    def H_values(self, q):
        return self.fundamental(q).H

    def inner_values(self, u_vals, v_vals):
        return np.einsum("...ab,...a,...b->...", self.g_val, u_vals, v_vals)

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
            self._K = self.frame.sectional(self.E_val)
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
        """Mixed scalar curvature: the mixed sums of all pairs ``i < j`` (cached)."""
        if self._smix is None:
            pairs = itertools.combinations(range(1, self.k + 1), 2)
            self._smix = sum((self.mixed_curvature(i, j) for i, j in pairs),
                             np.zeros(self.points.shape[:-1]))
        return self._smix

    def smix_pairsplit(self, i):
        """Mixed scalar curvature of the 2-split ``(D_i, D_i^perp)``."""
        block = self.split.block(i)
        return self._block_sum(block, [b for b in range(self.n) if b not in block])


def pair_predicates(ctx, i, j):
    """Mixed totally-geodesic / mixed-integrable flags for the pair ``(i, j)``.

    Returns sup norms of the cross-block components of ``h_{ij}`` and
    ``T_{ij}`` over the points of the :class:`SplitContext` ``ctx`` and
    booleans against 1e-9.
    """
    if i == j:
        raise ValueError("pair predicates need two distinct distributions")
    sup_h, sup_t = (float(np.max(s, initial=0.0))
                    for s in ctx.cross_block_sup(tuple(sorted((i, j)))))
    return {
        "mixed_tg": sup_h <= 1e-9,
        "mixed_int": sup_t <= 1e-9,
        "sup_h_cross": sup_h,
        "sup_t_cross": sup_t,
    }
