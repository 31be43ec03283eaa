"""Orthogonal splittings of the tangent bundle and their fundamental tensors.

A :class:`SplitStructure` holds the dimensions ``(n_1, ..., n_k)`` of k
mutually orthogonal distributions together with a spanning frame field: a
jet-capable callback returning ``n`` vector fields in block order (the first
``n_1`` spanning the first distribution, and so on).

:class:`SplitContext` evaluates everything at a batch of points on a chart:

* the adapted orthonormal frame (blockwise Gram-Schmidt in fixed order, run
  on jets so frame derivatives are exact),
* covariant derivatives ``cov[a][b] = nabla_{E_a} E_b`` of frame fields,
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
from .chart import ChartFrame, GeometryError
from .hyperdual import HyperDual, partial_deriv, value_of

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
        ref = coords[0]
        basis = []
        for a in range(n):
            basis.append([hd.as_jet(1.0 if b == a else 0.0, ref) for b in range(n)])
        return basis

    return SplitStructure(dims, frame, name=name)


def _inner(g, u, v):
    total = None
    n = len(u)
    for a in range(n):
        for b in range(n):
            term = g[a][b] * u[a] * v[b]
            total = term if total is None else total + term
    return total


def gram_schmidt(g, vectors):
    """Sequential modified Gram-Schmidt in the metric ``g`` (generic scalars)."""
    out = []
    for v in vectors:
        w = list(v)
        for e in out:
            c = _inner(g, w, e)
            w = [w[a] - c * e[a] for a in range(len(w))]
        nrm2 = _inner(g, w, w)
        nrm2_val = value_of(nrm2)
        if np.any(nrm2_val <= 1e-24):
            raise GeometryError("spanning frame is rank deficient at a sampled point")
        nrm = hd.sqrt(nrm2)
        out.append([w[a] / nrm for a in range(len(w))])
    return out


@dataclass
class FundamentalData:
    """Per-point tensors of one subset ``q`` in the adapted frame.

    ``h_frame``/``t_frame`` have shape ``batch + (nq, nq, nc)``: component of
    ``h_q(E_a, E_b)`` (resp. ``T_q``) along the complement frame vector
    ``E_c``.  ``H_frame`` has shape ``batch + (nc,)``; ``H_jets`` are the
    coordinate components of the mean curvature vector as jets with exact
    gradients (differentiable once).
    """

    q: SubsetIndex
    arg_idx: list
    perp_idx: list
    h_frame: np.ndarray
    t_frame: np.ndarray
    H_frame: np.ndarray
    H_jets: list
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
        self._dE = None
        self._K = None

        if frame_values is not None:
            raw = [[np.asarray(frame_values[..., v, a], dtype=float)
                    for a in range(self.n)] for v in range(self.n)]
        else:
            if split.frame is None:
                raise GeometryError("split structure has no spanning frame")
            raw = [[hd.as_jet(c, self.frame.coords[0]) for c in vec]
                   for vec in split.frame(self.frame.coords)]
            if len(raw) != self.n:
                raise GeometryError("spanning frame must supply n vector fields")
        self._raw = raw
        if validate:
            self._validate_raw_blocks()
        g = self.frame.g if not self._value_only else self._g_value_matrix()
        self.E = gram_schmidt(g, raw)

    def _g_value_matrix(self):
        gv = self.frame.g_val
        return [[gv[..., a, b] for b in range(self.n)] for a in range(self.n)]

    def _validate_raw_blocks(self, tol=1e-9):
        g = self.frame.g if not self._value_only else self._g_value_matrix()
        scale = 1.0 + np.max(np.abs(self.frame.g_val))
        for i in range(1, self.k + 1):
            for j in range(i + 1, self.k + 1):
                for a in self.split.block(i):
                    for b in self.split.block(j):
                        ip = np.max(np.abs(value_of(_inner(g, self._raw[a], self._raw[b]))))
                        if ip > tol * scale:
                            raise GeometryError(
                                f"spanning blocks {i} and {j} are not orthogonal "
                                f"(inner product {ip:.2e})")

    # -- frame-level data ---------------------------------------------------

    @property
    def E_val(self):
        out = np.empty(self.points.shape[:-1] + (self.n, self.n))
        for v in range(self.n):
            for a in range(self.n):
                out[..., v, a] = value_of(self.E[v][a])
        return out

    def orthonormality_residual(self):
        g = self.frame.g_val
        E = self.E_val
        gram = np.einsum("...va,...ab,...wb->...vw", E, g, E)
        eye = np.eye(self.n)
        return np.max(np.abs(gram - eye))

    def projectors(self):
        """Value-level orthoprojector matrices ``P_i``, shape ``(..., k, n, n)``."""
        g = self.frame.g_val
        E = self.E_val
        flat = np.einsum("...ab,...vb->...va", g, E)  # lowered frame vectors
        out = np.zeros(self.points.shape[:-1] + (self.k, self.n, self.n))
        for i in range(1, self.k + 1):
            for a in self.split.block(i):
                out[..., i - 1, :, :] += E[..., a, :, None] * flat[..., a, None, :]
        return out

    @property
    def cov(self):
        """``cov[a][b]`` = coordinate components (jets) of ``nabla_{E_a} E_b``."""
        if self._value_only:
            raise GeometryError("covariant derivatives need a jet-capable frame")
        if self._cov is None:
            n = self.n
            fr = self.frame
            dE = [[[partial_deriv(self.E[b][d], c) for c in range(n)]
                   for d in range(n)] for b in range(n)]
            cov = []
            for a in range(n):
                row = []
                for b in range(n):
                    comps = []
                    for d in range(n):
                        total = None
                        for c in range(n):
                            term = self.E[a][c] * dE[b][d][c]
                            total = term if total is None else total + term
                        for c in range(n):
                            for e in range(n):
                                term = fr.gamma_at(d, c, e) * (self.E[a][c] * self.E[b][e])
                                total = total + term
                        comps.append(total)
                    row.append(comps)
                cov.append(row)
            self._cov = cov
        return self._cov

    def inner_jets(self, u, v):
        return _inner(self.frame.g, u, v)

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
        cov = self.cov
        batch = self.points.shape[:-1]
        na, nc = len(arg_idx), len(perp_idx)

        h_frame = np.empty(batch + (na, na, nc))
        t_frame = np.empty(batch + (na, na, nc))
        # trace of h_q in complement-frame coefficients (jets)
        trace_coef = [None] * nc
        for ia, a in enumerate(arg_idx):
            for ib, b in enumerate(arg_idx):
                for ic, c in enumerate(perp_idx):
                    dab = self.inner_jets(cov[a][b], self.E[c])
                    dba = self.inner_jets(cov[b][a], self.E[c])
                    h_frame[..., ia, ib, ic] = 0.5 * (dab.val + dba.val)
                    t_frame[..., ia, ib, ic] = 0.5 * (dab.val - dba.val)
                    if a == b:
                        trace_coef[ic] = dab if trace_coef[ic] is None else trace_coef[ic] + dab

        H_frame = np.stack([tc.val for tc in trace_coef], axis=-1) if nc else \
            np.zeros(batch + (0,))
        H_jets = []
        for d in range(self.n):
            total = None
            for ic, c in enumerate(perp_idx):
                term = trace_coef[ic] * self.E[c][d]
                total = term if total is None else total + term
            if total is None:  # q = {1..k}: complement empty, H vanishes
                total = hd.constant_like(self.frame.coords[0], 0.0)
            H_jets.append(total)

        # ordered-pair norm convention
        h_norm2 = np.sum(h_frame ** 2, axis=(-3, -2, -1))
        t_norm2 = np.sum(t_frame ** 2, axis=(-3, -2, -1))
        H_norm2 = np.sum(H_frame ** 2, axis=-1)

        data = FundamentalData(q=q, arg_idx=arg_idx, perp_idx=perp_idx,
                               h_frame=h_frame, t_frame=t_frame, H_frame=H_frame,
                               H_jets=H_jets, h_norm2=h_norm2, t_norm2=t_norm2,
                               H_norm2=H_norm2)
        self._fund[q.q] = data
        return data

    def H_values(self, q):
        data = self.fundamental(q)
        return np.stack([value_of(c) for c in data.H_jets], axis=-1)

    def inner_values(self, u_vals, v_vals):
        return np.einsum("...ab,...a,...b->...", self.frame.g_val, u_vals, v_vals)

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

    def divergence_values(self, comps):
        return self.frame.divergence_of(comps)

    def partial_divergence(self, q, comps):
        """``Div_q X``: the frame-block part of the divergence, at value level."""
        if isinstance(q, tuple):
            q = SubsetIndex(q)
        idx = self.split.block_indices(q)
        g = self.frame.g_val
        gam = self.frame.gamma_val
        E = self.E_val
        X_val = np.stack([value_of(c) for c in comps], axis=-1)
        dX = np.stack([c.grad for c in comps], axis=-2)  # (..., d, c) = d_c X^d
        nabla = dX + np.einsum("...dce,...e->...dc", gam, X_val)
        total = np.zeros(self.points.shape[:-1])
        for a in idx:
            Ea = E[..., a, :]
            # <nabla_{E_a} X, E_a>
            total = total + np.einsum("...c,...dc,...de,...e->...", Ea, nabla, g, Ea)
        return total


def pair_predicates(chart, split, i, j, sample_pts, tol=1e-9):
    """Mixed totally-geodesic / mixed-integrable flags for the pair ``(i, j)``.

    Returns sup norms of the cross-block components of ``h_{ij}`` and
    ``T_{ij}`` over the sample points and booleans against ``tol``.
    """
    if i == j:
        raise ValueError("pair predicates need two distinct distributions")
    ctx = SplitContext(chart, split, sample_pts)
    q = SubsetIndex(tuple(sorted((i, j))))
    data = ctx.fundamental(q)
    ni = ctx.split.dims[q.q[0] - 1]
    sup_h = 0.0
    sup_t = 0.0
    for ia in range(len(data.arg_idx)):
        for ib in range(len(data.arg_idx)):
            # cross-block argument pairs only
            if (ia < ni) == (ib < ni):
                continue
            sup_h = max(sup_h, float(np.max(np.abs(data.h_frame[..., ia, ib, :]), initial=0.0)))
            sup_t = max(sup_t, float(np.max(np.abs(data.t_frame[..., ia, ib, :]), initial=0.0)))
    return {
        "mixed_tg": sup_h <= tol,
        "mixed_int": sup_t <= tol,
        "sup_h_cross": sup_h,
        "sup_t_cross": sup_t,
    }
