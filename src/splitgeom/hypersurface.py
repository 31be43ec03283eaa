"""Hypersurfaces in space forms split by principal curvature.

A hypersurface scenario is an immersion of an ``n``-chart into ``R^{n+1}``
(ambient curvature ``c = 0``) or into the unit sphere of ``R^{n+2}`` (``c =
1``), as its entry count says.  Its chart carries the induced metric, whose
expressions :func:`build_hypersurface` derives, for Christoffel symbols via
exact jets.  The shape operator is assembled from immersion jets:

    g_ab = <d_a F, d_b F>,   II_ab = <d_a d_b F, N>,   A = g^{-1} II,

with ``N`` the unit normal from the generalized cross product of the
coordinate tangents (and of ``F`` itself for a sphere immersion, keeping
``N`` tangent to the sphere).  Principal curvatures are the eigenvalues of
``A`` (ascending), obtained from the symmetric-definite eigenproblem
``II v = mu g v``; each eigenvector is signed so that its largest component
is positive.

Every derivative is exact.  Symbolic derivatives of the immersion
(:func:`~splitgeom.expr.diff`) evaluated on coordinate jets give ``d^2 F``,
``d^3 F`` and ``d^4 F``, hence ``g`` and ``II`` as second-order jets.  Two
independent routes then differentiate the principal data:

* the Codazzi side assembles ``nabla A`` from immersion derivative values by
  the Weingarten equation ``d_c N = -A^d_c d_d F``;
* the eigen side applies first- and second-order eigenvalue perturbation
  formulas (Magnus, Econometric Theory 1985) to the jets of ``II`` and ``g``,
  giving the curvatures as second-order jets and the frame as a first-order
  jet.

The checks compare the two, one batched evaluation over all sample points.
The mixed-curvature check needs neither side: it reads the sectional
curvatures of the eigenframe planes from the chart's Christoffel jet
(:meth:`~splitgeom.chart.ChartFrame.sectional`), with no split context.
"""

from __future__ import annotations

import itertools
import math
import string
from dataclasses import dataclass

import numpy as np

from . import hyperdual as hd
from .chart import (Axis, ChartFrame, ChartManifold, GeometryError, _parsed, cholesky,
                    grid_points, lower_inverse, sample_points)
from .expr import Num, _bin, diff, evaluate, evaluate_at
from .hyperdual import HyperDual, seed_jets
from .scenarios import Scenario
from .splitting import SplitStructure, gram_schmidt

__all__ = [
    "GapError",
    "HypersurfaceScenario",
    "shape_data",
    "principal_curvatures",
    "default_gap_threshold",
    "principal_bundle",
    "codazzi_checks",
    "hypersurface_identity",
    "dperp_integrability",
    "build_hypersurface",
    "build_torus_revolution",
    "build_clifford_torus",
    "build_graph_r4",
    "build_torus_cylinder",
    "build_round_sphere",
    "hypersurface_catalog",
]


class GapError(GeometryError):
    """Principal curvature groups collide on the sampled region."""


@dataclass(kw_only=True)
class HypersurfaceScenario(Scenario):
    """An immersed chart split by principal curvature: ``split`` is the
    frameless eigen-split whose block dimensions are the expected
    multiplicities of the distinct curvatures, in ascending order."""

    kind: str = "hypersurface"
    immersion: list                 # parsed component expressions, length m
    second_derivatives: list        # [j][a][b]: the tree of d_a d_b of entry j
    ambient_curv: int               # 0 (flat) or 1 (unit sphere), from the entry count
    normal_flip: bool = False
    gap_threshold: float | None = None


def _levi_civita(m):
    eps = np.zeros((m,) * m)
    for perm in itertools.permutations(range(m)):
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        eps[perm] = -1.0 if inversions % 2 else 1.0
    return eps


def shape_data(scn, points):
    """First and second fundamental data of the immersion at ``points`` ``(..., n)``.

    Values: ``F`` (ambient position), ``J`` (tangents ``d_a F``,
    ``(..., n, m)``), ``g`` and its Cholesky factor ``L``, ``II``, ``A`` and
    the unit normal ``N``.  Jets:
    ``g_jet`` and ``II_jet`` (order 2), and ``DDF``, the order-2 jet of
    ``d_a d_b F^m`` laid out ``(..., m, a, b)``, whose gradient and Hessian
    are the third and fourth derivatives of the immersion.
    """
    points = np.asarray(points, dtype=float)
    n = scn.chart.dim
    m = len(scn.immersion)
    xs = seed_jets(points)
    memo = {}  # one for F and all its second derivatives, which share subtrees
    F = hd.stack([evaluate(f, xs, memo) for f in scn.immersion], ref=xs[0])
    DDF = hd.stack([[[evaluate(d, xs, memo) for d in row] for row in entry]
                    for entry in scn.second_derivatives], ref=xs[0])
    # jet of d_a F^m: gradient d_a d_c F^m, Hessian d_a d_c d_d F^m
    DF = HyperDual(F.grad, DDF.val, DDF.grad)

    g = hd.einsum("...ma,...mb->...ab", DF, DF)
    L = cholesky(g.val, points, "immersion loses rank")

    rows = [DF[..., :, a] for a in range(n)]
    if scn.ambient_curv == 1:
        off = np.flatnonzero(np.abs(np.sqrt(np.sum(F.val * F.val, axis=-1)) - 1.0) > 1e-12)
        if off.size:
            raise GeometryError(f"sphere immersion does not lie on the unit sphere at "
                                f"{points.reshape(-1, n)[off[0]].tolist()}")
        rows.append(F)
    # generalized cross product: N_j = eps_{j k_1 .. k_{m-1}} r_1^{k_1} .. r_{m-1}^{k_{m-1}};
    # eps carries the batch axes, so that no product folds the points into
    # one matrix, whose BLAS edge blocks would make N depend on the chunk
    idx = string.ascii_lowercase[:m]
    eps = np.broadcast_to(_levi_civita(m), points.shape[:-1] + (m,) * m)
    N = hd.einsum(f"...{idx},{','.join('...' + c for c in idx[1:])}->...{idx[0]}",
                  eps, *rows)
    if scn.normal_flip:
        N = -N
    N = hd.einsum("...j,...->...j", N, hd.einsum("...j,...j->...", N, N) ** -0.5)

    II = hd.einsum("...mab,...m->...ab", DDF, N)
    return {"F": F.val, "J": np.swapaxes(F.grad, -1, -2), "g": g.val, "L": L, "II": II.val,
            "A": np.linalg.solve(g.val, II.val), "N": N.val,
            "g_jet": g, "II_jet": II, "DDF": DDF}


def principal_bundle(scn, points):
    """Principal curvatures and frames at ``points`` ``(..., n)``, with exact
    derivatives.

    Returns the :func:`shape_data` fields plus the ``points``, ``mu``
    (eigenvalues, ascending), ``Y`` (g-orthonormal eigenvector columns),
    ``mu_hat`` (the group means of ``mu`` as an order-2 ``(..., k)`` jet),
    ``Y_jet`` (the frame as an order-1 jet), ``frame``, the
    :class:`~splitgeom.chart.ChartFrame` of the chart's induced metric,
    and ``E``, the rows of ``Y^T`` re-orthonormalised in its values
    (:func:`~splitgeom.splitting.gram_schmidt`).  The checks below take this
    bundle, so one sample set is solved and differentiated once.
    Raises :class:`GapError` naming the first point where the distinct-group
    structure expected by the scenario is violated (and ``frame.ginv`` one
    where the metric is not positive definite).
    """
    points = np.asarray(points, dtype=float)
    frame = ChartFrame(scn.chart, points)
    data = shape_data(scn, points)
    mu, Y = principal_curvatures(data)
    _check_groups(scn, mu, points)
    mu_hat, Y_jet = _perturbation_jets(data, mu, Y, scn.dims)
    frame.ginv  # refuses a metric that is not positive definite, naming the point
    E = gram_schmidt(frame.g.val, np.swapaxes(Y, -1, -2), points, scn.split.blocks)
    return {**data, "points": points, "frame": frame, "E": E,
            "mu": mu, "Y": Y, "mu_hat": mu_hat, "Y_jet": Y_jet}


def principal_curvatures(data):
    """``mu`` and ``Y`` of :func:`principal_bundle` from its :func:`shape_data`."""
    # Cholesky reduction g = L L^T of II v = mu g v to a standard eigenproblem
    Linv_T = np.swapaxes(lower_inverse(data["L"]), -1, -2)
    mu, U = np.linalg.eigh(np.swapaxes(Linv_T, -1, -2) @ data["II"] @ Linv_T)
    Y = Linv_T @ U
    top = np.take_along_axis(Y, np.argmax(np.abs(Y), axis=-2)[..., None, :], axis=-2)
    return mu, np.where(top < 0.0, -Y, Y)


def default_gap_threshold(mu):
    """``1e-3 max |mu|``, over the curvatures of all the samples of a run."""
    return 1e-3 * max(1e-8, float(np.max(np.abs(mu))))


def _check_groups(scn, mu, points):
    dims = scn.dims
    n = mu.shape[-1]
    thresh = default_gap_threshold(mu) if scn.gap_threshold is None else scn.gap_threshold
    rows = mu.reshape(-1, n)
    ends = np.cumsum(dims)
    starts = ends - np.asarray(dims)
    spread = np.stack([rows[:, s:e].max(axis=-1) - rows[:, s:e].min(axis=-1)
                       for s, e in zip(starts, ends)], axis=-1)
    bad_spread = np.any(spread > 0.1 * thresh, axis=-1)
    bad_gap = np.any(rows[:, starts[1:]] - rows[:, ends[:-1] - 1] < thresh, axis=-1)
    bad = np.flatnonzero(bad_spread | bad_gap)
    if bad.size:
        i = bad[0]
        where = f"at {points.reshape(-1, n)[i].tolist()} (curvatures {rows[i]})"
        if bad_spread[i]:
            raise GapError(f"principal curvatures within a group spread beyond "
                           f"tolerance {where}")
        raise GapError(f"principal curvature groups closer than the gap threshold {where}")


def _perturbation_jets(data, mu, Y, dims):
    """Exact derivatives of the principal data from the jets of ``II`` and ``g``.

    In the frame ``Y`` at the point, ``K = Y^T II Y`` is ``diag(mu)`` and
    ``M = Y^T g Y`` the identity.  Let ``lam_G`` be the mean of group ``G``
    (size ``n_G``) and ``R_c = d_c K - lam d_c M`` with ``lam`` the mean of
    the row's group.  Then

        n_G d_c mu_G   = tr_G R_c,
        n_G d_cd mu_G  = tr_G (d_cd K - lam_G d_cd M) - tr_G (R_c d_d M + R_d d_c M)
                         + 2 sum_{i in G, j not in G} R_c,ij R_d,ij / (lam_G - lam_j),

    and ``d_c Y = Y C_c`` with ``C_c,ji = R_c,ij / (lam_i - lam_j)`` across
    groups and ``-d_c M_ji / 2`` within a group, which keeps ``Y``
    g-orthonormal (a rotation within a group cancels from its projector).
    For simple eigenvalues these are the classical formulas.  Returns the
    order-2 jet of the group means and the order-1 jet of ``Y``.
    """
    k = len(dims)
    grp = np.repeat(np.arange(k), dims)
    same = (grp[:, None] == grp[None, :]).astype(float)
    avg = (grp[:, None] == np.arange(k)) / np.asarray(dims, dtype=float)  # (n, k)
    K = hd.einsum("...ai,...ab,...bj->...ij", Y, data["II_jet"], Y)
    M = hd.einsum("...ai,...ab,...bj->...ij", Y, data["g_jet"], Y)
    lam = (mu @ avg)[..., grp]
    R = K.grad - lam[..., :, None, None] * M.grad                  # (..., i, j, c)
    inv_gap = (1.0 - same) / (lam[..., :, None] - lam[..., None, :] + same)
    d2 = (np.einsum("...iicd->...icd", K.hess)
          - lam[..., None, None] * np.einsum("...iicd->...icd", M.hess)
          + 2.0 * np.einsum("...ij,...ijc,...ijd->...icd", inv_gap, R, R))
    within = np.einsum("ij,...ijc,...jid->...icd", same, R, M.grad)
    d2 = d2 - within - np.swapaxes(within, -1, -2)
    mu_hat = HyperDual(mu @ avg, np.einsum("...iic,ik->...kc", R, avg),
                       np.einsum("...icd,ik->...kcd", d2, avg))
    C = np.einsum("...ij,...ijc->...jic", inv_gap, R) - 0.5 * same[:, :, None] * M.grad
    return mu_hat, HyperDual(Y, np.einsum("...aj,...jic->...aic", Y, C))


# -- curvature-derivative checks ----------------------------------------------

def _nabla_A(b):
    """Covariant derivative ``(..., c, a, b) = (nabla_c A)^a_b`` by Weingarten.

    Reads only the immersion derivative values and the chart frame of the
    bundle ``b``, never the eigen-side jets: ``d_c II_ab = <F_abc, N> -
    A^d_c <F_ab, F_d>`` (from ``d_c N = -A^d_c F_d``, which also holds in the
    unit sphere) and ``d_c g_ab = <F_ac, F_b> + <F_a, F_bc>``; ``Gamma`` is
    that of the chart's induced metric.  Returns ``(nabla, gamma)``.
    """
    g, A, J, N = b["g"], b["A"], b["J"], b["N"]
    F2, F3 = b["DDF"].val, b["DDF"].grad
    dII = (np.einsum("...mabc,...m->...cab", F3, N)
           - np.einsum("...dc,...mab,...dm->...cab", A, F2, J))
    dg = np.einsum("...mac,...bm->...cab", F2, J)
    dg = dg + np.swapaxes(dg, -1, -2)
    dA = np.linalg.solve(g[..., None, :, :], dII - dg @ A[..., None, :, :])
    gamma = b["frame"].gamma.val
    nabla = (dA
             + np.einsum("...acd,...db->...cab", gamma, A)
             - np.einsum("...dcb,...ad->...cab", gamma, A))
    return nabla, gamma


def _frame_tensors(b):
    """The two sides in the eigenframe ``X_i`` (columns of ``Y``):
    ``cal[i,j,l] = <(nabla_{X_i} A) X_j, X_l>`` from :func:`_nabla_A` and
    ``conn[i,j,l] = <nabla_{X_i} X_j, X_l>`` from the frame jet, kept in the
    bundle ``b`` for the next check that reads them."""
    if "cal" not in b:
        nabla, gamma = _nabla_A(b)
        Y, g = b["Y"], b["g"]
        cal = hd.einsum("...ci,...cab,...bj,...ad,...dl->...ijl", Y, nabla, Y, g, Y)
        DY = b["Y_jet"].grad + np.einsum("...acd,...dj->...ajc", gamma, Y)
        conn = hd.einsum("...ci,...ajc,...ae,...el->...ijl", Y, DY, g, Y)
        b["cal"], b["conn"] = cal, conn
    return b["cal"], b["conn"]


_TRIPLE = (-3, -2, -1)


def _distinct(n):
    i, j, l = np.indices((n, n, n))
    return (i != j) & (j != l) & (i != l)


def codazzi_checks(scn, b):
    """Per-point residuals of the Codazzi-derived relations on the
    :func:`principal_bundle` ``b`` of the scenario ``scn``.

    With ``cal`` and ``conn`` as in :func:`_frame_tensors`, keys:
    ``total_symmetry`` (all 6 permutations of ``cal``, relative to
    ``scale = 1 + max |cal|``), ``eigen_offdiag`` (``cal[i,j,l]`` against
    ``(mu_j - mu_l) conn[i,j,l]``), ``eigen_diag`` (``cal[i,j,j]`` against
    ``X_i(mu_j)``), ``exchange`` (the two-index exchange relation for
    pairwise distinct triples; needs k >= 3) and ``frame_metric``
    (``conn[i,j,l] + conn[i,l,j]``, metric compatibility of the frame
    derivative), plus ``scale``.
    """
    if any(d != 1 for d in scn.dims):
        raise GeometryError("eigenvector-derivative checks need simple eigenvalues")
    cal, conn = _frame_tensors(b)
    mu = b["mu"]
    n = mu.shape[-1]
    scale = 1.0 + np.max(np.abs(cal), axis=_TRIPLE)
    sym = np.max([np.max(np.abs(cal - np.einsum(f"...ijl->...{p}", cal)), axis=_TRIPLE)
                  for p in ("ilj", "jil", "jli", "lij", "lji")], axis=0)
    rel = (mu[..., :, None] - mu[..., None, :])[..., None, :, :] * conn
    dmu = np.einsum("...ci,...jc->...ij", b["Y"], b["mu_hat"].grad)  # X_i(mu_j)
    exchange = rel - np.einsum("...ijl->...jil", rel)
    return {
        "total_symmetry": sym / scale,
        "eigen_offdiag": np.max(np.abs(cal - rel), axis=_TRIPLE,
                                where=~np.eye(n, dtype=bool), initial=0.0),
        "eigen_diag": np.max(np.abs(np.einsum("...ijj->...ij", cal) - dmu), axis=(-2, -1)),
        "exchange": np.max(np.abs(exchange), axis=_TRIPLE, where=_distinct(n),
                           initial=0.0),
        "frame_metric": np.max(np.abs(conn + np.einsum("...ijl->...ilj", conn)),
                               axis=_TRIPLE),
        "scale": scale,
    }


# -- the divergence identities in shape-operator form ------------------------

def hypersurface_identity(scn, b):
    """Per-point residual of the divergence identity in principal-curvature
    form, on the :func:`principal_bundle` ``b`` of the scenario ``scn``.

    For two distinct curvatures (``V = H_1 + H_2``):

        Div(V) = n_1 n_2 (c + mu_1 mu_2)
                 + [n_1(1-n_1)|grad mu_1|^2 + n_2(1-n_2)|grad mu_2|^2]
                   / (mu_2 - mu_1)^2,

    and for three distinct curvatures (``2V = sum_i H_i + sum_{i<j} H_ij``):

        Div(V) = sum_{i<j} n_i n_j (c + mu_i mu_j)
                 + sum_i n_i (1-n_i) sum_{j != i} |P_j grad mu_i|^2
                   / (mu_i - mu_j)^2
                 - sum_{i<j} n_i n_j <P_l grad mu_i, P_l grad mu_j>
                   / ((mu_i - mu_l)(mu_j - mu_l)),

    with ``l`` the index complementary to ``(i, j)``.  The three-curvature
    form follows from halving the k=3 divergence identity on the
    eigen-splitting and expanding every term in eigen data.

    ``V = sum_i n_i sum_{j != i} P_j grad(mu_i) / (mu_i - mu_j)`` over the
    groups is built as an order-1 jet from the perturbation jets, and its
    divergence (``lhs``) read from the jet by the chart connection.  Returns
    ``lhs``, ``rhs`` and ``residual``.
    """
    dims = scn.dims
    k = len(dims)
    if k not in (2, 3):
        raise GeometryError("identity implemented for 2 or 3 distinct curvatures")
    c = float(scn.ambient_curv)
    mu_hat = b["mu_hat"]
    member = (np.repeat(np.arange(k), dims)[:, None] == np.arange(k)).astype(float)
    # W[l, i] = X_l(mu_i): the frame components of grad mu_i, so that
    # P_j grad mu_i = sum over X_l in group j of W[l, i] X_l
    W = hd.einsum("...cl,...ic->...li", b["Y_jet"], hd.differential(mu_hat))
    # gap[l, i] = mu_i - mu_(group of X_l); coef zero where that group is i
    gap = hd.einsum("...i,lij->...lj", mu_hat, np.eye(k) - member[:, :, None])
    coef = (gap + member) ** -1 * ((1.0 - member) * np.asarray(dims, dtype=float))
    V = hd.einsum("...al,...li->...a", b["Y_jet"], W * coef)
    lhs = b["frame"].divergence_of(V)

    mu, Wv = mu_hat.val, W.val
    proj2 = np.einsum("...li,lj->...ji", Wv * Wv, member)  # |P_j grad mu_i|^2 at [j, i]
    pairs = list(itertools.combinations(range(k), 2))
    curv = sum(dims[i] * dims[j] * (c + mu[..., i] * mu[..., j]) for i, j in pairs)
    if k == 2:
        grad2 = proj2.sum(axis=-2)
        rhs = curv + (dims[0] * (1 - dims[0]) * grad2[..., 0]
                      + dims[1] * (1 - dims[1]) * grad2[..., 1]) / (mu[..., 1] - mu[..., 0]) ** 2
        return {"lhs": lhs, "rhs": rhs, "residual": lhs - rhs}

    grad_diag = sum(dims[i] * (1 - dims[i]) * proj2[..., j, i] / (mu[..., i] - mu[..., j]) ** 2
                    for i in range(3) for j in range(3) if j != i)
    grad_cross = 0.0
    for i, j in pairs:
        l = 3 - i - j
        cross = np.einsum("...m,...m,m->...", Wv[..., i], Wv[..., j], member[:, l])
        grad_cross = grad_cross - (dims[i] * dims[j] * cross
                                   / ((mu[..., i] - mu[..., l]) * (mu[..., j] - mu[..., l])))
    rhs = curv + grad_diag + grad_cross
    return {"lhs": lhs, "rhs": rhs, "residual": lhs - rhs}


def dperp_integrability(scn, b):
    """Integrability of each complement distribution, two independent ways,
    on the :func:`principal_bundle` ``b`` of the scenario ``scn``.

    For three or more distinct curvature groups (all simple here), checks
    on every sample point whether the derivative 3-tensor vanishes on
    pairwise distinct eigen-triples, and cross-validates against the direct
    bracket test: the complement of each eigendirection is integrable iff
    the bracket of the two spanning eigenfields has no component along it.
    Returns per-point arrays: the two sup values ``cal`` and ``bracket`` and
    their flags ``cal_zero`` and ``bracket_zero``, which must agree.
    """
    if scn.k < 3:
        raise GeometryError("complement integrability needs at least 3 groups")
    if any(d != 1 for d in scn.dims):
        raise GeometryError("bracket cross-validation needs simple eigenvalues")
    cal, conn = _frame_tensors(b)
    n = scn.chart.dim
    i, j, l = np.indices((n, n, n))
    cal_max = np.max(np.abs(cal), axis=_TRIPLE, where=(i < j) & (j < l), initial=0.0)
    # <[X_p, X_q], X_i> = <nabla_{X_p} X_q - nabla_{X_q} X_p, X_i>
    bracket = conn - np.einsum("...ijl->...jil", conn)
    br_max = np.max(np.abs(bracket), axis=_TRIPLE, where=_distinct(n), initial=0.0)
    tol = 1e-7
    return {"cal": cal_max, "bracket": br_max,
            "cal_zero": cal_max <= tol, "bracket_zero": br_max <= tol}


# -- scenario builders ---------------------------------------------------------

TWO_PI = 2 * math.pi


def _check_box(axes, sample_box):
    """Refuse an axis with ``lo >= hi``, and a ``sample_box`` that is not one
    ``[lo, hi]`` with ``lo < hi`` per axis, inside the axis where it is not
    periodic, naming the key."""
    for a, ax in enumerate(axes, start=1):
        if not ax.lo < ax.hi:
            raise GeometryError(f"axes: axis {a} has lo {ax.lo} not below hi {ax.hi}")
    if sample_box is None:
        return
    if len(sample_box) != len(axes):
        raise GeometryError(f"sample_box: {len(sample_box)} intervals for {len(axes)} axes")
    for a, ((lo, hi), ax) in enumerate(zip(sample_box, axes), start=1):
        if not lo < hi:
            raise GeometryError(f"sample_box: interval {a} has lo {lo} not below hi {hi}")
        if not (ax.periodic or ax.lo <= lo and hi <= ax.hi):
            raise GeometryError(f"sample_box: interval {a} [{lo}, {hi}] leaves the "
                                f"non-periodic axis [{ax.lo}, {ax.hi}]")


def build_hypersurface(name, axes, immersion, dims, normal_flip=False, sample_box=None,
                       gap_threshold=None, grid=None):
    """The scenario ``name``: the chart on ``axes`` immersed by the ``n + 1``
    (flat space) or ``n + 2`` (unit sphere) expression sources ``immersion``,
    with the induced metric ``g_ab = sum_m d_a F^m d_b F^m`` (constants
    folded as :func:`~splitgeom.expr.diff` folds them), split by principal
    curvature into blocks of the expected multiplicities ``dims``.  The
    second derivatives ``d_a d_b F^j`` that :func:`shape_data` evaluates
    are taken here, once per scenario.  ``grid``
    is the quadrature grid (16 per axis if None).  Each immersion entry is
    evaluated at 64 seeded points of the sample box and on the lattice of
    :meth:`~splitgeom.chart.ChartManifold.validate`, so that a domain error
    names the entry and its point while the scenario is built, and a sphere
    immersion is refused at the first sample point off the unit sphere.
    """
    n, count = len(axes), len(immersion)
    if count not in (n + 1, n + 2):
        raise GeometryError(f"an immersion of {n} axes has {n + 1} or {n + 2} entries, "
                            f"not {count}")
    if sum(dims) != n:
        raise GeometryError("expected multiplicities do not sum to the chart dimension")
    _check_box(axes, sample_box)
    asts = [_parsed(src, n, f"immersion entry {j}") for j, src in enumerate(immersion, start=1)]
    dF = [[diff(f, a) for f in asts] for a in range(1, n + 1)]
    metric = [[Num(0.0)] * n for _ in range(n)]
    ddF = [[[None] * n for _ in range(n)] for _ in asts]
    for a, b in itertools.combinations_with_replacement(range(n), 2):
        for j, (u, v) in enumerate(zip(dF[a], dF[b])):
            metric[a][b] = metric[b][a] = _bin("+", metric[a][b], _bin("*", u, v))
            ddF[j][a][b] = ddF[j][b][a] = diff(u, b + 1)
    chart = ChartManifold(axes, metric, name=name)
    pts = sample_points(chart, 64, np.random.default_rng(1234), box=sample_box)
    nodes = np.concatenate([pts, grid_points(chart, [5] * n, inset=1e-3).reshape(-1, n)])
    F = np.stack([np.broadcast_to(evaluate_at(f"immersion entry {j}", src, f, nodes), len(nodes))
                  for j, (src, f) in enumerate(zip(immersion, asts), start=1)], axis=-1)
    off = np.flatnonzero(np.abs(np.sqrt(np.sum(F * F, axis=-1)[:len(pts)]) - 1.0) > 1e-12)
    if count == n + 2 and off.size:
        raise GeometryError(f"sphere immersion does not lie on the unit sphere at "
                            f"{pts[off[0]].tolist()}")
    return HypersurfaceScenario(
        name=name, chart=chart, immersion=asts, second_derivatives=ddF,
        ambient_curv=count - n - 1,
        split=SplitStructure(dims), normal_flip=normal_flip, sample_box=sample_box,
        gap_threshold=gap_threshold, meta={} if grid is None else {"integral_grid": grid})


def build_torus_revolution():
    """Torus of revolution in flat 3-space; curvatures ``cos t/(2 + cos t)``
    and 1 along the tube."""
    return build_hypersurface(
        "torus_revolution", [Axis(0.0, TWO_PI)] * 2,
        ["(2.0 + 1.0*cos(x1))*cos(x2)", "(2.0 + 1.0*cos(x1))*sin(x2)", "1.0*sin(x1)"],
        (1, 1), grid=[48, 4])


def build_clifford_torus():
    """Minimal flat torus in the unit 3-sphere; curvatures -1 and +1."""
    s = "0.7071067811865475"  # 1/sqrt(2)
    return build_hypersurface(
        "clifford_torus", [Axis(0.0, TWO_PI)] * 2,
        [f"{s}*cos(x1)", f"{s}*sin(x1)", f"{s}*cos(x2)", f"{s}*sin(x2)"],
        (1, 1), grid=[8, 8])


def build_graph_r4():
    """Graph hypersurface ``w = 0.3 x^2 + 0.2 y^2 + 0.1 z^2 + 0.05 xyz`` in
    flat 4-space near the origin: three simple principal curvatures."""
    return build_hypersurface(
        "graph_r4", [Axis(-0.15, 0.15, periodic=False)] * 3,
        ["x1", "x2", "x3", "0.3*x1^2 + 0.2*x2^2 + 0.1*x3^2 + 0.05*x1*x2*x3"],
        (1, 1, 1), normal_flip=True, gap_threshold=0.05)


def build_torus_cylinder():
    """Product of a torus of revolution with a line in flat 4-space; three
    simple curvatures (one of them zero) on the outer tube region."""
    return build_hypersurface(
        "torus_cylinder_k3",
        [Axis(-1.0, 1.0, periodic=False), Axis(0.0, TWO_PI), Axis(0.0, TWO_PI)],
        ["(2.0 + cos(x1))*cos(x2)", "(2.0 + cos(x1))*sin(x2)", "sin(x1)", "x3"],
        (1, 1, 1), sample_box=[(-0.9, 0.9), (0.0, TWO_PI), (0.0, TWO_PI)])


def build_round_sphere():
    """Round sphere of radius 1.5: all curvatures equal; rejected by any
    k >= 2 grouping."""
    return build_hypersurface(
        "round_sphere", [Axis(0.4, math.pi - 0.4, periodic=False), Axis(0.0, TWO_PI)],
        ["1.5*sin(x1)*cos(x2)", "1.5*sin(x1)*sin(x2)", "1.5*cos(x1)"],
        (1, 1), normal_flip=True)


def hypersurface_catalog():
    return {
        "torus_revolution": build_torus_revolution,
        "clifford_torus": build_clifford_torus,
        "graph_r4": build_graph_r4,
        "torus_cylinder_k3": build_torus_cylinder,
    }
