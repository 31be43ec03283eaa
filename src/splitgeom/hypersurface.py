"""Hypersurfaces in space forms split by principal curvature.

A hypersurface scenario carries an immersion of an ``n``-chart into
``R^{n+1}`` (ambient curvature ``c = 0``) or into the unit sphere of
``R^{n+2}`` (``c = 1``), together with closed-form expressions for the
induced metric (used for Christoffel symbols via exact jets; consistency of
the two metric sources is a test).  The shape operator is assembled from
immersion jets:

    g_ab = <d_a F, d_b F>,   II_ab = <d_a d_b F, N>,   A = g^{-1} II,

with ``N`` the unit normal from the generalized cross product of the
coordinate tangents (and of ``F`` itself for a sphere immersion, keeping
``N`` tangent to the sphere).  Principal curvatures are the eigenvalues of
``A`` (ascending), obtained from the symmetric-definite eigenproblem
``II v = mu g v``; eigenvector sign is fixed against a reference frame.

Derivatives of eigen-derived fields use central finite differences with one
Richardson halving; ``A`` itself is exact at every stencil point, so the
curvature-derivative checks are limited only by the stencil, not by nested
differencing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from . import hyperdual as hd
from .chart import Axis, ChartFrame, ChartManifold, GeometryError, sample_points
from .expr import evaluate, parse_expr
from .hyperdual import seed_jets

__all__ = [
    "GapError",
    "HypersurfaceScenario",
    "PrincipalData",
    "shape_data",
    "principal_bundle",
    "principal_data",
    "codazzi_checks",
    "hypersurface_identity",
    "dperp_integrability",
    "k3_identity_rhs_constant",
    "build_torus_revolution",
    "build_clifford_torus",
    "build_graph_r4",
    "build_torus_cylinder",
    "build_round_sphere",
    "hypersurface_catalog",
]

EPS_CBRT = np.finfo(float).eps ** (1.0 / 3.0)


class GapError(GeometryError):
    """Principal curvature groups collide on the sampled region."""


@dataclass
class HypersurfaceScenario:
    name: str
    chart: ChartManifold
    immersion: list                 # parsed component expressions, length m
    ambient_curv: int               # 0 (flat) or 1 (unit sphere)
    expected_k: int
    expected_dims: tuple
    normal_flip: bool = False
    sample_box: list | None = None
    gap_threshold: float | None = None
    meta: dict = field(default_factory=dict)
    kind: str = "hypersurface"

    @property
    def closed(self):
        return self.chart.closed

    @property
    def k(self):
        return self.expected_k

    @property
    def dims(self):
        return self.expected_dims

    def sample(self, count, rng):
        return sample_points(self.chart, count, rng, box=self.sample_box)

    def describe(self):
        return {
            "name": self.name,
            "kind": self.kind,
            "k": self.expected_k,
            "dims": list(self.expected_dims),
            "dim": self.chart.dim,
            "closed": self.closed,
            "ambient_curv": self.ambient_curv,
        }


def _generalized_cross(rows):
    """Vector orthogonal to ``m-1`` row vectors in ``R^m`` (batched)."""
    m = rows.shape[-1]
    out = np.empty(rows.shape[:-2] + (m,))
    cols = np.arange(m)
    for j in range(m):
        minor = rows[..., :, cols != j]
        out[..., j] = (-1.0) ** j * np.linalg.det(minor)
    return out


def shape_data(scn, points):
    """First and second fundamental data of the immersion at ``points``.

    Returns a dict with ``F`` (ambient position), ``J`` (tangents,
    ``(..., n, m)``), ``g``, ``II``, ``A`` and the unit normal ``N``.
    """
    points = np.asarray(points, dtype=float)
    n = scn.chart.dim
    m = len(scn.immersion)
    xs = seed_jets(points)
    Fj = [hd.as_jet(evaluate(ast, xs), xs[0]) for ast in scn.immersion]
    F = np.stack([f.val for f in Fj], axis=-1)
    J = np.stack([np.stack([Fj[j].grad[..., a] for j in range(m)], axis=-1)
                  for a in range(n)], axis=-2)  # (..., n, m)
    DDF = np.stack([f.hess for f in Fj], axis=-1)  # (..., n, n, m)

    g = np.einsum("...am,...bm->...ab", J, J)
    try:
        np.linalg.cholesky(g)
    except np.linalg.LinAlgError:
        raise GeometryError("immersion loses rank on the sampled region")

    if scn.ambient_curv == 1:
        radius = np.sqrt(np.sum(F * F, axis=-1))
        if np.max(np.abs(radius - 1.0)) > 1e-12:
            raise GeometryError("sphere immersion does not lie on the unit sphere")
        rows = np.concatenate([J, F[..., None, :]], axis=-2)
    else:
        rows = J
    N = _generalized_cross(rows)
    if scn.normal_flip:
        N = -N
    N = N / np.linalg.norm(N, axis=-1, keepdims=True)

    II = np.einsum("...abm,...m->...ab", DDF, N)
    A = np.linalg.solve(g, II)
    return {"F": F, "J": J, "g": g, "II": II, "A": A, "N": N}


def _fix_orientation(Y, g, ref):
    """Flip eigenvector columns so each pairs positively with the reference."""
    n = Y.shape[-1]
    for i in range(n):
        ip = ref[:, i] @ g @ Y[:, i]
        if ip < 0.0:
            Y[:, i] = -Y[:, i]
    return Y


def _default_orientation(Y):
    n = Y.shape[-1]
    for i in range(n):
        j = int(np.argmax(np.abs(Y[:, i])))
        if Y[j, i] < 0.0:
            Y[:, i] = -Y[:, i]
    return Y


def principal_bundle(scn, points, ref_frame=None, check_groups=True):
    """Eigenvalues (ascending) and g-orthonormal eigenvector columns.

    ``ref_frame`` fixes eigenvector signs by continuity (used by stencil
    sweeps); otherwise a deterministic per-point convention applies.
    Raises :class:`GapError` when the distinct-group structure expected by
    the scenario is violated.
    """
    points = np.asarray(points, dtype=float)
    flat = points.reshape(-1, points.shape[-1])
    data = shape_data(scn, flat)
    n = scn.chart.dim
    count = flat.shape[0]
    mu = np.empty((count, n))
    Y = np.empty((count, n, n))
    for idx in range(count):
        w, v = scipy.linalg.eigh(data["II"][idx], data["g"][idx])
        if ref_frame is not None:
            v = _fix_orientation(v, data["g"][idx], ref_frame)
        else:
            v = _default_orientation(v)
        mu[idx] = w
        Y[idx] = v
    if check_groups:
        _check_groups(scn, mu)
    shape = points.shape[:-1]
    return {"mu": mu.reshape(shape + (n,)), "Y": Y.reshape(shape + (n, n)),
            "g": data["g"].reshape(shape + (n, n)),
            "A": data["A"].reshape(shape + (n, n))}


def _check_groups(scn, mu):
    dims = scn.expected_dims
    if sum(dims) != mu.shape[-1]:
        raise GapError("expected multiplicities do not sum to the chart dimension")
    thresh = scn.gap_threshold
    if thresh is None:
        thresh = 1e-3 * max(1e-8, float(np.max(np.abs(mu))))
    starts = np.concatenate([[0], np.cumsum(dims)])
    for row in np.atleast_2d(mu.reshape(-1, mu.shape[-1])):
        groups = [row[starts[i]:starts[i + 1]] for i in range(len(dims))]
        for grp in groups:
            if grp.size > 1 and np.max(grp) - np.min(grp) > 0.1 * thresh:
                raise GapError(
                    f"principal curvatures within a group spread beyond tolerance: {row}")
        for a in range(len(groups) - 1):
            if groups[a + 1].min() - groups[a].max() < thresh:
                raise GapError(
                    f"principal curvature groups closer than the gap threshold: {row}")


@dataclass
class PrincipalData:
    point: np.ndarray
    mu: np.ndarray                  # all eigenvalues, ascending
    mu_distinct: np.ndarray         # one value per group
    multiplicities: tuple
    frame: np.ndarray               # eigenvector columns, g-orthonormal
    g: np.ndarray
    grad_mu_distinct: np.ndarray    # (k, n) contravariant gradients


def _group_means(mu, dims):
    starts = np.concatenate([[0], np.cumsum(dims)])
    return np.stack([mu[..., starts[i]:starts[i + 1]].mean(axis=-1)
                     for i in range(len(dims))], axis=-1)


def _fd_gradient(func, x, h, richardson=True):
    """Central-difference gradient of a vector-valued ``func`` along each axis.

    Returns ``d[c] = d func / d x_c`` with one Richardson halving.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    out = []
    for c in range(n):
        e = np.zeros(n)
        e[c] = 1.0
        d1 = (func(x + h * e) - func(x - h * e)) / (2.0 * h)
        if richardson:
            d2 = (func(x + 0.5 * h * e) - func(x - 0.5 * h * e)) / h
            out.append((4.0 * d2 - d1) / 3.0)
        else:
            out.append(d1)
    return np.stack(out, axis=0)


def principal_data(scn, p):
    """Full principal-curvature data at the single point ``p``."""
    p = np.asarray(p, dtype=float)
    bundle = principal_bundle(scn, p[None, :])
    mu = bundle["mu"][0]
    Y = bundle["Y"][0]
    g = bundle["g"][0]
    dims = scn.expected_dims
    mu_hat = _group_means(mu[None, :], dims)[0]

    def mu_hat_at(x):
        b = principal_bundle(scn, x[None, :], check_groups=False)
        return _group_means(b["mu"], dims)[0]

    dmu = _fd_gradient(mu_hat_at, p, h=EPS_CBRT)  # (n, k): d_c mu_hat_i
    ginv = np.linalg.inv(g)
    grad = np.einsum("ab,bk->ka", ginv, dmu)      # contravariant, (k, n)
    return PrincipalData(point=p, mu=mu, mu_distinct=mu_hat,
                         multiplicities=tuple(dims), frame=Y, g=g,
                         grad_mu_distinct=grad)


# -- curvature-derivative checks ----------------------------------------------

def _nabla_A(scn, p):
    """Covariant derivative of the shape operator at ``p`` plus frame data."""
    p = np.asarray(p, dtype=float)
    bundle = principal_bundle(scn, p[None, :])
    g = bundle["g"][0]
    Y = bundle["Y"][0]
    mu = bundle["mu"][0]
    cf = ChartFrame(scn.chart, p)
    gamma = cf.gamma.val  # (n, n, n): Gamma^c_ab
    if np.max(np.abs(cf.g.val - g)) > 1e-9 * (1.0 + np.max(np.abs(g))):
        raise GeometryError("closed-form metric disagrees with the immersion metric")

    def A_at(x):
        return shape_data(scn, x[None, :])["A"][0]

    dA = _fd_gradient(A_at, p, h=EPS_CBRT)  # (c, a, b) = d_c A^a_b
    A = bundle["A"][0]
    nabla = (dA
             + np.einsum("acd,db->cab", gamma, A)
             - np.einsum("dcb,ad->cab", gamma, A))  # (c, a, b) = (nabla_c A)^a_b
    return {"nabla": nabla, "A": A, "g": g, "Y": Y, "mu": mu, "gamma": gamma}


def _calA(nabla, g, X, Yv, Z):
    """``<(nabla_X A) Yv, Z>`` from the covariant derivative array."""
    return np.einsum("c,cab,b,ad,d->", X, nabla, Yv, g, Z)


def _frame_derivatives(scn, p, ref_frame):
    """FD derivatives of the sign-aligned eigenvector field at ``p``."""

    def Y_at(x):
        return principal_bundle(scn, x[None, :], ref_frame=ref_frame,
                                check_groups=False)["Y"][0]

    return _fd_gradient(Y_at, p, h=EPS_CBRT)  # (c, a, i) = d_c Y^a_i


def codazzi_checks(scn, p):
    """Residual bundle of the Codazzi-derived relations at ``p``.

    Keys: ``total_symmetry`` (all 6 permutations of the derivative
    3-tensor), ``eigen_offdiag`` (its frame components against
    ``(mu_j - mu_l) <nabla_{X_i} X_j, X_l>``), ``eigen_diag`` (against
    ``X_i(mu_j)``), ``exchange`` (the two-index exchange relation for
    pairwise distinct triples; needs k >= 3).
    """
    if any(d != 1 for d in scn.expected_dims):
        raise GeometryError("eigenvector-derivative checks need simple eigenvalues")
    p = np.asarray(p, dtype=float)
    n = scn.chart.dim
    data = _nabla_A(scn, p)
    nabla, g, Y, mu, gamma = data["nabla"], data["g"], data["Y"], data["mu"], data["gamma"]
    X = [Y[:, i] for i in range(n)]

    cal = np.empty((n, n, n))
    for i in range(n):
        for j in range(n):
            for l in range(n):
                cal[i, j, l] = _calA(nabla, g, X[i], X[j], X[l])
    scale = 1.0 + np.max(np.abs(cal))
    sym = 0.0
    for perm in [(0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]:
        sym = max(sym, float(np.max(np.abs(cal - np.transpose(cal, perm)))))

    dY = _frame_derivatives(scn, p, ref_frame=Y)

    def nabla_X(i, j):
        # (nabla_{X_i} X_j)^a = X_i^c (d_c X_j^a + Gamma^a_cd X_j^d)
        return np.einsum("c,ca->a", X[i], dY[:, :, j]) + \
            np.einsum("c,acd,d->a", X[i], gamma, X[j])

    offdiag = 0.0
    diag = 0.0
    exchange = 0.0
    def ip(u, v):
        return u @ g @ v

    def dmu_along(i, j):
        def mu_at(x):
            return principal_bundle(scn, x[None, :], check_groups=False)["mu"][0]
        dmu = _fd_gradient(mu_at, p, h=EPS_CBRT)  # (c, j)
        return X[i] @ dmu[:, j]

    for i in range(n):
        for j in range(n):
            for l in range(n):
                if j != l:
                    lhs = cal[i, j, l]
                    rhs = (mu[j] - mu[l]) * ip(nabla_X(i, j), X[l])
                    offdiag = max(offdiag, abs(lhs - rhs))
                else:
                    diag = max(diag, abs(cal[i, j, j] - dmu_along(i, j)))
    for i in range(n):
        for j in range(n):
            for l in range(n):
                if len({i, j, l}) == 3:
                    a = (mu[j] - mu[l]) * ip(nabla_X(i, j), X[l])
                    b = (mu[i] - mu[l]) * ip(nabla_X(j, i), X[l])
                    exchange = max(exchange, abs(a - b))
    return {"total_symmetry": sym / scale, "eigen_offdiag": offdiag,
            "eigen_diag": diag, "exchange": exchange, "scale": scale}


# -- the divergence identities in shape-operator form ------------------------

def _identity_field(scn, x):
    """The projected-gradient mean-curvature field at ``x`` (values).

    ``V = sum_i n_i sum_{j != i} P_j grad(mu_i) / (mu_i - mu_j)`` over the
    distinct-curvature groups; independent of eigenvector signs.
    """
    dims = scn.expected_dims
    k = len(dims)
    bundle = principal_bundle(scn, x[None, :], check_groups=False)
    g = bundle["g"][0]
    Y = bundle["Y"][0]
    mu_hat = _group_means(bundle["mu"], dims)[0]
    ginv = np.linalg.inv(g)

    def mu_hat_at(z):
        b = principal_bundle(scn, z[None, :], check_groups=False)
        return _group_means(b["mu"], dims)[0]

    dmu = _fd_gradient(mu_hat_at, x, h=EPS_CBRT)      # (c, i)
    grad = np.einsum("ab,bi->ia", ginv, dmu)          # contravariant

    starts = np.concatenate([[0], np.cumsum(dims)])
    proj = []
    for i in range(k):
        cols = Y[:, starts[i]:starts[i + 1]]
        flat = g @ cols                                # lowered eigenvectors
        proj.append(cols @ flat.T)                     # P_i, contravariant action
    V = np.zeros(scn.chart.dim)
    for i in range(k):
        for j in range(k):
            if j == i:
                continue
            V = V + dims[i] * (proj[j] @ grad[i]) / (mu_hat[i] - mu_hat[j])
    return V


def hypersurface_identity(scn, p):
    """Residual of the divergence identity in principal-curvature form.

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
    eigen-splitting and expanding every term in eigen data; an alternative
    form that is sometimes quoted, with coefficient 1/2 on the curvature sum
    and without the gradient cross term, does not balance (exposed as
    ``residual_printed`` for reference; the cross term vanishes when the
    curvature gradients are pairwise orthogonal in the complement direction,
    which hides the discrepancy on the simplest examples).

    Returns a dict with ``lhs`` (the divergence of the projected-gradient
    field, by finite differences with Richardson halving), ``rhs``,
    ``residual`` and ``residual_printed``.
    """
    p = np.asarray(p, dtype=float)
    dims = scn.expected_dims
    k = len(dims)
    if k not in (2, 3):
        raise GeometryError("identity implemented for 2 or 3 distinct curvatures")
    c = float(scn.ambient_curv)
    bundle = principal_bundle(scn, p[None, :])
    g = bundle["g"][0]
    Y = bundle["Y"][0]
    mu_hat = _group_means(bundle["mu"], dims)[0]
    ginv = np.linalg.inv(g)
    cf = ChartFrame(scn.chart, p)
    gamma = cf.gamma.val

    def V_at(x):
        return _identity_field(scn, x)

    dV = _fd_gradient(V_at, p, h=1e-3, richardson=True)  # larger step: V has FD noise
    lhs = float(np.trace(dV)) + float(np.einsum("aab,b->", gamma, V_at(p)))

    def mu_hat_at(z):
        b = principal_bundle(scn, z[None, :], check_groups=False)
        return _group_means(b["mu"], dims)[0]

    dmu = _fd_gradient(mu_hat_at, p, h=EPS_CBRT)
    grad = np.einsum("ab,bi->ia", ginv, dmu)
    starts = np.concatenate([[0], np.cumsum(dims)])
    proj = []
    for i in range(k):
        cols = Y[:, starts[i]:starts[i + 1]]
        proj.append(cols @ (g @ cols).T)

    def ip(u, v):
        return float(u @ g @ v)

    if k == 2:
        n1, n2 = dims
        rhs = n1 * n2 * (c + mu_hat[0] * mu_hat[1])
        gap2 = (mu_hat[1] - mu_hat[0]) ** 2
        rhs += (n1 * (1 - n1) * ip(grad[0], grad[0])
                + n2 * (1 - n2) * ip(grad[1], grad[1])) / gap2
        return {"lhs": lhs, "rhs": rhs, "residual": lhs - rhs,
                "residual_printed": lhs - rhs}

    curv = 0.0
    grad_diag = 0.0
    grad_cross = 0.0
    for i in range(3):
        for j in range(i + 1, 3):
            curv += dims[i] * dims[j] * (c + mu_hat[i] * mu_hat[j])
    for i in range(3):
        coeff = dims[i] * (1 - dims[i])
        if coeff == 0:
            continue
        for j in range(3):
            if j != i:
                w = proj[j] @ grad[i]
                grad_diag += coeff * ip(w, w) / (mu_hat[i] - mu_hat[j]) ** 2
    for i in range(3):
        for j in range(i + 1, 3):
            l = 3 - i - j
            wi = proj[l] @ grad[i]
            wj = proj[l] @ grad[j]
            grad_cross -= (dims[i] * dims[j] * ip(wi, wj)
                           / ((mu_hat[i] - mu_hat[l]) * (mu_hat[j] - mu_hat[l])))
    rhs = curv + grad_diag + grad_cross
    rhs_printed = 0.5 * curv + grad_diag
    return {"lhs": lhs, "rhs": rhs, "residual": lhs - rhs,
            "residual_printed": lhs - rhs_printed}


def k3_identity_rhs_constant(c, mu, dims=(1, 1, 1)):
    """Right side of the three-curvature identity with constant curvatures
    (all gradient terms zero): ``(1/2) sum_{i<j} n_i n_j (c + mu_i mu_j)``."""
    rhs = 0.0
    for i in range(3):
        for j in range(i + 1, 3):
            rhs += 0.5 * dims[i] * dims[j] * (c + mu[i] * mu[j])
    return rhs


def dperp_integrability(scn, points):
    """Integrability of each complement distribution, two independent ways.

    For three or more distinct curvature groups (all simple here), checks
    on every sample point whether the derivative 3-tensor vanishes on
    pairwise distinct eigen-triples, and cross-validates against the direct
    bracket test: the complement of each eigendirection is integrable iff
    the bracket of the two spanning eigenfields has no component along it.
    Returns the two flags (they must agree), plus sup values.
    """
    if scn.expected_k < 3:
        raise GeometryError("complement integrability needs at least 3 groups")
    if any(d != 1 for d in scn.expected_dims):
        raise GeometryError("bracket cross-validation needs simple eigenvalues")
    points = np.asarray(points, dtype=float)
    if points.ndim == 1:
        points = points[None, :]
    n = scn.chart.dim
    sup_cal = 0.0
    sup_bracket = 0.0
    tol = 1e-7
    agree = True
    for p in points:
        data = _nabla_A(scn, p)
        nabla, g, Y, gamma = data["nabla"], data["g"], data["Y"], data["gamma"]
        X = [Y[:, i] for i in range(n)]
        dY = _frame_derivatives(scn, p, ref_frame=Y)
        cal_max = 0.0
        br_max = 0.0
        for i in range(n):
            for j in range(i + 1, n):
                for l in range(j + 1, n):
                    cal_max = max(cal_max, abs(_calA(nabla, g, X[i], X[j], X[l])))
        for i in range(n):
            others = [j for j in range(n) if j != i]
            for a_idx in range(len(others)):
                for b_idx in range(a_idx + 1, len(others)):
                    ja, jb = others[a_idx], others[b_idx]
                    bracket = (np.einsum("c,ca->a", X[ja], dY[:, :, jb])
                               - np.einsum("c,ca->a", X[jb], dY[:, :, ja]))
                    br_max = max(br_max, abs(bracket @ g @ X[i]))
        sup_cal = max(sup_cal, cal_max)
        sup_bracket = max(sup_bracket, br_max)
        if (cal_max <= tol) != (br_max <= tol):
            agree = False
    return {
        "cal_zero": sup_cal <= tol,
        "bracket_zero": sup_bracket <= tol,
        "flags_agree": agree,
        "sup_cal": sup_cal,
        "sup_bracket": sup_bracket,
    }


# -- scenario builders ---------------------------------------------------------

TWO_PI = 2 * math.pi


def build_torus_revolution(R=2.0, r=1.0, name="torus_revolution"):
    """Torus of revolution in flat 3-space; curvatures ``cos t/(R + r cos t)``
    and ``1/r`` along the tube."""
    chart = ChartManifold(
        [Axis(0.0, TWO_PI), Axis(0.0, TWO_PI)],
        [[f"{r * r}", "0"], ["0", f"({R} + {r}*cos(x1))^2"]],
        name=name,
    )
    immersion = [
        parse_expr(f"({R} + {r}*cos(x1))*cos(x2)", 2),
        parse_expr(f"({R} + {r}*cos(x1))*sin(x2)", 2),
        parse_expr(f"{r}*sin(x1)", 2),
    ]
    return HypersurfaceScenario(
        name=name, chart=chart, immersion=immersion, ambient_curv=0,
        expected_k=2, expected_dims=(1, 1), normal_flip=False,
        meta={"R": R, "r": r, "integral_grid": [48, 4]},
    )


def build_clifford_torus(name="clifford_torus"):
    """Minimal flat torus in the unit 3-sphere; curvatures -1 and +1."""
    s = 1.0 / math.sqrt(2.0)
    chart = ChartManifold(
        [Axis(0.0, TWO_PI), Axis(0.0, TWO_PI)],
        [["0.5", "0"], ["0", "0.5"]],
        name=name,
    )
    immersion = [
        parse_expr(f"{s!r}*cos(x1)", 2),
        parse_expr(f"{s!r}*sin(x1)", 2),
        parse_expr(f"{s!r}*cos(x2)", 2),
        parse_expr(f"{s!r}*sin(x2)", 2),
    ]
    return HypersurfaceScenario(
        name=name, chart=chart, immersion=immersion, ambient_curv=1,
        expected_k=2, expected_dims=(1, 1), normal_flip=False,
        meta={"integral_grid": [8, 8]},
    )


def build_graph_r4(name="graph_r4"):
    """Graph hypersurface ``w = 0.3 x^2 + 0.2 y^2 + 0.1 z^2 + 0.05 xyz`` in
    flat 4-space near the origin: three simple principal curvatures."""
    f = "0.3*x1^2 + 0.2*x2^2 + 0.1*x3^2 + 0.05*x1*x2*x3"
    fx = "(0.6*x1 + 0.05*x2*x3)"
    fy = "(0.4*x2 + 0.05*x1*x3)"
    fz = "(0.2*x3 + 0.05*x1*x2)"
    grads = [fx, fy, fz]
    entries = [[f"{'1' if a == b else '0'} + {grads[a]}*{grads[b]}"
                for b in range(3)] for a in range(3)]
    lo, hi = -0.15, 0.15
    chart = ChartManifold([Axis(lo, hi, periodic=False)] * 3, entries, name=name)
    immersion = [parse_expr("x1", 3), parse_expr("x2", 3), parse_expr("x3", 3),
                 parse_expr(f, 3)]
    return HypersurfaceScenario(
        name=name, chart=chart, immersion=immersion, ambient_curv=0,
        expected_k=3, expected_dims=(1, 1, 1), normal_flip=True,
        gap_threshold=0.05,
        meta={},
    )


def build_torus_cylinder(name="torus_cylinder_k3"):
    """Product of a torus of revolution with a line in flat 4-space; three
    simple curvatures (one of them zero) on the outer tube region."""
    R, r = 2.0, 1.0
    chart = ChartManifold(
        [Axis(-1.0, 1.0, periodic=False), Axis(0.0, TWO_PI), Axis(0.0, TWO_PI)],
        [["1", "0", "0"], ["0", f"({R} + cos(x1))^2", "0"], ["0", "0", "1"]],
        name=name,
    )
    immersion = [
        parse_expr(f"({R} + cos(x1))*cos(x2)", 3),
        parse_expr(f"({R} + cos(x1))*sin(x2)", 3),
        parse_expr("sin(x1)", 3),
        parse_expr("x3", 3),
    ]
    return HypersurfaceScenario(
        name=name, chart=chart, immersion=immersion, ambient_curv=0,
        expected_k=3, expected_dims=(1, 1, 1), normal_flip=False,
        sample_box=[(-0.9, 0.9), (0.0, TWO_PI), (0.0, TWO_PI)],
        meta={"R": R, "r": r},
    )


def build_round_sphere(radius=1.5, name="round_sphere"):
    """Round sphere: all curvatures equal; rejected by any k >= 2 grouping."""
    chart = ChartManifold(
        [Axis(0.4, math.pi - 0.4, periodic=False), Axis(0.0, TWO_PI)],
        [[f"{radius * radius}", "0"], ["0", f"{radius * radius}*sin(x1)^2"]],
        name=name,
    )
    immersion = [
        parse_expr(f"{radius}*sin(x1)*cos(x2)", 2),
        parse_expr(f"{radius}*sin(x1)*sin(x2)", 2),
        parse_expr(f"{radius}*cos(x1)", 2),
    ]
    return HypersurfaceScenario(
        name=name, chart=chart, immersion=immersion, ambient_curv=0,
        expected_k=2, expected_dims=(1, 1), normal_flip=True,
        meta={"radius": radius},
    )


def hypersurface_catalog():
    return {
        "torus_revolution": build_torus_revolution,
        "clifford_torus": build_clifford_torus,
        "graph_r4": build_graph_r4,
        "torus_cylinder_k3": build_torus_cylinder,
    }
