"""Coordinate charts: metric evaluation, connection, curvature, quadrature.

A :class:`ChartManifold` is a coordinate box (each axis an interval, flagged
periodic or not) carrying a Riemannian metric given entrywise by closed-form
expressions (or by a jet-capable callable).  All derived quantities come from
exact jets of the metric:

* Christoffel symbols ``Gamma^c_ab`` carry exact first derivatives,
* the curvature tensor is produced at value level,
* divergences of jet-valued vector fields read the gradient slot directly.

Curvature orientation: ``riemann[a,b,c,d]`` is normalised so that on a space
form of curvature ``c`` it equals ``c*(g_ac g_bd - g_bc g_ad)``; equivalently
the contraction with an orthonormal pair ``(E_a, E_b)`` in slots
``(a,b,a,b)`` is the sectional curvature of their plane.  The unit sphere
comes out at +1 (pinned by tests).
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import hyperdual as hd
from .expr import parse_expr, evaluate
from .hyperdual import HyperDual, partial_deriv, seed_jets, value_of

__all__ = [
    "Axis",
    "ChartManifold",
    "ChartFrame",
    "PointFrameData",
    "GeometryError",
    "NonClosedChartError",
    "connection_at",
    "divergence",
    "div_grad",
    "laplacian_geom",
    "integrate",
    "rectangle_rule",
    "grid_points",
    "sample_points",
    "map_batched",
]

DEFAULT_CHUNK = 4096


class GeometryError(RuntimeError):
    pass


class NonClosedChartError(GeometryError):
    pass


@dataclass(frozen=True)
class Axis:
    lo: float
    hi: float
    periodic: bool = True

    @property
    def period(self):
        return self.hi - self.lo


def _zero_like(s):
    if isinstance(s, HyperDual):
        return hd.constant_like(s, 0.0)
    return np.zeros_like(np.asarray(s, dtype=float))


def _one_like(s):
    if isinstance(s, HyperDual):
        return hd.constant_like(s, 1.0)
    return np.ones_like(np.asarray(s, dtype=float))


def invert_matrix(M):
    """Inverse of a small matrix of generic scalars (Gauss-Jordan, no pivoting).

    Intended for SPD metric matrices, whose leading minors never vanish.
    """
    n = len(M)
    A = [list(row) for row in M]
    B = [[_one_like(M[0][0]) if i == j else _zero_like(M[0][0]) for j in range(n)]
         for i in range(n)]
    for i in range(n):
        inv_piv = 1.0 / A[i][i] if not isinstance(A[i][i], HyperDual) else A[i][i] ** (-1)
        for j in range(n):
            A[i][j] = A[i][j] * inv_piv
            B[i][j] = B[i][j] * inv_piv
        for r in range(n):
            if r == i:
                continue
            factor = A[r][i]
            for j in range(n):
                A[r][j] = A[r][j] - factor * A[i][j]
                B[r][j] = B[r][j] - factor * B[i][j]
    return B


class ChartManifold:
    """Coordinate box with a metric field.

    ``metric`` may be an ``n x n`` nested list of expression ASTs (or source
    strings, parsed against ``dim``) or a callable ``coords -> n x n`` nested
    list of scalars, where ``coords`` is the list of coordinate jets.
    """

    #: orientation of the curvature tensor produced by this chart's frames:
    #: orthonormal contraction in slots (a,b,a,b) is the sectional curvature
    CURVATURE_CONVENTION = "space-form-positive"

    def __init__(self, axes, metric, name="chart"):
        self.axes = list(axes)
        self.dim = len(self.axes)
        self.name = name
        self.curvature_convention = self.CURVATURE_CONVENTION
        self.metric_asts = None
        if callable(metric):
            self._metric_fn = metric
        else:
            rows = []
            for row in metric:
                parsed = []
                for entry in row:
                    parsed.append(parse_expr(entry, self.dim) if isinstance(entry, str) else entry)
                rows.append(parsed)
            if len(rows) != self.dim or any(len(r) != self.dim for r in rows):
                raise GeometryError("metric must be an n x n matrix")
            self.metric_asts = rows
            self._metric_fn = None

    # -- basic queries ----------------------------------------------------

    @property
    def closed(self):
        return all(ax.periodic for ax in self.axes)

    def metric_at(self, coords):
        """Metric entries at generic coordinates (jets, arrays or floats)."""
        if self._metric_fn is not None:
            return self._metric_fn(coords)
        return [[evaluate(self.metric_asts[a][b], coords) for b in range(self.dim)]
                for a in range(self.dim)]

    def metric_values(self, points):
        """Metric as a ``(..., n, n)`` value array at ``points`` ``(..., n)``."""
        points = np.asarray(points, dtype=float)
        if self.metric_asts is not None:
            coords = [points[..., a] for a in range(self.dim)]
        else:
            coords = seed_jets(points)
        g = self.metric_at(coords)
        out = np.empty(points.shape[:-1] + (self.dim, self.dim))
        for a in range(self.dim):
            for b in range(self.dim):
                out[..., a, b] = np.broadcast_to(value_of(g[a][b]), points.shape[:-1])
        return out

    def contains(self, points):
        points = np.asarray(points, dtype=float)
        ok = np.ones(points.shape[:-1], dtype=bool)
        for a, ax in enumerate(self.axes):
            if not ax.periodic:
                ok &= (points[..., a] >= ax.lo) & (points[..., a] <= ax.hi)
        return ok

    # -- validation --------------------------------------------------------

    def validate(self, grid_per_axis=5, rng=None, tol_periodic=1e-12):
        """Check SPD at lattice points and periodicity of metric entries."""
        pts = grid_points(self, [grid_per_axis] * self.dim, inset=1e-3)
        g = self.metric_values(pts)
        asym = np.max(np.abs(g - np.swapaxes(g, -1, -2)))
        if asym > 1e-12:
            raise GeometryError(f"metric not symmetric (max asymmetry {asym:.2e})")
        try:
            np.linalg.cholesky(g)
        except np.linalg.LinAlgError:
            bad = np.where(np.linalg.eigvalsh(g)[..., 0] <= 0.0)
            where = pts.reshape(-1, self.dim)[bad[0][0]] if bad[0].size else "?"
            raise GeometryError(f"metric not positive definite near {where}")
        rng = rng or np.random.default_rng(0)
        sample = sample_points(self, 16, rng)
        g0 = self.metric_values(sample)
        scale = 1.0 + np.max(np.abs(g0))
        for a, ax in enumerate(self.axes):
            if not ax.periodic:
                continue
            shifted = sample.copy()
            shifted[..., a] += ax.period
            dg = np.max(np.abs(self.metric_values(shifted) - g0))
            if dg > tol_periodic * scale:
                raise GeometryError(
                    f"metric not periodic along axis {a + 1}: |g(x+T)-g(x)| = {dg:.2e}")
        return True


def grid_points(m, resolution, inset=0.0):
    """Regular lattice on the chart; periodic axes exclude the right endpoint."""
    if isinstance(resolution, (int, np.integer)):
        resolution = [int(resolution)] * m.dim
    axes_nodes = []
    for ax, res in zip(m.axes, resolution):
        if ax.periodic:
            nodes = ax.lo + ax.period * np.arange(res) / res
        else:
            pad = inset * (ax.hi - ax.lo)
            nodes = np.linspace(ax.lo + pad, ax.hi - pad, res)
        axes_nodes.append(nodes)
    mesh = np.meshgrid(*axes_nodes, indexing="ij")
    return np.stack(mesh, axis=-1)


def sample_points(m, count, rng, margin=0.0, box=None):
    """Random points, uniform per axis; ``box`` optionally restricts axes."""
    cols = []
    for a, ax in enumerate(m.axes):
        lo, hi = (box[a] if box is not None else (ax.lo, ax.hi))
        pad = margin * (hi - lo)
        cols.append(rng.uniform(lo + pad, hi - pad, size=count))
    return np.stack(cols, axis=-1)


def map_batched(fn, points, chunk=DEFAULT_CHUNK, threads=1):
    """Apply ``fn`` to chunks of points, concatenating results in chunk order.

    ``fn`` maps an ``(m, n)`` array to an ``(m,)`` array or a dict of such
    arrays.  Reduction order is fixed by chunk index, so the result is
    independent of the worker count.
    """
    points = np.asarray(points, dtype=float)
    flat = points.reshape(-1, points.shape[-1])
    chunks = [flat[i:i + chunk] for i in range(0, flat.shape[0], chunk)]
    if threads > 1 and len(chunks) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(fn, chunks))
    else:
        results = [fn(c) for c in chunks]
    if isinstance(results[0], dict):
        return {k: np.concatenate([r[k] for r in results]) for k in results[0]}
    return np.concatenate(results)


# -- metric jets and derived fields ----------------------------------------

class ChartFrame:
    """Cached jet data of a chart at a batch of points.

    Exposes the metric, its inverse and the Christoffel symbols as jets with
    exact gradients, plus the curvature tensor at value level.  Shared by the
    splitting machinery so that every identity evaluated at the same points
    reuses one set of metric derivatives.
    """

    def __init__(self, chart, points):
        self.chart = chart
        self.points = np.asarray(points, dtype=float)
        self.n = chart.dim
        self.coords = seed_jets(self.points)
        self._g = None
        self._ginv = None
        self._gamma = None
        self._riemann = None
        self._g_val = None

    @property
    def g(self):
        if self._g is None:
            raw = self.chart.metric_at(self.coords)
            ref = self.coords[0]
            self._g = [[hd.as_jet(raw[a][b], ref) for b in range(self.n)]
                       for a in range(self.n)]
        return self._g

    @property
    def g_val(self):
        if self._g_val is None:
            g = self.g
            out = np.empty(self.points.shape[:-1] + (self.n, self.n))
            for a in range(self.n):
                for b in range(self.n):
                    out[..., a, b] = g[a][b].val
            self._g_val = out
        return self._g_val

    @property
    def ginv(self):
        if self._ginv is None:
            self._ginv = invert_matrix(self.g)
        return self._ginv

    @property
    def gamma(self):
        """``gamma[c][a][b]`` = Christoffel symbol of the second kind (jet)."""
        if self._gamma is None:
            n = self.n
            g, ginv = self.g, self.ginv
            dg = [[[partial_deriv(g[a][b], c) for c in range(n)] for b in range(n)]
                  for a in range(n)]  # dg[a][b][c] = d_c g_ab
            gamma = []
            for c in range(n):
                rows = []
                for a in range(n):
                    row = []
                    for b in range(a + 1):
                        total = None
                        for d in range(n):
                            combo = dg[b][d][a] + dg[a][d][b] - dg[a][b][d]
                            term = ginv[c][d] * combo
                            total = term if total is None else total + term
                        row.append(total * 0.5)
                    rows.append(row)
                gamma.append(rows)
            # symmetric storage: fetch via helper
            self._gamma = gamma
        return self._gamma

    def gamma_at(self, c, a, b):
        if b > a:
            a, b = b, a
        return self.gamma[c][a][b]

    @property
    def gamma_val(self):
        n = self.n
        out = np.empty(self.points.shape[:-1] + (n, n, n))
        for c in range(n):
            for a in range(n):
                for b in range(n):
                    out[..., c, a, b] = self.gamma_at(c, a, b).val
        return out

    @property
    def riemann(self):
        """Curvature values ``(..., a, b, c, d)`` in the space-form-positive
        orientation: contraction with orthonormal ``E_a, E_b`` in slots
        ``(a,b,a,b)`` gives the sectional curvature of their plane."""
        if self._riemann is None:
            n = self.n
            gval = self.g_val
            gam = np.empty(self.points.shape[:-1] + (n, n, n))
            dgam = np.empty(self.points.shape[:-1] + (n, n, n, n))
            for c in range(n):
                for a in range(n):
                    for b in range(n):
                        jet = self.gamma_at(c, a, b)
                        gam[..., c, a, b] = jet.val
                        dgam[..., c, a, b, :] = jet.grad
            # up[e,c,a,b] = d_a Gamma^e_bc - d_b Gamma^e_ac
            #             + Gamma^e_af Gamma^f_bc - Gamma^e_bf Gamma^f_ac
            up = np.zeros(self.points.shape[:-1] + (n, n, n, n))
            for e in range(n):
                for c in range(n):
                    for a in range(n):
                        for b in range(n):
                            val = dgam[..., e, b, c, a] - dgam[..., e, a, c, b]
                            for f in range(n):
                                val = val + gam[..., e, a, f] * gam[..., f, b, c]
                                val = val - gam[..., e, b, f] * gam[..., f, a, c]
                            up[..., e, c, a, b] = val
            self._riemann = -np.einsum("...de,...ecab->...abcd", gval, up)
        return self._riemann

    # -- differential operators at value level ----------------------------

    def divergence_of(self, comps):
        """Divergence of a vector field given by jet components (valid grads)."""
        n = self.n
        out = None
        for a in range(n):
            term = comps[a].grad[..., a]
            out = term if out is None else out + term
        for a in range(n):
            for b in range(n):
                out = out + self.gamma_at(a, a, b).val * value_of(comps[b])
        return out

    def grad_field(self, f_jet):
        """Contravariant gradient components of a scalar jet (order-1 jets)."""
        n = self.n
        df = [partial_deriv(f_jet, b) for b in range(n)]
        return [sum_jets([self.ginv[a][b] * df[b] for b in range(n)]) for a in range(n)]


def sum_jets(items):
    total = items[0]
    for it in items[1:]:
        total = total + it
    return total


@dataclass
class PointFrameData:
    point: np.ndarray
    g: np.ndarray
    gamma: np.ndarray
    riemann: np.ndarray


def connection_at(m, p):
    """Metric, Christoffel symbols and curvature values at ``p`` ``(..., n)``."""
    frame = ChartFrame(m, p)
    # triggers SPD failure early with a clear error
    _volume_element(frame.g_val, frame.points)
    return PointFrameData(point=frame.points, g=frame.g_val,
                          gamma=frame.gamma_val, riemann=frame.riemann)


def divergence(m, X, p):
    """Divergence of a jet-capable vector field callback at ``p``.

    ``X(coords)`` must return the ``n`` contravariant components, each built
    from the coordinate jets (so the engine can differentiate them exactly).
    """
    frame = ChartFrame(m, p)
    comps = [hd.as_jet(c, frame.coords[0]) for c in X(frame.coords)]
    return frame.divergence_of(comps)


def div_grad(m, f, p):
    """``Div(grad f)`` -- the sign convention with ``div_grad(cos) < 0`` on
    the round sphere's ``l=1`` mode."""
    frame = ChartFrame(m, p)
    f_jet = hd.as_jet(f(frame.coords), frame.coords[0])
    comps = frame.grad_field(f_jet)
    return frame.divergence_of(comps)


def laplacian_geom(m, f, p):
    """Geometers' Laplacian ``-Div(grad f)`` (positive spectrum)."""
    return -div_grad(m, f, p)


def _volume_element(g, points):
    """``sqrt(det g)`` of metric values ``g`` ``(..., n, n)`` at ``points``.

    Raises :class:`GeometryError` naming the first point where ``det g`` is
    not positive (or not a number), instead of returning ``nan``.
    """
    det = np.linalg.det(g)
    bad = np.flatnonzero(~(det > 0.0))
    if bad.size:
        node = np.asarray(points, dtype=float).reshape(-1, g.shape[-1])[bad[0]]
        raise GeometryError(f"metric determinant {det.flat[bad[0]]:.3e} not positive "
                            f"at {node.tolist()}")
    return np.sqrt(det)


def rectangle_rule(m, grid, integrand, mapper, chunk=DEFAULT_CHUNK, threads=1):
    """Rectangle-rule integrals over the closed chart ``m``.

    ``integrand`` maps an ``(N, n)`` chunk of nodes to ``(values, g)``:
    ``values`` an ``(N,)`` array or a dict of them, ``g`` the metric values
    ``(N, n, n)`` at the nodes.  ``mapper`` is :func:`map_batched` as bound by
    the caller's module.  The rule is spectrally accurate for analytic
    periodic integrands; each integral is a compensated sum in fixed node
    order, so it does not depend on ``chunk`` or ``threads``.  Returns the
    per-axis grid and the integral (or dict of integrals).
    """
    if not m.closed:
        raise NonClosedChartError("integration requires all axes periodic")
    if isinstance(grid, (int, np.integer)):
        grid = [int(grid)] * m.dim
    if any(res < 4 for res in grid):
        raise GeometryError("grid resolution must be at least 4 per axis")
    cell = math.prod(ax.period / res for ax, res in zip(m.axes, grid))

    def weighted(nodes):
        values, g = integrand(nodes)
        w = _volume_element(g, nodes)
        if isinstance(values, dict):
            return {key: np.asarray(v, dtype=float) * w for key, v in values.items()}
        return np.asarray(values, dtype=float) * w

    acc = mapper(weighted, grid_points(m, grid), chunk=chunk, threads=threads)
    if isinstance(acc, dict):
        return grid, {key: math.fsum(v.tolist()) * cell for key, v in acc.items()}
    return grid, math.fsum(acc.tolist()) * cell


def integrate(m, f, grid, chunk=DEFAULT_CHUNK, threads=1):
    """Integral of a scalar field over a closed chart (see :func:`rectangle_rule`).

    ``f`` maps a ``(N, n)`` point array to ``(N,)`` values, or to a dict of
    such arrays; a dict gives a dict of integrals from one sweep of the grid.
    """
    return rectangle_rule(m, grid, lambda p: (f(p), m.metric_values(p)),
                          map_batched, chunk=chunk, threads=threads)[1]
