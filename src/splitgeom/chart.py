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
from .hyperdual import HyperDual, seed_jets

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
        g = hd.value_of(hd.stack(self.metric_at(coords)))
        return np.array(np.broadcast_to(g, points.shape[:-1] + (self.dim, self.dim)))

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
        check_positive_definite(g, pts)
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

    Exposes the metric ``g`` (order 2), its inverse and the Christoffel
    symbols (order 1) as tensor jets with exact gradients, plus the
    curvature tensor at value level.  Shared by the splitting machinery so
    that every identity evaluated at the same points reuses one set of
    metric derivatives.
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

    @property
    def g(self):
        """Metric ``(..., a, b)`` jet."""
        if self._g is None:
            self._g = hd.stack(self.chart.metric_at(self.coords), ref=self.coords[0])
        return self._g

    @property
    def ginv(self):
        """Inverse metric ``(..., a, b)`` jet, from ``d(g^-1) = -g^-1 dg g^-1``."""
        if self._ginv is None:
            inv = np.linalg.inv(self.g.val)
            self._ginv = HyperDual(
                inv, -np.einsum("...ab,...bcz,...cd->...adz", inv, self.g.grad, inv,
                                optimize=True))
        return self._ginv

    @property
    def gamma(self):
        """Christoffel symbols of the second kind, ``(..., c, a, b)`` jet:
        ``Gamma^c_ab = g^cd (d_a g_bd + d_b g_ad - d_d g_ab) / 2``."""
        if self._gamma is None:
            dg = hd.differential(self.g)  # (..., a, b, d) = d_d g_ab
            combo = (hd.einsum("...bda->...abd", dg) + hd.einsum("...adb->...abd", dg)
                     - dg)
            self._gamma = 0.5 * hd.einsum("...cd,...abd->...cab", self.ginv, combo)
        return self._gamma

    @property
    def riemann(self):
        """Curvature values ``(..., a, b, c, d)`` in the space-form-positive
        orientation: contraction with orthonormal ``E_a, E_b`` in slots
        ``(a,b,a,b)`` gives the sectional curvature of their plane."""
        if self._riemann is None:
            gam = self.gamma
            # half[e,c,a,b] = d_a Gamma^e_bc + Gamma^e_af Gamma^f_bc; the
            # curvature endomorphism is half minus half with a and b swapped
            half = (np.einsum("...ebca->...ecab", gam.grad)
                    + np.einsum("...eaf,...fbc->...ecab", gam.val, gam.val))
            up = half - np.swapaxes(half, -1, -2)
            self._riemann = -np.einsum("...de,...ecab->...abcd", self.g.val, up)
        return self._riemann

    # -- differential operators at value level ----------------------------

    def divergence_of(self, X):
        """Divergence of a vector field given as a ``(..., a)`` jet (valid grads)."""
        return (np.einsum("...aa->...", X.grad)
                + np.einsum("...aab,...b->...", self.gamma.val, X.val))

    def grad_field(self, f_jet):
        """Contravariant gradient of a scalar jet, as an order-1 ``(..., a)`` jet."""
        return hd.einsum("...ab,...b->...a", self.ginv, hd.differential(f_jet))


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
    _volume_element(frame.g.val, frame.points)
    return PointFrameData(point=frame.points, g=frame.g.val,
                          gamma=frame.gamma.val, riemann=frame.riemann)


def divergence(m, X, p):
    """Divergence of a jet-capable vector field callback at ``p``.

    ``X(coords)`` must return the ``n`` contravariant components, each built
    from the coordinate jets (so the engine can differentiate them exactly).
    """
    frame = ChartFrame(m, p)
    return frame.divergence_of(hd.stack(X(frame.coords), ref=frame.coords[0]))


def div_grad(m, f, p):
    """``Div(grad f)`` -- the sign convention with ``div_grad(cos) < 0`` on
    the round sphere's ``l=1`` mode."""
    frame = ChartFrame(m, p)
    f_jet = hd.as_jet(f(frame.coords), frame.coords[0])
    return frame.divergence_of(frame.grad_field(f_jet))


def laplacian_geom(m, f, p):
    """Geometers' Laplacian ``-Div(grad f)`` (positive spectrum)."""
    return -div_grad(m, f, p)


def check_positive_definite(g, points):
    """Raise :class:`GeometryError` naming the first of ``points`` ``(..., n)``
    where the metric values ``g`` ``(..., n, n)`` are not positive definite."""
    try:
        np.linalg.cholesky(g)
    except np.linalg.LinAlgError:
        n = g.shape[-1]
        for node, gp in zip(np.asarray(points, dtype=float).reshape(-1, n),
                            g.reshape(-1, n, n)):
            try:
                np.linalg.cholesky(gp)
            except np.linalg.LinAlgError:
                raise GeometryError(
                    f"metric not positive definite at {node.tolist()}") from None
        raise


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
