"""Coordinate charts: metric evaluation, connection, curvature, quadrature.

A :class:`ChartManifold` is a coordinate box (each axis an interval, flagged
periodic or not) carrying a Riemannian metric given entrywise by closed-form
expressions.  All derived quantities come from exact jets of the metric:

* Christoffel symbols ``Gamma^c_ab`` carry exact first derivatives,
* sectional curvatures of frame planes (:meth:`ChartFrame.sectional`) are
  contracted from the Christoffel jet; the full curvature tensor
  (:attr:`ChartFrame.riemann`) is their value-level reference,
* divergences of jet-valued vector fields read the gradient slot directly.

The jets of a :class:`ChartFrame`, its coordinate jets included, carry one
derivative slot per axis it seeds.  A metric that reads no axis
(``depends_on`` empty) is a constant, inactive in forward mode: its
:class:`ChartFrame` holds the metric and its inverse as plain arrays, and
its Christoffel symbols and curvature are exact zeros, not computed.

Curvature orientation: ``riemann[a,b,c,d]`` is normalised so that on a space
form of curvature ``c`` it equals ``c*(g_ac g_bd - g_bc g_ad)``; equivalently
the contraction with an orthonormal pair ``(E_a, E_b)`` in slots
``(a,b,a,b)`` is the sectional curvature of their plane.  The unit sphere
comes out at +1 (pinned by tests).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import hyperdual as hd
from .expr import ExprError, evaluate, evaluate_at, labelled, parse_expr, variables
from .hyperdual import HyperDual, seed_jets

__all__ = [
    "Axis",
    "ChartManifold",
    "ExpressionMatrix",
    "ChartFrame",
    "GeometryError",
    "NonClosedChartError",
    "integrate",
    "Quadrature",
    "rectangle_rule",
    "grid_points",
    "sample_points",
    "map_batched",
]


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


class ExpressionMatrix:
    """An ``n x n`` matrix of closed-form expressions on an ``n``-dimensional
    chart, given as a nested list of ASTs or source strings: a metric, or a
    spanning frame with one row per vector.  Each distinct source is parsed
    once, at its first entry, and its entries share the tree.
    ``depends_on`` is the set of 0-based axes some entry reads.  Called at
    coordinates (jets, arrays or floats), it returns the nested list of
    entry values.
    """

    def __init__(self, entries, n, what):
        self.what = what
        parsed = {}  # source -> tree

        def tree(e, label):
            if not isinstance(e, str):
                return e
            if e not in parsed:
                parsed[e] = _parsed(e, n, label)
            return parsed[e]

        self.rows = [[tree(e, f"{what} entry ({a}, {b})") for b, e in enumerate(row, start=1)]
                     for a, row in enumerate(entries, start=1)]
        if len(self.rows) != n or any(len(r) != n for r in self.rows):
            raise GeometryError(f"{what} must be an n x n matrix")
        self.sources = [[e if isinstance(e, str) else None for e in row] for row in entries]
        self.depends_on = frozenset().union(*(variables(e) for row in self.rows
                                              for e in row))

    def __call__(self, coords):
        memo = {}
        return [[evaluate(e, coords, memo) for e in row] for row in self.rows]

    def locate(self, points):
        """Evaluate entry by entry at ``points`` ``(N, n)``, raising the
        :class:`~splitgeom.expr.ExprError` of the first entry that fails,
        named with its source and the first of ``points`` where it does."""
        for a, (row, sources) in enumerate(zip(self.rows, self.sources), start=1):
            for b, (node, src) in enumerate(zip(row, sources), start=1):
                evaluate_at(f"{self.what} entry ({a}, {b})", src, node, points)


def _parsed(entry, n, label):
    if not isinstance(entry, str):
        return entry
    with labelled(label, entry):
        return parse_expr(entry, n)


class ChartManifold:
    """Coordinate box with a metric field.

    ``metric`` is an ``n x n`` :class:`ExpressionMatrix` source;
    ``metric_at(coords)`` gives its entries and ``depends_on`` the axes
    they read.
    """

    def __init__(self, axes, metric, name="chart"):
        self.axes = list(axes)
        self.dim = len(self.axes)
        self.name = name
        self.metric_at = ExpressionMatrix(metric, self.dim, "metric")
        self.depends_on = self.metric_at.depends_on

    # -- basic queries ----------------------------------------------------

    @property
    def closed(self):
        return all(ax.periodic for ax in self.axes)

    def metric_values(self, points):
        """Metric as a ``(..., n, n)`` value array at ``points`` ``(..., n)``."""
        points = np.asarray(points, dtype=float)
        g = hd.value_of(hd.stack(self.metric_at([points[..., a] for a in range(self.dim)])))
        return np.array(np.broadcast_to(g, points.shape[:-1] + (self.dim, self.dim)))

    # -- validation --------------------------------------------------------

    def validate(self):
        """Check SPD on a 5-per-axis lattice and periodicity at 16 seeded points."""
        pts = grid_points(self, [5] * self.dim, inset=1e-3)
        try:
            g = self.metric_values(pts)
        except ExprError:
            # only after a failure: name the entry and the lattice point
            self.metric_at.locate(pts.reshape(-1, self.dim))
            raise
        asym = np.max(np.abs(g - np.swapaxes(g, -1, -2)))
        if asym > 1e-12:
            raise GeometryError(f"metric not symmetric (max asymmetry {asym:.2e})")
        cholesky(g, pts)
        sample = sample_points(self, 16, np.random.default_rng(0))
        g0 = self.metric_values(sample)
        scale = 1.0 + np.max(np.abs(g0))
        for a, ax in enumerate(self.axes):
            if not ax.periodic:
                continue
            dg = np.max(np.abs(self.metric_values(sample + ax.period * np.eye(self.dim)[a]) - g0))
            if dg > 1e-12 * scale:
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


def sample_points(m, count, rng, box=None):
    """Random points, uniform per axis; ``box`` optionally restricts axes."""
    cols = []
    for a, ax in enumerate(m.axes):
        lo, hi = (box[a] if box is not None else (ax.lo, ax.hi))
        cols.append(rng.uniform(lo, hi, size=count))
    return np.stack(cols, axis=-1)


def map_batched(fn, points, chunk, threads=1):
    """Apply ``fn`` to chunks of the ``(N, n)`` ``points``, concatenating
    results in chunk order.

    ``fn`` maps an ``(m, n)`` array to an ``(m,)`` array or a dict of such
    arrays.  The points are cut into ``ceil(N / chunk)`` chunks that differ
    in size by at most one, whatever ``threads``, and ``threads`` workers
    evaluate them.  Reduction order is fixed by chunk index, so the result
    is independent of the worker count.
    """
    chunks = np.array_split(np.asarray(points, dtype=float), -(-len(points) // chunk))
    if threads > 1 and len(chunks) > 1:
        # imported here: concurrent.futures imports logging, which a
        # single-threaded run never needs
        from concurrent.futures import ThreadPoolExecutor

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
    symbols (order 1) as tensor jets with exact gradients, plus sectional
    curvatures of frame planes and, as their reference, the curvature tensor
    at value level.  Shared by the splitting machinery so
    that every identity evaluated at the same points reuses one set of
    metric derivatives.

    On a ``flat`` chart, whose metric reads no axis, ``g`` and ``ginv`` are
    plain ``(..., n, n)`` arrays, and ``gamma``, ``riemann`` and
    :meth:`sectional` are plain arrays of exact zeros: no metric derivative
    is formed, and consumers take the constant metric as it is.

    Every jet is differentiated only along ``axes`` (0-based; default:
    every axis): the coordinate jets ``coords`` are seeded there, and
    derivative slot ``j`` of the metric, its inverse, the Christoffel
    symbols and every field built from ``coords`` is the partial along
    ``axes[j]``; the partials along the other, unseeded axes are zero and
    not stored.  Tensor indices stay coordinate indices of size ``n``:
    :meth:`differential` and :meth:`scatter` put a derivative index onto
    all ``n`` axes, and :meth:`entries` refuses an expression matrix that
    reads an unseeded axis.
    """

    def __init__(self, chart, points, axes=None):
        self.chart = chart
        self.points = np.asarray(points, dtype=float)
        self.n = chart.dim
        self.axes = list(range(self.n)) if axes is None else sorted(axes)
        self.coords = seed_jets(self.points, self.axes)
        self.flat = not chart.depends_on
        self._g = None
        self._ginv = None
        self._gamma = None
        self._riemann = None

    def entries(self, matrix, what):
        """The entries of the :class:`ExpressionMatrix` ``matrix`` at the
        points, as a nested list of jets on the seeded slots and constants.

        Raises :class:`GeometryError` if an entry (the ``what``) reads an
        unseeded axis, whose partials the seeded slots would drop.
        """
        unseeded = sorted(matrix.depends_on - set(self.axes))
        if unseeded:
            raise GeometryError(
                f"the {what} varies along axis {unseeded[0] + 1}, which neither the metric "
                f"nor the frame declares")
        return matrix(self.coords)

    def scatter(self, x, axis=-1):
        """``x`` with its derivative axis ``axis``, one entry per seeded
        slot, indexed by coordinate: spread onto all ``n`` axes, zero along
        the unseeded ones (``x`` itself when every axis is seeded)."""
        if len(self.axes) == self.n:
            return x
        axis %= x.ndim
        out = np.zeros(x.shape[:axis] + (self.n,) + x.shape[axis + 1:])
        out[(slice(None),) * axis + (self.axes,)] = x
        return out

    def differential(self, f):
        """First-order jet of all coordinate partials of the order-2 jet
        ``f``: :func:`~splitgeom.hyperdual.differential` with the new last
        value axis indexed by coordinate (see :meth:`scatter`)."""
        d = hd.differential(f)
        return HyperDual(self.scatter(d.val), self.scatter(d.grad, -2))

    @property
    def g(self):
        """Metric ``(..., a, b)`` jet; the value array on a flat chart."""
        if self._g is None:
            if self.flat:
                self._g = self.chart.metric_values(self.points)
            else:
                self._g = hd.stack(self.entries(self.chart.metric_at, "metric"),
                                   ref=self.coords[0])
        return self._g

    @property
    def ginv(self):
        """Inverse metric ``(..., a, b)`` jet, ``g^-1 = L^-T L^-1`` from the
        Cholesky factor ``g = L L^T`` and ``d(g^-1) = -g^-1 dg g^-1``.  On a
        flat chart it is a value array: the constant metric is factored
        once, at the first point, and read at every point.  Raises
        :class:`GeometryError` naming the first point where the metric is
        not positive definite (:func:`cholesky`)."""
        if self._ginv is None:
            g = self.g
            if self.flat:
                # a batch of one point, factored as every batch is
                first = self.points.reshape(-1, self.n)[:1]
                Linv = lower_inverse(cholesky(g.reshape(-1, self.n, self.n)[:1], first))
                self._ginv = np.broadcast_to(
                    np.einsum("...ca,...cb->...ab", Linv, Linv)[0], g.shape)
                return self._ginv
            Linv = lower_inverse(cholesky(g.val, self.points))
            inv = np.einsum("...ca,...cb->...ab", Linv, Linv)
            self._ginv = HyperDual(inv, -hd.einsum("...ab,...bcz,...cd->...adz",
                                                   inv, g.grad, inv))
        return self._ginv

    @property
    def gamma(self):
        """Christoffel symbols of the second kind, ``(..., c, a, b)`` jet:
        ``Gamma^c_ab = g^cd (d_a g_bd + d_b g_ad - d_d g_ab) / 2``; exact
        zeros on a flat chart.

        The lowered symbol is built from the metric's halved slot
        derivatives: each seeded slot's gradient and Hessian entries are
        added into the three index positions of its axis, every ``a`` term
        first, then every ``b`` term, then the ``d`` terms subtracted, so
        that each entry sums as ``(d_a g_bd + d_b g_ad) - d_d g_ab``."""
        if self._gamma is None:
            if self.flat:
                self._gamma = np.zeros(self.points.shape[:-1] + (self.n,) * 3)
                return self._gamma
            # halving the terms is exact, as is halving their sums
            dg, ddg = 0.5 * self.g.grad, 0.5 * self.g.hess
            val = np.zeros(self.points.shape[:-1] + (self.n,) * 3)  # (..., a, b, d)
            grad = np.zeros(val.shape + (len(self.axes),))
            for position, op in enumerate((np.add, np.add, np.subtract)):
                # the differentiated index first, the other two in order
                v, d = np.moveaxis(val, position - 3, -3), np.moveaxis(grad, position - 4, -4)
                for s, axis in enumerate(self.axes):
                    op(v[..., axis, :, :], dg[..., s], out=v[..., axis, :, :])
                    op(d[..., axis, :, :, :], ddg[..., s, :], out=d[..., axis, :, :, :])
            self._gamma = hd.einsum("...cd,...abd->...cab", self.ginv, HyperDual(val, grad))
        return self._gamma

    @property
    def riemann(self):
        """Curvature values ``(..., a, b, c, d)`` in the space-form-positive
        orientation: contraction with orthonormal ``E_a, E_b`` in slots
        ``(a,b,a,b)`` gives the sectional curvature of their plane; exact
        zeros on a flat chart."""
        if self._riemann is None:
            if self.flat:
                self._riemann = np.zeros(self.points.shape[:-1] + (self.n,) * 4)
                return self._riemann
            gam = self.gamma
            # half[e,c,a,b] = d_a Gamma^e_bc + Gamma^e_af Gamma^f_bc; the
            # curvature endomorphism is half minus half with a and b swapped
            half = (np.einsum("...ebca->...ecab", self.scatter(gam.grad))
                    + np.einsum("...eaf,...fbc->...ecab", gam.val, gam.val))
            up = half - np.swapaxes(half, -1, -2)
            self._riemann = -np.einsum("...de,...ecab->...abcd", self.g.val, up)
        return self._riemann

    def sectional(self, E):
        """``K[..., x, y] = R(E_x, E_y, E_x, E_y)`` for the rows of the values
        ``E`` ``(..., v, a)``, oriented as :attr:`riemann`, contracted from the
        Christoffel jet in O(m n^4) for ``m`` seeded axes, not O(n^5): with
        ``F = E g``, ``P[u,v,e] = Gamma^e_bc E_u^b E_v^c``, ``Q[x,y,f] =
        Gamma^e_af E_x^a F_ye`` and ``A[s,u,v,w] = d_s Gamma^e_bc E_u^b E_v^c
        F_we`` (``s`` a seeded slot), ``-K[x,y] = E_x^s A[s,y,x,y] - E_y^s
        A[s,x,x,y] + Q[x,y,f] P[y,x,f] - Q[y,y,f] P[x,x,f]``.  Exact zeros
        on a flat chart."""
        if self.flat:
            return np.zeros(E.shape[:-1] + E.shape[-2:-1])
        gam = self.gamma
        F = hd.einsum("...va,...ab->...vb", E, self.g.val)
        P = hd.einsum("...ebc,...ub,...vc->...uve", gam.val, E, E)
        Q = hd.einsum("...eaf,...xa,...ye->...xyf", gam.val, E, F)
        A = hd.einsum("...ebcs,...ub,...vc,...we->...suvw", gam.grad, E, E, F)
        Es = E[..., self.axes]
        return -(np.einsum("...xs,...syxy->...xy", Es, A)
                 - np.einsum("...ys,...sxxy->...xy", Es, A)
                 + np.einsum("...xyf,...yxf->...xy", Q, P)
                 - np.einsum("...yyf,...xxf->...xy", Q, P))

    # -- differential operators at value level ----------------------------

    def divergence_of(self, X):
        """Divergence of a vector field given as a ``(..., a)`` jet (valid
        grads) on the seeded slots."""
        m = len(self.axes)
        if X.grad.shape[-1] != m:
            raise GeometryError(f"a jet with {X.grad.shape[-1]} derivative slots is not "
                                f"on the {m} seeded axes")
        dX = X.grad if m == self.n else X.grad[..., self.axes, :]
        return (np.einsum("...aa->...", dX)
                + np.einsum("...aab,...b->...", hd.value_of(self.gamma), X.val))


def cholesky(G, points, what="metric not positive definite"):
    """Cholesky factors ``L`` of the symmetric matrices ``G`` ``(..., v, v)``
    at ``points`` ``(..., n)``.  Raises :class:`GeometryError` ``"<what> at
    [x...]"`` naming the first point where ``G`` is not positive definite:
    where the factorisation fails, or a squared pivot ``L_jj^2`` is at most
    ``1e-24`` or at most ``1e-14 G_jj``.  ``L_jj^2`` is ``G_jj`` minus the
    squared projection, so exactly dependent rows leave a roundoff of order
    ``v eps G_jj`` there."""
    v = G.shape[-1]
    flat = G.reshape(-1, v, v)

    def factor(Gp):
        try:
            return np.linalg.cholesky(Gp)
        except np.linalg.LinAlgError:
            return np.full_like(Gp, np.nan)

    try:
        L = np.linalg.cholesky(flat)
    except np.linalg.LinAlgError:  # NaN pivots where it fails
        L = np.stack([factor(Gp) for Gp in flat])
    pivot2 = np.diagonal(L, axis1=-2, axis2=-1) ** 2
    ok = np.all(pivot2 > np.maximum(1e-24, 1e-14 * np.diagonal(flat, axis1=-2, axis2=-1)),
                axis=-1)
    bad = np.flatnonzero(~ok)
    if bad.size:
        node = points.reshape(-1, points.shape[-1])[bad[0]]
        raise GeometryError(f"{what} at {node.tolist()}")
    return L.reshape(G.shape)


def lower_inverse(L):
    """Inverses of the lower-triangular matrices ``L`` ``(..., v, v)`` with a
    non-zero diagonal, by forward substitution over the whole batch, one row
    at a time; the upper triangle of the result is exactly zero."""
    v = L.shape[-1]
    X = np.zeros(L.shape)
    for i in range(v):
        pivot = 1.0 / L[..., i, i]
        X[..., i, :i] = -np.einsum("...j,...jk->...k", L[..., i, :i],
                                   X[..., :i, :i]) * pivot[..., None]
        X[..., i, i] = pivot
    return X


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


@dataclass(frozen=True)
class Quadrature:
    """The rectangle rule of a closed chart on a grid, as data.

    ``grid`` is the resolution per axis and ``cell`` the coordinate volume
    of one grid cell.  ``nodes`` ``(N, n)`` are the nodes to evaluate, in
    lattice order: every node along the axes the integrand may vary along,
    every other axis pinned at its first node.  Each evaluated node stands
    for ``count`` nodes of the grid.
    """

    grid: list
    nodes: np.ndarray
    count: int
    cell: float

    def integrals(self, values, volume):
        """The integral of each ``(N,)`` array of the dict ``values`` at the
        nodes, where the volume element ``sqrt(det g)`` is ``volume``
        (:func:`_volume_element`): each weighted value taken ``count``
        times through exact products (see :func:`_repeated_fsum`), not one
        rounded product, summed exactly in node order, times ``cell``.  So
        an integrand that is constant along the pinned axes gives the full
        grid's bits."""
        return {key: _repeated_fsum(np.asarray(v, dtype=float) * volume, self.count)
                * self.cell for key, v in values.items()}


def rectangle_rule(m, grid, axes=None):
    """The :class:`Quadrature` of the closed chart ``m`` on ``grid`` (an
    int per axis, or one for every axis, each at least 4), spectrally
    accurate for analytic periodic integrands.

    ``axes`` (default: every axis) are the 0-based axes the integrand may
    vary along; only their nodes are evaluated, every other axis pinned at
    its first node.  The caller evaluates the nodes, in chunks or at once,
    alone or after other points, and hands the values to
    :meth:`Quadrature.integrals`.
    """
    if not m.closed:
        raise NonClosedChartError("integration requires all axes periodic")
    if isinstance(grid, (int, np.integer)):
        grid = [int(grid)] * m.dim
    if len(grid) != m.dim or any(res < 4 for res in grid):
        raise GeometryError(f"grid {list(grid)} needs {m.dim} resolutions of at least 4")
    axes = range(m.dim) if axes is None else axes
    # on a periodic axis the one-node lattice is the first node
    evaluated = [res if a in axes else 1 for a, res in enumerate(grid)]
    return Quadrature(
        grid=grid, nodes=grid_points(m, evaluated).reshape(-1, m.dim),
        count=math.prod(grid) // math.prod(evaluated),
        cell=math.prod(ax.period / res for ax, res in zip(m.axes, grid)))


def _repeated_fsum(v, count):
    """``math.fsum`` of every value of ``v`` repeated ``count`` times,
    without repeating them.

    Each value is split (Dekker, with the constant ``2^27 + 1``) into
    ``hi + lo`` of at most 26 significant bits each, so ``count * hi`` and
    ``count * lo`` are exact for ``count < 2^26``, and their correctly
    rounded sum has the bits of the repeated one.  Values that are not
    finite, or so large or small that a split or a product could overflow
    or lose bits, are repeated instead.
    """
    v = np.asarray(v, dtype=float).reshape(-1)
    mag = np.abs(v)
    if count == 1 or count >= 2 ** 26 or not np.all(
            (mag < 2.0 ** 960) & ((mag == 0.0) | (mag > 2.0 ** -900))):
        return math.fsum(np.repeat(v, count).tolist())
    c = v * 134217729.0  # 2^27 + 1
    hi = c - (c - v)
    lo = v - hi
    return math.fsum((np.concatenate([hi, lo]) * float(count)).tolist())


def integrate(m, f, grid, chunk, threads=1):
    """Integral of a scalar field over a closed chart (see :func:`rectangle_rule`).

    ``f`` maps a ``(N, n)`` point array to ``(N,)`` values, or to a dict of
    such arrays; a dict gives a dict of integrals from one sweep of the grid.
    """
    quad = rectangle_rule(m, grid)
    values = map_batched(f, quad.nodes, chunk=chunk, threads=threads)
    volume = _volume_element(m.metric_values(quad.nodes), quad.nodes)
    if isinstance(values, dict):
        return quad.integrals(values, volume)
    return quad.integrals({None: values}, volume)[None]
