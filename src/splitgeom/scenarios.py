"""Built-in scenario catalog: concrete charts with orthogonal splittings.

Each scenario bundles a :class:`~splitgeom.chart.ChartManifold`, a
:class:`~splitgeom.splitting.SplitStructure` and metadata (sampling boxes,
quadrature grids, which specialised checks apply); ``k``, the block
dimensions and closedness are read from the split and the chart.  Three
families live here:

* twisted flat tori -- flat periodic metric, frame rotated in the (1,2)
  coordinate plane by an angle depending on the last coordinate; the
  rotation makes cross-block second fundamental forms and integrability
  tensors non-zero while every curvature term stays zero,
* multiply warped products -- block diagonal metric
  ``g_base (+) u_2^2 g_2 (+) ... (+) u_k^2 g_k`` over a flat periodic base,
  with the warp functions ``u_i`` given as expressions in the base
  coordinates,
* a warped-and-twisted torus where no term of any identity vanishes.

Warped products satisfy the classical closed forms: ``H_i`` of a fiber
block equals ``-n_i grad(log u_i)``; its divergence and the mixed scalar
curvature reduce to base derivatives of the ``u_i``.  The latter two closed
forms require the warp gradients to be pairwise orthogonal (for a
one-dimensional base with two or more varying warps they acquire an extra
cross term); scenarios record whether they hold exactly in
``meta["sec2_exact"]``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import hyperdual as hd
from .chart import Axis, ChartManifold, GeometryError, sample_points
from .expr import Bin, Call, Neg, Num, diff, evaluate, evaluate_at, labelled, parse_expr
from .splitting import SplitStructure, coordinate_split, gram_schmidt

__all__ = [
    "Scenario",
    "build_twisted_torus",
    "build_warped",
    "build_warped_twisted",
    "warped_checks",
    "kproduct_catalog",
]

TWO_PI = 2 * math.pi


@dataclass
class Scenario:
    """A chart with an orthogonal k-splitting, the object every check reads."""

    name: str
    kind: str
    chart: ChartManifold
    split: SplitStructure
    sample_box: list | None = None
    meta: dict = field(default_factory=dict)

    @property
    def k(self):
        return self.split.k

    @property
    def dims(self):
        return self.split.dims

    @property
    def closed(self):
        return self.chart.closed

    def sample(self, count, rng):
        return sample_points(self.chart, count, rng, box=self.sample_box)


# -- twisted flat torus ------------------------------------------------------

def build_twisted_torus(dims, twist="sin(x{n})", name=None):
    """Flat ``T^n`` with the frame rotated in the (1,2)-plane by the twist angle.

    ``twist`` is an expression in the chart coordinates (``{n}`` expands to
    the last coordinate index); the distributions it turns must be periodic
    on the torus.
    """
    dims = tuple(dims)
    n = sum(dims)
    if n < 3:
        raise GeometryError("twisted torus needs dimension >= 3")
    twist_src = twist.format(n=n)
    twist_ast = _check_expression("twist", twist_src, _torus_points(n))
    name = name or f"twisted_torus_k{len(dims)}"
    chart = ChartManifold([Axis(0.0, TWO_PI)] * n, _eye(n), name=name)
    split = SplitStructure(dims, _rotated_frame(n, 0, twist_ast))
    _check_periodic_distributions(chart, split)
    # quadrature resolves the axes the twist reads
    grid = [32 if a in split.depends_on else 4 for a in range(n)]
    return Scenario(name=name, kind="twisted_torus", chart=chart, split=split,
                    meta={"twist": twist_src, "integral_grid": grid})


def _check_expression(label, src, pts):
    """Parse ``src`` over the coordinates of the points ``pts`` ``(N, n)``
    and evaluate it there, so that an error names the expression
    (``label``), not a metric or frame entry, and a domain error shows,
    with its point, while the scenario is built.  Returns the AST."""
    with labelled(label, src):
        ast = parse_expr(src, pts.shape[-1])
    evaluate_at(label, src, ast, pts)
    return ast


def _torus_points(n):
    """64 seeded random points of the torus ``T^n``."""
    return np.random.default_rng(1234).uniform(0.0, TWO_PI, size=(n, 64)).T


def _check_periodic_distributions(chart, split):
    """Raise :class:`GeometryError` unless each distribution of ``split`` is
    periodic along every periodic axis of ``chart``: its projector ``P_i``
    at the 16 sample points of :meth:`ChartManifold.validate` against
    ``P_i`` one period along, with that method's tolerance.  ``P_i = E_i^T
    E_i`` with ``E_i`` the rows of block ``i``, Euclidean-orthonormalised:
    a distribution is the span of its rows, whatever the metric.  The frame
    need not be periodic: a turn by ``pi`` flips a vector, not its line."""
    sample = sample_points(chart, 16, np.random.default_rng(0))
    axes = [a for a, ax in enumerate(chart.axes) if ax.periodic]
    eye = np.eye(chart.dim)
    pts = np.stack([sample] + [sample + chart.axes[a].period * eye[a] for a in axes])
    raw = hd.value_of(hd.stack(split.frame(list(np.moveaxis(pts, -1, 0)))))
    raw = np.broadcast_to(raw, pts.shape + (chart.dim,))
    E = [gram_schmidt(eye, raw[..., block, :], pts) for block in split.blocks]
    P = np.stack([np.einsum("...va,...vb->...ab", e, e) for e in E], axis=-3)
    scale = 1.0 + np.max(np.abs(P[0]))
    for a, shifted in zip(axes, P[1:]):
        moved = np.max(np.abs(shifted - P[0]), axis=(0, 2, 3))  # per distribution
        for i, dp in enumerate(moved, start=1):
            if dp > 1e-12 * scale:
                raise GeometryError(f"distribution {i} not periodic along axis {a + 1}: "
                                    f"|P_{i}(x+T)-P_{i}(x)| = {dp:.2e}")


def _rotated_frame(n, a, twist):
    """Coordinate frame of ``T^n`` with the vectors ``a, a+1`` rotated in
    their plane by the twist angle (an AST), as expressions."""
    c, s = Call("cos", twist), Call("sin", twist)
    rows = _eye(n)
    rows[a][a:a + 2] = [c, s]
    rows[a + 1][a:a + 2] = [Neg(s), c]
    return rows


def _eye(n):
    return [["1" if i == j else "0" for j in range(n)] for i in range(n)]


# -- multiply warped products -------------------------------------------------

def build_warped(base_dim, fiber_dims, warps, name="warped", grid=None):
    """Multiply warped product over a flat periodic base with flat fibers:
    ``warps`` are expression sources over the base coordinates
    ``x1..x<base_dim>``, one per fiber.  ``grid`` is the quadrature grid,
    by default 24 points per base axis and 4 per fiber axis."""
    if len(warps) != len(fiber_dims):
        raise GeometryError("one warp expression per fiber is required")
    if base_dim < 1 or any(d < 1 for d in fiber_dims):
        raise GeometryError("dimensions must be positive")
    n1 = base_dim
    n = n1 + sum(fiber_dims)
    trees = []  # u, its partials d_a u (zero along the fibers) and sum_a d_a d_a u
    for i, src in enumerate(warps, start=1):
        with labelled(f"warp {i}", src):
            u = parse_expr(src, n1)  # raises if a fiber coordinate appears
        du = [diff(u, a) for a in range(1, n + 1)]
        lap = diff(du[0], 1)
        for a in range(2, n1 + 1):
            lap = Bin("+", lap, diff(du[a - 1], a))
        trees.append((u, du, lap))

    entries = _eye(n)
    col = n1
    for (u, _, _), d in zip(trees, fiber_dims):
        for _ in range(d):
            entries[col][col] = Bin("^", u, Num(2.0))
            col += 1
    chart = ChartManifold([Axis(0.0, TWO_PI)] * n, entries, name=name)

    # warps must be positive on the sampled domain; the closed forms for
    # Div H_i and the mixed scalar curvature need pairwise orthogonal warp
    # gradients
    rng = np.random.default_rng(1234)
    pts = sample_points(chart, 64, rng)
    grads = []
    for i, (src, (u, du, _)) in enumerate(zip(warps, trees), start=1):
        bad = np.flatnonzero(evaluate_at(f"warp {i}", src, u, pts) <= 0.0)
        if bad.size:
            raise GeometryError(f"warp {src!r} is not positive on the chart "
                                f"at {pts[bad[0]].tolist()}")
        grads.append([evaluate_at(f"warp {i}", src, d, pts) for d in du])
    sec2 = all(np.max(np.abs(sum(a * b for a, b in zip(gi, gj)))) <= 1e-12
               for gi, gj in itertools.combinations(grads, 2))
    split = coordinate_split((n1,) + tuple(fiber_dims))

    # quadrature only needs resolution along axes the data depends on; warps
    # live on the base, everything else is constant on its axis
    if grid is None:
        grid = [24] * n1 + [4] * sum(fiber_dims)
    return Scenario(name=name, kind="warped", chart=chart, split=split,
                    meta={"warps": trees, "sec2_exact": sec2,
                          "integral_grid": grid})


def build_warped_twisted(u="2 + 0.5*sin(x1)", twist="x1 + sin(x1)",
                         name="warped_twisted_t3"):
    """Torus ``dt^2 + u(t)^2 (dx^2 + dy^2)`` with the fiber plane split along a
    frame rotated by a twist angle; every identity term is non-zero."""
    n = 3
    u2 = Bin("^", _check_expression("u", u, _torus_points(n)), Num(2.0))
    twist_ast = _check_expression("twist", twist, _torus_points(n))
    entries = [["1", "0", "0"], ["0", u2, "0"], ["0", "0", u2]]
    chart = ChartManifold([Axis(0.0, TWO_PI)] * n, entries, name=name)
    split = SplitStructure((1, 1, 1), _rotated_frame(n, 1, twist_ast))
    _check_periodic_distributions(chart, split)
    return Scenario(name=name, kind="warped_twisted", chart=chart, split=split,
                    meta={"integral_grid": [32, 4, 4]})


def warped_checks(scenario, ctx):
    """Per-point residuals of the warped-product closed forms on the
    :class:`~splitgeom.splitting.SplitContext` ``ctx`` of ``scenario``.

    Returns a dict of per-point arrays:

    * ``mean_curvature``: ``H_i + n_i grad(log u_i)`` componentwise,
    * ``div_mean_curvature``: ``Div H_i`` against
      ``-n_i (lap u_i)/u_i - (n_i^2 - n_i) |grad u_i|^2 / u_i^2`` with
      ``lap = Div grad`` on the flat base,
    * ``smix_warped``: mixed scalar curvature against
      ``sum_i n_i (-lap u_i)/u_i`` (geometers' Laplacian),
    * ``base_totally_geodesic``: sup of ``h`` on the base block,
    * ``mixed_pairs``: the worst cross-block component of ``h`` and ``T``
      over all distribution pairs; it vanishes on every multiply warped
      product.

    The closed forms read ``u_i``, its base partials and its base Laplacian
    from :func:`~splitgeom.expr.diff` trees (``meta["warps"]``) evaluated on
    plain point values, so they share no derivative code with the jets of
    the split engine.  The second and third residuals are only meaningful
    when ``meta["sec2_exact"]`` is true; otherwise the closed forms acquire
    warp-gradient cross terms and the raw residuals are still returned.
    """
    if scenario.kind != "warped":
        raise GeometryError("warped_checks needs a warped scenario")
    shape = ctx.points.shape[:-1]
    coords, memo = list(np.moveaxis(ctx.points, -1, 0)), {}

    def at(tree):
        return np.broadcast_to(evaluate(tree, coords, memo), shape)

    res_H = res_div = smix_expected = np.zeros(shape)
    for fiber, ((u, du, lap), ni) in enumerate(zip(scenario.meta["warps"], scenario.dims[1:]),
                                               start=2):
        u, lap_u = at(u), at(lap)
        du = np.stack([at(d) for d in du], axis=-1)
        grad_log = (1.0 / u)[..., None] * du  # on the flat base
        data = ctx.fundamental((fiber,))
        res_H = np.maximum(res_H, np.max(np.abs(data.H + ni * grad_log), axis=-1))

        grad_u2 = np.sum(du ** 2, axis=-1)
        rhs = -ni * lap_u / u - (ni * ni - ni) * grad_u2 / (u * u)
        res_div = np.maximum(res_div, np.abs(data.div_H - rhs))

        smix_expected = smix_expected + ni * (-lap_u) / u

    base = ctx.fundamental((1,))
    pairs = [np.maximum(*ctx.cross_block_sup(q))
             for q in itertools.combinations(range(1, ctx.k + 1), 2)]
    return {
        "mean_curvature": res_H,
        "div_mean_curvature": res_div,
        "smix_warped": np.abs(ctx.smix() - smix_expected),
        "base_totally_geodesic": np.max(np.abs(base.h_frame), axis=(-3, -2, -1),
                                        initial=0.0),
        "mixed_pairs": np.max(pairs, axis=0),
    }


# -- catalog ------------------------------------------------------------------

def kproduct_catalog():
    """Builders for the torus-based scenarios, keyed by name."""
    return {
        "twisted_torus_k2": lambda: build_twisted_torus((1, 2)),
        "twisted_torus_k3": lambda: build_twisted_torus((1, 1, 1)),
        "twisted_torus_k4": lambda: build_twisted_torus((1, 1, 1, 1)),
        "warped_t2": lambda: build_warped(1, (1,), ("2 + sin(x1)",), name="warped_t2"),
        "warped_t3_fiber2": lambda: build_warped(1, (2,), ("2 + sin(x1)",),
                                                 name="warped_t3_fiber2"),
        "warped_t3_k3": lambda: build_warped(1, (1, 1), ("2 + sin(x1)", "2 + cos(x1)"),
                                             name="warped_t3_k3"),
        "warped_t4_k4": lambda: build_warped(
            1, (1, 1, 1), ("2 + sin(x1)", "2 + cos(x1)", "2 + 0.5*sin(2*x1)"),
            name="warped_t4_k4"),
        # rational warp: the weighted integrands have a genuine spectral tail,
        # so quadrature convergence is observable (unlike trig-polynomial cases)
        "warped_t3_conv": lambda: build_warped(
            1, (1, 1), ("2 + sin(x1)", "1/(2 + cos(x1))"), name="warped_t3_conv",
            grid=[32, 4, 4]),
        "warped_t4_k3_ortho": lambda: build_warped(
            2, (1, 1), ("2 + sin(x1)", "2 + cos(x2)"), name="warped_t4_k3_ortho"),
        # two-dimensional base and a two-dimensional fiber: exercises the
        # multiplicity factors, and the only k=3 integrals with a 2-dim fiber block
        "warped_t5_k3_multi": lambda: build_warped(
            2, (2, 1), ("2 + sin(x1)", "2 + cos(x2)"), name="warped_t5_k3_multi",
            grid=[16, 16, 4, 4, 4]),
        "warped_twisted_t3": build_warped_twisted,
    }
