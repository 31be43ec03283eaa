"""Built-in scenario catalog: concrete charts with orthogonal splittings.

Each scenario bundles a :class:`~splitgeom.chart.ChartManifold`, a
:class:`~splitgeom.splitting.SplitStructure` and metadata (closedness,
sampling boxes, which specialised checks apply).  Three families live here:

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

import math
from dataclasses import dataclass, field

import numpy as np

from . import hyperdual as hd
from .chart import Axis, ChartManifold, GeometryError, sample_points
from .expr import evaluate, parse_expr
from .hyperdual import value_of
from .splitting import SplitContext, SplitStructure, SubsetIndex, coordinate_split

__all__ = [
    "Scenario",
    "WarpedSpec",
    "build_twisted_torus",
    "build_warped",
    "build_warped_twisted",
    "warped_checks",
    "kproduct_catalog",
]

TWO_PI = 2 * math.pi


@dataclass
class Scenario:
    name: str
    kind: str
    chart: ChartManifold
    split: SplitStructure
    closed: bool
    k: int
    dims: tuple
    sample_box: list | None = None
    meta: dict = field(default_factory=dict)

    def sample(self, count, rng):
        return sample_points(self.chart, count, rng, box=self.sample_box)

    def describe(self):
        return {
            "name": self.name,
            "kind": self.kind,
            "k": self.k,
            "dims": list(self.dims),
            "dim": self.chart.dim,
            "closed": self.closed,
        }


# -- twisted flat torus ------------------------------------------------------

def build_twisted_torus(k, dims, twist="sin(x{n})", name=None):
    """Flat ``T^n`` with the frame rotated in the (1,2)-plane by the twist angle.

    ``twist`` is an expression in the chart coordinates (``{n}`` expands to
    the last coordinate index); it must be periodic on the torus.
    """
    dims = tuple(dims)
    n = sum(dims)
    if n < 3:
        raise GeometryError("twisted torus needs dimension >= 3")
    twist_src = twist.format(n=n)
    twist_ast = parse_expr(twist_src, n)

    # the twist must be periodic along every axis it depends on
    probe = np.linspace(0.1, TWO_PI - 0.1, 7)
    pts = np.stack([probe] * n, axis=-1)
    base_vals = np.asarray(evaluate(twist_ast, [pts[..., a] for a in range(n)]), dtype=float)
    for a in range(n):
        shifted = pts.copy()
        shifted[..., a] += TWO_PI
        vals = np.asarray(evaluate(twist_ast, [shifted[..., b] for b in range(n)]), dtype=float)
        if np.max(np.abs(vals - base_vals)) > 1e-12 * (1.0 + np.max(np.abs(base_vals))):
            raise GeometryError(f"twist expression is not periodic along axis {a + 1}")

    metric = [["1" if a == b else "0" for b in range(n)] for a in range(n)]
    chart = ChartManifold([Axis(0.0, TWO_PI)] * n, metric,
                          name=name or f"twisted_torus_k{k}")

    def frame(coords):
        ref = coords[0]
        ang = evaluate(twist_ast, coords)
        ang = hd.as_jet(ang, ref)
        c, s = hd.cos(ang), hd.sin(ang)
        zero = hd.constant_like(ref, 0.0)
        one = hd.constant_like(ref, 1.0)
        vecs = []
        v0 = [c, s] + [zero] * (n - 2)
        v1 = [-s, c] + [zero] * (n - 2)
        vecs.append(v0)
        vecs.append(v1)
        for j in range(2, n):
            vecs.append([one if a == j else zero for a in range(n)])
        return vecs

    split = SplitStructure(dims, frame, name="twisted")
    grid = [4] * (n - 1) + [32]  # the twist depends on the last coordinate only
    return Scenario(name=name or f"twisted_torus_k{k}", kind="twisted_torus",
                    chart=chart, split=split, closed=True, k=k, dims=dims,
                    meta={"twist": twist_src, "integral_grid": grid})


def twisted_frame_oracle(twist_ast, points):
    """Hand-coded frame and brackets of the rotated frame (flat metric).

    With ``V_1 = cos f e_1 + sin f e_2``, ``V_2 = -sin f e_1 + cos f e_2``,
    ``V_j = e_j`` and ``f`` a function of the last coordinate only:
    ``[V_1, V_2] = 0``, ``[V_1, V_n] = -f' V_2``, ``[V_2, V_n] = f' V_1``,
    and the flat covariant derivatives are
    ``nabla_{V_n} V_1 = f' V_2``, ``nabla_{V_n} V_2 = -f' V_1``, rest zero.
    """
    points = np.asarray(points, dtype=float)
    n = points.shape[-1]
    xs = hd.seed_jets(points)
    f = evaluate(twist_ast, xs)
    fval = value_of(f)
    fprime = f.grad[..., n - 1] if hasattr(f, "grad") else np.zeros_like(fval)
    c, s = np.cos(fval), np.sin(fval)
    V = np.zeros(points.shape[:-1] + (n, n))
    V[..., 0, 0], V[..., 0, 1] = c, s
    V[..., 1, 0], V[..., 1, 1] = -s, c
    for j in range(2, n):
        V[..., j, j] = 1.0
    nabla = np.zeros(points.shape[:-1] + (n, n, n))  # nabla[a][b] = flat D_{V_a} V_b
    nabla[..., n - 1, 0, :] = fprime[..., None] * V[..., 1, :]
    nabla[..., n - 1, 1, :] = -fprime[..., None] * V[..., 0, :]
    return V, nabla, fprime


# -- multiply warped products -------------------------------------------------

@dataclass
class WarpedSpec:
    """Base dimension, fiber dimensions and warp expressions over the base."""

    base_dim: int
    fiber_dims: tuple
    warps: tuple  # expression sources over the base coordinates x1..x{base_dim}

    def __post_init__(self):
        if len(self.warps) != len(self.fiber_dims):
            raise GeometryError("one warp expression per fiber is required")
        if self.base_dim < 1 or any(d < 1 for d in self.fiber_dims):
            raise GeometryError("dimensions must be positive")


def build_warped(spec, name="warped"):
    """Multiply warped product over a flat periodic base with flat fibers."""
    n1 = spec.base_dim
    n = n1 + sum(spec.fiber_dims)
    warp_asts = []
    for src in spec.warps:
        ast = parse_expr(src, n)  # parsed on the full chart; may only use base coords
        base_only = parse_expr(src, n1)  # raises if a fiber coordinate appears
        del base_only
        warp_asts.append(ast)

    entries = [["0"] * n for _ in range(n)]
    for a in range(n1):
        entries[a][a] = "1"
    col = n1
    for u_src, d in zip(spec.warps, spec.fiber_dims):
        for _ in range(d):
            entries[col][col] = f"({u_src})^2"
            col += 1
    chart = ChartManifold([Axis(0.0, TWO_PI)] * n, entries, name=name)

    # warps must be positive on the sampled domain
    rng = np.random.default_rng(1234)
    pts = sample_points(chart, 64, rng)
    for src, ast in zip(spec.warps, warp_asts):
        vals = np.asarray(evaluate(ast, [pts[..., a] for a in range(n)]), dtype=float)
        if np.any(vals <= 0.0):
            raise GeometryError(f"warp {src!r} is not positive on the chart")

    dims = (n1,) + tuple(spec.fiber_dims)
    split = coordinate_split(dims, name="warped")
    k = len(dims)

    # the closed forms for Div H_i and the mixed scalar curvature need
    # pairwise orthogonal warp gradients
    sec2 = True
    xs = hd.seed_jets(pts)
    grads = []
    for ast in warp_asts:
        j = evaluate(ast, xs)
        if isinstance(j, hd.HyperDual):
            grads.append(j.grad[..., :n1])
        else:
            grads.append(np.zeros(pts.shape[:-1] + (n1,)))
    for i in range(len(grads)):
        for j in range(i + 1, len(grads)):
            if np.max(np.abs(np.sum(grads[i] * grads[j], axis=-1))) > 1e-12:
                sec2 = False

    # quadrature only needs resolution along axes the data depends on; warps
    # live on the base, everything else is constant on its axis
    grid = [24] * n1 + [4] * sum(spec.fiber_dims)
    return Scenario(name=name, kind="warped", chart=chart, split=split, closed=True,
                    k=k, dims=dims, meta={"spec": spec, "warp_asts": warp_asts,
                                          "sec2_exact": sec2, "integral_grid": grid})


def build_warped_twisted(u_src="2 + 0.5*sin(x1)", twist_src="x1 + sin(x1)",
                         name="warped_twisted_t3"):
    """Torus ``dt^2 + u(t)^2 (dx^2 + dy^2)`` with the fiber plane split along a
    frame rotated by a twist angle; every identity term is non-zero."""
    n = 3
    u_ast = parse_expr(u_src, n)
    twist_ast = parse_expr(twist_src, n)
    entries = [["1", "0", "0"],
               ["0", f"({u_src})^2", "0"],
               ["0", "0", f"({u_src})^2"]]
    chart = ChartManifold([Axis(0.0, TWO_PI)] * 3, entries, name=name)

    def frame(coords):
        ref = coords[0]
        ang = hd.as_jet(evaluate(twist_ast, coords), ref)
        c, s = hd.cos(ang), hd.sin(ang)
        zero = hd.constant_like(ref, 0.0)
        one = hd.constant_like(ref, 1.0)
        return [
            [one, zero, zero],
            [zero, c, s],
            [zero, -s, c],
        ]

    split = SplitStructure((1, 1, 1), frame, name="warped_twisted")
    return Scenario(name=name, kind="warped_twisted", chart=chart, split=split,
                    closed=True, k=3, dims=(1, 1, 1),
                    meta={"u": u_src, "twist": twist_src, "integral_grid": [32, 4, 4]})


def warped_checks(scenario, points):
    """Residuals of the warped-product closed forms at ``points``.

    Returns a dict of max-abs residuals:

    * ``mean_curvature``: ``H_i + n_i grad(log u_i)`` componentwise,
    * ``div_mean_curvature``: ``Div H_i`` against
      ``-n_i (lap u_i)/u_i - (n_i^2 - n_i) |grad u_i|^2 / u_i^2`` with
      ``lap = Div grad`` on the flat base,
    * ``smix_warped``: mixed scalar curvature against
      ``sum_i n_i (-lap u_i)/u_i`` (geometers' Laplacian),
    * ``base_totally_geodesic``: sup of ``h`` on the base block.

    The second and third residuals are only meaningful when
    ``meta["sec2_exact"]`` is true; otherwise the closed forms acquire
    warp-gradient cross terms and the raw residuals are still returned.
    """
    if scenario.kind != "warped":
        raise GeometryError("warped_checks needs a warped scenario")
    spec = scenario.meta["spec"]
    warp_asts = scenario.meta["warp_asts"]
    n1 = spec.base_dim
    ctx = SplitContext(scenario.chart, scenario.split, points)
    coords = ctx.frame.coords
    out = {}

    res_H = 0.0
    res_div = 0.0
    smix_expected = np.zeros(ctx.points.shape[:-1])
    for fiber, (ast, ni) in enumerate(zip(warp_asts, spec.fiber_dims), start=2):
        u = hd.as_jet(evaluate(ast, coords), coords[0])
        grad_log = ctx.frame.grad_field(hd.log(u))
        data = ctx.fundamental(SubsetIndex((fiber,)))
        res_H = max(res_H, float(np.max(np.abs(data.H.val + ni * grad_log.val))))

        div_H = ctx.divergence_values(data.H)
        lap_u = np.sum(np.stack([u.hess[..., a, a] for a in range(n1)], axis=-1), axis=-1)
        grad_u2 = np.sum(u.grad[..., :n1] ** 2, axis=-1)
        rhs = -ni * lap_u / u.val - (ni * ni - ni) * grad_u2 / (u.val * u.val)
        res_div = max(res_div, float(np.max(np.abs(div_H - rhs))))

        smix_expected = smix_expected + ni * (-lap_u) / u.val

    out["mean_curvature"] = res_H
    out["div_mean_curvature"] = res_div
    out["smix_warped"] = float(np.max(np.abs(ctx.smix() - smix_expected)))
    base = ctx.fundamental(SubsetIndex((1,)))
    out["base_totally_geodesic"] = float(np.max(np.abs(base.h_frame), initial=0.0))
    out["sec2_exact"] = scenario.meta["sec2_exact"]
    return out


# -- catalog ------------------------------------------------------------------

def _build_conv_scenario():
    # rational warp: the weighted integrands have a genuine spectral tail,
    # so quadrature convergence is observable (unlike trig-polynomial cases)
    scn = build_warped(WarpedSpec(1, (1, 1), ("2 + sin(x1)", "1/(2 + cos(x1))")),
                       name="warped_t3_conv")
    scn.meta["integral_grid"] = [32, 4, 4]
    return scn


def _build_multi_scenario():
    # two-dimensional base and a two-dimensional fiber: exercises the
    # multiplicity factors pointwise; the dimension-5 quadrature sweep adds
    # nothing the other closed scenarios do not cover, so skip integrals
    scn = build_warped(WarpedSpec(2, (2, 1), ("2 + sin(x1)", "2 + cos(x2)")),
                       name="warped_t5_k3_multi")
    scn.meta["no_integral"] = True
    return scn


def kproduct_catalog():
    """Builders for the torus-based scenarios, keyed by name."""
    return {
        "twisted_torus_k2": lambda: build_twisted_torus(2, (1, 2), name="twisted_torus_k2"),
        "twisted_torus_k3": lambda: build_twisted_torus(3, (1, 1, 1), name="twisted_torus_k3"),
        "twisted_torus_k4": lambda: build_twisted_torus(4, (1, 1, 1, 1), name="twisted_torus_k4"),
        "warped_t2": lambda: build_warped(
            WarpedSpec(1, (1,), ("2 + sin(x1)",)), name="warped_t2"),
        "warped_t3_fiber2": lambda: build_warped(
            WarpedSpec(1, (2,), ("2 + sin(x1)",)), name="warped_t3_fiber2"),
        "warped_t3_k3": lambda: build_warped(
            WarpedSpec(1, (1, 1), ("2 + sin(x1)", "2 + cos(x1)")), name="warped_t3_k3"),
        "warped_t4_k4": lambda: build_warped(
            WarpedSpec(1, (1, 1, 1),
                       ("2 + sin(x1)", "2 + cos(x1)", "2 + 0.5*sin(2*x1)")),
            name="warped_t4_k4"),
        "warped_t3_conv": _build_conv_scenario,
        "warped_t4_k3_ortho": lambda: build_warped(
            WarpedSpec(2, (1, 1), ("2 + sin(x1)", "2 + cos(x2)")),
            name="warped_t4_k3_ortho"),
        "warped_t5_k3_multi": _build_multi_scenario,
        "warped_twisted_t3": build_warped_twisted,
    }
