"""The divergence identities of an orthogonal k-splitting, as checks.

Every identity is evaluated as a residual LHS - RHS in which both sides run
through independent machinery: the left side ``Div(sum_q c_q H_q)`` is the
coefficient sum ``sum_q c_q Div H_q`` of the exact (jet-differentiated)
mean-curvature divergences of the subsets (``FundamentalData.div_H``), the
right side sums curvature and fundamental-tensor values in the adapted
frame.

Each split identity is one row of :data:`FORMULAS`, written next to its
formula: ``main``, ``aux:r`` (and ``aux_printed:r``, a right side quoted for
it that does not balance, checked only when a filter names it),
``companion`` and the k = 3 display ``ck2_k3_display``, which balances
only after integration.  A row is two coefficient lists, subsets for the
left side and terms of :data:`TERMS` for the right side, and one evaluator,
:meth:`_Evaluator.sides`, forms ``div``, ``rhs``, the residual and the term
scale of every row.  ``smix_lemma`` (``2 S_mix = sum_i S_mix(D_i,
D_i^perp)``) has no divergence side and is a method of its own.

Integral checks quadrate the right-hand sides over closed charts; by the
divergence theorem every integral vanishes.  Ratios are reported against
``max(L1(integrand), L1(term scale))``.  The term scale of a row is the
largest of ``|Div|`` and its ``|c_t t|``, so that integrands which cancel
pointwise (the twisted flat tori) are judged against the size of what
cancelled rather than against float noise; only ``ck2_k3_display``'s is
``|integrand|``.

One table, :data:`CHECKS`, holds every report name ``verify`` can emit:
these identities, the warped-product closed forms, propagation and
umbilicity predicates, and the hypersurface checks.  Each row gives the
report kind (pointwise, integral, predicate), the :class:`Tolerances` field
of its gate, the scenarios it applies to and the geometry it reads (a
``SplitContext``, a hypersurface's principal bundle, whose eigenframe needs
no context, or the quadrature nodes).  One resolver, :func:`select_checks`,
turns report names into rows of it, and one evaluator, :func:`run_checks`,
evaluates the rows that read one geometry, of every kind, from one
geometry per chunk of one point set: the sample points and the quadrature
nodes.  ``verify`` and the adapters :func:`pointwise_fields`,
:func:`integral_checks_batch` and :func:`available_identities` read the
table through them alone.
"""

from __future__ import annotations

import functools
import itertools
import math
import time
from collections import namedtuple
from dataclasses import dataclass, fields

import numpy as np

from .chart import NonClosedChartError, _volume_element, map_batched, rectangle_rule
from .hypersurface import (codazzi_checks, dperp_integrability, hypersurface_identity,
                           principal_bundle, shape_data)
from .scenarios import Scenario, warped_checks
from .splitting import SplitContext, subsets

__all__ = [
    "CheckReport",
    "Tolerances",
    "POINTWISE",
    "INTEGRAL",
    "PREDICATE",
    "Formula",
    "TERMS",
    "FORMULAS",
    "CHECKS",
    "Check",
    "Row",
    "select_checks",
    "run_checks",
    "pointwise_fields",
    "integral_checks_batch",
    "available_identities",
]


@dataclass
class Tolerances:
    """The gates of the checks; each row of :data:`CHECKS` names its field."""

    pointwise: float = 1e-8   # relative to 1 + largest |term|
    integral: float = 1e-10   # |integral| / normalizer
    predicate: float = 1e-9
    codazzi: float = 1e-11
    kmix: float = 1e-8
    surface_identity: float = 1e-11


@dataclass
class CheckReport:
    identity: str
    scenario: str
    kind: str                      # "pointwise" | "integral" | "predicate"
    n_points: int
    tolerance: float
    verdict: str                   # "pass" | "fail"
    max_abs_residual: float | None = None
    max_rel_residual: float | None = None
    integral_value: float | None = None
    normalizer: float | None = None
    integral_ratio: float | None = None
    stokes_value: float | None = None
    stokes_ratio: float | None = None
    grid: list | None = None
    note: str = ""
    wall_time: float = 0.0

    def to_dict(self):
        """The report body: every field but the wall time, ``grid`` copied."""
        out = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "wall_time"}
        if self.grid is not None:
            out["grid"] = list(self.grid)
        return out


# -- the split identities as rows of coefficients -----------------------------------

@dataclass(frozen=True)
class Formula:
    """One split identity ``sum_q c_q Div H_q = sum_t c_t t`` as two lists of
    coefficients, each side summed from zero in its listed order: ``lhs``
    holds ``(c_q, q)`` for subsets ``q``, ``rhs`` holds ``(c_t, t)`` for keys
    ``t = (name, *args)`` of :data:`TERMS`, or for another formula, which
    adds its right side and its term scale.  The term scale is the largest
    of ``|Div|`` and every ``|c_t t|``."""

    lhs: tuple
    rhs: tuple
    # the term scale is |rhs| instead: ck2_k3_display's, which FAILs the
    # display where its integrand cancels pointwise (a twisted flat torus)
    rhs_scale: bool = False


def _split_sums(ctx, q):
    """``V = sum_{i in q} H_i`` and ``W = sum_{j not in q} H_j``, as
    ``sum_i H_i - V``."""
    H = [ctx.H_values(s) for s in subsets(1, ctx.k)]
    V = np.sum([H[i - 1] for i in q], axis=0)
    return V, np.sum(H, axis=0) - V


# the right-side terms of the split identities, by name, from an _Evaluator;
# a key adds the arguments: ("h2", q) is |h_q|^2
TERMS = {
    "smix": lambda ev: ev.ctx.smix(),                               # S_mix
    "h2": lambda ev, q: ev.ctx.fundamental(q).h_norm2,              # |h_q|^2
    "H2": lambda ev, q: ev.ctx.fundamental(q).H_norm2,              # |H_q|^2
    "T2": lambda ev, q: ev.ctx.fundamental(q).t_norm2,              # |T_q|^2
    # |h_q|^2 - |T_q|^2
    "h2-T2": lambda ev, q: ev.term(("h2", q)) - ev.term(("T2", q)),
    # sum_i |H_i|^2 and <H_i, H_j>
    "sumH2": lambda ev: np.sum([ev.term(("H2", q)) for q in subsets(1, ev.k)], axis=0),
    "HiHj": lambda ev, i, j: ev.ctx.inner_values(ev.ctx.H_values((i,)), ev.ctx.H_values((j,))),
    # <V, W> and <H_q, W> (see _split_sums)
    "VW": lambda ev, q: ev.ctx.inner_values(*_split_sums(ev.ctx, q)),
    "HqW": lambda ev, q: ev.ctx.inner_values(ev.ctx.H_values(q), _split_sums(ev.ctx, q)[1]),
}


def _each(qs, *terms):
    """``(c, (name, q))`` for each subset ``q`` of ``qs`` and each
    ``(c, name)`` of ``terms``, subset by subset."""
    return tuple((c, (name, q)) for q in qs for c, name in terms)


def _main(k):
    # Div( sum_{r in rset} sum_{q in S(r,k)} H_q )
    #   = |rset| S_mix + sum_{r in rset} sum_q (|h_q|^2 - |H_q|^2 - |T_q|^2),
    # rset = {1, k-1} as a set: at k = 2 the classical two-distribution
    # identity, with H_1, H_2 and S_mix once each
    rset = sorted({1, k - 1})
    qs = [q for r in rset for q in subsets(r, k)]
    return Formula(tuple((1, q) for q in qs),
                   ((len(rset), ("smix",)),) + _each(qs, (1, "h2"), (-1, "H2"), (-1, "T2")))


def _aux(k, r):
    # with C = binom(k-2, r-1), V = sum_{i in q} H_i, W = sum_{j not in q} H_j:
    # Div( sum_{q in S(r,k)} H_q - C sum_i H_i )
    #   = sum_q (<V, W> - |H_q|^2 - <H_q, W>) + C sum_i |H_i|^2.
    # The left field vanishes (sum_q H_q = C sum_i H_i), so the statement is
    # that the right side does; both are still computed in full.
    C = math.comb(k - 2, r - 1)
    qs = subsets(r, k)
    return Formula(tuple((1, q) for q in qs) + tuple((-C, q) for q in subsets(1, k)),
                   _each(qs, (1, "VW"), (-1, "H2"), (-1, "HqW")) + ((C, ("sumH2",)),))


def _aux_printed(k, r):
    # aux:r's left side against a right side sometimes quoted for it, which
    # does not balance: sum_q (|H_q|^2 + <V, W> - r <H_q, W>)
    return Formula(_aux(k, r).lhs, _each(subsets(r, k), (1, "H2"), (1, "VW"), (-r, "HqW")))


def _companion(k):
    # 2 Div(sum_i H_i) = main's right side - aux:k-1's, under both term scales
    return Formula(tuple((2, q) for q in subsets(1, k)), ((1, _main(k)), (-1, _aux(k, k - 1))))


def _ck2_k3_display(k):
    # k = 3: half the companion integrand, rewritten; it balances only
    # after integration, so its left side is 0:
    # 0 = S_mix - sum_i |H_i|^2 - sum_{i<j} <H_i, H_j>
    #     + (1/2) sum_{q in S(1,3), then S(2,3)} (|h_q|^2 - |T_q|^2)
    return Formula((), ((1, ("smix",)),) + _each(subsets(1, 3), (-1, "H2"), (0.5, "h2-T2"))
                   + tuple((-1, ("HiHj",) + q) for q in subsets(2, 3))
                   + _each(subsets(2, 3), (0.5, "h2-T2")), rhs_scale=True)


# every split identity with a divergence side: its row for k (and r)
FORMULAS = {"main": _main, "aux": _aux, "aux_printed": _aux_printed,
            "companion": _companion, "ck2_k3_display": _ck2_k3_display}

# each row is built once, not once per chunk
_formula = functools.cache(lambda name, k, *args: FORMULAS[name](k, *args))


class _Evaluator:
    """The split identities over one shared :class:`SplitContext`: one memo
    of their terms and sides, and the predicates that read the context."""

    def __init__(self, ctx):
        self.ctx = ctx
        self.k = ctx.k
        self._memo = {}

    def _cached(self, key, fn):
        if key not in self._memo:
            self._memo[key] = fn()
        return self._memo[key]

    def term(self, key):
        """The per-point value of the :data:`TERMS` key ``(name, *args)``."""
        return self._cached(key, lambda: TERMS[key[0]](self, *key[1:]))

    def identity(self, name, *args):
        """The sides of the identity ``name`` (:data:`FORMULAS`) for ``args``."""
        return self.sides(_formula(name, self.k, *args))

    def sides(self, row):
        """``{"residual", "div", "rhs", "max_term"}`` of the :class:`Formula`
        ``row`` at each point: ``div`` its left side from the subsets'
        ``div_H``, ``rhs`` its right side from the terms, ``residual = div -
        rhs`` and ``max_term`` its term scale."""
        return self._cached(row, lambda: self._sides(row))

    def _sides(self, row):
        # the sums own their arrays, so they add in place
        div = np.zeros(self.ctx.points.shape[:-1])
        for c, q in row.lhs:
            div += c * self.ctx.fundamental(q).div_H
        rhs, sizes = np.zeros_like(div), [div]
        for c, t in row.rhs:
            part = self.sides(t) if isinstance(t, Formula) else None
            value = c * (part["rhs"] if part else self.term(t))
            rhs += value
            sizes.append(abs(c) * part["max_term"] if part else value)
        max_term = np.abs(rhs) if row.rhs_scale else np.max(np.abs(sizes), axis=0)
        return {"residual": div - rhs, "div": div, "rhs": rhs, "max_term": max_term}

    # -- lemma: pair-split decomposition of the mixed scalar curvature ----------

    def smix_lemma(self):
        ctx = self.ctx
        total = np.zeros(ctx.points.shape[:-1])
        for i in range(1, self.k + 1):
            total = total + ctx.smix_pairsplit(i)
        smix2 = 2.0 * ctx.smix()
        max_term = np.maximum(np.abs(smix2), np.abs(total))
        return {"residual": smix2 - total, "div": smix2, "rhs": total,
                "max_term": max_term}

    # -- propagation of the mixed flags and the umbilic norm identity ------------

    def propagation(self):
        """Per-point sup of the cross-block components of ``h_q`` (``sup_h``)
        and ``T_q`` (``sup_t``) over the subsets with ``2 < r < k``: the
        inductive propagation of the mixed flags of the pairs."""
        sup_h = sup_t = np.zeros(self.ctx.points.shape[:-1])
        for r in range(3, self.k):
            for q in subsets(r, self.k):
                h, t = self.ctx.cross_block_sup(q)
                sup_h, sup_t = np.maximum(sup_h, h), np.maximum(sup_t, t)
        return {"residual": np.maximum(sup_h, sup_t), "sup_h": sup_h, "sup_t": sup_t}

    def umbilicity(self):
        """Per-point residual of the umbilic norm identity
        ``|h_q|^2 - |H_q|^2 = - sum_i ((n_i - 1)/n_i) |Pperp_q H_{q(i)}|^2``
        over every subset with ``r < k`` (valid for totally umbilical
        blocks, mixed totally geodesic pairs and orthogonal blockwise mean
        curvatures)."""
        ctx, k = self.ctx, self.k
        P = ctx.projectors()
        worst = np.zeros(ctx.points.shape[:-1])
        for q in (q for r in range(1, k) for q in subsets(r, k)):
            d = ctx.fundamental(q)
            complement = [j for j in range(1, k + 1) if j not in q]
            rhs = np.zeros_like(worst)
            for i in q:
                ni = ctx.split.dims[i - 1]
                Hi = ctx.H_values((i,))
                proj = np.zeros_like(Hi)
                for j in complement:
                    proj += np.einsum("...ab,...b->...a", P[..., j - 1, :, :], Hi)
                rhs = rhs - (ni - 1.0) / ni * ctx.inner_values(proj, proj)
            worst = np.maximum(worst, np.abs(d.h_norm2 - d.H_norm2 - rhs))
        return {"residual": worst}


# -- the check table ---------------------------------------------------------------

POINTWISE = "pointwise"
INTEGRAL = "integral"
PREDICATE = "predicate"

# the geometry a check reads, built once per chunk of a scenario's points:
# its samples, then the quadrature nodes of its grid (see run_checks)
CONTEXT = "context"   # an _Evaluator over a SplitContext
BUNDLE = "bundle"     # a hypersurface principal_bundle
GRID = "grid"         # the quadrature nodes themselves

# the scenarios a check exists on, by rule name
APPLIES = {
    "split": lambda scn: scn.kind != "hypersurface",
    "closed split": lambda scn: scn.kind != "hypersurface" and scn.closed,
    "warped": lambda scn: scn.kind == "warped",
    "sec2_exact warped": lambda scn: scn.kind == "warped" and scn.meta["sec2_exact"],
    # H of the base block vanishes: only a fiber of dimension >= 2 gives the
    # umbilic norm identity a non-zero side
    "sec2_exact warped, a fiber of dim >= 2": lambda scn: (
        scn.kind == "warped" and scn.meta["sec2_exact"] and max(scn.dims[1:]) >= 2),
    "hypersurface": lambda scn: scn.kind == "hypersurface",
    # the eigenvector derivatives need every principal curvature simple
    "hypersurface with simple curvatures": lambda scn: (
        scn.kind == "hypersurface" and all(d == 1 for d in scn.dims)),
    "closed 2-dim hypersurface": lambda scn: (scn.kind == "hypersurface" and scn.closed
                                              and scn.chart.dim == 2),
}


@dataclass(frozen=True)
class Check:
    """One row of the check table: the reports named ``name`` of one ``kind``.

    ``run(scenario, geometry, *args)`` returns per-point arrays: ``residual``
    (and a term scale ``max_term`` where a pointwise check has one), or
    ``rhs``, ``max_term`` and optionally ``div`` for an integral check.
    ``tol`` names the :class:`Tolerances` field of the gate
    (``None``: exact); ``applies`` an :data:`APPLIES` rule.  Ranged checks
    are named ``name:r`` with ``2 <= r <= k-1``.  ``summary`` gives a
    predicate's residual and note (default: the largest ``|residual|``, no
    note).
    """

    name: str
    kind: str
    geometry: str
    tol: str | None
    run: object
    applies: str = "split"
    default: bool = True          # run when no identity filter is given
    ranged: bool = False
    min_k: int = 2
    max_k: int | None = None
    summary: object = None

    def names(self, k):
        """``(name, args)`` of the reports of this row for ``k`` distributions."""
        if self.ranged:
            return [(f"{self.name}:{r}", (r,)) for r in range(2, k)]
        return [(self.name, ())] if self.min_k <= k <= (self.max_k or k) else []


# one selected report: its name, its table row and the arguments of its run
Row = namedtuple("Row", "name check args")


def _identity(name):
    return lambda scn, ev, *args: ev.identity(name, *args)


def _warped_form(key):
    # one warped_checks call per context serves every warped closed form
    return lambda scn, ev: {"residual": ev._cached(
        "warped", lambda: warped_checks(scn, ev.ctx))[key]}


def _kmix(scn, b):
    # the eigenframe-plane curvatures of each pair against n_i n_j (c + mu_i mu_j)
    K, mu, dims, c = b["frame"].sectional(b["E"]), b["mu"], scn.dims, scn.ambient_curv
    worst = np.zeros(mu.shape[:-1])
    for i, j in itertools.combinations(range(1, scn.k + 1), 2):
        mixed = sum(K[..., a, e] for a in scn.split.block(i) for e in scn.split.block(j))
        want = dims[i - 1] * dims[j - 1] * (c + mu[..., i - 1] * mu[..., j - 1])
        worst = np.maximum(worst, np.abs(mixed - want))
    return {"residual": worst}


def _codazzi(scn, b):
    res = codazzi_checks(scn, b)
    return {"residual": np.max([v for key, v in res.items() if key != "scale"], axis=0)}


def _dperp(scn, b):
    d = dperp_integrability(scn, b)
    return {**d, "residual": (d["cal_zero"] != d["bracket_zero"]).astype(float)}


def _dperp_summary(value):
    # the share of points where the two routes disagree, and both routes' sups
    note = " ".join([f"sup_cal={np.max(value('cal')):.6e}",
                     f"sup_bracket={np.max(value('bracket')):.6e}",
                     f"cal_zero={bool(np.all(value('cal_zero')))}",
                     f"bracket_zero={bool(np.all(value('bracket_zero')))}"])
    return float(np.mean(value("residual"))), note


def _total_curvature(scn, nodes):
    # intrinsic curvature of a surface in a space form; the area element is
    # its term scale, so the normalizer is max(L1(K), area)
    K = scn.ambient_curv + np.linalg.det(shape_data(scn, nodes)["A"])
    return {"rhs": K, "max_term": np.ones(nodes.shape[0])}


_POINTWISE = {"kind": POINTWISE, "geometry": CONTEXT, "tol": "pointwise"}
_INTEGRAL = {"kind": INTEGRAL, "geometry": CONTEXT, "tol": "integral",
             "applies": "closed split"}
_WARPED = {"kind": PREDICATE, "geometry": CONTEXT, "tol": "predicate", "applies": "warped"}
_SEC2 = {**_WARPED, "applies": "sec2_exact warped"}
_SURFACE = {"geometry": BUNDLE, "applies": "hypersurface"}
_SIMPLE = {**_SURFACE, "applies": "hypersurface with simple curvatures"}

# every report verify can emit, in report order
CHECKS = (
    Check("main", run=_identity("main"), **_POINTWISE),
    Check("smix_lemma", run=lambda scn, ev: ev.smix_lemma(), **_POINTWISE),
    Check("aux", run=_identity("aux"), ranged=True, **_POINTWISE),
    Check("companion", run=_identity("companion"), min_k=3, **_POINTWISE),
    # the alternative aux right-hand side, reported for reference only
    Check("aux_printed", run=_identity("aux_printed"), default=False, ranged=True,
          **_POINTWISE),
    Check("main", run=_identity("main"), **_INTEGRAL),
    Check("aux", run=_identity("aux"), ranged=True, **_INTEGRAL),
    Check("companion", run=_identity("companion"), min_k=3, **_INTEGRAL),
    # the display balances only after integration
    Check("ck2_k3_display", run=_identity("ck2_k3_display"), min_k=3, max_k=3,
          **_INTEGRAL),
    Check("warped_mean_curvature", run=_warped_form("mean_curvature"), **_WARPED),
    Check("warped_base_totally_geodesic", run=_warped_form("base_totally_geodesic"),
          **_WARPED),
    Check("warped_div_mean_curvature", run=_warped_form("div_mean_curvature"), **_SEC2),
    Check("warped_smix_warped", run=_warped_form("smix_warped"), **_SEC2),
    Check("warped_mixed_pairs", run=_warped_form("mixed_pairs"), **_WARPED),
    # k >= 4 is the only case with subsets of size 2 < r < k
    Check("warped_propagation", run=lambda scn, ev: ev.propagation(), min_k=4, **_WARPED),
    Check("warped_umbilicity", run=lambda scn, ev: ev.umbilicity(),
          **{**_SEC2, "applies": "sec2_exact warped, a fiber of dim >= 2"}),
    Check("kmix_pairs", POINTWISE, tol="kmix", run=_kmix, **_SURFACE),
    Check("codazzi", POINTWISE, tol="codazzi", run=_codazzi, **_SIMPLE),
    Check("surface_identity", POINTWISE, tol="surface_identity",
          run=lambda scn, b: {"residual": hypersurface_identity(scn, b)["residual"]},
          max_k=3, **_SURFACE),
    Check("dperp_integrability", PREDICATE, tol=None, run=_dperp, min_k=3,
          summary=_dperp_summary, **_SIMPLE),
    Check("total_curvature", INTEGRAL, GRID, "integral", _total_curvature,
          applies="closed 2-dim hypersurface"),
)


def available_identities(k):
    """The pointwise identities checked by default for ``k`` distributions."""
    return [name for c in CHECKS if c.kind == POINTWISE and c.geometry == CONTEXT
            and c.default for name, _ in c.names(k)]


def select_checks(scn, requested=None):
    """The :class:`Row` of every report to run on the scenario ``scn``, in
    table order: the default rows that apply, or the applicable rows named
    in ``requested``.  An unknown or inapplicable name, an empty
    ``requested``, or a scenario to which no default check applies raises
    ``ValueError``."""
    rows = [Row(name, c, args) for c in CHECKS if APPLIES[c.applies](scn)
            for name, args in c.names(scn.k)]
    if requested is None:
        rows = [row for row in rows if row.check.default]
        if not rows:
            raise ValueError(f"no check applies to scenario {scn.name}")
        return rows
    known = ", ".join(dict.fromkeys(row.name for row in rows))
    for name in requested:
        if not any(row.name == name for row in rows):
            head, _, r = name.partition(":")
            ranged = r.isdigit() and any(c.ranged and c.name == head for c in CHECKS)
            why = (f"; r out of range: need 2 <= r <= k-1, got r={int(r)}, k={scn.k}"
                   if ranged and not 2 <= int(r) <= scn.k - 1 else "")
            raise ValueError(f"unknown identity {name!r} for scenario {scn.name}; "
                             f"known: {known}{why}")
    if not requested:
        raise ValueError(f"empty identities filter for scenario {scn.name}; known: {known}")
    return [row for row in rows if row.name in requested]


# -- evaluation -------------------------------------------------------------------

def _geometry(scn, geometry, pts):
    """The ``geometry`` of ``scn`` at ``pts`` and the metric values there."""
    if geometry == CONTEXT:
        ev = _Evaluator(SplitContext(scn.chart, scn.split, pts))
        return ev, ev.ctx.g_val
    if geometry == BUNDLE:
        return principal_bundle(scn, pts), None   # no integral reads a bundle
    return pts, scn.chart.metric_values(pts)


# doubles in each of the widest jets of the geometries that a run's workers
# hold at once: about 1 MiB
BUDGET = 2 ** 17


def _chunk_size(n, axes, threads):
    """Points per chunk on an ``n``-dimensional chart whose jets are seeded
    along ``axes`` (None: every axis), for ``threads`` workers that each
    hold one chunk's geometry: ``BUDGET`` doubles over ``threads`` times
    the ``n * n * m * max(n, m)`` per point of the widest jets, the
    order-2 frame ``(..., n, n, m, m)`` and the order-1 Christoffel
    symbols ``(..., n, n, n, m)``, for ``m`` seeded axes.  So the run's
    memory does not grow with ``threads``; its chunks shrink instead."""
    m = n if axes is None else max(1, len(axes))
    return max(1, BUDGET // (threads * n * n * m * max(n, m)))


def _key(name, key):
    return name if key == "residual" else f"{key}:{name}"


def _chunk_values(scn, rows, volume):
    """Chunk function of the point set of one geometry: one geometry for
    the chunk, then the values of every row at every point of the chunk,
    keyed ``(name, kind, key)``, and, with ``volume``, the volume element
    ``sqrt(det g)`` under ``"volume"``.  The set may hold sample points,
    quadrature nodes or both, and so may one chunk; :func:`run_checks`
    picks the values each report reads."""
    geometry = rows[0].check.geometry

    def eval_chunk(pts):
        geom, g = _geometry(scn, geometry, pts)
        out = {"volume": _volume_element(g, pts)} if volume else {}
        for name, check, args in rows:
            data = check.run(scn, geom, *args)
            if check.kind == INTEGRAL:
                data = {key: data[key] for key in ("rhs", "max_term", "div") if key in data}
                data["abs_rhs"] = np.abs(data["rhs"])
            out.update(((name, check.kind, key), v) for key, v in data.items())
        return out

    return eval_chunk


def _report(scenario, row, value, tols, points, grid, wall_time):
    """The CheckReport of ``row`` from its values ``value(key)``: per-point
    arrays over ``points``, or integrals over ``grid``.  One verdict rule
    per kind."""
    name, check, _ = row
    tol = getattr(tols, check.tol) if check.tol else 0.0
    common = {"identity": name, "scenario": scenario, "kind": check.kind,
              "tolerance": tol, "wall_time": wall_time}
    if check.kind == INTEGRAL:
        # ratio against max(L1(integrand), L1(term scale)); the Stokes
        # cross-check of Div X under the same normalizer, where there is one
        normalizer = max(value("abs_rhs"), value("max_term"))
        integral, stokes = value("rhs"), value("div")
        integral_ratio, stokes_ratio = (
            None if v is None else 0.0 if v == 0.0
            else abs(v) / normalizer if normalizer > 0.0 else float("inf")
            for v in (integral, stokes))
        passed = integral_ratio <= tol and (stokes_ratio or 0.0) <= tol
        return CheckReport(
            **common, n_points=int(np.prod(grid)), verdict="pass" if passed else "fail",
            integral_value=integral, normalizer=normalizer, integral_ratio=integral_ratio,
            stokes_value=stokes, stokes_ratio=stokes_ratio, grid=list(grid))
    res = value("residual")
    if check.kind == PREDICATE:
        residual, note = (check.summary(value) if check.summary
                          else (float(np.max(np.abs(res))), ""))
        return CheckReport(**common, n_points=int(res.size),
                           verdict="pass" if residual <= tol else "fail",
                           max_abs_residual=residual, note=note)
    # pointwise: relative to 1 + the term scale where the check has one
    max_abs = float(np.max(np.abs(res)))
    measure, max_rel, note = max_abs, None, ""
    if value("max_term") is not None:
        rel = np.abs(res) / (1.0 + value("max_term"))
        worst = int(np.argmax(rel))
        measure = max_rel = float(rel[worst])
        note = f"worst point {points.reshape(-1, points.shape[-1])[worst].tolist()}"
    return CheckReport(**common, n_points=int(res.size),
                       verdict="pass" if measure <= tol else "fail",
                       max_abs_residual=max_abs, max_rel_residual=max_rel, note=note)


def run_checks(scn, rows, points, grid=None, tol=None, chunk=None, threads=1):
    """The CheckReports of ``rows`` (from :func:`select_checks`) in their
    order, and the per-point values of the rows that read ``points``.

    Rows that read one geometry share it, whatever their kind: each
    geometry evaluates one point set, the sample ``points`` (when a
    pointwise or predicate row reads it) followed by the distinct nodes of
    the quadrature on ``grid`` (when an integral row reads it; see
    :func:`~splitgeom.chart.rectangle_rule`), in chunks of one geometry
    each.  The pointwise and predicate reports read the values at the
    samples, the integral reports the integrals of the values at the nodes
    (:meth:`~splitgeom.chart.Quadrature.integrals`).  Integral rows on a
    context evaluate only the nodes along the axes the metric or the frame
    reads (``depends_on``) and hold the others at their first node.  The
    context differentiates along those axes only, and raises where its
    metric or frame moves along another (see
    :meth:`~splitgeom.chart.ChartFrame.entries`).

    A geometry holds at most ``chunk`` points (default:
    :func:`_chunk_size`, so that the jets of the ``threads`` geometries
    held at once stay near ``BUDGET`` doubles together); no value depends
    on ``chunk`` or ``threads``, or on which other points share a chunk.
    """
    tols = tol or Tolerances()
    n = scn.chart.dim
    groups = {}
    for row in rows:
        groups.setdefault(row.check.geometry, []).append(row)
    reports, per_point = {}, {}
    for geometry, group in groups.items():
        t0 = time.perf_counter()
        axes = scn.chart.depends_on | scn.split.depends_on if geometry == CONTEXT else None
        kinds = {row.check.kind for row in group}
        quad = rectangle_rule(scn.chart, grid, axes) if INTEGRAL in kinds else None
        samples = (np.asarray(points, dtype=float).reshape(-1, n) if kinds - {INTEGRAL}
                   else np.empty((0, n)))
        nodes = quad.nodes if quad else np.empty((0, n))
        values = map_batched(_chunk_values(scn, group, quad is not None),
                             np.concatenate([samples, nodes]),
                             chunk=chunk or _chunk_size(n, axes, threads), threads=threads)
        P = len(samples)
        volume = values.pop("volume", None)
        read = {key: v[:P] for key, v in values.items() if key[1] != INTEGRAL}
        per_point.update((_key(name, key), v) for (name, _, key), v in read.items())
        if quad:
            read.update(quad.integrals(
                {key: v[P:] for key, v in values.items() if key[1] == INTEGRAL}, volume[P:]))
        share = (time.perf_counter() - t0) / len(group)
        for row in group:
            reports[row.name, row.check.kind] = _report(
                scn.name, row, lambda key: read.get((row.name, row.check.kind, key)), tols,
                points, quad.grid if quad else None, share)
    return [reports[row.name, row.check.kind] for row in rows], per_point


def _split_rows(chart, split, scenario, names, kind):
    """A plain split scenario named ``scenario`` and the ``kind`` rows that
    :func:`select_checks` resolves on it for ``names``, in their order;
    raises ``ValueError`` for a name with no such row."""
    scn = Scenario(name=scenario, kind="split", chart=chart, split=split)
    rows = {row.name: row for row in select_checks(scn, names) if row.check.kind == kind}
    for name in names:
        if name not in rows:
            raise ValueError(f"{name!r} has no {kind} check")
    return scn, [rows[name] for name in names]


def pointwise_fields(chart, split, points, which, chunk=None, threads=1):
    """The per-point values of the pointwise identities ``which`` at
    ``points``: the rows :func:`select_checks` resolves on the split, as
    :func:`run_checks` evaluates them.

    Returns ``{name: residual_array}`` plus ``{"max_term:" + name: array}``
    (and the ``div:`` and ``rhs:`` sides); evaluation shares one frame
    context per chunk across all identities.
    """
    scn, rows = _split_rows(chart, split, chart.name, which, POINTWISE)
    return run_checks(scn, rows, points, chunk=chunk, threads=threads)[1]


def integral_checks_batch(chart, split, grid, identities, scenario=None, tol=None,
                          chunk=None, threads=1):
    """The reports of the integral identities ``identities`` on the closed
    chart, in their order: the rows :func:`select_checks` resolves on the
    split, as :func:`run_checks` evaluates them over ``grid``.  Reports and
    errors name the ``scenario`` (default: the chart's name).

    Reports ``integral_ratio = |integral| / max(L1(rhs), L1(term scale))``
    (zero when the integrand vanishes identically) and the discrete Stokes
    cross-check ``|integral of Div X|`` under the same normalizer.  All
    identities share one frame context per chunk, so adding identities to a
    sweep is nearly free.
    """
    if not chart.closed:
        raise NonClosedChartError("integration requires all axes periodic")
    scn, rows = _split_rows(chart, split, scenario or chart.name, identities, INTEGRAL)
    return run_checks(scn, rows, None, grid, tol, chunk, threads)[0]
