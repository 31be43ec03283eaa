"""The divergence identities of an orthogonal k-splitting, as checks.

Every identity is evaluated as a residual LHS - RHS in which both sides run
through independent machinery: the left side differentiates an assembled
mean-curvature field exactly (jets), the right side sums curvature and
fundamental-tensor terms in the adapted frame.

Implemented identities (``k`` distributions, ``S(r, k)`` the r-subsets):

* ``main``: with ``rset = {1, k-1}`` (as a set: for k = 2 the two values
  coincide and are counted once),

      Div( sum_{r in rset} sum_{q in S(r,k)} H_q )
        = |rset| * S_mix + sum_{r in rset} sum_q (|h_q|^2 - |H_q|^2 - |T_q|^2).

  For k = 2 this is exactly the classical two-distribution identity; the
  coefficient on the mixed scalar curvature is 2 whenever k > 2.

* ``aux:r`` for 2 <= r <= k-1: with ``C = binom(k-2, r-1)``,

      Div( sum_{q in S(r,k)} H_q - C * sum_i H_i )
        = C * sum_i |H_i|^2
          + sum_q ( <sum_{i in q} H_i, sum_{j not in q} H_j>
                    - |H_q|^2 - <H_q, sum_{j not in q} H_j> ).

  The left-hand field vanishes identically (the subset mean-curvature
  vectors satisfy ``sum_q H_q = C * sum_i H_i``), so the statement is that
  the right side vanishes pointwise; both sides are still computed in full.
  An alternative form of this right-hand side that is sometimes quoted
  (``+|H_q|^2`` and a factor ``r`` on the ``H_q`` coupling, without the
  ``C`` term) does not balance; it is exposed as ``aux_printed:r`` for
  reference, checked only when a filter names it.

* ``companion``: ``2 Div(sum_i H_i)`` against the main right side minus the
  ``aux:k-1`` right side.

* ``smix_lemma``: ``2 S_mix = sum_i S_mix(D_i, D_i^perp)``.

* ``ck2_k3_display``: for k = 3, the rewriting of half the companion
  integrand; it balances only after integration.

Integral checks quadrate the right-hand sides over closed charts; by the
divergence theorem every integral vanishes.  Ratios are reported against
``max(L1(integrand), L1(largest constituent term))`` so that integrands
which cancel pointwise (the twisted flat tori) are judged against the size
of what cancelled rather than against float noise.

One registry, ``_FAMILIES``, says which check kinds (pointwise, integral)
each identity has, for which k it is defined and whether it runs by
default; name parsing, the default lists and every check path read it.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .chart import DEFAULT_CHUNK, map_batched, rectangle_rule
from .splitting import SplitContext, SubsetIndex, subsets

__all__ = [
    "CheckReport",
    "Tolerances",
    "POINTWISE",
    "INTEGRAL",
    "pointwise_fields",
    "pointwise_checks",
    "integral_checks_batch",
    "propagation_suprema",
    "umbilicity_residual",
    "available_identities",
    "select_identities",
]


@dataclass
class Tolerances:
    pointwise: float = 1e-8   # relative to 1 + largest |term|
    integral: float = 1e-10   # |integral| / normalizer
    predicate: float = 1e-9


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
        return {
            "identity": self.identity,
            "scenario": self.scenario,
            "kind": self.kind,
            "n_points": self.n_points,
            "tolerance": self.tolerance,
            "verdict": self.verdict,
            "max_abs_residual": self.max_abs_residual,
            "max_rel_residual": self.max_rel_residual,
            "integral_value": self.integral_value,
            "normalizer": self.normalizer,
            "integral_ratio": self.integral_ratio,
            "stokes_value": self.stokes_value,
            "stokes_ratio": self.stokes_ratio,
            "grid": self.grid,
            "note": self.note,
        }


def _rset(k):
    return sorted({1, k - 1})


class _Evaluator:
    """Identity terms over one shared :class:`SplitContext` (memoized).

    Every identity method returns ``{"residual", "div", "rhs", "max_term"}``
    arrays: ``div`` the jet-differentiated left side, ``rhs`` the frame-tensor
    right side, ``residual = div - rhs`` and ``max_term`` the largest
    constituent term at each point.
    """

    def __init__(self, ctx):
        self.ctx = ctx
        self.k = ctx.k
        self._memo = {}

    def _cached(self, key, fn):
        if key not in self._memo:
            self._memo[key] = fn()
        return self._memo[key]

    # -- building blocks ---------------------------------------------------

    def H_vals(self, q):
        return self.ctx.H_values(q)

    def field_from(self, coef_qs):
        """Coordinate vector jet of ``sum coef * H_q``."""
        field = None
        for coef, q in coef_qs:
            term = coef * self.ctx.fundamental(q).H
            field = term if field is None else field + term
        return field

    def div_field(self, coef_qs):
        return self.ctx.divergence_values(self.field_from(coef_qs))

    def inner(self, u, v):
        return self.ctx.inner_values(u, v)

    # -- main identity -------------------------------------------------------

    def main(self):
        return self._cached("main", self._main)

    def _main(self):
        ctx = self.ctx
        k = self.k
        rset = _rset(k)
        qs = [q for r in rset for q in subsets(r, k)]
        div = self.div_field([(1.0, q) for q in qs])
        smix = ctx.smix()
        rhs = len(rset) * smix
        max_term = np.abs(rhs)
        for q in qs:
            d = ctx.fundamental(q)
            rhs = rhs + d.h_norm2 - d.H_norm2 - d.t_norm2
            for t in (d.h_norm2, d.H_norm2, d.t_norm2):
                max_term = np.maximum(max_term, np.abs(t))
        max_term = np.maximum(max_term, np.abs(div))
        return {"residual": div - rhs, "div": div, "rhs": rhs, "max_term": max_term}

    # -- auxiliary identity and its as-printed variant ------------------------

    def aux(self, r):
        return self._cached(("aux", r), lambda: self._aux(r))[0]

    def aux_printed(self, r):
        return self._cached(("aux", r), lambda: self._aux(r))[1]

    def _aux(self, r):
        ctx = self.ctx
        k = self.k
        C = float(math.comb(k - 2, r - 1))
        qs = subsets(r, k)
        singles = subsets(1, k)
        coef_qs = [(1.0, q) for q in qs] + [(-C, q) for q in singles]
        div = self.div_field(coef_qs)

        H_single = [self.H_vals(q) for q in singles]
        H_all = np.sum(H_single, axis=0)
        rhs = np.zeros(ctx.points.shape[:-1])
        rhs_printed = np.zeros_like(rhs)
        max_term = np.abs(div).copy()
        for q in qs:
            d = ctx.fundamental(q)
            Hq = self.H_vals(q)
            V = np.sum([H_single[i - 1] for i in q], axis=0)
            W = H_all - V
            ip_vw = self.inner(V, W)
            ip_qw = self.inner(Hq, W)
            rhs = rhs + ip_vw - d.H_norm2 - ip_qw
            rhs_printed = rhs_printed + d.H_norm2 + ip_vw - r * ip_qw
            for t in (ip_vw, d.H_norm2, ip_qw):
                max_term = np.maximum(max_term, np.abs(t))
        sum_h2 = np.sum([ctx.fundamental(q).H_norm2 for q in singles], axis=0)
        rhs = rhs + C * sum_h2
        max_term = np.maximum(max_term, C * np.abs(sum_h2))
        return ({"residual": div - rhs, "div": div, "rhs": rhs, "max_term": max_term},
                {"residual": div - rhs_printed, "div": div, "rhs": rhs_printed,
                 "max_term": max_term})

    # -- companion --------------------------------------------------------------

    def companion(self):
        return self._cached("companion", self._companion)

    def _companion(self):
        k = self.k
        singles = subsets(1, k)
        div2 = 2.0 * self.div_field([(1.0, q) for q in singles])
        m = self.main()
        a = self.aux(k - 1)
        rhs = m["rhs"] - a["rhs"]
        max_term = np.maximum(np.maximum(m["max_term"], a["max_term"]), np.abs(div2))
        return {"residual": div2 - rhs, "div": div2, "rhs": rhs, "max_term": max_term}

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

    # -- k=3 display of the last integral corollary ------------------------------

    def ck2_k3_display(self):
        """The k=3 rewriting of the companion integrand (half scale),
        S_mix - sum |H_i|^2 - sum_{i<j} <H_i, H_j>
        + (1/2) sum (|h|^2 - |T|^2) over single and pair subsets, as ``rhs``.

        Its left side is zero: the display holds only as an integral.
        """
        ctx = self.ctx
        singles = subsets(1, 3)
        pairs = subsets(2, 3)
        val = ctx.smix()
        for q in singles:
            d = ctx.fundamental(q)
            val = val - d.H_norm2 + 0.5 * (d.h_norm2 - d.t_norm2)
        H = [self.H_vals(q) for q in singles]
        for a in range(3):
            for b in range(a + 1, 3):
                val = val - self.inner(H[a], H[b])
        for q in pairs:
            d = ctx.fundamental(q)
            val = val + 0.5 * (d.h_norm2 - d.t_norm2)
        return {"residual": -val, "div": np.zeros_like(val), "rhs": val,
                "max_term": np.abs(val)}


# -- the identity registry ------------------------------------------------------

POINTWISE = "pointwise"
INTEGRAL = "integral"


@dataclass(frozen=True)
class _Family:
    """One identity family: the :class:`_Evaluator` method of that name, the
    check kinds it supports and the split counts it is defined for.  Ranged
    families are named ``name:r`` with ``2 <= r <= k-1``."""

    name: str
    kinds: tuple
    default: bool = True          # run when no identity filter is given
    ranged: bool = False
    min_k: int = 2
    max_k: int | None = None

    def names(self, k):
        if self.ranged:
            return [f"{self.name}:{r}" for r in range(2, k)]
        if self.min_k <= k <= (self.max_k or k):
            return [self.name]
        return []


# this order is the order of the default checks in reports
_FAMILIES = {f.name: f for f in (
    _Family("main", (POINTWISE, INTEGRAL)),
    _Family("smix_lemma", (POINTWISE,)),
    _Family("aux", (POINTWISE, INTEGRAL), ranged=True),
    _Family("companion", (POINTWISE, INTEGRAL), min_k=3),
    # the alternative aux right-hand side, reported for reference only
    _Family("aux_printed", (POINTWISE,), default=False, ranged=True),
    # the display balances only after integration
    _Family("ck2_k3_display", (INTEGRAL,), min_k=3, max_k=3),
)}


def _parse_identity(name, k, kind=None):
    """The family of the identity ``name`` for ``k`` distributions and the
    arguments of its evaluator method, checked against the check ``kind`` if
    given; raises ``ValueError``."""
    head, sep, rtxt = name.partition(":")
    fam = _FAMILIES.get(head)
    if fam is None or bool(sep) != fam.ranged:
        raise ValueError(f"unknown identity {name!r}")
    args = ()
    if fam.ranged:
        try:
            r = int(rtxt)
        except ValueError:
            raise ValueError(f"malformed identity name {name!r}")
        if not 2 <= r <= k - 1:
            raise ValueError(f"r out of range: need 2 <= r <= k-1, got r={r}, k={k}")
        args = (r,)
    elif not fam.names(k):
        raise ValueError(f"identity {name!r} is not defined for k={k}")
    if kind is not None and kind not in fam.kinds:
        raise ValueError(f"{name!r} has no {kind} check")
    return fam, args


def select_identities(k, kind, requested=None):
    """Names of the ``kind`` checks to run for ``k`` distributions.

    Without ``requested``, every default identity that has a ``kind`` check;
    otherwise the requested names that have one, in their order (every
    requested name is validated, whatever its kinds).
    """
    if requested is None:
        return [name for fam in _FAMILIES.values()
                if fam.default and kind in fam.kinds for name in fam.names(k)]
    parsed = [(name, _parse_identity(name, k)[0]) for name in requested]
    return [name for name, fam in parsed if kind in fam.kinds]


def available_identities(k):
    """The pointwise identities checked by default for ``k`` distributions."""
    return select_identities(k, POINTWISE)


def pointwise_fields(chart, split, points, which, chunk=DEFAULT_CHUNK, threads=1):
    """Residual and term-scale arrays for the named identities at ``points``.

    Returns ``{name: residual_array}`` plus ``{"max_term:" + name: array}``;
    evaluation shares one frame context per chunk across all identities.
    """
    parsed = [(name,) + _parse_identity(name, split.k, POINTWISE) for name in which]

    def eval_chunk(pts):
        ev = _Evaluator(SplitContext(chart, split, pts))
        out = {}
        for name, fam, args in parsed:
            data = getattr(ev, fam.name)(*args)
            out[name] = data["residual"]
            out["max_term:" + name] = data["max_term"]
        return out

    return map_batched(eval_chunk, points, chunk=chunk, threads=threads)


def pointwise_checks(chart, split, points, which, scenario="", tol=None,
                     chunk=DEFAULT_CHUNK, threads=1):
    """One pointwise CheckReport per identity in ``which`` over ``points``.

    The verdict compares ``|residual| / (1 + max |term|)`` against the
    pointwise tolerance; the note names the point of largest ``|residual|``.
    Returns ``(reports, fields)`` with ``fields`` from :func:`pointwise_fields`.
    """
    tols = tol or Tolerances()
    t0 = time.perf_counter()
    fields = pointwise_fields(chart, split, points, which, chunk=chunk, threads=threads)
    elapsed = time.perf_counter() - t0
    flat = np.asarray(points, dtype=float).reshape(-1, split.n)
    reports = []
    for name in which:
        res = fields[name]
        rel = np.abs(res) / (1.0 + fields["max_term:" + name])
        max_rel = float(np.max(rel))
        reports.append(CheckReport(
            identity=name, scenario=scenario, kind=POINTWISE,
            n_points=int(res.size), tolerance=tols.pointwise,
            verdict="pass" if max_rel <= tols.pointwise else "fail",
            max_abs_residual=float(np.max(np.abs(res))), max_rel_residual=max_rel,
            note=f"worst point {flat[int(np.argmax(np.abs(res)))].tolist()}",
            wall_time=elapsed / len(which)))
    return reports, fields


def integral_checks_batch(chart, split, grid, identities, scenario="", tol=None,
                          chunk=DEFAULT_CHUNK, threads=1):
    """Quadrature of several identities' right-hand sides in one grid sweep.

    Reports ``integral_ratio = |integral| / max(L1(rhs), L1(term scale))``
    (zero when the integrand vanishes identically) and the discrete Stokes
    cross-check ``|integral of Div X|`` under the same normalizer.  All
    identities share one frame context per chunk, so adding identities to a
    sweep is nearly free.
    """
    tols = tol or Tolerances()
    parsed = [(name,) + _parse_identity(name, split.k, INTEGRAL) for name in identities]
    t0 = time.perf_counter()

    def eval_chunk(p):
        ev = _Evaluator(SplitContext(chart, split, p))
        out = {}
        for name, fam, args in parsed:
            data = getattr(ev, fam.name)(*args)
            out[name + "/rhs"] = data["rhs"]
            out[name + "/abs_rhs"] = np.abs(data["rhs"])
            out[name + "/term"] = data["max_term"]
            out[name + "/div"] = data["div"]
        return out, ev.ctx.frame.g.val

    grid, sums = rectangle_rule(chart, grid, eval_chunk, map_batched,
                                chunk=chunk, threads=threads)
    elapsed = time.perf_counter() - t0
    reports = []
    for name, _, _ in parsed:
        integral, stokes = sums[name + "/rhs"], sums[name + "/div"]
        normalizer = max(sums[name + "/abs_rhs"], sums[name + "/term"])
        ratio = 0.0 if integral == 0.0 else (abs(integral) / normalizer
                                             if normalizer > 0.0 else float("inf"))
        stokes_ratio = 0.0 if stokes == 0.0 else (abs(stokes) / normalizer
                                                  if normalizer > 0.0 else float("inf"))
        verdict = ("pass" if ratio <= tols.integral and stokes_ratio <= tols.integral
                   else "fail")
        reports.append(CheckReport(
            identity=name, scenario=scenario, kind=INTEGRAL,
            n_points=int(np.prod(grid)), tolerance=tols.integral, verdict=verdict,
            integral_value=integral, normalizer=normalizer, integral_ratio=ratio,
            stokes_value=stokes, stokes_ratio=stokes_ratio, grid=list(grid),
            wall_time=elapsed / len(parsed),
        ))
    return reports


# -- propagation and umbilicity checks ----------------------------------------

def propagation_suprema(chart, split, points, chunk=DEFAULT_CHUNK, threads=1):
    """Sup of cross-block components of ``h_q`` and ``T_q`` over subsets with
    ``2 < r < k`` (the inductive propagation of mixed flags)."""
    k = split.k

    def eval_chunk(pts):
        ctx = SplitContext(chart, split, pts)
        sup_h = np.zeros(pts.shape[0])
        sup_t = np.zeros(pts.shape[0])
        for r in range(3, k):
            for q in subsets(r, k):
                h, t = ctx.cross_block_sup(q)
                sup_h = np.maximum(sup_h, h)
                sup_t = np.maximum(sup_t, t)
        return {"sup_h": sup_h, "sup_t": sup_t}

    out = map_batched(eval_chunk, points, chunk=chunk, threads=threads)
    return float(np.max(out["sup_h"])), float(np.max(out["sup_t"]))


def umbilicity_residual(chart, split, points, qs=None):
    """Residual of the umbilic norm identity
    ``|h_q|^2 - |H_q|^2 = - sum_i ((n_i - 1)/n_i) |Pperp_q H_{q(i)}|^2``
    (valid for totally umbilical blocks, mixed totally geodesic pairs and
    orthogonal blockwise mean curvatures)."""
    ctx = SplitContext(chart, split, points)
    k = split.k
    if qs is None:
        qs = [q for r in range(1, k) for q in subsets(r, k)]
    P = ctx.projectors()
    worst = 0.0
    for q in qs:
        d = ctx.fundamental(q)
        lhs = d.h_norm2 - d.H_norm2
        rhs = np.zeros_like(lhs)
        comp = q.complement(k)
        for i in q:
            ni = split.dims[i - 1]
            Hi = ctx.H_values(SubsetIndex((i,)))
            proj = np.zeros_like(Hi)
            for j in comp:
                proj += np.einsum("...ab,...b->...a", P[..., j - 1, :, :], Hi)
            rhs = rhs - (ni - 1.0) / ni * ctx.inner_values(proj, proj)
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst
