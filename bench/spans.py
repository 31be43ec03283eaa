"""In-memory span tracer that instruments splitgeom from the outside.

Nothing under ``src/`` is edited.  :func:`instrument` replaces module
attributes and class attributes of the loaded ``splitgeom`` modules with
wrappers.  Calls inside a module resolve through its globals, so nested
calls are captured too.  :meth:`Instrumentation.remove` puts every original
back.

A span is one list ``[name, tag, start_ns, end_ns, parent, thread, info]``.
``parent`` is the enclosing span record (or ``None``).  The open-span stack
is kept per thread; chunks that ``map_batched`` hands to its worker threads
name the ``map_batched`` span as their parent explicitly.  ``tag`` is the
tracer's current tag when the span opened (the benchmark sets it to the
chart dimension of the scenario being evaluated).

Spans stay in memory until the traced run ends.  Cached properties and
methods open a span only when they compute, so cache hits cost no span.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
import threading
import time

NAME, TAG, START, END, PARENT, THREAD, INFO = range(7)


class Counter:
    """Thread-safe event counter: ``next`` on ``itertools.count`` is atomic
    under the interpreter lock."""

    def __init__(self):
        self._it = itertools.count()
        self.incr = self._it.__next__
        self._reads = 0

    def value(self):
        v = next(self._it) - self._reads
        self._reads += 1
        return v


class Tracer:
    def __init__(self):
        self.spans = []
        self.tag = None
        self.inputs = []     # (chart, split, points or grid) handed to identities
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name, parent=None, info=None):
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        rec = [name, self.tag, time.perf_counter_ns(), 0, parent,
               threading.get_ident(), info]
        self.spans.append(rec)
        stack.append(rec)
        return rec

    def close(self, rec):
        rec[END] = time.perf_counter_ns()
        stack = self._stack()
        if not stack or stack[-1] is not rec:
            raise RuntimeError(f"span {rec[NAME]!r} closed out of order")
        stack.pop()

    def span(self, name, fn, cached=None, on_call=None):
        """Wrap ``fn`` so each call (each cache miss, if ``cached``) is a span;
        ``on_call`` sees the arguments before the span opens."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if cached is not None and cached(*args, **kwargs):
                return fn(*args, **kwargs)
            if on_call is not None:
                on_call(*args, **kwargs)
            rec = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(rec)

        return wrapper

    def map_batched(self, name, fn):
        """Wrap a ``map_batched`` so each chunk is a child span, also on
        worker threads."""
        sig = inspect.signature(fn)
        chunk_name = name.rsplit(".", 1)[0] + ".chunk"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            inner = bound.arguments["fn"]
            rec = self.open(name, info={"threads": int(bound.arguments["threads"])})

            def chunk_fn(pts):
                crec = self.open(chunk_name, parent=rec, info={"size": len(pts)})
                try:
                    return inner(pts)
                finally:
                    self.close(crec)

            bound.arguments["fn"] = chunk_fn
            try:
                return fn(*bound.args, **bound.kwargs)
            finally:
                self.close(rec)

        return wrapper


def _cache_slot(slot):
    """Predicate: the property's cache slot is already filled.  If the slot
    is renamed, every access opens a span (correct, only slower)."""
    return lambda self: getattr(self, slot, None) is not None


class Instrumentation:
    """The set of replaced attributes; :meth:`remove` restores them."""

    def __init__(self):
        self._undo = []

    def set(self, owner, attr, value):
        if isinstance(owner, dict):
            self._undo.append((owner.__setitem__, attr, owner[attr]))
            owner[attr] = value
        else:
            self._undo.append((functools.partial(setattr, owner), attr,
                               owner.__dict__[attr]))
            setattr(owner, attr, value)

    def rebind(self, orig, wrapper):
        """Point every ``splitgeom`` module global (and module-level dict
        entry) that holds ``orig`` at ``wrapper``."""
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "splitgeom"
                                   or modname.startswith("splitgeom.")):
                continue
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    self.set(mod, attr, wrapper)
                elif isinstance(val, dict) and not attr.startswith("__"):
                    for key, item in list(val.items()):
                        if item is orig:
                            self.set(val, key, wrapper)

    def remove(self):
        while self._undo:
            setter, attr, old = self._undo.pop()
            setter(attr, old)


# span name -> per-layer stage it is charged to (self time)
STAGE_OF = {
    "chart.metric_jets": "chart.metric_jets_s",
    "chart.inverse": "chart.inverse_s",
    "chart.christoffel": "chart.christoffel_s",
    "chart.riemann": "chart.riemann_s",
    "chart.divergence": "chart.divergence_s",
    "chart.integrate": "chart.integrate_s",
    "chart.map_batched": "chart.integrate_s",
    "chart.chunk": "chart.integrate_s",
    "splitting.frame": "splitting.frame_s",
    "splitting.cov": "splitting.cov_s",
    "splitting.fundamental": "splitting.fundamental_s",
    "splitting.curvature_sums": "splitting.curvature_sums_s",
    "splitting.pair_predicates": "splitting.pair_predicates_s",
    "identities.pointwise_fields": "identities.assembly_s",
    "identities.map_batched": "identities.assembly_s",
    "identities.chunk": "identities.assembly_s",
    "identities.integral_checks_batch": "identities.reduce_s",
    "hypersurface.shape_data": "hypersurface.shape_s",
    "hypersurface.principal_bundle": "hypersurface.eigen_s",
    "hypersurface.stencil": "hypersurface.stencil_s",
    "scenarios.build": "scenarios.build_s",
    "scenarios.warped_checks": "scenarios.warped_checks_s",
    "cli.run_scenario": "cli.orchestration_s",
    "cli.write_reports": "cli.report_write_s",
}

STAGES = list(dict.fromkeys(STAGE_OF.values()))

# stages of the jet pipeline, also reported per chart dimension
DIM_STAGES = [
    "chart.metric_jets_s", "chart.inverse_s", "chart.christoffel_s",
    "chart.riemann_s", "chart.divergence_s", "splitting.frame_s",
    "splitting.cov_s", "splitting.fundamental_s",
    "splitting.curvature_sums_s", "identities.assembly_s",
]
DIMS = (3, 4, 5)

HYPERDUAL_OPS = ("__neg__", "__add__", "__radd__", "__sub__", "__rsub__",
                 "__mul__", "__rmul__", "__truediv__", "__rtruediv__", "__pow__")
HYPERDUAL_PRIMITIVES = ("sin", "cos", "exp", "log", "sqrt")


def instrument(tracer):
    """Install span wrappers and counters; returns ``(inst, counters)``."""
    from splitgeom import (chart, cli, expr, hyperdual, hypersurface,
                           identities, scenarios, splitting)

    inst = Instrumentation()
    counters = {"hyperdual.ops": Counter(), "expr.evaluate_calls": Counter()}

    def counting(fn, counter):
        incr = counter.incr

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            incr()
            return fn(*args, **kwargs)

        return wrapper

    ops = counters["hyperdual.ops"]
    for attr in HYPERDUAL_OPS:
        inst.set(hyperdual.HyperDual, attr,
                 counting(hyperdual.HyperDual.__dict__[attr], ops))
    for attr in HYPERDUAL_PRIMITIVES:
        orig = getattr(hyperdual, attr)
        inst.rebind(orig, counting(orig, ops))
    inst.rebind(expr.evaluate, counting(expr.evaluate,
                                        counters["expr.evaluate_calls"]))

    def prop(cls, attr, name, slot):
        p = cls.__dict__[attr]
        getter = tracer.span(name, p.fget, cached=_cache_slot(slot))
        inst.set(cls, attr, property(getter, p.fset, p.fdel, p.__doc__))

    def method(cls, attr, name):
        inst.set(cls, attr, tracer.span(name, cls.__dict__[attr]))

    def function(fn, name, **kw):
        inst.rebind(fn, tracer.span(name, fn, **kw))

    CF = chart.ChartFrame
    prop(CF, "g", "chart.metric_jets", "_g")
    prop(CF, "ginv", "chart.inverse", "_ginv")
    prop(CF, "gamma", "chart.christoffel", "_gamma")
    prop(CF, "riemann", "chart.riemann", "_riemann")
    method(CF, "divergence_of", "chart.divergence")
    function(chart.integrate, "chart.integrate")
    # per binding, so chunks say which module asked for them
    inst.set(chart, "map_batched",
             tracer.map_batched("chart.map_batched", chart.map_batched))
    inst.set(identities, "map_batched",
             tracer.map_batched("identities.map_batched", identities.map_batched))

    SC = splitting.SplitContext
    method(SC, "__init__", "splitting.frame")
    prop(SC, "cov", "splitting.cov", "_cov")
    method(SC, "fundamental", "splitting.fundamental")
    for attr in ("mixed_curvature", "smix", "smix_pairsplit"):
        method(SC, attr, "splitting.curvature_sums")
    function(splitting.pair_predicates, "splitting.pair_predicates")

    def record_input(chart_, split, points_or_grid, *a, **k):
        tracer.inputs.append((chart_, split, points_or_grid))

    function(identities.pointwise_fields, "identities.pointwise_fields",
             on_call=record_input)
    function(identities.integral_checks_batch,
             "identities.integral_checks_batch", on_call=record_input)

    function(hypersurface.shape_data, "hypersurface.shape_data")
    function(hypersurface.principal_bundle, "hypersurface.principal_bundle")
    for fn in (hypersurface.codazzi_checks, hypersurface.hypersurface_identity,
               hypersurface.dperp_integrability):
        function(fn, "hypersurface.stencil")

    for fn in (scenarios.build_twisted_torus, scenarios.build_warped,
               scenarios.build_warped_twisted, hypersurface.build_torus_revolution,
               hypersurface.build_clifford_torus, hypersurface.build_graph_r4,
               hypersurface.build_torus_cylinder, hypersurface.build_round_sphere,
               cli.build_inline_scenario):
        function(fn, "scenarios.build")
    method(chart.ChartManifold, "validate", "scenarios.build")
    function(scenarios.warped_checks, "scenarios.warped_checks")

    def tag_scenario(scn, *a, **k):
        tracer.tag = scn.chart.dim

    function(cli.run_scenario, "cli.run_scenario", on_call=tag_scenario)
    function(cli.write_reports, "cli.write_reports")
    return inst, counters


# -- analysis ------------------------------------------------------------------

def _union_ns(intervals):
    total = 0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    """Self time in seconds of every span (same order as ``spans``):
    duration minus the part of it that child spans cover."""
    children = {}
    for rec in spans:
        if rec[PARENT] is not None:
            children.setdefault(id(rec[PARENT]), []).append((rec[START], rec[END]))
    out = []
    for rec in spans:
        covered = _union_ns([(max(lo, rec[START]), min(hi, rec[END]))
                             for lo, hi in children.get(id(rec), ())])
        out.append((rec[END] - rec[START] - covered) * 1e-9)
    return out


def nesting_errors(spans, wall_s):
    """Problems with the span tree: children outside parents, negative self
    times, top-level spans that add up to more than ``wall_s``."""
    errors = []
    for rec in spans:
        if rec[END] < rec[START]:
            errors.append(f"{rec[NAME]} ends before it starts")
        parent = rec[PARENT]
        if parent is not None and not (parent[START] <= rec[START]
                                       and rec[END] <= parent[END]):
            errors.append(f"{rec[NAME]} lies outside its parent {parent[NAME]}")
    if any(s < 0 for s in self_times(spans)):
        errors.append("negative self time")
    top = sum(rec[END] - rec[START] for rec in spans if rec[PARENT] is None) * 1e-9
    if top > wall_s:
        errors.append(f"top-level spans cover {top:.6f}s > traced wall {wall_s:.6f}s")
    return errors


def stage_metrics(spans, points_by_tag):
    """Per-layer numbers from the spans.

    Stage self times are seconds per 4096 points of the whole workload;
    ``<stage>.n<d>`` restricts both the spans and the points to scenarios
    of chart dimension ``d`` (0 where the workload has none).
    """
    total_points = sum(points_by_tag.values())
    selfs = self_times(spans)
    by_stage = {s: 0.0 for s in STAGES}
    by_dim = {(s, d): 0.0 for s in DIM_STAGES for d in DIMS}
    for rec, st in zip(spans, selfs):
        stage = STAGE_OF[rec[NAME]]
        by_stage[stage] += st
        if (stage, rec[TAG]) in by_dim:
            by_dim[stage, rec[TAG]] += st
    out = {s: v * 4096.0 / total_points for s, v in by_stage.items()}
    for (s, d), v in by_dim.items():
        pts = points_by_tag.get(d, 0)
        out[f"{s}.n{d}"] = v * 4096.0 / pts if pts else 0.0

    chunks = [rec for rec in spans if rec[NAME].endswith(".chunk")]
    busy = sum(rec[END] - rec[START] for rec in chunks)
    nchunks = {}
    for rec in chunks:
        nchunks[id(rec[PARENT])] = nchunks.get(id(rec[PARENT]), 0) + 1
    capacity = 0
    for rec in spans:
        if rec[NAME].endswith(".map_batched"):
            # the pool runs at most one worker per chunk
            threads = max(1, min(rec[INFO]["threads"], nchunks.get(id(rec), 0)))
            capacity += (rec[END] - rec[START]) * threads
    out["chart.chunks"] = float(len(chunks))
    out["chart.worker_util"] = busy / capacity if capacity else 0.0
    out["hypersurface.shape_calls"] = float(
        sum(rec[NAME] == "hypersurface.shape_data" for rec in spans))
    out["hypersurface.bundle_calls"] = float(
        sum(rec[NAME] == "hypersurface.principal_bundle" for rec in spans))
    return out
