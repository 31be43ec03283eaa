"""The three benchmark workloads: ``catalog``, ``pointwise`` and ``sweep``.

Each workload builds its inputs from the seed in :meth:`setup` and runs one
full pass to verdicts in :meth:`run_pass`.  A pass returns every check as a
report dict (the keys of ``CheckReport.to_dict``), the geometry points it
evaluated per chart dimension, its wall time on the benchmark's own clock
and a fingerprint of its outputs for the determinism checks.

Point counts come from ``n_points`` of the checks, never from the requested
sample count: hypersurface checks are capped at
``cli.HYPERSURFACE_SAMPLE_CAP`` points.  Timings never come from
``CheckReport.wall_time`` or the ``<out>.timing.json`` sidecar, which split
one elapsed time evenly across identities.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# The only check allowed to FAIL: ck2_k3_display on the seeded twisted torus
# of ``sweep``.  Its integrand cancels to roundoff while its normaliser is the
# L1 norm of that roundoff (``max_term = |val|``, no term scale), so the
# ratio is ~1e-2 against a 1e-10 tolerance.  It is a defect of
# splitgeom, kept visible: it is counted in checks_passed_frac.
KNOWN_DEFECTS = {("sweep_twisted_t3", "ck2_k3_display")}


def import_splitgeom():
    """Import splitgeom from this checkout's ``src`` and nowhere else."""
    if not (SRC / "splitgeom" / "__init__.py").is_file():
        raise ImportError(f"no splitgeom sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import splitgeom
    import splitgeom.cli

    if Path(splitgeom.__file__).resolve().parent != SRC / "splitgeom":
        raise ImportError(f"splitgeom imported from {splitgeom.__file__}, not {SRC}")
    return splitgeom


@dataclass
class PassResult:
    checks: list
    points_by_dim: dict
    wall_s: float
    fingerprint: str
    errors: list = field(default_factory=list)

    @property
    def points(self):
        return sum(self.points_by_dim.values())

    @property
    def failed(self):
        """Checks with no verdict; a pass that produced no report counts 1."""
        if not self.checks:
            return 1
        return sum(c["verdict"] not in ("pass", "fail") for c in self.checks)


def residual_ratio(check):
    """Worst residual ratio of a check, as compared against its tolerance."""
    if check["kind"] == "integral":
        return max(check["integral_ratio"], check["stokes_ratio"] or 0.0)
    if check["max_rel_residual"] is not None:
        return check["max_rel_residual"]
    return check["max_abs_residual"]


def residual_digits(checks):
    """Minimum over the passing checks of ``-log10(worst residual ratio)``,
    capped at 16: the digits to which the two independent sides agree.
    Checks with tolerance 0 are skipped; FAIL verdicts are counted by
    ``checks_passed_frac`` instead."""
    ratios = [residual_ratio(c) for c in checks
              if c["tolerance"] != 0.0 and c["verdict"] == "pass"]
    return min((min(16.0, -math.log10(r)) if r > 0.0 else 16.0 for r in ratios),
               default=0.0)


def margin_digits(checks):
    """Minimum over all checks of ``log10(tolerance / worst ratio)``: the
    digits of headroom below each check's tolerance (negative on a FAIL).
    A zero ratio counts as 16; checks with tolerance 0 are skipped."""
    margins = [16.0 if residual_ratio(c) == 0.0
               else math.log10(c["tolerance"] / residual_ratio(c))
               for c in checks if c["tolerance"] != 0.0]
    return min(margins, default=math.nan)


def check_errors(checks, workload):
    """Checks with no verdict, or a FAIL where the identity must hold."""
    errors = []
    for c in checks:
        label = f"{c['scenario']}:{c['identity']}"
        if c["verdict"] not in ("pass", "fail"):
            errors.append(f"{label}: no verdict")
        elif c["verdict"] == "fail" and (c["scenario"], c["identity"]) not in KNOWN_DEFECTS:
            errors.append(f"{label}: FAIL in workload {workload}")
        ratio = residual_ratio(c)
        if ratio is None or not math.isfinite(ratio):
            errors.append(f"{label}: residual {ratio!r}")
    return errors


def _digest(*chunks):
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


class Workload:
    name = ""

    def __init__(self, seed, size, tmpdir):
        self.seed = int(seed)
        self.size = size
        self.tmpdir = Path(tmpdir)

    def setup(self):
        raise NotImplementedError

    def run_pass(self, tracer=None):
        raise NotImplementedError


class Catalog(Workload):
    """``splitgeom verify --all --seed <seed> --threads 1`` through ``cli.main``."""

    name = "catalog"
    # tiny mode: one scenario of each family, few samples
    TINY = ["twisted_torus_k3", "warped_t3_k3", "torus_revolution"]

    def setup(self):
        import_splitgeom()
        from splitgeom import cli

        names = self.TINY if self.size == "tiny" else sorted(cli.full_catalog())
        self.dims = {}
        for name in names:
            scn = cli.full_catalog()[name]()
            scn.chart.validate()
            self.dims[scn.name] = scn.chart.dim
        if self.size == "tiny":
            cfg = self.tmpdir / "catalog_tiny.json"
            cfg.write_text(json.dumps({"scenario": names, "samples": 4}))
            self.argv = ["verify", "--scenario", str(cfg)]
        else:
            self.argv = ["verify", "--all"]
        self.out = self.tmpdir / "catalog_report.json"
        self.argv += ["--seed", str(self.seed), "--threads", "1", "--out", str(self.out)]

    def run_pass(self, tracer=None):
        from splitgeom import cli

        if self.out.exists():
            self.out.unlink()
        console = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(console), contextlib.redirect_stderr(console):
            code = cli.main(self.argv)
        wall = time.perf_counter() - t0
        if not self.out.exists():
            return PassResult([], {}, wall, "",
                              [f"verify exited {code} without a report: {console.getvalue()[-500:]}"])
        body = self.out.read_bytes()
        checks = json.loads(body)
        # a scenario's checks share its sample points and its quadrature grid
        sampled, nodes = {}, {}
        for c in checks:
            bucket = nodes if c["kind"] == "integral" else sampled
            bucket[c["scenario"]] = max(bucket.get(c["scenario"], 0), c["n_points"])
        points = {}
        for scn_name in set(sampled) | set(nodes):
            d = self.dims[scn_name]
            points[d] = points.get(d, 0) + sampled.get(scn_name, 0) + nodes.get(scn_name, 0)
        errors = check_errors(checks, self.name)
        if set(self.dims) - {c["scenario"] for c in checks}:
            errors.append("scenarios missing from the report")
        if code != (0 if all(c["verdict"] == "pass" for c in checks) else 1):
            errors.append(f"exit code {code} disagrees with the verdicts")
        return PassResult(checks, points, wall, _digest(body), errors)


def _pointwise_report(scenario, ident, res, max_term, tol):
    # the verdict rule of cli.run_scenario, applied to pointwise_fields output
    rel = np.abs(res) / (1.0 + max_term)
    max_rel = float(np.max(rel))
    return {
        "identity": ident, "scenario": scenario, "kind": "pointwise",
        "n_points": int(res.size), "tolerance": tol,
        "verdict": "pass" if max_rel <= tol else "fail",
        "max_abs_residual": float(np.max(np.abs(res))),
        "max_rel_residual": max_rel,
        "integral_ratio": None, "stokes_ratio": None,
    }


class Pointwise(Workload):
    """``identities.pointwise_fields`` over every available identity on seeded
    random points, one thread, no quadrature, chart dimensions 3, 4 and 5."""

    name = "pointwise"
    SCENARIOS = [("warped_twisted_t3", 4096), ("warped_t4_k4", 1024),
                 ("warped_t5_k3_multi", 256)]
    TINY_POINTS = 16

    def setup(self):
        import_splitgeom()
        from splitgeom import cli
        from splitgeom.identities import Tolerances, available_identities

        self.tol = Tolerances().pointwise
        self.inputs = []
        for index, (name, count) in enumerate(self.SCENARIOS):
            scn = cli.full_catalog()[name]()
            scn.chart.validate()
            if self.size == "tiny":
                count = self.TINY_POINTS
            pts = scn.sample(count, np.random.default_rng([self.seed, index]))
            self.inputs.append((scn, pts, available_identities(scn.k)))

    def run_pass(self, tracer=None):
        from splitgeom.identities import pointwise_fields

        checks, points, blobs = [], {}, []
        t0 = time.perf_counter()
        for scn, pts, idents in self.inputs:
            if tracer is not None:
                tracer.tag = scn.chart.dim
            fields = pointwise_fields(scn.chart, scn.split, pts, idents, threads=1)
            for ident in idents:
                res, term = fields[ident], fields["max_term:" + ident]
                checks.append(_pointwise_report(scn.name, ident, res, term, self.tol))
                blobs += [res.tobytes(), term.tobytes()]
            d = scn.chart.dim
            points[d] = points.get(d, 0) + max(c["n_points"] for c in checks[-len(idents):])
        wall = time.perf_counter() - t0
        return PassResult(checks, points, wall, _digest(*blobs),
                          errors=check_errors(checks, self.name))


class Sweep(Workload):
    """``identities.integral_checks_batch`` with every integral identity on two
    closed charts, two worker threads.

    Part (a) is ``warped_t4_k3_ortho`` on its catalog grid: the geometry
    depends on the 2-D base only, so 15/16 of the nodes repeat an earlier
    node's geometry.  Part (b) is a twisted torus whose twist is a trig
    polynomial in every coordinate with seeded coefficients: no node repeats.
    """

    name = "sweep"
    THREADS = 2
    GRID_A = [24, 24, 4, 4]
    GRID_B = [24, 24, 24]
    TINY_GRID_A = [8, 8, 4, 4]
    TINY_GRID_B = [16, 16, 24]   # two chunks, so the worker pool runs

    def twist(self):
        rng = np.random.default_rng(self.seed)
        coef = rng.uniform(0.2, 0.6, size=(3, 2))
        return " + ".join(f"{s!r}*sin(x{a + 1}) + {c!r}*cos(x{a + 1})"
                          for a, (s, c) in enumerate(coef.tolist()))

    def setup(self):
        import_splitgeom()
        from splitgeom import cli
        from splitgeom.identities import Tolerances, available_identities

        self.tol = Tolerances()
        a = cli.full_catalog()["warped_t4_k3_ortho"]()
        b = cli.build_inline_scenario({"kind": "twisted_torus", "k": 3, "dims": [1, 1, 1],
                                       "twist": self.twist(), "name": "sweep_twisted_t3"})
        tiny = self.size == "tiny"
        self.parts = []
        for scn, grid in ((a, self.TINY_GRID_A if tiny else self.GRID_A),
                          (b, self.TINY_GRID_B if tiny else self.GRID_B)):
            scn.chart.validate()
            # every integral identity: smix_lemma is pointwise only
            idents = [i for i in available_identities(scn.k) if i != "smix_lemma"]
            if scn.k == 3:
                idents.append("ck2_k3_display")
            self.parts.append((scn, grid, idents))

    def run_pass(self, tracer=None):
        from splitgeom.identities import integral_checks_batch

        checks, points = [], {}
        t0 = time.perf_counter()
        for scn, grid, idents in self.parts:
            if tracer is not None:
                tracer.tag = scn.chart.dim
            reports = integral_checks_batch(scn.chart, scn.split, grid, idents,
                                            scenario=scn.name, tol=self.tol,
                                            threads=self.THREADS)
            checks += [r.to_dict() for r in reports]
            d = scn.chart.dim
            points[d] = points.get(d, 0) + max(r.n_points for r in reports)
        wall = time.perf_counter() - t0
        body = json.dumps(checks, sort_keys=True).encode()
        return PassResult(checks, points, wall, _digest(body),
                          errors=check_errors(checks, self.name))


WORKLOADS = {w.name: w for w in (Catalog, Pointwise, Sweep)}


def repeat_node_frac(inputs):
    """Share of the nodes handed to ``identities`` whose geometry (metric and
    spanning-frame jets: value, gradient and Hessian) exactly repeats an
    earlier node's of the same call.  Returns ``(frac, nodes)``."""
    from splitgeom.chart import grid_points
    from splitgeom.hyperdual import as_jet, seed_jets

    total = repeats = 0
    for chart, split, pts_or_grid in inputs:
        if isinstance(pts_or_grid, np.ndarray) and pts_or_grid.ndim >= 2:
            pts = pts_or_grid.reshape(-1, chart.dim)
        else:
            pts = grid_points(chart, pts_or_grid).reshape(-1, chart.dim)
        xs = seed_jets(pts)
        entries = [e for row in chart.metric_at(xs) for e in row]
        if split.frame is not None:
            entries += [c for vec in split.frame(xs) for c in vec]
        cols = []
        for e in entries:
            j = as_jet(e, xs[0])
            cols += [np.broadcast_to(j.val, (len(pts),))[:, None],
                     j.grad.reshape(len(pts), -1), j.hess.reshape(len(pts), -1)]
        sig = np.ascontiguousarray(np.concatenate(cols, axis=1))
        unique = np.unique(sig, axis=0).shape[0]
        total += len(pts)
        repeats += len(pts) - unique
    return (repeats / total if total else 0.0), total
