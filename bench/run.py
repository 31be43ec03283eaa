"""splitgeom benchmark: one command for every workload and metric.

    python3 bench/run.py --workload {catalog,pointwise,sweep} --seed N \
        --seconds S --trace {0,1} [--size {full,tiny}]

``--trace 0`` measures the end-to-end metrics with no instrumentation:
passes over the workload's full input repeat while another one fits in
``--seconds``, at least two, so every run compares the outputs of repeats
at one seed; timings are medians over passes.  ``setup_s`` is the median
over fresh interpreter processes of import, scenario construction,
validation and input generation.

``--trace 1`` runs one untraced pass, then sets up again and runs one pass
with every layer wrapped in spans (see ``spans.py``), and prints the
per-layer metrics.  The traced and untraced outputs must be identical.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``attempted``
counts checks run, ``failed`` the checks that gave no verdict (a pass that
produced no report counts as one).
A FAIL verdict is an output, not a failed operation; FAIL verdicts show in
``checks_passed_frac`` and as ``checks_failed_frac`` on the ``checks:``
line printed before the JSON, with ``residual_margin_digits`` (headroom
below each check's tolerance, minimum over all checks).
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

# one BLAS thread: splitgeom's own --threads is the only parallelism measured
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 3
MIN_PASSES = 2

E2E_UNITS = {
    "wall_s": "s",
    "points_per_s": "pt/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "residual_digits": "digits",
    "checks_passed_frac": "frac",
}


def layer_units():
    units = {s: "s/4096pt" for s in spans.STAGES}
    units.update({f"{s}.n{d}": "s/4096pt" for s in spans.DIM_STAGES for d in spans.DIMS})
    units.update({
        "hyperdual.ops": "count",
        "expr.evaluate_calls": "count",
        "identities.points": "count",
        "identities.repeat_node_frac": "frac",
        "chart.chunks": "count",
        "chart.worker_util": "frac",
        "hypersurface.shape_calls": "count",
        "hypersurface.bundle_calls": "count",
        "trace.overhead_frac": "frac",
    })
    return units


def make_workload(args, tmpdir):
    return workloads.WORKLOADS[args.workload](args.seed, args.size, tmpdir)


def setup_probe(args, tmpdir):
    """Child process: time import + setup from interpreter start of work."""
    w = make_workload(args, tmpdir)
    w.setup()
    print(json.dumps({"setup_s": time.perf_counter() - T_START}))


def measure_setup(args, tmpdir):
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--size", args.size, "--setup-probe", tmpdir],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return statistics.median(times)


def checks_line(checks):
    fails = sum(c["verdict"] == "fail" for c in checks)
    margin = workloads.margin_digits(checks)
    return (f"checks: attempted={len(checks)} fail_verdicts={fails} "
            f"checks_failed_frac={fails / max(len(checks), 1):.6g} "
            f"residual_margin_digits={margin:.6g}")


def run_untraced(args, tmpdir):
    setup_s = measure_setup(args, tmpdir)
    w = make_workload(args, tmpdir)
    w.setup()
    results = []
    start = time.perf_counter()
    while True:
        results.append(w.run_pass())
        elapsed = time.perf_counter() - start
        if (len(results) >= MIN_PASSES
                and elapsed + statistics.median(r.wall_s for r in results) > args.seconds):
            break
    first = results[0]
    errors = [e for r in results for e in r.errors]
    if any(r.fingerprint != first.fingerprint for r in results):
        errors.append("outputs differ between passes at one seed")
    wall = statistics.median(r.wall_s for r in results)
    checks = first.checks
    metrics = {
        "wall_s": wall,
        "points_per_s": first.points / wall,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "residual_digits": workloads.residual_digits(checks),
        "checks_passed_frac": (sum(c["verdict"] == "pass" for c in checks) / len(checks)
                               if checks else 0.0),
    }
    print(f"passes={len(results)} walls={[round(r.wall_s, 4) for r in results]}")
    print(checks_line(checks))
    for e in errors:
        print("ERROR", e)
    return {
        "correct": not errors and bool(checks) and first.points > 0,
        "attempted": sum(max(len(r.checks), 1) for r in results),
        "failed": sum(r.failed for r in results),
        "metrics": {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in metrics.items()},
    }


def run_traced(args, tmpdir):
    w = make_workload(args, tmpdir)
    w.setup()
    plain = w.run_pass()

    tracer = spans.Tracer()
    inst, counters = spans.instrument(tracer)
    t0 = time.perf_counter()
    try:
        w.setup()
        traced = w.run_pass(tracer)
    finally:
        traced_wall = time.perf_counter() - t0
        inst.remove()

    errors = plain.errors + traced.errors
    if traced.fingerprint != plain.fingerprint:
        errors.append("traced and untraced outputs differ")
    errors += spans.nesting_errors(tracer.spans, traced_wall)
    metrics = spans.stage_metrics(tracer.spans, traced.points_by_dim)
    frac, nodes = workloads.repeat_node_frac(tracer.inputs)
    metrics.update({
        "hyperdual.ops": float(counters["hyperdual.ops"].value()),
        "expr.evaluate_calls": float(counters["expr.evaluate_calls"].value()),
        "identities.points": float(nodes),
        "identities.repeat_node_frac": frac,
        "trace.overhead_frac": traced.wall_s / plain.wall_s - 1.0,
    })
    units = layer_units()
    print(f"spans={len(tracer.spans)} untraced_wall={plain.wall_s:.4f} "
          f"traced_wall={traced.wall_s:.4f}")
    print(checks_line(traced.checks))
    for e in errors:
        print("ERROR", e)
    return {
        "correct": not errors and bool(traced.checks),
        "attempted": sum(max(len(r.checks), 1) for r in (plain, traced)),
        "failed": plain.failed + traced.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["catalog", "pointwise", "sweep"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "tiny"], default="full")
    parser.add_argument("--setup-probe", metavar="TMPDIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    try:
        workloads.import_splitgeom()
    except ImportError as e:
        print(f"bench: cannot import splitgeom from this checkout: {e}", file=sys.stderr)
        return 2

    if args.setup_probe:
        setup_probe(args, args.setup_probe)
        return 0
    tmpdir = tempfile.mkdtemp(prefix=".bench_tmp_", dir=ROOT)
    try:
        result = (run_traced if args.trace else run_untraced)(args, tmpdir)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
