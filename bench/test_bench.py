"""Tests of the benchmark itself, on the tiny-size mode of each workload.

    python3 -m pytest bench
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload, trace, cwd=ROOT, root=ROOT):
    proc = subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_unit(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["attempted"] >= 1 and result["failed"] == 0
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], float) and math.isfinite(got["value"]), m["name"]
    if not trace:
        for name in ("wall_s", "points_per_s", "setup_s", "peak_rss_mb"):
            assert result["metrics"][name]["value"] > 0.0


def test_sweep_keeps_known_defect_visible():
    out = run_bench("sweep", 0).stdout.strip().splitlines()
    result = json.loads(out[-1])
    # 8 integral checks; ck2_k3_display on the seeded twisted torus fails
    assert result["correct"] is True
    assert result["metrics"]["checks_passed_frac"]["value"] == pytest.approx(7 / 8)
    line = next(l for l in out if l.startswith("checks:"))
    fields = dict(kv.split("=") for kv in line.split()[1:])
    assert float(fields["checks_failed_frac"]) == pytest.approx(1 / 8)
    assert float(fields["residual_margin_digits"]) < 0.0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_spans_nest(workload, tmp_path):
    w = workloads.WORKLOADS[workload](5, "tiny", tmp_path)
    w.setup()
    tracer = spans.Tracer()
    inst, _ = spans.instrument(tracer)
    try:
        result = w.run_pass(tracer)
    finally:
        inst.remove()
    assert not result.errors
    recs = tracer.spans
    assert recs
    assert all(s >= 0.0 for s in spans.self_times(recs))
    for rec in recs:
        parent = rec[spans.PARENT]
        if parent is not None:
            assert parent[spans.START] <= rec[spans.START] <= rec[spans.END] <= parent[spans.END]
    top = sum(r[spans.END] - r[spans.START] for r in recs if r[spans.PARENT] is None)
    assert top * 1e-9 <= result.wall_s
    assert spans.nesting_errors(recs, result.wall_s) == []
    if workload == "sweep":
        # chunks ran on worker threads, under their map_batched span
        chunks = [r for r in recs if r[spans.NAME] == "identities.chunk"]
        assert {r[spans.PARENT][spans.NAME] for r in chunks} == {"identities.map_batched"}
        assert any(r[spans.THREAD] != r[spans.PARENT][spans.THREAD] for r in chunks)


def test_instrumentation_is_removed(tmp_path):
    workloads.import_splitgeom()
    from splitgeom import chart, hyperdual, identities, splitting

    before = (chart.ChartFrame.__dict__["g"], hyperdual.HyperDual.__mul__,
              identities.map_batched, splitting.SplitContext.__init__, hyperdual.sin)
    inst, _ = spans.instrument(spans.Tracer())
    assert identities.map_batched is not before[2]
    inst.remove()
    after = (chart.ChartFrame.__dict__["g"], hyperdual.HyperDual.__mul__,
             identities.map_batched, splitting.SplitContext.__init__, hyperdual.sin)
    assert all(a is b for a, b in zip(before, after))


def test_nesting_errors_detects_bad_trees():
    parent = ["cli.run_scenario", None, 100, 200, None, 1, None]
    inside = ["splitting.frame", None, 120, 180, parent, 1, None]
    outside = ["splitting.cov", None, 150, 250, parent, 1, None]
    assert spans.nesting_errors([parent, inside], 1e-6) == []
    assert spans.nesting_errors([parent, inside, outside], 1e-6)
    assert spans.nesting_errors([parent, inside], 50e-9)  # top level > wall
    assert spans.self_times([parent, inside]) == pytest.approx([40e-9, 60e-9])


def test_overlapping_children_counted_once():
    parent = ["identities.map_batched", None, 0, 100, None, 1, None]
    a = ["identities.chunk", None, 10, 60, parent, 2, None]
    b = ["identities.chunk", None, 40, 90, parent, 3, None]
    assert spans.self_times([parent, a, b])[0] == pytest.approx(20e-9)


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("pointwise", 0, cwd=tmp_path, root=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
