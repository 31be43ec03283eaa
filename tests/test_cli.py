import dataclasses
import itertools
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from splitgeom import chart, cli, hyperdual, identities, splitting
from splitgeom.cli import main
from splitgeom.expr import MAX_DEPTH


def run(argv):
    return main(argv)


def test_catalog_lists_scenarios(capsys):
    assert run(["catalog"]) == 0
    out = capsys.readouterr().out
    assert "twisted_torus_k3" in out
    assert "warped_t4_k4" in out
    assert "torus_revolution" in out
    assert "closed" in out and "open" in out


def test_verify_by_name_and_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = run(["verify", "--scenario", "twisted_torus_k3", "--samples", "10",
                "--seed", "3", "--out", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert "PASS twisted_torus_k3:main" in text
    reports = json.loads(out.read_text())
    assert all(r["verdict"] == "pass" for r in reports)
    assert all("wall_time" not in r for r in reports)
    assert os.path.exists(str(out) + ".timing.json")


def test_verify_config_file_deterministic(tmp_path):
    cfg = tmp_path / "twisted_torus_k3.json"
    cfg.write_text(json.dumps({
        "scenario": "twisted_torus_k3",
        "samples": 12,
        "seed": 11,
        "grid": 8,
        "out": str(tmp_path / "a.json"),
    }))
    assert run(["verify", "--scenario", str(cfg)]) == 0
    first = (tmp_path / "a.json").read_bytes()
    assert run(["verify", "--scenario", str(cfg), "--out",
                str(tmp_path / "b.json")]) == 0
    second = (tmp_path / "b.json").read_bytes()
    assert first == second


def test_verify_exit_codes_for_bad_config(tmp_path, capsys):
    # r = k is out of range for the auxiliary identity
    cfg = tmp_path / "bad_r.json"
    cfg.write_text(json.dumps({
        "scenario": "twisted_torus_k3",
        "identities": ["aux:3"],
        "samples": 4,
    }))
    assert run(["verify", "--scenario", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "r out of range" in err

    cfg2 = tmp_path / "unknown_key.json"
    cfg2.write_text(json.dumps({"scenario": "twisted_torus_k3", "bogus": 1}))
    assert run(["verify", "--scenario", str(cfg2)]) == 2

    cfg3 = tmp_path / "broken.json"
    cfg3.write_text("{not json")
    assert run(["verify", "--scenario", str(cfg3)]) == 2

    assert run(["verify", "--scenario", "no_such_scenario"]) == 2
    assert run(["verify"]) == 2


def test_verify_identities_filter(tmp_path, capsys):
    cfg = tmp_path / "filter.json"
    cfg.write_text(json.dumps({
        "scenario": "twisted_torus_k3",
        "identities": ["aux:2"],
        "samples": 6,
    }))
    assert run(["verify", "--scenario", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "aux:2" in out
    assert "companion" not in out


@pytest.mark.parametrize("scenario, wanted", [
    ("warped_twisted_t3", ["ck2_k3_display"]),
    ("twisted_torus_k3", ["main", "ck2_k3_display"]),
])
def test_verify_filter_runs_ck2_display_once_as_integral(tmp_path, scenario, wanted):
    cfg = tmp_path / "ck2.json"
    out = tmp_path / "ck2_report.json"
    cfg.write_text(json.dumps({"scenario": scenario, "identities": wanted,
                               "samples": 4, "out": str(out)}))
    assert run(["verify", "--scenario", str(cfg)]) == 0
    reports = json.loads(out.read_text())
    ck2 = [r for r in reports if r["identity"] == "ck2_k3_display"]
    assert [r["kind"] for r in ck2] == ["integral"]
    assert {r["identity"] for r in reports} == set(wanted)


def test_verify_filter_aux_printed_is_pointwise(tmp_path):
    cfg = tmp_path / "printed.json"
    out = tmp_path / "printed_report.json"
    cfg.write_text(json.dumps({"scenario": "twisted_torus_k3",
                               "identities": ["aux_printed:2"],
                               "samples": 4, "out": str(out)}))
    code = run(["verify", "--scenario", str(cfg)])
    [rep] = json.loads(out.read_text())
    assert (rep["identity"], rep["kind"], rep["n_points"]) == ("aux_printed:2", "pointwise", 4)
    assert code == (0 if rep["verdict"] == "pass" else 1)


def test_timing_sidecar_does_not_exceed_wall_time(tmp_path, monkeypatch):
    # a clock that advances one unit per reading: every timed interval
    # inside run_scenario is charged to the sidecar at most once
    ticks = itertools.count()
    monkeypatch.setattr(time, "perf_counter", lambda: float(next(ticks)))
    walls = []
    run_scenario = cli.run_scenario

    def timed(*args, **kwargs):
        t0 = time.perf_counter()
        reports = run_scenario(*args, **kwargs)
        walls.append(time.perf_counter() - t0)
        return reports

    monkeypatch.setattr(cli, "run_scenario", timed)
    out = tmp_path / "warped.json"
    assert run(["verify", "--scenario", "warped_t2", "--samples", "4",
                "--out", str(out)]) == 0
    timing = json.loads((tmp_path / "warped.json.timing.json").read_text())
    assert "warped_t2:warped_smix_warped" in timing
    assert sum(timing.values()) <= walls[0]


def test_verify_inline_scenario(tmp_path):
    cfg = tmp_path / "inline.json"
    cfg.write_text(json.dumps({
        "scenario": {
            "kind": "warped",
            "name": "inline_warped",
            "base_dim": 1,
            "fiber_dims": [1],
            "warps": ["2 + sin(x1)"],
        },
        "samples": 8,
        "out": str(tmp_path / "inline_report.json"),
    }))
    assert run(["verify", "--scenario", str(cfg)]) == 0
    reports = json.loads((tmp_path / "inline_report.json").read_text())
    assert any(r["scenario"] == "inline_warped" for r in reports)


def test_verify_csv_export(tmp_path):
    csv_path = tmp_path / "fields.csv"
    assert run(["verify", "--scenario", "warped_t2", "--samples", "6",
                "--csv", str(csv_path)]) == 0
    lines = csv_path.read_text().strip().splitlines()
    header = lines[0].split(",")
    assert header[0] == "scenario"
    assert "x1" in header and "x2" in header
    assert "main" in header
    assert len(lines) == 7  # header + 6 sample points


def test_report_diff(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    run(["verify", "--scenario", "warped_t2", "--samples", "5", "--out", str(a)])
    run(["verify", "--scenario", "warped_t2", "--samples", "5", "--out", str(b)])
    capsys.readouterr()
    assert run(["report", "--diff", str(a), str(b)]) == 0
    assert "identical" in capsys.readouterr().out

    run(["verify", "--scenario", "warped_t2", "--samples", "6", "--out", str(b)])
    capsys.readouterr()
    assert run(["report", "--diff", str(a), str(b)]) == 1
    assert "differs" in capsys.readouterr().out


REPORT = [{"scenario": "warped_t2", "identity": "main", "kind": "pointwise", "verdict": "pass"}]


@pytest.mark.parametrize("content", [None, "not json\n", '{"scenario": "warped_t2"}\n'],
                         ids=["missing", "not_json", "not_reports"])
def test_report_diff_refuses_a_file_that_holds_no_reports(tmp_path, capsys, content):
    # exit 2 (1 means reports differ), one line naming the file, no traceback
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    good.write_text(json.dumps(REPORT))
    if content is not None:
        bad.write_text(content)
    assert run(["report", "--diff", str(good), str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and str(bad) in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("flag", ["--out", "--csv"])
def test_verify_refuses_an_output_path_in_a_missing_directory(tmp_path, capsys, flag):
    path = tmp_path / "missing" / "out"
    assert run(["verify", "--scenario", "twisted_torus_k2", "--samples", "3",
                flag, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot write output: ") and str(path) in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("scenario, message", [
    ([], "scenario list is empty"),
    ([["warped_t2"]], "scenario must be a name, an object, or a list of those"),
], ids=["empty", "nested"])
def test_a_scenario_list_is_flat_and_not_empty(tmp_path, capsys, scenario, message):
    # an empty list is no silent pass of zero checks
    cfg = tmp_path / "list.json"
    cfg.write_text(json.dumps({"scenario": scenario}))
    assert run(["verify", "--scenario", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"config error: {message}\n"
    assert "passed" not in captured.out


def test_verify_hypersurface_scenario(capsys):
    assert run(["verify", "--scenario", "torus_revolution", "--samples", "6"]) == 0
    out = capsys.readouterr().out
    assert "surface_identity" in out
    assert "codazzi" in out
    assert "total_curvature" in out


@pytest.mark.parametrize("name", ["bogus", "dperp", "main"])
def test_hypersurface_filter_rejects_unknown_names(tmp_path, capsys, name):
    cfg = tmp_path / "filter.json"
    cfg.write_text(json.dumps({"scenario": "graph_r4", "identities": [name],
                               "samples": 4}))
    assert run(["verify", "--scenario", str(cfg)]) == 2
    assert f"unknown identity {name!r}" in capsys.readouterr().err


@pytest.mark.parametrize("scenario, name", [
    ("graph_r4", "dperp_integrability"),
    ("torus_revolution", "total_curvature"),
])
def test_hypersurface_filter_uses_report_names(tmp_path, monkeypatch, scenario, name):
    if name == "total_curvature":
        # the integral reads shape_data only: no principal bundle, no gap check
        def no_bundle(*args):
            raise AssertionError("principal_bundle called")

        monkeypatch.setattr(identities, "principal_bundle", no_bundle)
    cfg = tmp_path / "filter.json"
    out = tmp_path / "filter_report.json"
    cfg.write_text(json.dumps({"scenario": scenario, "identities": [name],
                               "samples": 4, "out": str(out)}))
    assert run(["verify", "--scenario", str(cfg)]) == 0
    assert [r["identity"] for r in json.loads(out.read_text())] == [name]


def test_threads_flag_never_changes_reports(tmp_path, monkeypatch):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    # the flag and the config are the only ways to set threads
    monkeypatch.setenv("SPLITGEOM_THREADS", "two")
    assert run(["verify", "--scenario", "warped_t2", "--samples", "8",
                "--out", str(a)]) == 0
    assert run(["verify", "--scenario", "warped_t2", "--samples", "8",
                "--threads", "3", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()  # worker count never changes results


def test_full_catalog_reports_identical_at_one_and_two_threads(tmp_path, monkeypatch):
    # the two workers plan and share einsum plans from an empty cache
    outs = []
    for threads in ("1", "2"):
        monkeypatch.setattr(hyperdual, "_PLANS", {})
        outs.append(tmp_path / f"t{threads}.json")
        assert run(["verify", "--all", "--seed", "12345", "--threads", threads,
                    "--out", str(outs[-1])]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_report_dicts_are_the_dataclass_fields_but_the_wall_time(tmp_path, monkeypatch):
    written = []
    write = cli.write_reports
    monkeypatch.setattr(cli, "write_reports",
                        lambda reports, path: (written.extend(reports), write(reports, path)))
    out = tmp_path / "all.json"
    assert run(["verify", "--all", "--seed", "1", "--out", str(out)]) == 0
    want = [{key: v for key, v in dataclasses.asdict(r).items() if key != "wall_time"}
            for r in written]
    assert [r.to_dict() for r in written] == want
    assert out.read_bytes() == (json.dumps(want, indent=2) + "\n").encode()
    # the grid is the dict's own
    r = next(r for r in written if r.grid is not None)
    r.to_dict()["grid"].append(0)
    assert r.to_dict() == next(w for w, x in zip(want, written) if x is r)


def test_split_context_jets_carry_one_slot_per_axis_read(tmp_path, monkeypatch):
    pending, narrow, diagonals = [], [], []

    def check(ctx):
        # every jet a context built, after the checks that read it; the
        # connection is differentiated only on its diagonal
        m = len(ctx.chart.depends_on | ctx.split.depends_on)
        fr = ctx.frame
        jets = [fr._g, fr._ginv, fr._gamma, ctx.E, ctx._diag]
        for jet in jets:
            if isinstance(jet, hyperdual.HyperDual):
                assert jet.grad.shape[-1] <= m
        narrow.append(m < ctx.n)
        diagonals.append(isinstance(ctx._diag, hyperdual.HyperDual))

    init = splitting.SplitContext.__init__

    def recording(self, *args, **kwargs):
        while pending:
            check(pending.pop())
        init(self, *args, **kwargs)
        pending.append(self)

    monkeypatch.setattr(splitting.SplitContext, "__init__", recording)
    assert run(["verify", "--all", "--seed", "1", "--out", str(tmp_path / "all.json")]) == 0
    while pending:
        check(pending.pop())
    assert any(narrow) and any(diagonals)


def test_verify_all_builds_one_context_per_split_scenario(tmp_path, monkeypatch):
    # the sample points and the quadrature nodes of a scenario are one
    # point set, whose chunks each build one geometry: 11 split scenarios,
    # 4 hypersurface bundles
    built = {splitting.SplitContext: 0, chart.ChartFrame: 0}

    def counting(cls):
        init = cls.__init__

        def wrapper(self, *args, **kwargs):
            built[cls] += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", wrapper)

    for cls in built:
        counting(cls)
    assert run(["verify", "--all", "--seed", "1", "--out", str(tmp_path / "all.json")]) == 0
    assert list(built.values()) == [11, 15]


@pytest.mark.parametrize("flags, message", [
    (["--samples", "0"], "samples: 0 is less than the minimum of 1"),
    (["--grid", "0"], "grid: 0 is less than the minimum of 4"),
    (["--threads", "0"], "threads: 0 is less than the minimum of 1"),
    (["--threads", "-2"], "threads: -2 is less than the minimum of 1"),
])
def test_bad_flag_exits_2(tmp_path, capsys, flags, message):
    # flags are validated with the config file they shadow
    cfg = tmp_path / "ok.json"
    out = tmp_path / "flags.json"
    cfg.write_text(json.dumps({"scenario": "warped_t2", "samples": 4, "grid": 8,
                               "threads": 1}))
    assert run(["verify", "--scenario", str(cfg), "--out", str(out)] + flags) == 2
    std = capsys.readouterr()
    assert std.out == "" and not out.exists()
    assert "Traceback" not in std.err
    assert f"config error: config rejected: {message}" in std.err


def test_importing_the_cli_loads_no_schema_validator_or_thread_pool(tmp_path):
    # in a fresh interpreter: jsonschema loads on the first validation, the
    # thread pool (with logging) on the first fan-out
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    probe = ("import sys, splitgeom.cli; "
             "print(sorted({'jsonschema', 'concurrent.futures'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, timeout=60)
    assert (out.returncode, out.stdout) == (0, "[]\n"), out.stderr
    bad = subprocess.run([sys.executable, "-m", "splitgeom", "verify", "--scenario",
                          "warped_t2", "--threads", "0", "--out", str(tmp_path / "r.json")],
                         env=env, capture_output=True, text=True, timeout=60)
    assert bad.returncode == 2 and bad.stdout == ""
    assert ("config error: config rejected: threads: 0 is less than the minimum of 1"
            in bad.stderr)
    assert "Traceback" not in bad.stderr


def test_seed_changes_sample_points(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    run(["verify", "--scenario", "warped_twisted_t3", "--samples", "8",
         "--seed", "1", "--out", str(a)])
    run(["verify", "--scenario", "warped_twisted_t3", "--samples", "8",
         "--seed", "2", "--out", str(b)])
    ra = json.loads(a.read_text())
    rb = json.loads(b.read_text())
    notes_a = [r["note"] for r in ra if r["kind"] == "pointwise"]
    notes_b = [r["note"] for r in rb if r["kind"] == "pointwise"]
    assert notes_a != notes_b  # different worst points under different seeds


def test_colliding_curvatures_name_their_point(tmp_path, capsys):
    # a round sphere has one curvature of multiplicity 2, so splitting it into
    # two simple groups must fail at the first sample point, and say where
    spec = {
        "kind": "hypersurface", "name": "sphere_as_two_groups",
        "axes": [{"lo": 0.4, "hi": 2.7, "periodic": False},
                 {"lo": 0.0, "hi": 6.283185307179586}],
        "immersion": ["1.5*sin(x1)*cos(x2)", "1.5*sin(x1)*sin(x2)", "1.5*cos(x1)"],
        "expected_k": 2, "expected_dims": [1, 1],
    }
    cfg = tmp_path / "sphere.json"
    cfg.write_text(json.dumps({"scenario": spec, "samples": 5, "seed": 4}))
    assert run(["verify", "--scenario", str(cfg)]) == 2
    err = capsys.readouterr().err
    scn = cli.build_inline_scenario(spec)
    first = scn.sample(5, cli.scenario_rng(4, scn.name))[0]
    assert "gap threshold" in err
    assert f"at {first.tolist()}" in err


def test_cli_import_pulls_no_heavy_modules():
    import subprocess
    import sys

    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    probe = ("import sys, splitgeom.cli; "
             "print(sorted(m for m in ('scipy', 'sympy') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, timeout=120, check=True).stdout
    assert out.strip() == "[]"


# -- one check namespace: every report name selects exactly its own reports ------

def verify_config(tmp_path, capsys, config, tag):
    """Run ``verify`` on ``config``; returns (exit code, report bytes, stdout, stderr)."""
    out = tmp_path / f"{tag}.json"
    cfg = tmp_path / f"{tag}_config.json"
    cfg.write_text(json.dumps({"samples": 6, "seed": 5, "out": str(out), **config}))
    code = run(["verify", "--scenario", str(cfg)])
    std = capsys.readouterr()
    return code, out.read_bytes() if out.exists() else None, std.out, std.err


@pytest.mark.parametrize("scenario, name", [
    ("warped_t2", "warped_mean_curvature"),
    ("warped_t4_k4", "warped_propagation"),
    ("warped_t3_fiber2", "warped_umbilicity"),
    ("graph_r4", "kmix_pairs"),
    ("torus_revolution", "total_curvature"),
    ("twisted_torus_k3", "main"),
])
def test_one_name_filter_selects_its_reports(tmp_path, capsys, scenario, name):
    code, every, _, _ = verify_config(tmp_path, capsys, {"scenario": scenario}, "all")
    assert code == 0
    code, only, _, _ = verify_config(
        tmp_path, capsys, {"scenario": scenario, "identities": [name]}, "one")
    assert code == 0
    wanted = [r for r in json.loads(every) if r["identity"] == name]
    assert only == (json.dumps(wanted, indent=2) + "\n").encode()
    kinds = ["pointwise", "integral"] if name == "main" else [wanted[0]["kind"]]
    assert [r["kind"] for r in wanted] == kinds


@pytest.mark.parametrize("scenario, names", [
    ("torus_revolution", ["dperp_integrability"]),   # needs k >= 3
    ("graph_r4", ["total_curvature"]),               # open chart
    ("warped_t4_k4", ["warped_smix_warped"]),        # sec2_exact is False
    ("warped_t2", ["warped_propagation"]),           # needs k >= 4
    ("twisted_torus_k4", ["ck2_k3_display"]),        # needs k = 3
    ("warped_t2", []),
])
def test_inapplicable_or_empty_filter_exits_2(tmp_path, capsys, scenario, names):
    code, report, out, err = verify_config(
        tmp_path, capsys, {"scenario": scenario, "identities": names}, "bad")
    assert code == 2
    assert report is None and out == ""
    assert f"for scenario {scenario}" in err
    for name in names:
        assert f"unknown identity {name!r} for scenario {scenario}; known: " in err


def test_filter_is_validated_on_every_scenario_first(tmp_path, capsys):
    code, report, out, err = verify_config(
        tmp_path, capsys, {"scenario": ["warped_t2", "graph_r4"], "identities": ["main"]},
        "mixed")
    assert code == 2
    assert report is None and out == ""
    assert "unknown identity 'main' for scenario graph_r4" in err


def test_dperp_reports_disagreement_of_its_routes(tmp_path, capsys, monkeypatch):
    from splitgeom import hypersurface

    frame_tensors = hypersurface._frame_tensors

    def no_connection(b):
        # the bracket route sees conn = 0, the cal route is untouched
        cal, conn = frame_tensors(b)
        return cal, np.zeros_like(conn)

    monkeypatch.setattr(hypersurface, "_frame_tensors", no_connection)
    code, report, _, _ = verify_config(
        tmp_path, capsys, {"scenario": "graph_r4", "identities": ["dperp_integrability"]},
        "dperp")
    [rep] = json.loads(report)
    assert code == 1
    assert (rep["verdict"], rep["max_abs_residual"], rep["tolerance"]) == ("fail", 1.0, 0.0)
    assert "cal_zero=False bracket_zero=True" in rep["note"]


def test_dperp_residual_is_zero_where_routes_agree(tmp_path, capsys):
    for scenario in ("graph_r4", "torus_cylinder_k3"):
        code, report, _, _ = verify_config(
            tmp_path, capsys, {"scenario": scenario, "identities": ["dperp_integrability"]},
            scenario)
        [rep] = json.loads(report)
        assert code == 0
        assert (rep["verdict"], rep["max_abs_residual"]) == ("pass", 0.0)
        assert "sup_cal=" in rep["note"] and "sup_bracket=" in rep["note"]


def test_config_tolerances_reach_hypersurface_reports(tmp_path, capsys):
    code, report, _, _ = verify_config(
        tmp_path, capsys, {"scenario": "graph_r4", "identities": ["kmix_pairs", "codazzi"],
                           "tolerances": {"kmix": 2e-7, "codazzi": 3e-10}}, "tols")
    assert code == 0
    assert {r["identity"]: r["tolerance"] for r in json.loads(report)} == {
        "kmix_pairs": 2e-7, "codazzi": 3e-10}


def test_report_diff_keys_reports_by_kind(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert run(["verify", "--scenario", "warped_t2", "--samples", "5", "--out", str(a)]) == 0
    reports = json.loads(a.read_text())
    for r in reports:
        if (r["identity"], r["kind"]) == ("main", "pointwise"):
            r["verdict"] = "fail"
    b.write_text(json.dumps(reports, indent=2) + "\n")
    capsys.readouterr()
    assert run(["report", "--diff", str(a), str(b)]) == 1
    out = capsys.readouterr().out
    assert out.splitlines() == ["differs: warped_t2:main (pointwise) fields ['verdict']"]


# -- inline scenarios: bad input exits 2 with a config error, never a traceback --

# a tube of radius 1 around a 2-sphere of radius 2 in R^4: curvatures of
# multiplicities 1 and 2
TUBE = {
    "kind": "hypersurface", "name": "tube_s2",
    "axes": [{"lo": -1, "hi": 1, "periodic": False},
             {"lo": 0.4, "hi": 2.74, "periodic": False},
             {"lo": 0, "hi": 6.283185307179586}],
    "immersion": ["(2 + cos(x1))*sin(x2)*cos(x3)", "(2 + cos(x1))*sin(x2)*sin(x3)",
                  "(2 + cos(x1))*cos(x2)", "sin(x1)"],
    "expected_k": 2, "expected_dims": [1, 2],
}
# a torus of revolution in R^3: an immersion of a 2-chart
TORUS = {"kind": "hypersurface", "name": "torus",
         "axes": [{"lo": 0.0, "hi": 2 * math.pi}] * 2,
         "immersion": ["(2 + cos(x1))*cos(x2)", "(2 + cos(x1))*sin(x2)", "sin(x1)"],
         "expected_dims": [1, 1]}


@pytest.mark.parametrize("spec, message", [
    ({"kind": "twisted_torus", "k": 2, "dims": [1, 1, 1]},
     "k=2 but dims=[1, 1, 1] has 3 blocks"),
    ({"kind": "twisted_torus", "k": 4, "dims": [1, 2]},
     "k=4 but dims=[1, 2] has 2 blocks"),
    ({**TUBE, "expected_k": 3, "expected_dims": [1, 1]},
     "expected_k=3 but expected_dims=[1, 1] has 2 blocks"),
    ({**TUBE, "expected_k": 1, "expected_dims": [1, 1]},
     "expected_k=1 but expected_dims=[1, 1] has 2 blocks"),
    ({"kind": "warped", "name": "log_warp", "base_dim": 1, "fiber_dims": [1],
      "warps": ["2 + log(sin(x1))"]},
     "scenario 'log_warp': log: "),
    ({"kind": "twisted_torus", "name": "sqrt_twist", "dims": [1, 1, 1],
      "twist": "sqrt(sin(x3))"},
     "scenario 'sqrt_twist': sqrt: "),
    ({"kind": "warped", "name": "fiber_warp", "base_dim": 1, "fiber_dims": [1],
      "warps": ["x2 + 2"]},
     "scenario 'fiber_warp': coordinate x2 exceeds chart dimension 1"),
    # a quarter turn per period swaps two distributions
    ({"kind": "twisted_torus", "k": 3, "dims": [1, 1, 1], "twist": "0.25*x3"},
     "scenario 'twisted_torus': distribution 1 not periodic along axis 3"),
    # the failing expression is named
    ({"kind": "warped", "base_dim": 1, "fiber_dims": [1, 1],
      "warps": ["2 + sin(x1)", "x2 + 2"]},
     "scenario 'warped': coordinate x2 exceeds chart dimension 1 (byte offset 0) "
     "in warp 2 'x2 + 2'"),
    ({"kind": "warped", "name": "log_warp", "base_dim": 1, "fiber_dims": [1, 1],
      "warps": ["2 + cos(x1)", "2 + log(sin(x1))"]},
     "scenario 'log_warp': log: log of non-positive value in warp 2 '2 + log(sin(x1))'"),
    ({"kind": "twisted_torus", "name": "sqrt_twist", "dims": [1, 1, 1],
      "twist": "sqrt(sin(x3))"},
     "scenario 'sqrt_twist': sqrt: sqrt of negative value in twist 'sqrt(sin(x3))'"),
    ({"kind": "warped_twisted", "u": "2 + x4"},
     "scenario 'warped_twisted': coordinate x4 exceeds chart dimension 3 (byte offset 4) "
     "in u '2 + x4'"),
    # domain errors of u and the twist show while the scenario is built
    ({"kind": "warped_twisted", "u": "2 + log(sin(x1))"},
     "scenario 'warped_twisted': log: log of non-positive value in u '2 + log(sin(x1))'"),
    ({"kind": "warped_twisted", "twist": "sqrt(sin(x1))"},
     "scenario 'warped_twisted': sqrt: sqrt of negative value in twist 'sqrt(sin(x1))'"),
    # the chart is validated: a warp that is not periodic on the torus
    ({"kind": "warped", "base_dim": 1, "fiber_dims": [2], "warps": ["2 + 0.1*x1"]},
     "scenario 'warped': metric not periodic along axis 1"),
    ({"kind": "warped", "base_dim": 1, "fiber_dims": [1], "warps": ["2 + 0.1*x1"]},
     "scenario 'warped': metric not periodic along axis 1"),
    # the distributions of a warped twisted torus are checked too
    ({"kind": "warped_twisted", "twist": "0.25*x1"},
     "scenario 'warped_twisted': distribution 2 not periodic along axis 1"),
    # a hypersurface is its immersion: the induced metric and, by the entry
    # count, the ambient space form are not inputs
    ({**TUBE, "metric": [["1", "0", "0"], ["0", "(2 + cos(x1))^2", "0"],
                         ["0", "0", "(2 + cos(x1))^2*sin(x2)^2"]]},
     "invalid inline scenario: Additional properties are not allowed ('metric' was unexpected)"),
    ({**TUBE, "ambient_curv": 0},
     "invalid inline scenario: Additional properties are not allowed "
     "('ambient_curv' was unexpected)"),
    # a malformed hypersurface is refused while it is built
    ({**TORUS, "immersion": TORUS["immersion"][:2]},
     "scenario 'torus': an immersion of 2 axes has 3 or 4 entries, not 2"),
    ({**TORUS, "immersion": TORUS["immersion"] + ["0", "0"]},
     "scenario 'torus': an immersion of 2 axes has 3 or 4 entries, not 5"),
    ({**TUBE, "expected_dims": [1, 1], "expected_k": 2},
     "scenario 'tube_s2': expected multiplicities do not sum to the chart dimension"),
])
def test_bad_inline_scenario_exits_2(tmp_path, capsys, spec, message):
    code, report, out, err = verify_config(tmp_path, capsys, {"scenario": spec}, "bad")
    assert code == 2
    assert report is None and out == ""
    assert "Traceback" not in err
    assert message in err


@pytest.mark.parametrize("spec, message, axis", [
    ({"kind": "warped", "base_dim": 1, "fiber_dims": [1], "warps": ["2 + log(sin(x1))"]},
     "log: log of non-positive value in warp 1 '2 + log(sin(x1))' at ", 0),
    ({"kind": "warped", "base_dim": 1, "fiber_dims": [1], "warps": ["sin(x1)"]},
     "warp 'sin(x1)' is not positive on the chart at ", 0),
    ({"kind": "twisted_torus", "dims": [1, 1, 1], "twist": "sqrt(sin(x3))"},
     "sqrt: sqrt of negative value in twist 'sqrt(sin(x3))' at ", 2),
    ({"kind": "warped_twisted", "u": "2 + log(sin(x1))"},
     "log: log of non-positive value in u '2 + log(sin(x1))' at ", 0),
])
def test_inline_expression_error_names_the_point(tmp_path, capsys, spec, message, axis):
    code, report, out, err = verify_config(tmp_path, capsys, {"scenario": spec}, "bad")
    assert code == 2
    assert report is None and out == ""
    assert "Traceback" not in err
    assert message in err
    # a point of the chart where each of these expressions fails: sin(x) <= 0
    point = json.loads(err.split(message)[1])
    assert len(point) == (2 if spec["kind"] == "warped" else 3)
    assert np.sin(point[axis]) <= 0.0


@pytest.mark.parametrize("change, message", [
    ({"immersion": TUBE["immersion"][:3] + ["sin(x5)"]},
     "coordinate x5 exceeds chart dimension 3 (byte offset 4) in immersion entry 4 'sin(x5)'"),
], ids=["immersion"])
def test_inline_hypersurface_parse_error_names_the_entry(tmp_path, capsys, change, message):
    code, report, out, err = verify_config(tmp_path, capsys,
                                           {"scenario": {**TUBE, **change}}, "bad")
    assert code == 2
    assert report is None and out == ""
    assert err == f"config error: scenario 'tube_s2': {message}\n"


def test_inline_immersion_domain_error_names_the_entry_and_point(tmp_path, capsys):
    # the immersion is evaluated while the scenario is built, not mid-run
    spec = {**TUBE, "immersion": TUBE["immersion"][:3] + ["log(x1 - 5)"]}
    code, report, out, err = verify_config(tmp_path, capsys, {"scenario": spec}, "bad")
    assert code == 2
    assert report is None and out == ""
    head = ("config error: scenario 'tube_s2': log: log of non-positive value "
            "in immersion entry 4 'log(x1 - 5)' at ")
    assert err.startswith(head)
    point = json.loads(err[len(head):])
    assert all(a["lo"] <= x <= a["hi"] for a, x in zip(TUBE["axes"], point, strict=True))


def test_sphere_immersion_off_the_unit_sphere_names_its_point(tmp_path, capsys):
    # four entries immerse a 2-chart into the unit 3-sphere; this torus has
    # |F| = sqrt(2), refused while the config is read: the scenario listed
    # before it never runs
    spec = {**TORUS, "immersion": ["cos(x1)", "sin(x1)", "cos(x2)", "sin(x2)"]}
    code, report, out, err = verify_config(
        tmp_path, capsys, {"scenario": ["twisted_torus_k3", spec], "samples": 5, "seed": 4},
        "off")
    assert code == 2
    assert report is None and out == ""
    head = "config error: scenario 'torus': sphere immersion does not lie on the unit sphere at "
    assert err.startswith(head)
    point = json.loads(err[len(head):])
    assert len(point) == 2 and all(0.0 <= x <= 2 * math.pi for x in point)


def test_immersion_domain_error_off_the_sample_box_names_the_entry(tmp_path, capsys):
    # fine on the sample box, undefined at x1 < -0.95: found on the chart's
    # validation lattice, under the entry's own name, not a derived metric entry
    spec = {**TUBE, "immersion": TUBE["immersion"][:3] + ["sqrt(x1 + 0.95)"],
            "sample_box": [[-0.9, 1.0], [0.4, 2.74], [0.0, 2 * math.pi]]}
    code, report, out, err = verify_config(tmp_path, capsys, {"scenario": spec}, "bad")
    assert code == 2
    assert report is None and out == ""
    head = ("config error: scenario 'tube_s2': sqrt: sqrt of negative value "
            "in immersion entry 4 'sqrt(x1 + 0.95)' at ")
    assert err.startswith(head)
    assert json.loads(err[len(head):])[0] < -0.95


def test_inline_warped_needs_one_warp_per_fiber(tmp_path, capsys):
    spec = {"kind": "warped", "base_dim": 1, "fiber_dims": [1, 1], "warps": ["2 + sin(x1)"]}
    code, report, out, err = verify_config(tmp_path, capsys, {"scenario": spec}, "bad")
    assert code == 2
    assert report is None and out == ""
    assert err == "config error: scenario 'warped': one warp expression per fiber is required\n"


# each catalog hypersurface as an inline config: its name, chart, immersion
# and options, with the catalog's quadrature grid as the config grid
CATALOG_AS_INLINE = {
    "torus_revolution": ({
        "axes": [{"lo": 0.0, "hi": 2 * math.pi}] * 2,
        "immersion": ["(2.0 + 1.0*cos(x1))*cos(x2)", "(2.0 + 1.0*cos(x1))*sin(x2)",
                      "1.0*sin(x1)"],
        "expected_dims": [1, 1]}, [48, 4]),
    "clifford_torus": ({
        "axes": [{"lo": 0.0, "hi": 2 * math.pi}] * 2,
        "immersion": [f"{1 / math.sqrt(2)!r}*{f}(x{a})" for a in (1, 2) for f in ("cos", "sin")],
        "expected_dims": [1, 1]}, [8, 8]),
    "graph_r4": ({
        "axes": [{"lo": -0.15, "hi": 0.15, "periodic": False}] * 3,
        "immersion": ["x1", "x2", "x3", "0.3*x1^2 + 0.2*x2^2 + 0.1*x3^2 + 0.05*x1*x2*x3"],
        "expected_dims": [1, 1, 1], "normal_flip": True,
        "gap_threshold": 0.05}, None),
    "torus_cylinder_k3": ({
        "axes": [{"lo": -1.0, "hi": 1.0, "periodic": False},
                 {"lo": 0.0, "hi": 2 * math.pi}, {"lo": 0.0, "hi": 2 * math.pi}],
        "immersion": ["(2.0 + cos(x1))*cos(x2)", "(2.0 + cos(x1))*sin(x2)", "sin(x1)", "x3"],
        "expected_dims": [1, 1, 1],
        "sample_box": [[-0.9, 0.9], [0.0, 2 * math.pi], [0.0, 2 * math.pi]]}, None),
}


@pytest.mark.parametrize("name", sorted(CATALOG_AS_INLINE))
def test_catalog_hypersurface_as_inline_config_gives_the_same_reports(tmp_path, capsys, name):
    spec, grid = CATALOG_AS_INLINE[name]
    inline = {"scenario": {"kind": "hypersurface", "name": name, **spec}}
    if grid is not None:
        inline["grid"] = grid
    catalog = verify_config(tmp_path, capsys, {"scenario": name}, "catalog")
    built = verify_config(tmp_path, capsys, inline, "inline")
    assert catalog[0] == 0 and catalog[1]
    assert built == catalog


# -- deep expressions: refused with a config error; at the depth limit they run --

@pytest.mark.parametrize("warp", [
    "(" * 600 + "sin(x1)" + ")" * 600,
    "2 + sin(x1)" + " + 0*x1" * 700,
    "-" * 1200 + "sin(x1)",
])
def test_deep_expression_exits_2_naming_it(tmp_path, capsys, warp):
    spec = {"kind": "warped", "base_dim": 1, "fiber_dims": [1], "warps": [warp]}
    code, report, out, err = verify_config(tmp_path, capsys, {"scenario": spec}, "deep")
    assert code == 2
    assert report is None and out == ""
    assert err.startswith("config error: scenario 'warped': ")
    assert f" in warp 1 {warp!r}" in err and "Traceback" not in err


def test_expression_at_the_depth_limit_runs(tmp_path, capsys):
    # a left-deep sum: each "+ 0*x1" adds one level and changes no value
    pad = " + 0*x1" * (MAX_DEPTH - 3)
    warped = {"kind": "warped", "base_dim": 1, "fiber_dims": [1],
              "warps": ["2 + sin(x1)" + pad]}  # 3 levels before the padding
    code, report, _, err = verify_config(tmp_path, capsys, {"scenario": warped}, "warp")
    assert code == 0, err
    assert all(r["verdict"] == "pass" for r in json.loads(report))
    warped["warps"] = [warped["warps"][0] + " + 0*x1"]
    code, _, _, err = verify_config(tmp_path, capsys, {"scenario": warped}, "over")
    assert code == 2 and f"nested deeper than {MAX_DEPTH} levels" in err

    # as an immersion, whose entries are differentiated twice
    plain = verify_config(tmp_path, capsys, {"scenario": TUBE}, "plain")
    immersion = TUBE["immersion"][:3] + ["sin(x1)" + " + 0*x1" * (MAX_DEPTH - 2)]
    deep = verify_config(tmp_path, capsys, {"scenario": {**TUBE, "immersion": immersion}},
                         "deep")
    assert deep[0] == plain[0] == 0, deep[3]
    verdicts = [[(r["identity"], r["verdict"]) for r in json.loads(run[1])]
                for run in (plain, deep)]
    assert verdicts[0] == verdicts[1] and verdicts[0]


@pytest.mark.parametrize("twist", ["x3", "0.5*x3"])
def test_twist_that_turns_periodic_distributions_passes(tmp_path, capsys, twist):
    # the frame turns by 2 pi or pi per period; each line field is periodic
    spec = {"kind": "twisted_torus", "dims": [1, 1, 1], "twist": twist}
    code, report, _, err = verify_config(tmp_path, capsys, {"scenario": spec}, "turn")
    assert code == 0, err
    reports = json.loads(report)
    assert len(reports) == 8 and all(r["verdict"] == "pass" for r in reports)


def test_undeclared_frame_axis_exits_2(tmp_path, capsys, monkeypatch):
    # a twisted torus whose frame turns with x1 but declares only x3
    def lying():
        scn = cli.build_twisted_torus((1, 1, 1), twist="sin(x1)", name="lying")
        scn.split.depends_on = frozenset({2})
        return scn

    monkeypatch.setattr(cli, "full_catalog", lambda: {"lying": lying})
    errors = []
    # sample points, and an integral-only check on quadrature nodes: the
    # refusal reads the frame's expressions, so it does not depend on them
    for extra in ({}, {"identities": ["ck2_k3_display"]}, {"seed": 7}):
        code, report, out, err = verify_config(
            tmp_path, capsys, {"scenario": "lying", **extra}, "lying")
        assert code == 2
        assert report is None and "Traceback" not in err
        assert "frame varies along axis 1" in err
        errors.append(err)
    assert errors[0] == errors[1] == errors[2]


@pytest.mark.parametrize("grid", [[8, 8], [8, 8, 8, 8]])
def test_grid_list_of_the_wrong_length_exits_2(tmp_path, capsys, grid):
    code, report, out, err = verify_config(
        tmp_path, capsys, {"scenario": "twisted_torus_k3", "grid": grid}, "grid")
    assert code == 2 and report is None
    assert "Traceback" not in err
    assert f"grid {grid} needs 3 resolutions of at least 4" in err


def test_twisted_torus_default_grid_resolves_the_twisted_axis(tmp_path, capsys):
    spec = {"kind": "twisted_torus", "dims": [1, 1, 1], "twist": "sin(x1)"}
    config = {"scenario": spec, "identities": ["main"]}
    normalizers = []
    for tag, extra in (("default", {}), ("fine", {"grid": 32})):
        code, report, _, _ = verify_config(tmp_path, capsys, {**config, **extra}, tag)
        assert code == 0
        [integral] = [r for r in json.loads(report) if r["kind"] == "integral"]
        normalizers.append(integral["normalizer"])
    assert integral["grid"] == [32, 32, 32]
    assert normalizers[0] == pytest.approx(normalizers[1], rel=1e-12)


def test_scenario_without_applicable_check_exits_2(tmp_path, capsys):
    # a round sphere as one curvature group of multiplicity 2: k = 1
    sphere = {
        "kind": "hypersurface", "name": "sphere_one_group",
        "axes": [{"lo": 0.4, "hi": 2.7, "periodic": False},
                 {"lo": 0.0, "hi": 6.283185307179586}],
        "immersion": ["1.5*sin(x1)*cos(x2)", "1.5*sin(x1)*sin(x2)", "1.5*cos(x1)"],
        "expected_k": 1, "expected_dims": [2],
    }
    code, report, out, err = verify_config(tmp_path, capsys, {"scenario": sphere}, "one")
    assert code == 2
    assert report is None and out == ""
    assert "no check applies to scenario sphere_one_group" in err


def test_multiple_curvature_runs_only_the_checks_it_supports(tmp_path, capsys):
    code, report, _, _ = verify_config(tmp_path, capsys, {"scenario": TUBE}, "tube")
    assert code == 0
    assert [r["identity"] for r in json.loads(report)] == ["kmix_pairs", "surface_identity"]
    code, report, out, err = verify_config(
        tmp_path, capsys, {"scenario": TUBE, "identities": ["codazzi"]}, "codazzi")
    assert code == 2
    assert report is None and out == ""
    assert "unknown identity 'codazzi' for scenario tube_s2" in err


def test_timing_sidecar_has_one_key_per_report(tmp_path):
    out = tmp_path / "warped.json"
    assert run(["verify", "--scenario", "warped_t2", "--samples", "4",
                "--out", str(out)]) == 0
    reports = json.loads(out.read_text())
    timing = json.loads((tmp_path / "warped.json.timing.json").read_text())
    assert len(timing) == len(reports)
    assert {"warped_t2:main", "warped_t2:main (integral)"} <= set(timing)
