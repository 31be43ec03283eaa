"""The report file of ``verify --all --seed 1``, pinned by a checked-in copy.

``tests/data/verify_all_seed1.json`` is regenerated with

    PYTHONPATH=src python -m splitgeom verify --all --seed 1 \\
        --out tests/data/verify_all_seed1.json

A change that regenerates it lists the fields that moved in CHANGES.md.
"""

import json
from pathlib import Path

from splitgeom.cli import main

GOLDEN = Path(__file__).parent / "data" / "verify_all_seed1.json"

EXACT = ("identity", "scenario", "kind", "n_points", "tolerance", "verdict", "grid", "note")
# roundoff-level fields, against an absolute bound
ABSOLUTE = ("max_abs_residual", "max_rel_residual", "integral_ratio", "stokes_ratio")
# integrals, against their report's normalizer
SCALED = ("integral_value", "stokes_value")


def test_verify_all_matches_the_golden_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["verify", "--all", "--seed", "1", "--out", str(out)]) == 0
    capsys.readouterr()
    got, want = json.loads(out.read_text()), json.loads(GOLDEN.read_text())
    assert [(r["scenario"], r["identity"], r["kind"]) for r in got] == \
        [(r["scenario"], r["identity"], r["kind"]) for r in want]
    for g, w in zip(got, want):
        where = f"{w['scenario']}:{w['identity']} ({w['kind']})"
        assert g.keys() == w.keys(), where
        assert {k for k, v in g.items() if v is None} == \
            {k for k, v in w.items() if v is None}, where
        for key in EXACT:
            assert g[key] == w[key], (where, key)
        if w["normalizer"] is not None:
            assert abs(g["normalizer"] - w["normalizer"]) <= 1e-12 * abs(w["normalizer"]), where
        for key in SCALED:
            if w[key] is not None:
                assert abs(g[key] - w[key]) <= 1e-12 * w["normalizer"], (where, key)
        for key in ABSOLUTE:
            if w[key] is not None:
                assert abs(g[key] - w[key]) <= 1e-12, (where, key)
