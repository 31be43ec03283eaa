"""Command-line verification driver.

Subcommands:

* ``verify``  -- run identity checks for one scenario (by catalog name or
  JSON config path) or for the whole catalog (``--all``), write a
  deterministic JSON report (and optional per-point CSV), exit 0 only if
  every check passes.
* ``catalog`` -- list built-in scenarios.
* ``report``  -- diff two report files (timings ignored).

Config files are JSON, schema-validated, unknown keys rejected::

    {
      "scenario": "twisted_torus_k3",        // name, inline object, or list
      "identities": ["main", "aux:2"],       // optional filter
      "samples": 200, "seed": 7,
      "grid": 32,                            // int or per-axis list
      "tolerances": {"pointwise": 1e-8, "integral": 1e-10, "predicate": 1e-9},
      "out": "report.json", "csv": "fields.csv", "threads": 2
    }

Command-line flags shadow config values.  Reports are byte-identical for
identical config and seed; wall-times go to a sidecar ``<out>.timing.json``.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import errno
import functools
import json
import math
import os
import sys
import zlib

import numpy as np

from .chart import Axis, GeometryError
from .expr import ExprError
from .hypersurface import GapError, build_hypersurface, hypersurface_catalog
from .identities import INTEGRAL, POINTWISE, Tolerances, run_checks, select_checks
from .scenarios import build_twisted_torus, build_warped, build_warped_twisted, kproduct_catalog

DEFAULT_SAMPLES = 100
HYPERSURFACE_SAMPLE_CAP = 20


class ConfigError(ValueError):
    pass


CONFIG_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "scenario": {},
        "identities": {"type": "array", "items": {"type": "string"}},
        "samples": {"type": "integer", "minimum": 1},
        "seed": {"type": "integer", "minimum": 0},
        "grid": {"anyOf": [{"type": "integer", "minimum": 4},
                           {"type": "array", "items": {"type": "integer", "minimum": 4}}]},
        "tolerances": {
            "type": "object",
            "additionalProperties": False,
            "properties": {f.name: {"type": "number", "minimum": 0}
                           for f in dataclasses.fields(Tolerances)},
        },
        "out": {"type": "string"},
        "csv": {"type": "string"},
        "threads": {"type": "integer", "minimum": 1},
    },
}

_INLINE_SCHEMAS = {
    "twisted_torus": {
        "type": "object",
        "additionalProperties": False,
        "required": ["kind", "dims"],
        "properties": {
            "kind": {"const": "twisted_torus"},
            "name": {"type": "string"},
            "k": {"type": "integer", "minimum": 2},
            "dims": {"type": "array", "items": {"type": "integer", "minimum": 1}},
            "twist": {"type": "string"},
        },
    },
    "warped": {
        "type": "object",
        "additionalProperties": False,
        "required": ["kind", "base_dim", "fiber_dims", "warps"],
        "properties": {
            "kind": {"const": "warped"},
            "name": {"type": "string"},
            "base_dim": {"type": "integer", "minimum": 1},
            "fiber_dims": {"type": "array", "items": {"type": "integer", "minimum": 1}},
            "warps": {"type": "array", "items": {"type": "string"}},
        },
    },
    "warped_twisted": {
        "type": "object",
        "additionalProperties": False,
        "required": ["kind"],
        "properties": {
            "kind": {"const": "warped_twisted"},
            "name": {"type": "string"},
            "u": {"type": "string"},
            "twist": {"type": "string"},
        },
    },
    "hypersurface": {
        "type": "object",
        "additionalProperties": False,
        "required": ["kind", "axes", "immersion", "expected_dims"],
        "properties": {
            "kind": {"const": "hypersurface"},
            "name": {"type": "string"},
            "axes": {"type": "array", "items": {
                "type": "object",
                "additionalProperties": False,
                "required": ["lo", "hi"],
                "properties": {"lo": {"type": "number"}, "hi": {"type": "number"},
                               "periodic": {"type": "boolean"}},
            }},
            "immersion": {"type": "array", "items": {"type": "string"}},
            "expected_k": {"type": "integer", "minimum": 1},
            "expected_dims": {"type": "array", "items": {"type": "integer", "minimum": 1}},
            "normal_flip": {"type": "boolean"},
            "sample_box": {"type": "array",
                           "items": {"type": "array", "items": {"type": "number"},
                                     "minItems": 2, "maxItems": 2}},
            "gap_threshold": {"type": "number"},
        },
    },
}


@functools.cache
def _validator(kind):
    # built on first use, so that its schema is checked against the
    # metaschema (most of the cost of ``jsonschema.validate``) once; the
    # import waits too, so that importing this module does not load it
    import jsonschema

    schema = CONFIG_SCHEMA if kind is None else _INLINE_SCHEMAS[kind]
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


def _refuse_non_finite(value, path=()):
    """Raise :class:`ConfigError` naming the key path of the first number
    in the config ``value`` that is not finite: JSON reads ``NaN``,
    ``Infinity`` and overflowing literals, and ``--tol`` reads ``inf``."""
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"config rejected: {'.'.join(map(str, path))}: {value} is not a "
                          f"finite number")
    if isinstance(value, (dict, list)):
        for key, item in value.items() if isinstance(value, dict) else enumerate(value):
            _refuse_non_finite(item, path + (key,))


def _validate(kind, instance):
    """Validate the config (``kind`` None) or an inline scenario of ``kind``
    against its schema, with a validator built once.  Raises
    :class:`ConfigError` with the best-matching error, as
    ``jsonschema.validate`` would pick it, after its key path in the
    instance."""
    validator = _validator(kind)
    from jsonschema.exceptions import best_match

    error = best_match(validator.iter_errors(instance))
    if error is None:
        return
    where = f"{'.'.join(map(str, error.absolute_path))}: " if error.absolute_path else ""
    what = "config rejected" if kind is None else "invalid inline scenario"
    raise ConfigError(f"{what}: {where}{error.message}")


def full_catalog():
    cat = {}
    cat.update(kproduct_catalog())
    cat.update(hypersurface_catalog())
    return cat


def build_inline_scenario(spec):
    kind = spec.get("kind")
    if kind not in _INLINE_SCHEMAS:
        raise ConfigError(f"unknown scenario kind {kind!r}")
    _validate(kind, spec)
    label = spec.get("name", kind)
    # an optional block count must agree with the block dimensions
    for k_key, dims_key in (("k", "dims"), ("expected_k", "expected_dims")):
        if k_key in spec and spec[k_key] != len(spec[dims_key]):
            raise ConfigError(f"scenario {label!r}: {k_key}={spec[k_key]} but {dims_key}="
                              f"{spec[dims_key]} has {len(spec[dims_key])} blocks")
    try:
        scn = _build_inline(kind, spec)
        scn.chart.validate()
    except (ExprError, GeometryError) as e:
        raise ConfigError(f"scenario {label!r}: {e}")
    return scn


def _build_inline(kind, spec):
    if kind == "twisted_torus":
        return build_twisted_torus(spec["dims"], twist=spec.get("twist", "sin(x{n})"),
                                   name=spec.get("name"))
    if kind == "warped":
        return build_warped(spec["base_dim"], spec["fiber_dims"], spec["warps"],
                            name=spec.get("name", "warped"))
    if kind == "warped_twisted":
        return build_warped_twisted(name=spec.get("name", "warped_twisted"),
                                    **{key: spec[key] for key in ("u", "twist") if key in spec})
    return build_hypersurface(
        spec.get("name", "hypersurface"),
        [Axis(a["lo"], a["hi"], a.get("periodic", True)) for a in spec["axes"]],
        spec["immersion"], spec["expected_dims"],
        normal_flip=spec.get("normal_flip", False), sample_box=spec.get("sample_box"),
        gap_threshold=spec.get("gap_threshold"))


def resolve_scenarios(entry):
    """The scenarios of a config's ``scenario`` value: a catalog name, an
    inline object, or a non-empty flat list of those."""
    entries = entry if isinstance(entry, list) else [entry]
    if not entries:
        raise ConfigError("scenario list is empty")
    cat = full_catalog()
    out = []
    for item in entries:
        if isinstance(item, str):
            if item not in cat:
                raise ConfigError(
                    f"unknown scenario {item!r}; catalog: {', '.join(sorted(cat))}")
            out.append(cat[item]())
        elif isinstance(item, dict):
            out.append(build_inline_scenario(item))
        else:
            raise ConfigError("scenario must be a name, an object, or a list of those")
    return out


def scenario_rng(seed, name):
    return np.random.default_rng([seed, zlib.crc32(name.encode())])


def run_scenario(scn, samples, seed, grid_override, tols, threads,
                 identities_filter=None, csv_rows=None):
    """The selected checks of one scenario, in check-table order; returns
    the list of CheckReports."""
    rows = select_checks(scn, identities_filter)
    if scn.kind == "hypersurface":
        samples = min(samples, HYPERSURFACE_SAMPLE_CAP)
    pts = scn.sample(samples, scenario_rng(seed, scn.name))
    grid = scn.meta.get("integral_grid", 16) if grid_override is None else grid_override
    reports, fields = run_checks(scn, rows, pts, grid, tols, threads=threads)
    pointwise = [row.name for row in rows if row.check.kind == POINTWISE]
    if csv_rows is not None and pointwise:
        store = csv_rows.setdefault(
            scn.name, {"points": pts.reshape(-1, pts.shape[-1]), "columns": {}})
        store["columns"].update((name, fields[name]) for name in pointwise)
    return reports


# -- report emission ------------------------------------------------------------

def write_reports(reports, out_path):
    with open(out_path, "w") as fh:
        fh.write(json.dumps([r.to_dict() for r in reports], indent=2) + "\n")
    # one key per report: a name can have a pointwise and an integral report
    timing = {f"{r.scenario}:{r.identity}" + (" (integral)" if r.kind == INTEGRAL else ""):
              r.wall_time for r in reports}
    with open(out_path + ".timing.json", "w") as fh:
        json.dump(timing, fh, indent=2)
        fh.write("\n")


def write_csv(csv_rows, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for name in sorted(csv_rows):
            store = csv_rows[name]
            pts = store["points"]
            cols = sorted(store["columns"])
            header = ["scenario"] + [f"x{a + 1}" for a in range(pts.shape[-1])] + cols
            writer.writerow(header)
            flat = pts.reshape(-1, pts.shape[-1])
            for i in range(flat.shape[0]):
                row = [name] + [repr(float(v)) for v in flat[i]]
                for c in cols:
                    row.append(repr(float(store["columns"][c].reshape(-1)[i])))
                writer.writerow(row)


# -- entry points -----------------------------------------------------------------

def read_json(path, what):
    """The JSON value in the file ``path``; a file that cannot be read or
    holds no JSON raises :class:`ConfigError` naming the ``what`` and path."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as e:
        raise ConfigError(f"cannot read {what}: {e}")
    except ValueError as e:  # not JSON, or not text
        raise ConfigError(f"{what} {path!r} is not valid JSON: {e}")


def load_config(path):
    config = read_json(path, "config")
    if not isinstance(config, dict):
        raise ConfigError("config rejected: it must be a JSON object")
    return config


def cmd_verify(args):
    config = {}
    if args.scenario and (os.path.sep in args.scenario
                          or args.scenario.endswith(".json")
                          or os.path.exists(args.scenario)):
        config = load_config(args.scenario)
    elif args.scenario:
        config = {"scenario": args.scenario}
    elif not getattr(args, "all", False):
        raise ConfigError("need --scenario NAME|CONFIG.json or --all")

    if getattr(args, "all", False):
        config["scenario"] = sorted(full_catalog())

    # flag overrides shadow config values
    for key in ("grid", "seed", "samples", "out", "csv", "threads"):
        if getattr(args, key) is not None:
            config[key] = getattr(args, key)
    if args.tol is not None:
        config.setdefault("tolerances", {}).update(pointwise=args.tol, integral=args.tol)
    # one validation of the file and flags together
    _refuse_non_finite(config)
    _validate(None, config)
    # an output path in a missing directory fails before the run
    for path in (config.get("out"), config.get("csv")):
        if path and not os.path.isdir(os.path.dirname(path) or "."):
            missing = FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
            raise ConfigError(f"cannot write output: {missing}")

    scenarios = resolve_scenarios(config.get("scenario"))
    samples = config.get("samples", DEFAULT_SAMPLES)
    seed = config.get("seed", 0)
    grid_override = config.get("grid")
    threads = config.get("threads", 1)
    tols = Tolerances(**{key: float(v) for key, v in config.get("tolerances", {}).items()})
    identities_filter = config.get("identities")
    csv_rows = {} if config.get("csv") else None
    all_reports = []
    try:
        # every scenario accepts the filter before any check runs
        for scn in scenarios:
            select_checks(scn, identities_filter)
        for scn in scenarios:
            reports = run_scenario(scn, samples, seed, grid_override, tols, threads,
                                   identities_filter=identities_filter,
                                   csv_rows=csv_rows)
            for rep in reports:
                status = rep.verdict.upper()
                detail = ""
                if rep.max_abs_residual is not None:
                    detail += f" max_abs={rep.max_abs_residual:.3e}"
                if rep.integral_ratio is not None:
                    detail += f" integral_ratio={rep.integral_ratio:.3e}"
                if rep.verdict == "fail" and rep.note:
                    detail += f" ({rep.note})"
                print(f"{status:4s} {rep.scenario}:{rep.identity}{detail}")
            all_reports.extend(reports)
    except ValueError as e:
        raise ConfigError(str(e))

    try:
        if config.get("out"):
            write_reports(all_reports, config["out"])
        if csv_rows is not None:
            write_csv(csv_rows, config["csv"])
    except OSError as e:
        raise ConfigError(f"cannot write output: {e}")

    failed = [r for r in all_reports if r.verdict != "pass"]
    if failed:
        worst = failed[0]
        print(f"FAILED: {len(failed)} checks; first: {worst.scenario}:{worst.identity}"
              f" ({worst.note})", file=sys.stderr)
        return 1
    print(f"all {len(all_reports)} checks passed")
    return 0


def cmd_catalog(_args):
    for name, builder in sorted(full_catalog().items()):
        scn = builder()
        closed = "closed" if scn.closed else "open"
        print(f"{name:24s} kind={scn.kind:14s} k={scn.k} dims={list(scn.dims)}"
              f" dim={scn.chart.dim} {closed}")
    return 0


def cmd_report(args):
    if not args.diff or len(args.diff) != 2:
        raise ConfigError("report needs --diff A.json B.json")
    a, b = (read_json(path, "report") for path in args.diff)
    for path, reports in zip(args.diff, (a, b)):
        if not (isinstance(reports, list) and all(
                isinstance(r, dict) and {"scenario", "identity", "kind"} <= r.keys()
                for r in reports)):
            raise ConfigError(f"report {path!r} is not a list of reports")
    if a == b:
        print("reports identical")
        return 0
    # a name can have a pointwise and an integral report
    keys_a = {(r["scenario"], r["identity"], r["kind"]): r for r in a}
    keys_b = {(r["scenario"], r["identity"], r["kind"]): r for r in b}
    for key in sorted(set(keys_a) | set(keys_b)):
        label = f"{key[0]}:{key[1]} ({key[2]})"
        if key not in keys_a:
            print(f"only in {args.diff[1]}: {label}")
        elif key not in keys_b:
            print(f"only in {args.diff[0]}: {label}")
        elif keys_a[key] != keys_b[key]:
            fields = [f for f in keys_a[key]
                      if keys_a[key][f] != keys_b[key].get(f)]
            print(f"differs: {label} fields {fields}")
    return 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="splitgeom",
        description="verify divergence and integral identities of orthogonal "
                    "splittings on built-in or configured scenarios")
    sub = parser.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run checks and write reports")
    v.add_argument("--scenario", help="catalog name or JSON config path")
    v.add_argument("--all", action="store_true", help="run the whole catalog")
    v.add_argument("--grid", type=int, help="quadrature resolution per axis")
    v.add_argument("--tol", type=float,
                   help="override pointwise and integral tolerances")
    v.add_argument("--seed", type=int, help="sample-point seed")
    v.add_argument("--samples", type=int, help="random sample count")
    v.add_argument("--out", help="report JSON path")
    v.add_argument("--csv", help="per-point residual CSV path")
    v.add_argument("--threads", type=int, help="worker threads (default 1; at most one per CPU)")
    v.set_defaults(fn=cmd_verify)

    c = sub.add_parser("catalog", help="list built-in scenarios")
    c.set_defaults(fn=cmd_catalog)

    r = sub.add_parser("report", help="compare two report files")
    r.add_argument("--diff", nargs=2, metavar=("A", "B"))
    r.set_defaults(fn=cmd_report)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (GeometryError, GapError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
