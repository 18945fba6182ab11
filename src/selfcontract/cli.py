"""Command-line harness: simulate, verify, audit, counterexample, report.

Exit codes are stable across commands: 0 = pass, 1 = property violation
or failed audit, 2 = usage or input error.  All randomness flows from a
single --seed, which is recorded in every output file.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import re
import sys
from pathlib import Path

import numpy as np

from .errors import GeometryError, SolverError
from .metric import curve_length, diameter
from .objectives import make_objective
from .proximal import discrete_gradient_curve
from .serialize import (
    SCHEMA_VERSION,
    bound_report_csv_rows,
    curve_from_json,
    curve_to_json,
    parse_config_file,
    parse_csv_rows,
    parse_point_spec,
    write_json_atomic,
    write_text_atomic,
)
from .spaces import parse_space_spec
from .verify import ANGLE_TOL, CHECKS, DEFAULT_SAMPLING, SamplingConfig, run_checks
from .widths import (
    book_length_bound,
    euclidean_length_bound,
    generic_bound_for_curve,
    spider_jump_curve,
    tree_length_bound,
    unrectifiable_witness,
)

USAGE_ERROR = 2
VIOLATION = 1
OK = 0


def _fail(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return USAGE_ERROR


def _seed(value) -> int:
    seed = int(value)
    if seed < 0:
        raise ValueError
    return seed


def _positive(value) -> int:
    n = int(value)
    if n < 1:
        raise ValueError
    return n


def _finite(value) -> float:
    x = float(value)
    if not math.isfinite(x):
        raise ValueError
    return x


def _finite_list(value) -> list[float]:
    xs = [_finite(t) for t in value.split(",") if t.strip()]
    if not xs:
        raise ValueError
    return xs


# numeric option -> (parser, what it must be); other options stay strings
_NUMERIC = {
    "seed": (_seed, "a non-negative integer"),
    "steps": (_positive, "a positive integer"),
    "k": (int, "an integer"),
    "tol": (_finite, "a finite number"),
    "tau": (_finite_list, "a comma list of finite numbers"),
}


def _merged_options(args) -> dict:
    """Config-file options overridden by flags, numeric ones parsed once.

    A config key must name one of the command's own flags, or be an
    `objective.<name>` key of `simulate`.  An unread key or a malformed
    number raises GeometryError naming it.
    """
    # argparse sets every flag of the command, given or not, besides these
    flags = [key for key in vars(args) if key not in ("command", "fn", "curve", "config")]
    options: dict = {}
    if getattr(args, "config", None):
        options.update(parse_config_file(args.config))
    for key in options:
        if key not in flags and not (key.startswith("objective.") and "objective" in flags):
            raise GeometryError(f"config key {key!r} is not read by {args.command}; "
                                f"it reads {sorted(flags)}")
    for key in flags:
        value = getattr(args, key)
        if value is not None:
            options[key] = value
    for key, (parse, expected) in _NUMERIC.items():
        if key in options:
            try:
                options[key] = parse(options[key])
            except (ValueError, TypeError, OverflowError):
                raise GeometryError(
                    f"option {key} must be {expected}, got {options[key]!r}") from None
    return options


def _objective_params(space, options: dict[str, str]) -> dict:
    params = {}
    for key, value in options.items():
        if not key.startswith("objective."):
            continue
        name = key[len("objective."):]
        if name in ("target", "other"):
            params[name] = parse_point_spec(space, value)
        else:
            params[name] = float(value)
    return params


def _read_curve(path: str):
    try:
        return curve_from_json(json.loads(Path(path).read_text()))
    except (OSError, ValueError, OverflowError, GeometryError, KeyError, TypeError) as e:
        raise GeometryError(f"cannot read curve file: {e}") from None


def cmd_simulate(args) -> int:
    options = _merged_options(args)
    for required in ("space", "objective", "out"):
        if required not in options:
            return _fail(f"simulate needs --{required}")
    try:
        space = parse_space_spec(options["space"])
        params = _objective_params(space, options)
        objective = make_objective(space, options["objective"], **params)
    except ValueError as e:
        return _fail(str(e))
    seed = options.get("seed", 0)
    steps = options.get("steps", 8)
    taus = options.get("tau", [0.5])
    if len(taus) == 1:
        taus = taus * steps
    if "start" in options:
        start = parse_point_spec(space, options["start"])
    else:
        start = space.random_point(np.random.default_rng(seed), scale=1.5)
    run = discrete_gradient_curve(objective, space, start, taus)
    if not math.isfinite(run.values[-1]):
        # JSON has no Infinity or NaN, and the log would carry it
        return _fail(f"the run's final value is {run.values[-1]!r}; no file written")
    out = Path(options["out"])
    write_json_atomic(out.with_suffix(".curve.json"), curve_to_json(run.discrete_curve()))
    write_json_atomic(out.with_suffix(".interp.json"), curve_to_json(run.interpolated_curve()))
    trace = ["k,t,f"]
    for k, (t, v) in enumerate(zip(run.times, run.values)):
        trace.append(f"{k},{t!r},{v!r}")
    write_text_atomic(out.with_suffix(".values.csv"), "\n".join(trace) + "\n")
    log = {
        "schema_version": SCHEMA_VERSION,
        "command": "simulate",
        "seed": seed,
        "space": options["space"],
        "objective": options["objective"],
        "tau": taus,
        "steps": steps,
        "n_points": len(run.points),
        "final_value": run.values[-1],
        "diagnostic": run.diagnostic,
    }
    write_json_atomic(out.with_suffix(".log.json"), log)
    print(f"simulated {len(run.points)} points; final value {run.values[-1]!r}")
    if run.diagnostic:
        print(f"diagnostic: {run.diagnostic}", file=sys.stderr)
        return VIOLATION
    return OK


def cmd_verify(args) -> int:
    options = _merged_options(args)
    curve = _read_curve(args.curve)
    names = [c.strip() for c in options.get("check", "self_contracted").split(",")
             if c.strip()]
    if not names:
        return _fail(f"option check names no check; available: {sorted(CHECKS)}")
    seed = options.get("seed", 0)
    cfg = SamplingConfig(seed=seed, tolerance=options.get("tol", DEFAULT_SAMPLING.tolerance))
    reports = run_checks(curve.space, curve, names, cfg)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": "verify",
        "seed": seed,
        "curve_file": str(args.curve),
        "reports": [r.to_json() for r in reports],
        "passed": all(r.passed or r.informational for r in reports),
    }
    if "out" in options:
        write_json_atomic(options["out"], doc)
    for r in reports:
        print(f"{r.check}: {'PASS' if r.passed else 'FAIL'} "
              f"(max violation {r.max_violation!r}, n={r.n_checked})")
    return OK if doc["passed"] else VIOLATION


# --bound name -> audit of a curve at a seed
_BOUNDS = {
    "euclidean": lambda curve, seed: euclidean_length_bound(curve, seed=seed),
    "tree": lambda curve, seed: tree_length_bound(curve.space, curve),
    "book": lambda curve, seed: book_length_bound(curve.space, curve),
    "generic": lambda curve, seed: generic_bound_for_curve(curve.space, curve),
}


def cmd_audit(args) -> int:
    options = _merged_options(args)
    curve = _read_curve(args.curve)
    bound = options.get("bound")
    if not bound:
        return _fail(f"audit needs --bound ({', '.join(_BOUNDS)})")
    if bound not in _BOUNDS:
        return _fail(f"unknown bound {bound!r}")
    seed = options.get("seed", 0)
    report = _BOUNDS[bound](curve, seed)
    if "tol" in options:
        report = dataclasses.replace(report, tolerance=options["tol"])
    if "out" in options:
        out = Path(options["out"])
        write_json_atomic(out.with_suffix(".json"),
                          {"schema_version": SCHEMA_VERSION, "command": "audit",
                           "seed": seed, "report": report.to_json()})
        write_text_atomic(out.with_suffix(".csv"), bound_report_csv_rows([report]))
    print(f"{report.bound_name} bound on {report.space_desc}: "
          f"L={report.length!r} bound={report.bound!r} "
          f"ratio={report.ratio!r} {'PASS' if report.passed else 'FAIL'}")
    return OK if report.passed else VIOLATION


def cmd_counterexample(args) -> int:
    options = _merged_options(args)
    k = options.get("k", 0)
    if k < 2:
        return _fail("counterexample needs --k >= 2")
    out = Path(options.get("out", "counterexample"))
    rows = ["family,k,length,diam,ratio"]
    for kk in range(2, k + 1):
        curve, report = unrectifiable_witness(kk)
        ratio = report.constants["ratio_L_diam"]
        rows.append(f"orthonormal,{kk},{report.length!r},{report.diam!r},{ratio!r}")
        spider = spider_jump_curve(kk)
        sl = curve_length(spider)
        sd = diameter(spider.points)
        rows.append(f"spider,{kk},{sl!r},{sd!r},{(sl / sd)!r}")
        if kk == k:
            write_json_atomic(out.with_suffix(".orthonormal.json"), curve_to_json(curve))
            write_json_atomic(out.with_suffix(".spider.json"), curve_to_json(spider))
    write_text_atomic(out.with_suffix(".growth.csv"), "\n".join(rows) + "\n")
    print(f"emitted growth rows for k=2..{k} and curve files for k={k}")
    return OK


def cmd_report(args) -> int:
    paths = [Path(p) for p in args.rows]
    bound_rows: list[dict] = []
    growth_rows: list[dict] = []
    for path in paths:
        try:
            for row in parse_csv_rows(path.read_text()):
                if "family" in row:
                    growth_rows.append({"family": row["family"], "k": int(row["k"]),
                                        "ratio": float(row["ratio"])})
                else:
                    bound_rows.append({"space": row["space"], "bound": row["bound"],
                                       "passed": row["passed"],
                                       "ratio": float(row["ratio"])})
        except (KeyError, ValueError) as e:
            raise GeometryError(f"malformed row in {path}: {e!r}") from None
    if not bound_rows and not growth_rows:
        return _fail("no rows found in input files")
    out = Path(getattr(args, "out", None) or "report")
    all_pass = True
    lines = ["space,bound,n,n_passed,max_ratio,all_passed"]
    groups: dict[tuple[str, str], list[dict]] = {}
    for row in bound_rows:
        groups.setdefault((row["space"], row["bound"]), []).append(row)
    for (space, bound), rows in sorted(groups.items()):
        n = len(rows)
        n_passed = sum(1 for r in rows if r["passed"] == "1")
        max_ratio = max(r["ratio"] for r in rows)
        ok = n_passed == n
        all_pass = all_pass and ok
        lines.append(f"{space},{bound},{n},{n_passed},{max_ratio!r},"
                     f"{'1' if ok else '0'}")
    write_text_atomic(out.with_suffix(".aggregate.csv"), "\n".join(lines) + "\n")
    if growth_rows:
        plot = ["family,k,ratio"]
        for row in sorted(growth_rows, key=lambda r: (r["family"], r["k"])):
            plot.append(f"{row['family']},{row['k']},{row['ratio']!r}")
        write_text_atomic(out.with_suffix(".plotdata.csv"), "\n".join(plot) + "\n")
    print(f"aggregated {len(bound_rows)} bound rows, "
          f"{len(growth_rows)} growth rows")
    return OK if all_pass else VIOLATION


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="selfcontract",
        description="Self-contracted curves: simulate, verify, audit, report.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        # argparse reads a string that starts with '-' as a flag unless it
        # names no flag of the command and matches this pattern, meant for
        # negative numbers; widened to every "-x" string, a value such as
        # "-2e0" or "-inf" reaches the option's own parser as a config
        # line would, and "--name" still reads as a flag
        p._negative_number_matcher = re.compile(r"-[^-].*")
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--out", help="output path base")

    p = sub.add_parser("simulate", help="run a discrete gradient curve")
    common(p)
    p.add_argument("--space", help="space spec, e.g. euclidean:2 or spider:3")
    p.add_argument("--objective", help="catalog objective name")
    p.add_argument("--tau", help="step size (or comma list)")
    p.add_argument("--steps", help="number of resolvent steps")
    p.add_argument("--start", help="start point payload, comma separated")
    p.add_argument("--seed", help="64-bit RNG seed of the random start")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("verify", help="run property checks on a curve file")
    common(p)
    p.add_argument("curve", help="curve JSON file")
    p.add_argument("--check", help="comma list of checks")
    p.add_argument("--seed", help="64-bit RNG seed of the sampling")
    p.add_argument("--tol", help=f"violation tolerance, except angle_estimate's {ANGLE_TOL:g} rad")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("audit", help="audit a length bound on a curve file")
    common(p)
    p.add_argument("curve", help="curve JSON file")
    p.add_argument("--bound", help=" | ".join(_BOUNDS))
    p.add_argument("--seed", help="64-bit RNG seed of the euclidean bound")
    p.add_argument("--tol", help="the audit passes when ratio <= 1 + tol")
    p.set_defaults(fn=cmd_audit)

    p = sub.add_parser("counterexample",
                       help="emit the dimension-growth witness families")
    common(p)
    p.add_argument("--k", help="truncation size (>= 2)")
    p.set_defaults(fn=cmd_counterexample)

    p = sub.add_parser("report", help="aggregate audit rows and plot data")
    p.add_argument("rows", nargs="+", help="bound CSV / growth CSV files")
    p.add_argument("--out", help="output path base")
    p.set_defaults(fn=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on usage errors already
        return int(e.code or 0)
    try:
        return args.fn(args)
    except (GeometryError, SolverError, OSError) as e:
        return _fail(str(e))


if __name__ == "__main__":
    sys.exit(main())
