"""Golden outputs: CLI files and primitive values compared byte for byte.

The files under tests/golden/ were written by this module from a
known-good build.  Criterion 14 compares two runs of the same build, so
only these files catch a refactor that changes a result.  The CLI cases
cover the closed-form proxes of half_sq_dist and dist, every numeric
resolvent path (spider, box-domain and windowed Euclidean, hyperbolic,
book, tree) and every audit; primitives.json pins functions the CLI
never reaches as exact float.hex values.

Regenerate only for an intended change of results, either every file or
just the named cases:

    PYTHONPATH=src python tests/test_golden.py [case ...]
"""
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

import selfcontract as sc
from selfcontract.spaces.base import Direction

from conftest import SMALL_TREE_TEXT

GOLDEN = Path(__file__).resolve().parent / "golden"
CLI = [sys.executable, "-m", "selfcontract.cli"]
INPUTS = ("sim.cfg", "tree.txt")
VERIFY = ["verify", "run.curve.json", "--check",
          "self_contracted,stationarity,angle_estimate", "--out", "ver.json"]


def _config(space, objective, start=None, target=None, tau=0.5, steps=6, seed=0,
            **params):
    lines = [f"space = {space}", f"objective = {objective}", f"tau = {tau}",
             f"steps = {steps}", f"seed = {seed}", "out = run"]
    if target is not None:
        lines.append(f"objective.target = {target}")
    lines.extend(f"objective.{key} = {value}" for key, value in params.items())
    if start is not None:
        lines.append(f"start = {start}")
    return "\n".join(lines) + "\n"


def _audit(bound, *extra):
    return ["audit", "run.curve.json", "--bound", bound, *extra, "--out", f"aud_{bound}"]


# case name -> (simulate config, commands run after `simulate --config sim.cfg`)
CASES = {
    "spider3_pipeline": (
        _config("spider:3", "dist", start="2,1.0", target="1,1.0", seed=99),
        [VERIFY + ["--seed", "99"], _audit("tree", "--seed", "99"),
         ["counterexample", "--k", "8", "--out", "cex"],
         ["report", "aud_tree.csv", "cex.growth.csv", "--out", "rep"]],
    ),
    "euclidean1_box": (
        _config("euclidean:1", "neg_cube_unit", start="0.3", tau=0.25, steps=8),
        [VERIFY],
    ),
    "euclidean2": (
        _config("euclidean:2", "half_sq_dist", start="1.5,1.0", target="0.5,-0.25"),
        [VERIFY, _audit("euclidean")],
    ),
    "hyperbolic2": (
        _config("hyperbolic2", "dist", target="1,0,0", seed=5),
        [VERIFY],
    ),
    "book2": (
        _config("book:2", "half_sq_dist", start="2,-1.0,1.0", target="1,0.5,0.5"),
        [VERIFY, _audit("book"), _audit("generic")],
    ),
    "tree": (
        _config("tree:tree.txt", "dist", start="3,1.0", target="1,1.0"),
        [VERIFY, _audit("tree")],
    ),
    # objectives without a closed-form prox: these reach the numeric solvers
    "euclidean2_max_two_dists": (
        _config("euclidean:2", "max_two_dists", start="0.5,1.5", target="1.0,0.0",
                other="-1.0,0.5"),
        [VERIFY],
    ),
    "hyperbolic2_max_two_dists": (
        _config("hyperbolic2", "max_two_dists", seed=5,
                target="1.1276259652063807,0.5210953054937474,0.0",
                other="1.1276259652063807,0.0,-0.5210953054937474"),
        [VERIFY],
    ),
    "book2_spine_segment": (
        _config("book:2", "dist_to_spine_segment", start="2,1.0,1.0", lo=-0.5, hi=0.5),
        [VERIFY],
    ),
    "tree_edge_segment": (
        _config("tree:tree.txt", "dist_to_edge_segment", start="3,1.0",
                edge=2, lo=0.1, hi=0.4),
        [VERIFY],
    ),
    "spider3_leg_segment": (
        _config("spider:3", "dist_to_leg_segment", start="1,1.0", leg=2, lo=0.2, hi=0.6),
        [VERIFY],
    ),
}


def run_case(name: str, workdir: Path) -> dict[str, bytes]:
    """Run one CLI case in `workdir`; return every output file's bytes."""
    cfg, commands = CASES[name]
    (workdir / "sim.cfg").write_text(cfg)
    (workdir / "tree.txt").write_text(SMALL_TREE_TEXT)
    for args in [["simulate", "--config", "sim.cfg"], *commands]:
        r = subprocess.run(CLI + args, capture_output=True, text=True, cwd=workdir)
        assert r.returncode == 0, f"{name}: {args[0]} exited {r.returncode}: {r.stderr}"
    return {p.name: p.read_bytes() for p in sorted(workdir.iterdir())
            if p.name not in INPUTS}


def _hex(value):
    return value if isinstance(value, int) else float(value).hex()


def _hex_list(values):
    return [_hex(v) for v in values]


def four_point_values(quad) -> dict:
    res = sc.four_point_subembed(*quad)
    witness = None if res.witness_diagonal is None else res.witness_diagonal.hex()
    return {"ok": res.ok, "witness": witness, "margin": res.margin.hex(),
            "detail": res.detail}


def cone_barycenter_values(k: int, spine_a: float, payloads, radii) -> dict:
    space = sc.BookSpace(k)
    base = space.point((0, spine_a, 0.0))
    dirs = [Direction(space, base, tuple(p)) for p in payloads]
    cp = sc.cone_barycenter(dirs, radii)
    direction = None if cp.direction is None else _hex_list(cp.direction.data)
    return {"radius": cp.radius.hex(), "direction": direction}


def euclidean_constants_values(n: int) -> dict:
    return {key: _hex(value) for key, value in sc.euclidean_constants(n).items()}


def _sphere_quadruple(rng):
    """Great-circle distances of four points on the unit sphere: these fail."""
    pts = rng.normal(size=(4, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)

    def d(i, j):
        return math.acos(max(-1.0, min(1.0, float(pts[i] @ pts[j]))))

    return (d(0, 1), d(1, 2), d(2, 3), d(3, 0), d(0, 2), d(1, 3))


def _threshold_quadruple(rng):
    """Sides with d_xz half a tolerance above the longest hinge diagonal.

    These pass only when the refinement finds that longest diagonal.
    """
    wx, xy, yz, zw = (float(v) for v in rng.uniform(0.3, 2.0, 4))
    lo, hi = max(abs(wx - xy), abs(zw - yz)), min(wx + xy, zw + yz)
    if hi <= lo:
        return None
    wy = float(rng.uniform(lo, hi))
    longest = 10.0 + sc.four_point_subembed(wx, xy, yz, zw, wy, 10.0).margin
    return (wx, xy, yz, zw, wy, longest + 0.5e-9 * max(wx, xy, yz, zw, wy, longest))


def _refinement_quadruples(rng, make, count: int) -> list:
    """Quadruples from `make` whose answer depends on the refinement loop."""
    out = []
    while len(out) < count:
        quad = make(rng)
        if quad is not None and (sc.four_point_subembed(*quad)
                                 != sc.four_point_subembed(*quad, refine_steps=0)):
            out.append(quad)
    return out


def build_primitives() -> dict:
    """Inputs plus the current build's outputs for the in-process pins."""
    rng = np.random.default_rng(20171124)
    quads = [(math.pi / 2,) * 4 + (math.pi, math.pi),
             *_refinement_quadruples(rng, _sphere_quadruple, 6),
             *_refinement_quadruples(rng, _threshold_quadruple, 4)]
    books = []
    for k in (2, 3, 5):
        for n_dirs, weighted in ((3, False), (5, True), (8, False)):
            space = sc.BookSpace(k)
            base = space.point((0, float(rng.uniform(-1, 1)), 0.0))
            payloads = [space.random_direction(rng, base.data) for _ in range(n_dirs)]
            radii = [float(r) for r in rng.uniform(0.2, 2.0, n_dirs)] if weighted else None
            books.append({"k": k, "spine_a": base.data[1].hex(),
                          "payloads": [_hex_list(p) for p in payloads],
                          "radii": None if radii is None else _hex_list(radii)})
    return {
        "four_point_subembed": [
            {"args": _hex_list(q), **four_point_values(q)} for q in quads
        ],
        "cone_barycenter": [
            {**b, **cone_barycenter_values(*_book_args(b))} for b in books
        ],
        "euclidean_constants": {
            str(n): euclidean_constants_values(n) for n in (4, 5, 6)
        },
    }


def _from_hex(values):
    return [v if isinstance(v, int) else float.fromhex(v) for v in values]


def _book_args(case: dict):
    radii = None if case["radii"] is None else _from_hex(case["radii"])
    payloads = [_from_hex(p) for p in case["payloads"]]
    return case["k"], float.fromhex(case["spine_a"]), payloads, radii


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_outputs_match_golden(name, tmp_path):
    produced = run_case(name, tmp_path)
    expected = {p.name: p.read_bytes() for p in sorted((GOLDEN / name).iterdir())}
    assert sorted(produced) == sorted(expected)
    for fname, blob in expected.items():
        assert produced[fname] == blob, f"{name}/{fname} differs from the golden file"


@pytest.fixture(scope="module")
def primitives():
    return json.loads((GOLDEN / "primitives.json").read_text())


def test_four_point_refinement_matches_golden(primitives):
    cases = primitives["four_point_subembed"]
    assert any(not c["ok"] for c in cases) and any(c["ok"] for c in cases)
    for case in cases:
        expected = {k: v for k, v in case.items() if k != "args"}
        assert four_point_values(_from_hex(case["args"])) == expected, case["args"]


def test_book_spine_barycenter_matches_golden(primitives):
    for case in primitives["cone_barycenter"]:
        got = cone_barycenter_values(*_book_args(case))
        assert got == {"radius": case["radius"], "direction": case["direction"]}, case


def test_euclidean_constants_match_golden(primitives):
    for n, expected in primitives["euclidean_constants"].items():
        assert euclidean_constants_values(int(n)) == expected


def main(names: list[str]) -> None:
    """Rewrite the named CLI cases, or every golden file when none are named."""
    unknown = sorted(set(names) - set(CASES))
    if unknown:
        sys.exit(f"unknown golden cases: {unknown}; available: {sorted(CASES)}")
    # the CLI runs from temporary directories: point it at the package imported here
    src = str(Path(sc.__file__).resolve().parent.parent)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)
    if not names:
        shutil.rmtree(GOLDEN, ignore_errors=True)
    for name in names or sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            produced = run_case(name, Path(tmp))
        shutil.rmtree(GOLDEN / name, ignore_errors=True)
        (GOLDEN / name).mkdir(parents=True)
        for fname, blob in produced.items():
            (GOLDEN / name / fname).write_bytes(blob)
    if not names:
        text = json.dumps(build_primitives(), indent=1, sort_keys=True) + "\n"
        (GOLDEN / "primitives.json").write_text(text)


if __name__ == "__main__":
    main(sys.argv[1:])
