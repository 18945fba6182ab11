"""Golden outputs: CLI files and primitive values compared byte for byte.

The files under tests/golden/ were written by this module from a
known-good build.  Criterion 14 compares two runs of the same build, so
only these files catch a refactor that changes a result.  The CLI cases
cover the exact proxes (half_sq_dist, dist, the segment objectives and
max_two_dists off the book), the candidate set of the box-domain line,
the one numeric resolvent path the catalogue still reaches (the book)
and every audit.  Each case calls `cli.main` in-process, through
`tests/test_cli.py`'s `run`, so no command starts an interpreter;
primitives.json pins, as exact float.hex values, four-point quadruples on
which the sweep oracle needs its refinement, barycenter cases the CLI never
reaches and each per-space capability: the direction sampler behind
mean_width, the neighbourhood measures (the book's 2-dimensional one
included, and areas of nearly coincident disks), the plane's mean width
and condition constants, the segment objectives and the cover centres.

Regenerate only for an intended change of results, either every file or
just the named cases:

    PYTHONPATH=src python tests/test_golden.py [case ...]
"""
import json
import math
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

import selfcontract as sc
from selfcontract.spaces.base import Direction

from conftest import SMALL_TREE_TEXT
from test_cli import run
from test_metric import sphere_quadruple, sweep_four_point

GOLDEN = Path(__file__).resolve().parent / "golden"
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
    # max_two_dists on the book reaches the numeric solver; the other
    # objectives below take their exact proxes
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
    "book2_max_two_dists": (
        _config("book:2", "max_two_dists", start="2,1.0,1.0", target="1,0.5,0.5",
                other="2,-0.5,0.25"),
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
        r = run(args, workdir)
        assert r.returncode == 0, f"{name}: {args[0]} exited {r.returncode}: {r.stderr}"
    return {p.name: p.read_bytes() for p in sorted(workdir.iterdir())
            if p.name not in INPUTS}


def _hex(value):
    """float.hex of every float in a (nested) value; ints, strings, None kept."""
    if isinstance(value, dict):
        return {key: _hex(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_hex(v) for v in value]
    if value is None or isinstance(value, (int, str)):
        return value
    return float(value).hex()


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
    direction = None if cp.direction is None else _hex(cp.direction.data)
    return {"radius": cp.radius.hex(), "direction": direction}


def euclidean_constants_values(n: int) -> dict:
    return {key: _hex(value) for key, value in sc.euclidean_constants(n).items()}


def _space_points(case: dict):
    space = sc.space_from_json(case["space"])
    return space, [space.point(_from_hex(p)) for p in case["points"]]


def _directions(case: dict):
    """The germs from the case's base point toward each of its points."""
    space, pts = _space_points(case)
    base = space.point(_from_hex(case["base"]))
    return space, base, [space.log_direction(base, q)[0] for q in pts]


def mean_width_values(case: dict) -> dict:
    space, pts = _space_points(case)
    rep = sc.mean_width(space, pts, n_dirs=case["n_dirs"], seed=case["seed"])
    return {"width": _hex(rep.width), "stderr": _hex(rep.stderr), "method": rep.method}


def measure_values(case: dict) -> dict:
    space, pts = _space_points(case)
    out = []
    for radius in _from_hex(case["radii"]):
        rc = sc.estimate_condition_constants(
            space, sc.NeighborhoodRegion(tuple(pts), radius), sigma=case["sigma"])
        out.append({"h1": _hex(sc.hausdorff_measure_neighborhood(space, pts, radius, 1)),
                    "a": _hex(rc.a), "b": _hex(rc.b), "m": rc.m, "eps": _hex(rc.eps),
                    "notes": list(rc.notes)})
    return {"measures": out}


def plane_width_values(case: dict) -> dict:
    space, pts = _space_points(case)
    rep = sc.mean_width(space, pts, inflate=_from_hex(case["inflate"]),
                        method="quadrature")
    return {"width": _hex(rep.width), "stderr": _hex(rep.stderr), "method": rep.method,
            "n_directions": rep.n_directions, "report_seed": rep.seed}


def plane_constant_values(case: dict) -> dict:
    space, pts = _space_points(case)
    out = []
    for radius in _from_hex(case["radii"]):
        rc = sc.estimate_condition_constants(
            space, sc.NeighborhoodRegion(tuple(pts), radius), sigma=case["sigma"])
        out.append({"a": _hex(rc.a), "b": _hex(rc.b), "m": rc.m,
                    "eps": _hex(rc.eps_bold)})
    return {"constants": out}


def book_measure_values(case: dict) -> dict:
    """The 2-dimensional neighbourhood measure at each radius: a book's, or
    the plane's for the lens cases."""
    space, pts = _space_points(case)
    return {"h2": [_hex(sc.hausdorff_measure_neighborhood(space, pts, radius, 2))
                   for radius in _from_hex(case["radii"])]}


def segment_values(case: dict) -> dict:
    space, pts = _space_points(case)
    objective = sc.make_objective(space, case["name"], **_from_hex(case["params"]))
    return {"objective_params": _hex(objective.params),
            "values": [_hex(objective(p)) for p in pts]}


def barycenter_values(case: dict) -> dict:
    _, _, dirs = _directions(case)
    cp = sc.cone_barycenter(dirs, _from_hex(case["radii"]))
    direction = None if cp.direction is None else _hex(cp.direction.data)
    return {"radius": _hex(cp.radius), "direction": direction}


def cover_center_values(case: dict) -> dict:
    space, base, dirs = _directions(case)
    center, radius, m = sc.direction_cover_center(space, base, dirs)
    return {"center": _hex(center.data), "radius": _hex(radius), "m": m}


def _threshold_quadruple(rng):
    """Sides with d_xz half a tolerance above the sweep oracle's longest
    hinge diagonal.

    The oracle passes these only when its refinement finds that diagonal.
    """
    wx, xy, yz, zw = (float(v) for v in rng.uniform(0.3, 2.0, 4))
    lo, hi = max(abs(wx - xy), abs(zw - yz)), min(wx + xy, zw + yz)
    if hi <= lo:
        return None
    wy = float(rng.uniform(lo, hi))
    longest = 10.0 + sweep_four_point(wx, xy, yz, zw, wy, 10.0).margin
    return (wx, xy, yz, zw, wy, longest + 0.5e-9 * max(wx, xy, yz, zw, wy, longest))


def _refinement_quadruples(rng, make, count: int) -> list:
    """Quadruples from `make` whose oracle answer depends on its refinement."""
    out = []
    while len(out) < count:
        quad = make(rng)
        if quad is not None and (sweep_four_point(*quad)
                                 != sweep_four_point(*quad, refine_steps=0)):
            out.append(quad)
    return out


def build_primitives() -> dict:
    """Inputs plus the current build's outputs for the in-process pins."""
    rng = np.random.default_rng(20171124)
    quads = [(math.pi / 2,) * 4 + (math.pi, math.pi),
             *_refinement_quadruples(rng, sphere_quadruple, 6),
             *_refinement_quadruples(rng, _threshold_quadruple, 4)]
    books = []
    for k in (2, 3, 5):
        for n_dirs, weighted in ((3, False), (5, True), (8, False)):
            space = sc.BookSpace(k)
            base = space.point((0, float(rng.uniform(-1, 1)), 0.0))
            payloads = [space.random_direction(rng, base.data) for _ in range(n_dirs)]
            radii = [float(r) for r in rng.uniform(0.2, 2.0, n_dirs)] if weighted else None
            books.append({"k": k, "spine_a": base.data[1].hex(),
                          "payloads": [_hex(p) for p in payloads],
                          "radii": None if radii is None else _hex(radii)})
    return {
        "four_point_subembed": [
            {"args": _hex(q), **four_point_values(q)} for q in quads
        ],
        "cone_barycenter": [
            {**b, **cone_barycenter_values(*_book_args(b))} for b in books
        ],
        "euclidean_constants": {
            str(n): euclidean_constants_values(n) for n in (4, 5, 6)
        },
        **_space_primitives(),
        "book_measures": _book_measure_primitives(),
        "lens_measures": _lens_primitives(),
        **_plane_primitives(),
    }


def _case(space, points, **extra) -> dict:
    return {"space": space._to_json(),
            "points": [_hex(space._point_json(p.data)) for p in points], **extra}


def _space_primitives() -> dict:
    """Pins for the per-space capabilities: the direction sampler behind
    mean_width, the neighbourhood measures, the segment objectives, cone
    barycenters and cover centres."""
    rng = np.random.default_rng(20171125)
    tree = sc.random_tree(seed=78, max_edges=10, max_degree=5)
    spider = sc.SpiderSpace(4, (1.0, 2.0, 0.5, 1.5))
    hub = tree.point(tree._vertex_rep[next(w for w, adj in enumerate(tree._adj)
                                           if len(adj) >= 3)])
    book = sc.BookSpace(3)
    hyperbolic = sc.HyperbolicPlane()
    product = sc.parse_space_spec("product:[spider:3|book:2]")

    def rand(space, n):
        return [space.random_point(rng, 1.5) for _ in range(n)]

    def weights(n):
        return _hex([float(r) for r in rng.uniform(0.2, 2.0, n)])

    def directed(space, base, points, **extra):
        return _case(space, points, base=_hex(space._point_json(base.data)), **extra)

    widths = [_case(space, rand(space, 5), n_dirs=48, seed=seed) for seed, space in
              enumerate((sc.SpiderSpace(3), tree, book, hyperbolic))]
    measures = [_case(space, [base, *rand(space, 3)], radii=_hex([0.25, 0.8, 2.5]),
                      sigma=1.0)
                for space, base in ((spider, spider.center()), (tree, hub))]

    leg = [(2, t) for t in (0.1, 0.3, 0.7, 1.2, 1.6)]
    spider_pts = [spider.center(), *(spider.point((i, f * length)) for f in (0.5, 1.0)
                                     for i, length in enumerate(spider.leg_lengths, 1))]
    spider_pts += [spider.point(q) for q in leg]
    tree_pts = [tree.point(rep) for rep in tree._vertex_rep]
    tree_pts += [tree.point((ei, 0.5 * length)) for ei, (_, _, length) in enumerate(tree.edges)]
    length3 = tree.edges[3][2]
    tree_pts += [tree.point((3, f * length3)) for f in (0.1, 0.4, 0.8)]
    segments = [
        _case(spider, spider_pts, name="dist_to_leg_segment",
              params=_hex({"leg": 2, "lo": 0.3, "hi": 1.2})),
        _case(spider, spider_pts, name="dist_to_leg_segment", params={}),
        _case(tree, tree_pts, name="dist_to_edge_segment",
              params=_hex({"edge": 3, "lo": 0.25 * length3, "hi": 0.6 * length3})),
        _case(tree, tree_pts, name="dist_to_edge_segment", params={}),
    ]

    product_base = product.point(((0, 0.0), (0, 0.3, 0.0)))
    product_pts = [*rand(product, 4), product.point(((0, 0.0), (1, 0.5, 0.7))),
                   product.point(((2, 0.5), (0, 0.3, 0.0)))]
    barycenters = [
        directed(hyperbolic, base, rand(hyperbolic, n), radii=radii)
        for base, n, radii in ((hyperbolic.random_point(rng, 1.0), 4, weights(4)),
                               (hyperbolic.random_point(rng, 1.0), 6, None))
    ] + [
        directed(tree, hub, rand(tree, 6), radii=None),
        directed(tree, hub, rand(tree, 5), radii=weights(5)),
        directed(tree, tree.point((3, 0.5 * length3)), rand(tree, 4), radii=weights(4)),
        directed(spider, spider.center(), rand(spider, 5), radii=None),
        directed(spider, spider.center(), rand(spider, 6), radii=weights(6)),
        directed(spider, spider.point((2, 0.7)), rand(spider, 4), radii=weights(4)),
        directed(product, product_base, product_pts, radii=weights(6)),
        directed(product, product_base, product_pts, radii=None),
    ]

    hub_edge = min(ei for ei, _ in tree._adj[tree._vertex_of(hub.data)])
    u, _, length = tree.edges[hub_edge]
    near_u = tree._vertex_of(hub.data) == u
    along = [tree.point((hub_edge, (f if near_u else 1.0 - f) * length))
             for f in (0.2, 0.5, 0.9)]

    def fan(sheet, a, b, angles):
        return [book.point((sheet, a + r * math.cos(t), b + r * math.sin(t)))
                for t in angles for r in (0.5, 1.0)]

    covers = [
        directed(tree, hub, along),
        directed(spider, spider.center(), [spider.point((2, r)) for r in (0.3, 1.1, 2.0)]),
        directed(spider, spider.point((4, 0.2)), [spider.point((4, r)) for r in (0.4, 1.5)]),
        directed(book, book.point((1, 0.0, 2.0)), fan(1, 0.0, 2.0, (0.3, 0.7, 1.1, 1.25))),
        directed(book, book.point((0, 0.2, 0.0)), fan(2, 0.2, 0.0, (0.8, 1.3, 1.9))),
    ]
    return {
        "mean_width": [{**c, **mean_width_values(c)} for c in widths],
        "neighborhood_measures": [{**c, **measure_values(c)} for c in measures],
        "segment_objectives": [{**c, **segment_values(c)} for c in segments],
        "space_barycenters": [{**c, **barycenter_values(c)} for c in barycenters],
        "cover_centers": [{**c, **cover_center_values(c)} for c in covers],
    }


def _book_measure_primitives() -> list:
    """The book's H^2 neighbourhood measure on book:2/3/5, from spine points,
    off-spine points near and far from the spine, and random points, at
    radii below, near and above the point spacing."""
    rng = np.random.default_rng(20171126)
    cases = []
    for k in (2, 3, 5):
        book = sc.BookSpace(k)
        pts = [book.point((0, a, 0.0)) for a in (-0.4, 0.9)]
        pts += [book.point((1, 0.1, 0.3)), book.point((k, -0.7, 1.6))]
        pts += [book.random_point(rng, 1.5) for _ in range(3)]
        cases.append(_case(book, pts, radii=_hex([0.2, 0.7, 2.0])))
    return [{**c, **book_measure_values(c)} for c in cases]


def _lens_primitives() -> list:
    """Areas of unions of nearly coincident disks: on the plane, and on a
    book sheet above the spine (clipped, with a point of the other sheet),
    where a second unit disk offset by d adds a strip of area 2d."""
    plane, book = sc.EuclideanSpace(2), sc.BookSpace(2)
    cases = []
    for offset in (1e-6, 1e-9, 1e-12):
        for dx, dy in ((offset, 0.0), (0.0, offset)):
            cases.append(_case(plane, [plane.point((0.0, 0.0)), plane.point((dx, dy))],
                               radii=_hex([1.0])))
            cases.append(_case(book, [book.point((1, 0.0, 0.5)),
                                      book.point((1, dx, 0.5 + dy))], radii=_hex([1.0])))
        three = [(0.0, offset), (1.0, 0.0), (0.0, 0.0)]
        cases.append(_case(plane, [plane.point(p) for p in three], radii=_hex([1.0])))
        cases.append(_case(book, [book.point((1, a, 0.5 + b)) for a, b in three]
                           + [book.point((2, 0.3, 0.4))], radii=_hex([1.0])))
    return [{**c, **book_measure_values(c)} for c in cases]


def _plane_primitives() -> dict:
    """The plane's mean width (a segment, a square, random sets and a random
    self-contracted curve, with and without inflation) and its condition
    constants, whose b divides by the unclipped area of a union of disks."""
    rng = np.random.default_rng(20171127)
    plane = sc.EuclideanSpace(2)
    segment = [plane.point((0.0, 0.0)), plane.point((3.0, 0.0))]
    square = [plane.point(p) for p in ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0))]
    randoms = [[plane.point(tuple(float(v) for v in rng.uniform(-1, 1, 2)))
                for _ in range(n)] for n in (5, 15, 40)]
    curve = sc.random_self_contracted(plane, 14, seed=20_372).points
    sets = [segment, square, *randoms, curve]
    widths = [_case(plane, pts, inflate=_hex(inflate))
              for pts in sets for inflate in (0.0, 0.25)]
    constants = [_case(plane, pts, radii=_hex([0.25, 0.8, 2.5]), sigma=1.0)
                 for pts in (segment, randoms[0], randoms[1], curve)]
    return {
        "plane_widths": [{**c, **plane_width_values(c)} for c in widths],
        "plane_constants": [{**c, **plane_constant_values(c)} for c in constants],
    }


def _from_hex(value):
    """Inverse of _hex: hex strings back to floats, nesting kept as lists."""
    if isinstance(value, dict):
        return {key: _from_hex(v) for key, v in value.items()}
    if isinstance(value, list):
        return [_from_hex(v) for v in value]
    return float.fromhex(value) if isinstance(value, str) else value


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


@pytest.mark.parametrize("key, values", [
    ("mean_width", mean_width_values),
    ("neighborhood_measures", measure_values),
    ("book_measures", book_measure_values),
    ("lens_measures", book_measure_values),
    ("plane_widths", plane_width_values),
    ("plane_constants", plane_constant_values),
    ("segment_objectives", segment_values),
    ("space_barycenters", barycenter_values),
    ("cover_centers", cover_center_values),
])
def test_space_capabilities_match_golden(primitives, key, values):
    for case in primitives[key]:
        got = values(case)
        assert got == {k: case[k] for k in got}, (key, case["space"]["kind"])


def main(names: list[str]) -> None:
    """Rewrite the named CLI cases, or every golden file when none are named."""
    unknown = sorted(set(names) - set(CASES))
    if unknown:
        sys.exit(f"unknown golden cases: {unknown}; available: {sorted(CASES)}")
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
