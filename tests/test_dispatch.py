"""Per-space capability tables: misses raise UnsupportedSpaceError, and
the remaining isinstance tests on space classes are pinned."""
import ast
import builtins
import graphlib
import importlib
import inspect
import math
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import selfcontract as sc
from selfcontract import spaces
from selfcontract.errors import UnsupportedSpaceError

PACKAGE = Path(sc.__file__).resolve().parent
SPACE_CLASSES = {name for name, obj in vars(spaces).items()
                 if isinstance(obj, type) and issubclass(obj, sc.Space)}

# (module, enclosing definition, space classes tested): the box domain,
# the bound audits' input guards and the Euclidean width path
ALLOWED_SITES = sorted([
    ("objectives", "ObjectiveFn.__post_init__", ("EuclideanSpace",)),
    ("widths", "book_length_bound", ("BookSpace",)),
    ("widths", "euclidean_length_bound", ("EuclideanSpace",)),
    ("widths", "mean_width", ("EuclideanSpace",)),
    ("widths", "tree_length_bound", ("SpiderSpace", "TreeSpace")),
])


def _space_names(node) -> tuple:
    elts = node.elts if isinstance(node, ast.Tuple) else [node]
    names = [getattr(e, "id", getattr(e, "attr", None)) for e in elts]
    return tuple(sorted(n for n in names if n in SPACE_CLASSES))


def _scoped_nodes(path: Path):
    """Every AST node of a module file, in document order, with the names
    of the definitions that enclose it (its own name included)."""
    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = scope + (node.name,)
        yield node, scope
        for child in ast.iter_child_nodes(node):
            yield from visit(child, scope)

    return visit(ast.parse(path.read_text()), ())


def _isinstance_sites(module: str) -> list[tuple]:
    sites = []
    for node, scope in _scoped_nodes(PACKAGE / f"{module}.py"):
        if (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
                and len(node.args) == 2):
            classes = _space_names(node.args[1])
            if classes:
                sites.append((module, ".".join(scope[:2]), classes))
    return sites


def test_space_dispatch_sites_are_pinned():
    found = sorted(site for module in ("cones", "measures", "objectives", "proximal",
                                       "widths")
                   for site in _isinstance_sites(module))
    assert found == ALLOWED_SITES
    assert len(ALLOWED_SITES) <= 5  # sites leave this list; none joins it


def test_one_bracketed_line_search():
    """`metric.golden_section` is the one bracketed line search, and
    `metric._golden_min` its one caller, itself called only from the numeric
    resolvent's `_line_minima`; the resolvent has one search per dimension,
    `_line_minima` and `_pattern_refine`, both called only from its
    per-piece search.  The exact proxes and candidate sets find roots of a
    slope with `objectives._rising_root`: the line's candidate sets and the
    bisector prox of the plane and H^2."""
    searches = ("golden_section", "_golden_min", "_line_minima", "_pattern_refine",
                "_rising_root")
    callers = {name: [] for name in searches}
    for path in sorted(PACKAGE.rglob("*.py")):
        for node, scope in _scoped_nodes(path):
            if isinstance(node, ast.Call):
                for name in searches:
                    if name in (getattr(node.func, "id", None),
                                getattr(node.func, "attr", None)):
                        callers[name].append((path.stem, ".".join(scope)))
    assert callers == {"golden_section": [("metric", "_golden_min")],
                       "_golden_min": [("proximal", "_line_minima")],
                       "_line_minima": [("proximal", "_piece_minima")],
                       "_pattern_refine": [("proximal", "_piece_minima")],
                       "_rising_root": [("objectives", "_bisector_prox.prox"),
                                        ("objectives", "_sqrt_abs_candidates"),
                                        ("objectives", "_ripple_vee_candidates")]}


def test_acos_angles_only_where_no_polar_frame():
    """The plane, H^2 and books take germ angles as differences of polar
    angles; `math.acos` of a cosine is left only in `euclidean:n >= 3` and
    in products."""
    sites = [(path.stem, ".".join(scope))
             for path in sorted((PACKAGE / "spaces").glob("*.py"))
             for node, scope in _scoped_nodes(path)
             if isinstance(node, ast.Attribute) and node.attr == "acos"
             and getattr(node.value, "id", None) == "math"]
    assert sites == [("euclidean", "EuclideanSpace._angle"),
                     ("product", "ProductSpace._angle")]


def _distance_callers(module: str) -> set[str]:
    return {".".join(scope) for node, scope in _scoped_nodes(PACKAGE / f"{module}.py")
            if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "distance"}


def test_one_to_many_distances_read_rows():
    """The verify checks, `diameter` and the region test take one
    `_dist_row` per point; the scalar `distance` is left where a row would
    start from the other point of each pair (`tail_monotonicity`) or where
    there is no shared point (the EVI residual and run contraction)."""
    assert _distance_callers("verify") == {"tail_monotonicity", "evi_residual",
                                           "contraction_check"}
    assert "diameter" not in _distance_callers("metric")
    assert "NeighborhoodRegion.contains_neighborhood" not in _distance_callers("measures")


def _concrete_spaces() -> dict[str, type]:
    modules = [importlib.import_module(f"{spaces.__name__}.{info.name}")
               for info in pkgutil.iter_modules(spaces.__path__)]
    return {cls.__name__: cls for module in modules for cls in vars(module).values()
            if isinstance(cls, type) and issubclass(cls, sc.Space)
            and cls.__module__ == module.__name__ and not inspect.isabstract(cls)}


def test_every_space_has_a_row_kernel():
    """Each concrete space under `spaces/` defines its own `_dist_row`, so
    none falls back to the base class's per-pair loop, which stays as the
    oracle of the row tests."""
    concrete = _concrete_spaces()
    assert set(concrete) == SPACE_CLASSES - {"Space"}
    assert [name for name, cls in sorted(concrete.items())
            if "_dist_row" not in vars(cls)] == []


def test_every_space_has_a_germ_row_kernel():
    """Each concrete space but the product defines its own `_log_row`, so
    the angle sweep does not fall back to the base class's loop of `_log`,
    which computes again the distance that the row already holds.  No
    benchmark workload sweeps a product, so it keeps the loop, the oracle."""
    assert [name for name, cls in sorted(_concrete_spaces().items())
            if "_log_row" not in vars(cls)] == ["ProductSpace"]


def _imported_modules(module: str) -> set[str]:
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    imported = {node.module for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module}
    return imported | {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                       for alias in node.names}


def test_cone_barycenter_lives_on_the_space():
    """`cones` imports nothing under `spaces` but `spaces.base` and keeps no
    table keyed by space type: every concrete space defines its own
    `_cone_barycenter`, the spider by naming the tree's, and no space keeps
    a `tangent_norm`."""
    tree = ast.parse((PACKAGE / "cones.py").read_text())
    imported = _imported_modules("cones")
    assert {m for m in imported if "spaces" in m.split(".")} == {"spaces.base"}
    assert not [node for node in ast.walk(tree) if isinstance(node, ast.Dict)
                and any(getattr(key, "id", None) in SPACE_CLASSES for key in node.keys)]
    concrete = _concrete_spaces()
    assert [name for name, cls in sorted(concrete.items())
            if "_cone_barycenter" not in vars(cls)] == []
    assert [name for name, cls in sorted(concrete.items())
            if cls._cone_barycenter.__qualname__ != f"{name}._cone_barycenter"] == ["SpiderSpace"]
    assert vars(spaces.SpiderSpace)["_cone_barycenter"] is spaces.TreeSpace._cone_barycenter
    assert [cls.__name__ for cls in (sc.Space, *concrete.values())
            if hasattr(cls, "tangent_norm")] == []


def test_local_estimates_live_on_the_space():
    """`measures` imports nothing under `spaces` and keeps no table keyed by
    space type: the tree, book and Euclidean classes define the region
    measure and the condition constants, and the spider names the tree's.
    A new space extends both entry points without an edit to `measures`."""
    assert {m for m in _imported_modules("measures") if "spaces" in m.split(".")} == set()
    tree = ast.parse((PACKAGE / "measures.py").read_text())
    assert not [node for node in ast.walk(tree) if isinstance(node, ast.Dict)
                and any(getattr(key, "id", None) in SPACE_CLASSES for key in node.keys)]
    methods = ("_region_measure", "_condition_constants")
    for cls in (spaces.TreeSpace, spaces.BookSpace, spaces.EuclideanSpace):
        assert all(name in vars(cls) for name in methods), cls
    for name in methods:
        assert vars(spaces.SpiderSpace)[name] is vars(spaces.TreeSpace)[name]

    class DiskSum(spaces.HyperbolicPlane):
        """H^2, measuring a region by the sum of its disks' areas."""

        def _region_measure(self, payloads, radius):
            return 2, len(payloads) * 2.0 * math.pi * (math.cosh(radius) - 1.0)

        def _condition_constants(self, payloads, radius, sigma):
            return sc.RadiusConstants(
                n=2, theta=0.0, theta_improved=None, eps=0.5, m=1, eps_bold=0.5,
                a=1.0, b=sigma / self._region_measure(payloads, radius)[1], sigma=sigma)

    plain, disks = spaces.HyperbolicPlane(), DiskSum()
    with pytest.raises(UnsupportedSpaceError, match="no Hausdorff neighborhood measure"):
        sc.hausdorff_measure_neighborhood(plain, [plain.point((1.0, 0.0, 0.0))], 1.0, 2)
    pts = [disks.point((1.0, 0.0, 0.0)), disks.point((math.cosh(2.0), math.sinh(2.0), 0.0))]
    area = 4.0 * math.pi * (math.cosh(0.5) - 1.0)
    assert sc.hausdorff_measure_neighborhood(disks, pts, 0.5, 2) == area
    rc = sc.estimate_condition_constants(disks, sc.NeighborhoodRegion(tuple(pts), 0.5), 2.0)
    assert (rc.a, rc.b, rc.sigma) == (1.0, 2.0 / area, 2.0)


def test_resolvent_search_pieces_live_on_the_space():
    """`proximal` imports nothing under `spaces` but `spaces.base` and keeps
    no table keyed by space type: the Euclidean, H^2, tree and book classes
    list the numeric resolvent's search pieces, and the spider names the
    tree's.  A new space extends the solver without an edit to `proximal`."""
    assert {m for m in _imported_modules("proximal")
            if "spaces" in m.split(".")} == {"spaces.base"}
    tree = ast.parse((PACKAGE / "proximal.py").read_text())
    assert not [node for node in ast.walk(tree) if isinstance(node, ast.Dict)
                and any(getattr(key, "id", None) in SPACE_CLASSES for key in node.keys)]
    for cls in (spaces.EuclideanSpace, spaces.HyperbolicPlane, spaces.TreeSpace,
                spaces.BookSpace):
        assert "_search_pieces" in vars(cls), cls
    assert vars(spaces.SpiderSpace)["_search_pieces"] is vars(spaces.TreeSpace)["_search_pieces"]

    class FlatPair(spaces.ProductSpace):
        """R x R as a product, searched in one window centred at x."""

        def _search_pieces(self, x, radius, box, start):
            def to_point(coords):
                return sc.Point(self, ((coords[0],), (coords[1],)))

            (u,), (v,) = x
            return radius, [(to_point, [u - radius, v - radius], [u + radius, v + radius],
                             (True,) * 4)]

    line = sc.EuclideanSpace(1)
    plain, flat = spaces.ProductSpace(line, line), FlatPair(line, line)
    with pytest.raises(UnsupportedSpaceError, match="no resolvent solver for product"):
        sc.resolvent(sc.ObjectiveFn(name="zero", space=plain, fn=lambda z: 0.0),
                     plain, plain.point(((0.0,), (0.0,))), 0.5)
    # the prox of the distance to p moves x a step tau toward p
    p, x = flat.point(((3.0,), (4.0,))), flat.point(((0.0,), (0.0,)))
    f = sc.ObjectiveFn(name="to_p", space=flat, fn=lambda z: flat.distance(z, p))
    res = sc.resolvent(f, flat, x, 0.5)
    assert res.status == "unique" and res.evals > 0
    assert flat.distance(res.point, flat.point(((0.3,), (0.4,)))) <= 1e-6


def test_euclidean_region_measure():
    """`euclidean:n` for n <= 3 carries the n-dimensional measure: 2r for one
    point of the line, pi r^2 for one disk."""
    line, plane = sc.EuclideanSpace(1), sc.EuclideanSpace(2)
    for r in (0.2, 0.7, 2.0):
        assert sc.hausdorff_measure_neighborhood(line, [line.point((0.3,))], r, 1) == 2.0 * r
        area = sc.hausdorff_measure_neighborhood(plane, [plane.point((0.3, -1.2))], r, 2)
        assert area == pytest.approx(math.pi * r * r, rel=1e-15)
    with pytest.raises(UnsupportedSpaceError, match="2-dimensional"):
        sc.hausdorff_measure_neighborhood(plane, [plane.point((0.0, 0.0))], 1.0, 1)
    space = sc.EuclideanSpace(4)
    with pytest.raises(UnsupportedSpaceError, match="n <= 3"):
        sc.hausdorff_measure_neighborhood(space, [space.point((0.0,) * 4)], 1.0, 4)


def test_imports_run_one_way():
    """No import sits inside a function or class, the module-level imports
    inside the package form no cycle, and the bound audits in `widths`
    import neither the objectives nor the resolvent.  The package's own
    `__init__` only re-exports, so it is left out of the graph."""
    graph, nested = {}, []
    for path in sorted(PACKAGE.rglob("*.py")):
        parts = path.relative_to(PACKAGE).with_suffix("").parts
        package = parts[:-1]
        module = ".".join(package if parts[-1] == "__init__" else parts)
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                nested += [(module, node.name) for child in ast.walk(node)
                           if isinstance(child, (ast.Import, ast.ImportFrom))]
        if module:
            graph[module] = {
                ".".join(package[:len(package) + 1 - node.level]
                         + tuple(node.module.split(".") if node.module else ()))
                for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level}
    assert nested == []
    assert {"objectives", "proximal", "widths", "spaces.tree"} <= set(graph)
    list(graphlib.TopologicalSorter(graph).static_order())  # CycleError on a cycle
    assert not graph["widths"] & {"objectives", "proximal"}


def test_every_module_can_be_imported_first():
    """Each module of the package imports as the first one of the package
    that an interpreter loads.  The graph of `test_imports_run_one_way`
    leaves out the package `__init__` edges, so it cannot see a cycle that
    runs through one, as a space that imported `cones` would make: `cones`
    imports `spaces.base`, which runs `spaces/__init__` and so the space
    before `cones` has defined its names.  The leaf `measures`, which the
    spaces import, imports nothing of the package but `errors`."""
    modules = sorted(".".join(("selfcontract",) + path.relative_to(PACKAGE).with_suffix("").parts)
                     .removesuffix(".__init__") for path in PACKAGE.rglob("*.py"))
    code = ("import importlib, sys\n"
            f"for name in {modules!r}:\n"
            "    for key in [k for k in sys.modules if k.split('.')[0] == 'selfcontract']:\n"
            "        del sys.modules[key]\n"
            "    importlib.import_module(name)\n")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert _imported_modules("measures") - sys.stdlib_module_names == {"errors"}
    for space in ("tree", "book", "euclidean"):
        assert "measures" in _imported_modules(f"spaces/{space}")


def _handled(function: ast.FunctionDef) -> set[str]:
    """The exception names of a function's except clauses."""
    names = set()
    for node in ast.walk(function):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            elts = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            names |= {getattr(e, "id", getattr(e, "attr", None)) for e in elts}
    return names


def test_file_errors_map_to_exit_codes_in_main():
    """No `cmd_*` function of the CLI catches `OSError` or a subclass; `main`
    maps it to exit 2, with the library's errors, in one place."""
    functions = {node.name: node for node in ast.parse((PACKAGE / "cli.py").read_text()).body
                 if isinstance(node, ast.FunctionDef)}

    def os_errors(names):
        return sorted(n for n in names if isinstance(getattr(builtins, n, None), type)
                      and issubclass(getattr(builtins, n), OSError))

    found = {name: os_errors(_handled(node)) for name, node in functions.items()}
    assert {name: found[name] for name in found if name.startswith("cmd_") and found[name]} == {}
    assert found["main"] == ["OSError"]


def test_validation_stays_at_the_boundary():
    """`Space.point` is the one payload parser, and the solver builds its own
    candidates without it."""
    proximal = ast.parse((PACKAGE / "proximal.py").read_text())
    assert not [node for node in ast.walk(proximal) if isinstance(node, ast.Call)
                and getattr(node.func, "attr", None) == "point"]
    for path in PACKAGE.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            name = getattr(node, "name", getattr(node, "attr", getattr(node, "id", None)))
            assert name != "_point_from_json", path


@pytest.fixture
def product_points():
    space = sc.parse_space_spec("product:[euclidean:1|spider:3]")
    rng = np.random.default_rng(5)
    return space, [space.random_point(rng) for _ in range(3)]


def test_mean_width_needs_a_direction_sampler(product_points):
    space, pts = product_points
    with pytest.raises(UnsupportedSpaceError, match="direction sampler"):
        sc.mean_width(space, pts, n_dirs=4)


def test_measures_need_a_measure_table_entry(product_points):
    space, pts = product_points
    with pytest.raises(UnsupportedSpaceError, match="neighborhood measure"):
        sc.hausdorff_measure_neighborhood(space, pts, 1.0, 1)
    region = sc.NeighborhoodRegion(tuple(pts), 1.0)
    with pytest.raises(UnsupportedSpaceError, match="condition-constant"):
        sc.estimate_condition_constants(space, region)


@pytest.mark.parametrize("spec", ["product:[euclidean:1|spider:3]", "euclidean:3"])
def test_resolvent_needs_a_solver(spec):
    space = sc.parse_space_spec(spec)
    rng = np.random.default_rng(6)
    p, q, x = (space.random_point(rng) for _ in range(3))
    objective = sc.make_objective(space, "max_two_dists", target=p, other=q)
    with pytest.raises(UnsupportedSpaceError):
        sc.resolvent(objective, space, x, 0.5)


def test_line_catalogue_never_reaches_the_numeric_solver(monkeypatch):
    """Every catalogue objective on the line has an exact prox, a candidate
    set or a declared decay order, so gradient runs never call the numeric
    search, which only user-built objectives and the oracle tests reach."""
    from selfcontract import proximal

    line = sc.EuclideanSpace(1)
    calls, solve = [], proximal._solve

    def spy(objective, *args):
        calls.append(objective.name)
        return solve(objective, *args)

    monkeypatch.setattr(proximal, "_solve", spy)
    params = {"half_sq_dist": {"target": (0.4,)}, "dist": {"target": (0.4,)},
              "max_two_dists": {"target": (0.4,), "other": (-0.7,)}}
    catalogue = sc.builtin_objectives(line)
    assert set(catalogue) == {"half_sq_dist", "dist", "max_two_dists", "neg_cube",
                              "neg_cube_unit", "sqrt_abs", "ripple_vee"}
    for name, factory in catalogue.items():
        f = factory(**params.get(name, {}))
        for start in (0.0, 0.3, 0.9) if f.domain else (-2.5, 0.3, 1.7):
            for tau in (0.3, 0.8, 4.0):
                sc.discrete_gradient_curve(f, line, line.point((start,)), [tau] * 4)
    assert calls == []
