"""Objective catalog and convexity-class probes."""
import math

import pytest

import selfcontract as sc
from selfcontract.errors import GeometryError
from selfcontract.objectives import (
    BoxDomain,
    ObjectiveFn,
    builtin_objectives,
    make_objective,
    quasiconvexity_probe,
)


def test_catalog_contents(plane, spider3, book2, small_tree):
    line = sc.EuclideanSpace(1)
    assert {"half_sq_dist", "dist", "max_two_dists"} <= set(builtin_objectives(plane))
    line_cat = builtin_objectives(line)
    assert {"neg_cube", "neg_cube_unit", "sqrt_abs", "ripple_vee"} <= set(line_cat)
    assert "dist_to_leg_segment" in builtin_objectives(spider3)
    assert "dist_to_spine_segment" in builtin_objectives(book2)
    assert "dist_to_edge_segment" in builtin_objectives(small_tree)


@pytest.mark.parametrize("name, params", [
    ("dist_to_spine_segment", {"hii": 3}),
    ("half_sq_dist", {"target": (0, 0.0, 0.0), "other": (1, 0.0, 1.0)}),
])
def test_catalogue_factories_refuse_unread_keys(book2, name, params):
    """A factory from `builtin_objectives` refuses what it does not read,
    as `make_objective` does: it used to return `hi` = 1 for `hii` = 3."""
    with pytest.raises(GeometryError, match="reads no parameter"):
        builtin_objectives(book2)[name](**params)


@pytest.mark.parametrize("key, index", [
    ("leg", 0), ("leg", 4), ("leg", 2.7), ("leg", float("nan")),
    ("edge", -1), ("edge", 4), ("edge", 0.5),
])
def test_segment_objectives_need_a_segment(spider3, small_tree, key, index):
    space = spider3 if key == "leg" else small_tree
    with pytest.raises(GeometryError):
        make_objective(space, f"dist_to_{key}_segment", **{key: index})


def test_segment_objective_index_is_stored_as_int(spider3, small_tree):
    f = make_objective(spider3, "dist_to_leg_segment", leg=2.0, lo=0.25)
    assert f.params == {"leg": 2, "lo": 0.25, "hi": 1.0}
    assert type(f.params["leg"]) is int
    assert make_objective(small_tree, "dist_to_edge_segment").params["edge"] == 0


def test_tree_segment_distance_objective(small_tree):
    # segment on edge b-c between offsets 0.5 and 1.0
    f = make_objective(small_tree, "dist_to_edge_segment", edge=1, lo=0.5, hi=1.0)
    assert f(small_tree.point((1, 0.75))) == 0.0
    assert f(small_tree.point((1, 1.5))) == pytest.approx(0.5)
    # vertex a: path a -> b -> segment start
    assert f(small_tree.point((0, 0.0))) == pytest.approx(1.5)
    rep = quasiconvexity_probe(f, n_samples=400, seed=9)
    assert rep.max_violation <= 1e-9
    run = sc.discrete_gradient_curve(f, small_tree,
                                     small_tree.point((3, 1.5)), [0.5] * 5)
    from selfcontract.verify import is_self_contracted

    assert is_self_contracted(small_tree, run.discrete_curve()).passed


def test_half_sq_dist_metadata(plane):
    f = make_objective(plane, "half_sq_dist", target=(1.0, 0.0))
    assert f.convexity == "lambda" and f.lam == 1.0
    assert f(plane.point((0.0, 0.0))) == pytest.approx(0.5)
    assert f.is_convex


def test_neg_cube_metadata():
    line = sc.EuclideanSpace(1)
    f = make_objective(line, "neg_cube")
    assert f.convexity == "quasiconvex"
    g = make_objective(line, "neg_cube_unit")
    assert g.domain is not None
    with pytest.raises(GeometryError):
        g(line.point((2.0,)))


def test_unknown_objective(plane):
    with pytest.raises(GeometryError):
        make_objective(plane, "not_a_thing")


def test_probe_clean_for_catalog(plane):
    f = make_objective(plane, "half_sq_dist", target=(0.3, -0.4))
    rep = quasiconvexity_probe(f, n_samples=500, seed=1)
    assert rep.max_violation <= 1e-9
    assert rep.lambda_max_violation <= 1e-9


def test_probe_monotone_is_quasiconvex():
    line = sc.EuclideanSpace(1)
    f = make_objective(line, "neg_cube")
    rep = quasiconvexity_probe(f, n_samples=500, seed=2, scale=3.0)
    assert rep.max_violation <= 1e-9


def test_probe_detects_sine_violations():
    line = sc.EuclideanSpace(1)
    f = ObjectiveFn(
        name="sine", space=line, fn=lambda p: math.sin(p.data[0]),
        convexity="quasiconvex", domain=BoxDomain(((0.0, 2 * math.pi),)),
    )
    rep = quasiconvexity_probe(f, n_samples=800, seed=3)
    assert rep.max_violation > 0.1
    assert rep.witness is not None


def test_probe_on_graph_spaces(spider3, book2):
    for space in (spider3, book2):
        f = make_objective(space, "dist", target=space.random_point(
            __import__("numpy").random.default_rng(0), 1.0))
        rep = quasiconvexity_probe(f, n_samples=400, seed=4)
        assert rep.max_violation <= 1e-9


def test_sqrt_abs_not_convex_but_quasiconvex():
    line = sc.EuclideanSpace(1)
    f = make_objective(line, "sqrt_abs")
    rep = quasiconvexity_probe(f, n_samples=500, seed=5, scale=2.0)
    assert rep.max_violation <= 1e-9
    # midpoint value above the chord witnesses non-convexity
    x, y = line.point((0.0,)), line.point((1.0,))
    mid = line.geodesic_point(x, y, 0.5)
    assert f(mid) > 0.5 * (f(x) + f(y))
