"""Curve-level metric operations and the CAT(0) decision procedures."""
import math

import pytest

import selfcontract as sc
from selfcontract.errors import GeometryError
from selfcontract.widths import spider_jump_curve

from conftest import random_point_pairs


def test_curve_length_polyline(plane):
    pts = [plane.point(p) for p in ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0))]
    assert sc.curve_length(sc.make_curve(pts)) == 2.0


def test_curve_length_spider_jump():
    for k in range(2, 11):
        cur = spider_jump_curve(k)
        assert sc.curve_length(cur) == 2.0 * (k - 1)


def test_curve_length_single_sample(plane):
    assert sc.curve_length(sc.make_curve([plane.point((1.0, 2.0))])) == 0.0


def test_discrete_length_monotone_under_refinement(plane, rng):
    pts = [plane.point(tuple(rng.uniform(-1, 1, 2))) for _ in range(6)]
    curve = sc.make_curve(pts)
    base = sc.curve_length(curve)
    for _ in range(20):
        i = int(rng.integers(0, len(pts) - 1))
        extra = plane.random_point(rng, 1.0)
        refined_pts = pts[:i + 1] + [extra] + pts[i + 1:]
        times = list(range(i + 1)) + [i + 0.5] + list(range(i + 1, len(pts)))
        refined = sc.make_curve(refined_pts, times=times)
        assert sc.curve_length(refined) >= base - 1e-12


def test_curve_length_concatenation_and_refinement(plane, rng):
    pts = [plane.point(tuple(rng.uniform(-1, 1, 2))) for _ in range(6)]
    curve = sc.make_curve(pts, mode="geodesic")
    total = sc.curve_length(curve)
    # additive under concatenation at a shared sample
    left = sc.curve_length(sc.make_curve(pts[:3], times=[0, 1, 2], mode="geodesic"))
    right = sc.curve_length(sc.make_curve(pts[2:], times=[2, 3, 4, 5], mode="geodesic"))
    assert left + right == pytest.approx(total, abs=1e-12)
    # invariant under inserting a sample on a geodesic segment
    extra = plane.geodesic_point(pts[0], pts[1], 0.3)
    refined = sc.make_curve([pts[0], extra] + pts[1:],
                            times=[0, 0.3] + list(range(1, 6)), mode="geodesic")
    assert sc.curve_length(refined) == pytest.approx(total, abs=1e-12)


def test_diameter(plane):
    pts = [plane.point(p) for p in ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0))]
    assert sc.diameter(pts) == pytest.approx(math.sqrt(2.0))
    assert sc.diameter([pts[0]]) == 0.0
    tips = [sc.SpiderSpace(4).point((leg, 1.0)) for leg in range(1, 5)]
    assert sc.diameter(tips) == 2.0


def test_comparison_angle_examples(plane, spider3):
    x, y, z = (plane.point(p) for p in ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)))
    assert sc.comparison_angle(plane, x, y, z) == pytest.approx(math.pi / 2)
    # equilateral triple
    eq = [plane.point(p) for p in ((0.0, 0.0), (1.0, 0.0), (0.5, math.sqrt(3) / 2))]
    assert sc.comparison_angle(plane, *eq) == pytest.approx(math.pi / 3)
    c = spider3.center()
    t1, t2 = spider3.point((1, 1.0)), spider3.point((2, 1.0))
    assert sc.comparison_angle(spider3, c, t1, t2) == pytest.approx(math.pi)
    with pytest.raises(GeometryError):
        sc.comparison_angle(plane, x, x, z)


def test_upper_angle_examples(plane, spider3, small_tree):
    x = plane.point((0.0, 0.0))
    assert sc.upper_angle(plane, x, plane.point((1.0, 0.0)),
                          plane.point((1.0, 1.0))) == pytest.approx(math.pi / 4)
    assert sc.upper_angle(plane, x, plane.point((2.0, 1.0)),
                          plane.point((2.0, 1.0))) == 0.0
    # tree: distinct edges at a vertex are at angle pi
    b = small_tree.vertex_point(1)
    a = small_tree.point((0, 0.0))
    c = small_tree.point((1, 2.0))
    assert sc.upper_angle(small_tree, b, a, c) == pytest.approx(math.pi)
    # spider center
    ctr = spider3.center()
    assert sc.upper_angle(spider3, ctr, spider3.point((1, 1.0)),
                          spider3.point((2, 0.5))) == pytest.approx(math.pi)


def test_upper_angle_below_comparison_at_every_stage(hyperbolic, rng):
    # monotone comparison: the limit never exceeds any finite stage
    o = hyperbolic.point((1.0, 0.0, 0.0))
    for _ in range(50):
        y = hyperbolic.random_point(rng, 1.5)
        z = hyperbolic.random_point(rng, 1.5)
        if hyperbolic.same_point(y, z) or hyperbolic.same_point(o, y) \
                or hyperbolic.same_point(o, z):
            continue
        limit = sc.upper_angle(hyperbolic, o, y, z)
        for s in (1.0, 0.5, 0.25, 0.125):
            ys = hyperbolic.geodesic_point(o, y, s)
            zs = hyperbolic.geodesic_point(o, z, s)
            assert limit <= sc.comparison_angle(hyperbolic, o, ys, zs) + 1e-7


def test_cat0_residual_examples(plane, spider3, rng):
    # Euclidean: identically zero
    for x, y in random_point_pairs(plane, rng, 20):
        z = plane.random_point(rng)
        s = float(rng.uniform(0, 1))
        assert sc.cat0_inequality_residual(plane, x, y, z, s) == pytest.approx(
            0.0, abs=1e-9
        )
    # spider tips example, evaluated by the formula's own oracle:
    # (1-s) d(x,y)^2 + s d(x,z)^2 - (1-s) s d(y,z)^2 - d(x, mid)^2
    # = 0.5*4 + 0.5*4 - 0.25*4 - 1 = 2.0
    x, y, z = (spider3.point((leg, 1.0)) for leg in (1, 2, 3))
    assert spider3.distance(y, z) == 2.0
    assert spider3.geodesic_point(y, z, 0.5).data == (0, 0.0)
    assert sc.cat0_inequality_residual(spider3, x, y, z, 0.5) == pytest.approx(2.0)
    # s = 0 and s = 1 vanish identically
    assert sc.cat0_inequality_residual(spider3, x, y, z, 0.0) == pytest.approx(0.0)
    assert sc.cat0_inequality_residual(spider3, x, y, z, 1.0) == pytest.approx(0.0)


@pytest.mark.parametrize("space_name", ["plane", "spider", "book", "hyp", "tree"])
def test_cat0_residual_nonnegative(space_name, rng):
    space = {
        "plane": sc.EuclideanSpace(2),
        "spider": sc.SpiderSpace(4),
        "book": sc.BookSpace(3),
        "hyp": sc.HyperbolicPlane(),
        "tree": sc.load_tree_file("edge a b 1.0\nedge b c 2.0\nedge b d 0.5"),
    }[space_name]
    for _ in range(300):
        x, y = space.random_point(rng, 1.5), space.random_point(rng, 1.5)
        z = space.random_point(rng, 1.5)
        for s in (0.25, 0.5, 0.75):
            assert sc.cat0_inequality_residual(space, x, y, z, s) >= -1e-7


def test_four_point_unit_square():
    r = sc.four_point_subembed(1, 1, 1, 1, math.sqrt(2), math.sqrt(2))
    assert r.ok
    assert r.witness_diagonal == pytest.approx(math.sqrt(2), abs=1e-6)


def test_four_point_spider_tips():
    # 4-spider tips: all sides and diagonals 2; a planar rhombus with
    # side 2 and one diagonal 2 has the other diagonal 2*sqrt(3) >= 2
    r = sc.four_point_subembed(2, 2, 2, 2, 2, 2)
    assert r.ok
    assert r.margin >= -1e-9


def test_four_point_spherical_quadruple_fails():
    # great-circle quadruple: p^2 + q^2 = (2*(pi/2))^2 = pi^2 < 2*pi^2
    r = sc.four_point_subembed(math.pi / 2, math.pi / 2, math.pi / 2, math.pi / 2,
                               math.pi, math.pi)
    assert not r.ok
    assert r.margin < -1.0


def test_four_point_triangle_inequality_guard():
    with pytest.raises(GeometryError):
        sc.four_point_subembed(1, 1, 1, 1, 5, 1)


def test_four_point_degenerate_quadruples():
    # coincident w = x: sides (0, a, b, c), diagonals fixed by the triangle
    r = sc.four_point_subembed(0.0, 1.0, 1.0, 1.0, 1.0, 1.0)
    assert r.ok
    # all four points collinear on a segment: w=0, x=1, y=2, z=3
    r = sc.four_point_subembed(1.0, 1.0, 1.0, 3.0, 2.0, 2.0)
    assert r.ok
    # all four points coincide
    r = sc.four_point_subembed(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    assert r.ok


def test_upper_angle_flags_non_monotone_geometry():
    """A broken space whose comparison angles grow along the shrink
    schedule must be reported as a geometry bug."""

    class WarpedLine(sc.EuclideanSpace):
        # geodesics leave the segment: midpoints bulge outward, more so
        # for smaller parameters, which inflates small-scale comparison
        # angles above the large-scale ones
        def _geodesic(self, a, b, s):
            base = super()._geodesic(a, b, s)
            bulge = 0.6 * s * (1 - s) * (1 - abs(2 * s - 1))
            return (base[0], base[1] + bulge * self._dist(a, b))

    warped = WarpedLine(2)
    x = warped.point((0.0, 0.0))
    y = warped.point((1.0, 0.0))
    z = warped.point((-1.0, 0.0))
    with pytest.raises(GeometryError):
        sc.upper_angle(warped, x, y, z)


@pytest.mark.parametrize("space_name",
                         ["plane2", "plane3", "spider", "book", "hyp", "tree",
                          "product"])
def test_four_point_passes_on_cat0_samples(space_name, rng):
    space = {
        "plane2": sc.EuclideanSpace(2),
        "plane3": sc.EuclideanSpace(3),
        "spider": sc.SpiderSpace(5),
        "book": sc.BookSpace(3),
        "hyp": sc.HyperbolicPlane(),
        "tree": sc.load_tree_file("edge a b 1.0\nedge b c 2.0\nedge b d 0.5"),
        "product": sc.ProductSpace(sc.EuclideanSpace(1), sc.SpiderSpace(3)),
    }[space_name]
    for _ in range(300):
        w, x = space.random_point(rng, 1.5), space.random_point(rng, 1.5)
        y, z = space.random_point(rng, 1.5), space.random_point(rng, 1.5)
        r = sc.four_point_subembed(
            space.distance(w, x), space.distance(x, y), space.distance(y, z),
            space.distance(z, w), space.distance(w, y), space.distance(x, z),
        )
        assert r.ok


def test_curve_validation(plane):
    p = plane.point((0.0, 0.0))
    with pytest.raises(GeometryError):
        sc.make_curve([p, p], times=[1.0, 1.0])
    with pytest.raises(GeometryError):
        sc.Curve(tuple(), mode="discrete")
    with pytest.raises(GeometryError):
        sc.make_curve([p], times=[2.0], domain_end=1.0)


@pytest.mark.parametrize("times, domain_end", [
    ([0.0, math.nan], 5.0),
    ([math.nan, 1.0], 5.0),
    ([math.nan], 5.0),
    ([0.0, 1.0], math.nan),
    ([-math.inf, 0.0], 5.0),
])
def test_curve_rejects_nan_and_infinite_times(plane, times, domain_end):
    pts = [plane.point((float(i), 0.0)) for i in range(len(times))]
    with pytest.raises(GeometryError):
        sc.make_curve(pts, times=times, domain_end=domain_end)


def test_curve_keeps_infinite_domain_end(plane):
    p = plane.point((0.0, 0.0))
    assert sc.Curve(((0.0, p),)).domain_end == math.inf


def test_geodesic_parameter_range(plane):
    x, y = plane.point((0.0, 0.0)), plane.point((1.0, 0.0))
    with pytest.raises(GeometryError):
        plane.geodesic_point(x, y, 1.5)
    with pytest.raises(GeometryError):
        plane.geodesic_point(x, y, -0.1)


def test_geodesic_handle(plane):
    g = sc.Geodesic(plane.point((0.0, 0.0)), plane.point((2.0, 0.0)))
    assert g(0.0).data == (0.0, 0.0)
    assert g(1.0).data == (2.0, 0.0)
    assert g(0.25).data == (0.5, 0.0)
    assert g.length == 2.0


def test_curve_point_at_modes(plane):
    pts = [plane.point((0.0, 0.0)), plane.point((2.0, 0.0))]
    disc = sc.make_curve(pts, mode="discrete")
    geo = sc.make_curve(pts, mode="geodesic")
    assert disc.point_at(0.5).data == (0.0, 0.0)
    assert geo.point_at(0.5).data == (1.0, 0.0)
    assert geo.point_at(7.0).data == (2.0, 0.0)
