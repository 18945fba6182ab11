"""Curve-level metric operations and the CAT(0) decision procedures."""
import json
import math
from decimal import Decimal, localcontext
from itertools import islice
from pathlib import Path

import numpy as np
import pytest

import selfcontract as sc
from selfcontract.errors import GeometryError, SpaceMismatchError
from selfcontract.metric import FourPointResult, golden_section
from selfcontract.widths import spider_jump_curve

from conftest import decimal_atan2, random_point_pairs


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


def test_diameter_refuses_no_points_and_mixed_spaces(plane):
    """An empty collection has no space; points of two spaces have no distance."""
    with pytest.raises(GeometryError, match="^empty point collection$"):
        sc.diameter(iter([]))
    pts = [plane.point((0.0, 0.0)), sc.EuclideanSpace(2).point((1.0, 0.0))]
    assert sc.diameter(pts) == 1.0  # an equal space object is the same space
    with pytest.raises(SpaceMismatchError, match="^points from different spaces$"):
        sc.diameter(pts + [sc.EuclideanSpace(3).point((0.0, 0.0, 0.0))])


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


def decimal_comparison_angle(a: float, b: float, c: float):
    """The 50-digit angle between the sides a and b of the triangle with
    sides a, b, c: atan2 of 4 * area (Heron) and 2ab cos, exact inputs."""
    with localcontext() as ctx:
        ctx.prec = 60
        a, b, c = Decimal(a), Decimal(b), Decimal(c)
        heron = (a + b + c) * (b + c - a) * (a - b + c) * (a + b - c)
        return decimal_atan2(max(heron, Decimal(0)).sqrt(), a * a + b * b - c * c)


def test_comparison_angle_on_needle_triangles(plane, rng):
    """Kahan's angle is within 4 ulp of the 50-digit angle of the same side
    doubles on 1,500 needle triangles, with angles from 1e-15 to 0.1 and
    within as much of pi, and sides from 1e-3 to 10: 2.8 ulp at worst.
    The arccos of the law of cosines keeps half the digits: it was 3.7e-7
    off an angle of 7.6e-7."""
    for i in range(1500):
        x = plane.random_point(rng, 1.0).data
        t = float(rng.uniform(-math.pi, math.pi))
        turn = float(10.0 ** rng.uniform(-15.0, -1.0))
        turn = (turn, -turn, math.pi - turn)[i % 3]
        r1, r2 = (float(r) for r in 10.0 ** rng.uniform(-3.0, 1.0, 2))
        y = (x[0] + r1 * math.cos(t), x[1] + r1 * math.sin(t))
        z = (x[0] + r2 * math.cos(t + turn), x[1] + r2 * math.sin(t + turn))
        got = sc.comparison_angle(plane, *(plane.point(p) for p in (x, y, z)))
        exact = decimal_comparison_angle(plane._dist(x, y), plane._dist(x, z),
                                         plane._dist(y, z))
        assert abs(Decimal(got) - exact) <= 4 * Decimal(math.ulp(float(exact))), (x, y, z)


def test_upper_angle_examples(plane, spider3, small_tree):
    x = plane.point((0.0, 0.0))
    assert sc.upper_angle(plane, x, plane.point((1.0, 0.0)),
                          plane.point((1.0, 1.0))) == pytest.approx(math.pi / 4)
    assert sc.upper_angle(plane, x, plane.point((2.0, 1.0)),
                          plane.point((2.0, 1.0))) == 0.0
    # tree: distinct edges at a vertex are at angle pi
    b = small_tree.point(small_tree._vertex_rep[1])
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


def _hinge_gap(d_wx, d_xy, d_yz, d_zw, d_xz, delta):
    """max ||x~ - z~|| over hinge configs minus d_xz, for diagonal delta.

    w~ = (0,0), y~ = (delta,0); x~ above the axis, z~ below (opposite
    sides maximize the second diagonal).  Vectorized over delta.
    """
    delta = np.asarray(delta, dtype=float)
    with np.errstate(invalid="ignore", divide="ignore"):
        px = np.where(delta > 0, (delta**2 + d_wx**2 - d_xy**2) / (2 * delta), 0.0)
        hx = np.sqrt(np.maximum(d_wx**2 - px**2, 0.0))
        pz = np.where(delta > 0, (delta**2 + d_zw**2 - d_yz**2) / (2 * delta), 0.0)
        hz = np.sqrt(np.maximum(d_zw**2 - pz**2, 0.0))
        diag = np.hypot(px - pz, hx + hz)
        # delta == 0 collapses w~ = y~: x~ and z~ sit on opposite rays
        diag = np.where(delta > 0, diag, d_wx + d_zw)
    return diag - d_xz


def sweep_four_point(d_wx: float, d_xy: float, d_yz: float, d_zw: float,
                     d_wy: float, d_xz: float,
                     grid: int = 10_000, refine_steps: int = 60,
                     coarse: int = 64) -> FourPointResult:
    """Oracle for four_point_subembed: the search it replaced.

    Sweeps the embedded w-y diagonal and hinges the two comparison
    triangles on opposite sides.  A coarse sweep accepts early;
    otherwise the full grid plus golden-section refinement around the
    best bracket decides.
    """
    sides = (d_wx, d_xy, d_yz, d_zw, d_wy, d_xz)
    if any(d < 0 or not math.isfinite(d) for d in sides):
        raise GeometryError("distances must be nonnegative and finite")
    scale = max(sides) or 1.0
    tol = 1e-9 * scale
    for a, b, c, face in (
        (d_wx, d_xy, d_wy, "wxy"),
        (d_zw, d_yz, d_wy, "wyz"),
    ):
        if a + b < c - tol or abs(a - b) > c + tol:
            raise GeometryError(f"triangle inequality violated on face {face}")
    lo = d_wy
    hi = min(d_wx + d_xy, d_zw + d_yz)
    if hi < lo:
        hi = lo

    def gap(ds):
        return _hinge_gap(d_wx, d_xy, d_yz, d_zw, d_xz, ds)

    for n in (coarse, grid):
        deltas = np.linspace(lo, hi, n + 1)
        gaps = gap(deltas)
        k = int(np.argmax(gaps))
        if gaps[k] >= -tol:
            return FourPointResult(True, float(deltas[k]), float(gaps[k]))
    # golden-section maximization around the best bracket of the full grid
    bracket = golden_section(lambda t: -float(gap(t)),
                             deltas[max(k - 1, 0)], deltas[min(k + 1, grid)])
    for _, _, c, fc, d, fd in islice(bracket, max(refine_steps, 0) + 1):
        pass
    fc, fd = -fc, -fd
    best = max(fc, fd, float(gaps[k]))
    arg = c if fc >= fd else d
    if best >= -tol:
        return FourPointResult(True, float(arg), float(best))
    return FourPointResult(False, None, float(best),
                           detail="no diagonal admits both long diagonals")


def sphere_quadruple(rng):
    """Great-circle distances of four points on the unit sphere: these fail."""
    pts = rng.normal(size=(4, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)

    def d(i, j):
        return math.acos(max(-1.0, min(1.0, float(pts[i] @ pts[j]))))

    return (d(0, 1), d(1, 2), d(2, 3), d(3, 0), d(0, 2), d(1, 3))


def _assert_matches_sweep(quad):
    """The sweep's decision, a margin no smaller than the sweep's or any of
    20,001 evenly spaced hinges', and a witness diagonal that attains it."""
    r = sc.four_point_subembed(*quad)
    oracle = sweep_four_point(*quad)
    assert r.ok == oracle.ok, quad
    wx, xy, yz, zw, wy, xz = quad
    scale = max(quad)
    excess = min(wx + xy - wy, wy + wx - xy, wy + xy - wx,
                 zw + yz - wy, wy + zw - yz, wy + yz - zw)
    # a face flat to rounding leaves its hinge height, and so every
    # margin here, uncertain by about sqrt(machine epsilon) * scale
    slack = (1e-7 if excess <= 1e-6 * scale else 1e-12) * scale
    lo, hi = wy, max(wy, min(wx + xy, zw + yz))
    dense = float(np.max(_hinge_gap(wx, xy, yz, zw, xz, np.linspace(lo, hi, 20_001))))
    assert r.margin >= max(oracle.margin, dense) - slack, quad
    if r.ok:
        assert lo <= r.witness_diagonal <= hi, quad
        attained = float(_hinge_gap(wx, xy, yz, zw, xz, r.witness_diagonal))
        assert abs(attained - r.margin) <= slack, quad
    return r


@pytest.mark.parametrize("space_name",
                         ["line", "plane2", "plane3", "spider", "book", "hyp", "tree",
                          "branching_tree", "product"])
def test_four_point_passes_on_cat0_samples(space_name, rng):
    space = {
        "line": sc.EuclideanSpace(1),
        "plane2": sc.EuclideanSpace(2),
        "plane3": sc.EuclideanSpace(3),
        "spider": sc.SpiderSpace(5),
        "book": sc.BookSpace(3),
        "hyp": sc.HyperbolicPlane(),
        "tree": sc.load_tree_file("edge a b 1.0\nedge b c 2.0\nedge b d 0.5"),
        "branching_tree": sc.random_tree(seed=78, max_edges=10, max_degree=5),
        "product": sc.ProductSpace(sc.EuclideanSpace(1), sc.SpiderSpace(3)),
    }[space_name]
    for _ in range(300):
        w, x = space.random_point(rng, 1.5), space.random_point(rng, 1.5)
        y, z = space.random_point(rng, 1.5), space.random_point(rng, 1.5)
        r = _assert_matches_sweep((
            space.distance(w, x), space.distance(x, y), space.distance(y, z),
            space.distance(z, w), space.distance(w, y), space.distance(x, z),
        ))
        assert r.ok


def test_four_point_matches_sweep_on_sphere(rng):
    results = [_assert_matches_sweep(sphere_quadruple(rng)) for _ in range(300)]
    assert any(not r.ok for r in results) and any(r.ok for r in results)


def test_four_point_matches_sweep_on_golden_pins():
    pins = json.loads((Path(__file__).parent / "golden" / "primitives.json").read_text())
    for case in pins["four_point_subembed"]:
        _assert_matches_sweep(tuple(float.fromhex(v) for v in case["args"]))


def test_four_point_absolute_tolerance_floor():
    """Tolerance max(1e-9 * longest side, 1e-12): sides near 1e-12 (an H2
    quadruple) are not refused for rounding, a 1e-12 slack is the floor."""
    tiny = (2.1931645859831521e-13, 3.1295121327416637e-13, 6.319539252578426e-14,
            1.3922798750597182e-13, 2.0242358795809656e-13, 2.7143197880218604e-13)
    assert sc.four_point_subembed(*tiny).ok
    assert sc.four_point_subembed(0.0, 0.0, 0.0, 0.0, 0.9e-12, 0.0).ok
    with pytest.raises(GeometryError, match="face wxy"):
        sc.four_point_subembed(0.0, 0.0, 0.0, 0.0, 1.1e-12, 0.0)


def decimal_four_point_margin(quad, digits: int = 60) -> float:
    """The closed form's margin evaluated at `digits` significant digits:
    the hinge at delta = d_wy, each height from d^2 - p^2, which loses no
    digit that matters at this precision."""
    with localcontext() as ctx:
        ctx.prec = digits
        wx, xy, yz, zw, wy, xz = (Decimal(v) for v in quad)
        px = (wy * wy + wx * wx - xy * xy) / (2 * wy)
        pz = (wy * wy + zw * zw - yz * yz) / (2 * wy)
        hx = max(wx * wx - px * px, Decimal(0)).sqrt()
        hz = max(zw * zw - pz * pz, Decimal(0)).sqrt()

        def reflex(p1, p2):
            # the angle sum at the vertex exceeds pi: x~z~ passes beyond it
            return p1 * hz + p2 * hx < 0 if hx + hz > 0 else p1 < 0 and p2 < 0

        if reflex(px, pz) or reflex(wy - px, wy - pz):
            best = min(wx + zw, xy + yz)
        else:
            best = ((px - pz) ** 2 + (hx + hz) ** 2).sqrt()
        return float(best - xz)


def _flat_face_quadruples(rng) -> list:
    """Quadruples whose faces are flat to rounding: x on the geodesic w-y of
    a branching tree (and, every other time, z too), and four points of a
    line."""
    tree = sc.random_tree(seed=78, max_edges=10, max_degree=5)
    quads = []
    for i in range(300):
        space = tree if i < 200 else sc.EuclideanSpace(1)
        w, y, z = (space.random_point(rng, 1.5) for _ in range(3))
        x = space.geodesic_point(w, y, float(rng.uniform(0.05, 0.95)))
        if i % 2 and space is tree:
            z = space.geodesic_point(y, w, float(rng.uniform(0.05, 0.95)))
        d = space.distance
        quads.append((d(w, x), d(x, y), d(y, z), d(z, w), d(w, y), d(x, z)))
    return [q for q in quads if q[4] > 0.0]


FLAT_TREE_QUADRUPLE = (4.280589069394699, 4.363710861482673, 1.239423667131195,
                       3.39021360943027, 4.629637276561464, 3.1242871943514787)


def test_four_point_margin_matches_decimal_on_flat_faces(rng):
    """Heights from Kahan's Heron area keep the margin within 1e-12 * scale
    of a 60-digit evaluation where a face is flat to rounding; the height
    sqrt(d^2 - p^2) was 3.3e-8 off on the branching-tree quadruple."""
    quads = [FLAT_TREE_QUADRUPLE, *_flat_face_quadruples(rng)]
    assert len(quads) > 250
    for quad in quads:
        margin = sc.four_point_subembed(*quad).margin
        assert abs(margin - decimal_four_point_margin(quad)) <= 1e-12 * max(quad), quad


def test_curve_validation(plane):
    p = plane.point((0.0, 0.0))
    with pytest.raises(GeometryError):
        sc.make_curve([p, p], times=[1.0, 1.0])
    with pytest.raises(GeometryError):
        sc.Curve(plane, (), (), mode="discrete")
    with pytest.raises(GeometryError):
        sc.make_curve([p], times=[2.0], domain_end=1.0)
    q, r = plane.point((1.0, 0.0)), plane.point((2.0, 0.0))
    with pytest.raises(GeometryError, match="2 sample times for 3 points"):
        sc.make_curve([p, q, r], times=[0.0, 1.0])
    with pytest.raises(GeometryError, match="3 sample times for 2 points"):
        sc.make_curve([p, q], times=[0.0, 1.0, 2.0])


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
    assert sc.Curve(plane, (0.0,), (p.data,)).domain_end == math.inf


def test_geodesic_parameter_range(plane):
    x, y = plane.point((0.0, 0.0)), plane.point((1.0, 0.0))
    with pytest.raises(GeometryError):
        plane.geodesic_point(x, y, 1.5)
    with pytest.raises(GeometryError):
        plane.geodesic_point(x, y, -0.1)


def test_curve_point_at_modes(plane):
    pts = [plane.point((0.0, 0.0)), plane.point((2.0, 0.0))]
    disc = sc.make_curve(pts, mode="discrete")
    geo = sc.make_curve(pts, mode="geodesic")
    assert disc.point_at(0.5).data == (0.0, 0.0)
    assert geo.point_at(0.5).data == (1.0, 0.0)
    assert geo.point_at(7.0).data == (2.0, 0.0)
