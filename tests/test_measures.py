"""Hausdorff neighborhood measures and condition-constant estimators."""
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import selfcontract as sc
from selfcontract.errors import GeometryError, SpaceMismatchError, UnsupportedSpaceError
from selfcontract.measures import (
    NeighborhoodRegion,
    _disk_union_halfplane_area,
    _height,
    estimate_condition_constants,
    hausdorff_measure_neighborhood,
)


def test_spider_whole_cover():
    spider = sc.SpiderSpace(5)
    tips = [spider.point((leg, 1.0)) for leg in range(1, 6)]
    assert hausdorff_measure_neighborhood(spider, tips, 1.0, 1) == pytest.approx(5.0)


def test_spider_partial_cover():
    spider = sc.SpiderSpace(3, 2.0)
    tip = [spider.point((1, 2.0))]
    # radius 0.5 covers [1.5, 2.0] on leg 1 only
    assert hausdorff_measure_neighborhood(spider, tip, 0.5, 1) == pytest.approx(0.5)
    # radius 2.5 covers leg 1 entirely plus 0.5 into the others
    assert hausdorff_measure_neighborhood(spider, tip, 2.5, 1) == pytest.approx(3.0)


def test_tree_single_edge():
    tree = sc.load_tree_file("edge a b 10.0")
    p = [tree.point((0, 0.0))]
    assert hausdorff_measure_neighborhood(tree, p, 1.0, 1) == pytest.approx(1.0)


def test_tree_overlapping_intervals(small_tree):
    pts = [small_tree.point((1, 1.0)), small_tree.point((1, 1.2))]
    # overlapping balls must not double count
    got = hausdorff_measure_neighborhood(small_tree, pts, 0.3, 1)
    assert got == pytest.approx((1.5 - 0.7), abs=1e-12)


def test_book_tangent_disk_area():
    book = sc.BookSpace(2)
    pts = [book.point((1, 0.0, 1.0))]
    # unit disk tangent to the spine: pi in its own sheet, zero spillover
    assert hausdorff_measure_neighborhood(book, pts, 1.0, 2) == pytest.approx(math.pi)


def test_book_spillover_area():
    book = sc.BookSpace(2)
    pts = [book.point((1, 0.0, 0.5))]
    # half of the disk pokes through the spine into the other sheet
    r, b = 1.0, 0.5
    theta = math.asin(b / r)
    # area of the disk part above the chord at height -b, reflected
    cap = r * r * (math.pi / 2 - theta) - b * math.sqrt(r * r - b * b)
    own = math.pi * r * r - cap
    assert hausdorff_measure_neighborhood(book, pts, r, 2) == pytest.approx(
        own + cap, abs=1e-9
    )


def test_book_area_vs_monte_carlo(rng):
    book = sc.BookSpace(3)
    pts = [book.random_point(rng, 1.5) for _ in range(5)]
    exact = hausdorff_measure_neighborhood(book, pts, 0.8, 2)
    n = 200000
    total = 0.0
    for sheet in range(1, 4):
        a_lo = min(p.data[1] for p in pts) - 1.0
        a_hi = max(p.data[1] for p in pts) + 1.0
        b_hi = max(p.data[2] for p in pts) + 1.0
        xs = rng.uniform(a_lo, a_hi, n)
        ys = rng.uniform(0.0, b_hi, n)
        inside = np.zeros(n, dtype=bool)
        for p in pts:
            probe_b = p.data[2] if p.data[0] in (sheet, 0) else -p.data[2]
            inside |= (xs - p.data[1]) ** 2 + (ys - probe_b) ** 2 <= 0.64
        total += inside.mean() * (a_hi - a_lo) * b_hi
    assert exact == pytest.approx(total, rel=0.02)


def test_unsupported_measure_pairs(plane, spider3, book2):
    p = [spider3.point((1, 0.5))]
    with pytest.raises(UnsupportedSpaceError):
        hausdorff_measure_neighborhood(spider3, p, 1.0, 2)
    with pytest.raises(UnsupportedSpaceError):
        hausdorff_measure_neighborhood(book2, [book2.point((1, 0.0, 1.0))], 1.0, 1)
    with pytest.raises(UnsupportedSpaceError):
        hausdorff_measure_neighborhood(plane, [plane.point((0.0, 0.0))], 1.0, 1)


def test_condition_constants_spider():
    spider = sc.SpiderSpace(5)
    tips = [spider.point((leg, 1.0)) for leg in range(1, 6)]
    region = NeighborhoodRegion(tuple(tips), 1.0)
    rc = estimate_condition_constants(spider, region)
    assert rc.m == 1
    assert rc.a == pytest.approx(1.0 / 5.0)
    assert rc.b == pytest.approx(1.0 / 5.0)
    assert rc.eps_bold == pytest.approx(1.0 / 6.0)
    assert rc.notes  # leg tips are boundary points


def test_condition_constants_segment_tree():
    # interior points of a segment see two directions, so Lambda = 2
    tree = sc.load_tree_file("edge a b 4.0")
    region = NeighborhoodRegion((tree.point((0, 2.0)),), 1.0)
    rc = estimate_condition_constants(tree, region)
    assert rc.a == pytest.approx(0.5)
    tree2 = sc.load_tree_file("edge a b 4.0\nedge b c 4.0")
    region2 = NeighborhoodRegion((tree2.point((0, 3.0)),), 1.0)
    rc2 = estimate_condition_constants(tree2, region2)
    assert rc2.a == pytest.approx(0.5)


def test_condition_constants_book():
    book = sc.BookSpace(3)
    pts = [book.point((1, 0.0, 1.0))]
    region = NeighborhoodRegion(tuple(pts), 1.0)
    rc = estimate_condition_constants(book, region)
    assert rc.eps_bold == pytest.approx(1.0 / (3.0 * math.sqrt(2.0)))
    assert rc.a == pytest.approx((4.0 / (3.0 * math.pi)) * math.asin(1.0 / (6.0 * math.sqrt(2.0))))
    h2 = hausdorff_measure_neighborhood(book, pts, 1.0, 2)
    assert rc.b == pytest.approx(2.0 * math.asin(1.0 / (6.0 * math.sqrt(2.0))) / h2)


def test_condition_constants_euclidean():
    plane = sc.EuclideanSpace(2)
    region = NeighborhoodRegion((plane.point((0.0, 0.0)),), 1.0)
    rc = estimate_condition_constants(plane, region)
    assert rc.m == 9
    cap = 2.0 * math.asin(rc.eps_bold / 2.0)
    assert rc.a == pytest.approx(cap / math.pi)
    # b = area of the sector over the region area (unit disk)
    assert rc.b == pytest.approx(math.pi * rc.a / math.pi)
    # on the line the region is [-1, 2.5], length 3.5, and a = 1/2
    line = sc.EuclideanSpace(1)
    rc = estimate_condition_constants(
        line, NeighborhoodRegion((line.point((0.0,)), line.point((1.5,))), 1.0))
    assert rc.a == 0.5 and rc.b == pytest.approx(2.0 / 7.0, rel=1e-15)
    # in R^3 a is the cap fraction of the sphere and b = (4 pi / 3) a / vol,
    # vol being the 60^3 midpoint-grid volume of the unit ball (measured
    # error +5.9e-5 relative)
    space = sc.EuclideanSpace(3)
    rc = estimate_condition_constants(
        space, NeighborhoodRegion((space.point((0.0, 0.0, 0.0)),), 1.0))
    assert rc.a == pytest.approx(0.5 * (1.0 - math.cos(2.0 * math.asin(rc.eps_bold / 2.0))))
    assert abs(rc.a / rc.b - 1.0) <= 1e-4
    with pytest.raises(UnsupportedSpaceError):
        estimate_condition_constants(
            sc.EuclideanSpace(4),
            NeighborhoodRegion((sc.EuclideanSpace(4).point((0.0,) * 4),), 1.0),
        )


def test_condition_constants_refuse_a_region_of_another_space(small_tree):
    """The region must lie in the space whose constants are asked for, as
    the points of `hausdorff_measure_neighborhood` must: a region of tree
    points given with a spider, or of `book:2` points given with `book:3`,
    used to come back with constants."""
    tree_region = NeighborhoodRegion(
        (small_tree.point((0, 0.5)), small_tree.point((2, 0.25))), 1.0)
    book2 = sc.BookSpace(2)
    book_region = NeighborhoodRegion((book2.point((1, 0.0, 1.0)),), 1.0)
    for space, region in ((sc.SpiderSpace(3), tree_region), (sc.BookSpace(3), book_region)):
        with pytest.raises(SpaceMismatchError, match="used in"):
            estimate_condition_constants(space, region)
    for space, region in ((small_tree, tree_region), (book2, book_region)):
        assert estimate_condition_constants(space, region).sigma == 1.0


def test_region_containment(plane):
    region = NeighborhoodRegion((plane.point((0.0, 0.0)),), 2.0)
    inner = [plane.point((0.5, 0.0))]
    outer = [plane.point((1.5, 0.0))]
    assert region.contains_neighborhood(inner, 1.0)
    assert not region.contains_neighborhood(outer, 1.0)


def test_degenerate_disk_configs():
    # disks entirely below the axis contribute nothing when clipped
    assert _disk_union_halfplane_area([(0.0, -5.0, 1.0)]) == 0.0
    # nested disks count once, concentric or not, in either order
    for inner in ((0.0, 2.0, 1.0), (0.5, 2.3, 1.0), (1.0, 2.0, 1.0)):
        for disks in ([(0.0, 2.0, 2.0), inner], [inner, (0.0, 2.0, 2.0)]):
            area = _disk_union_halfplane_area(disks)
            assert area == pytest.approx(4.0 * math.pi, rel=1e-15)
    # equal disks count once, however many copies
    for copies in (2, 3):
        area = _disk_union_halfplane_area([(0.3, 0.4, 1.5)] * copies, clip=False)
        assert area == pytest.approx(2.25 * math.pi, rel=1e-15)
    # centres 1e-182 apart: the same disk to rounding, counted once
    for a in (0.0, 1.0):
        near = [(a, 0.0, 1.0), (a + 1.85e-104, 7.8e-182, 1.0)]
        assert _disk_union_halfplane_area(near) == pytest.approx(0.5 * math.pi, rel=1e-15)
    assert _disk_union_halfplane_area([]) == 0.0


def _lens_union(r1: float, r2: float, d: float) -> float:
    """Area of the union of two disks at centre distance d: the sum of the
    disks less the lens, two circular sectors less their kite."""
    if d >= r1 + r2:
        return math.pi * (r1 * r1 + r2 * r2)
    if d <= abs(r1 - r2):
        return math.pi * max(r1, r2) ** 2
    h = _height(r1, r2, d)
    w1 = math.atan2(h, (d * d + r1 * r1 - r2 * r2) / (2.0 * d))
    w2 = math.atan2(h, (d * d + r2 * r2 - r1 * r1) / (2.0 * d))
    return math.pi * (r1 * r1 + r2 * r2) - (r1 * r1 * w1 + r2 * r2 * w2 - d * h)


def test_two_disk_union_is_the_lens_formula():
    """Two disks against the lens formula to 1e-13, tangent and near-tangent
    pairs (externally and internally) and far-off centres included."""
    rng = np.random.default_rng(7)
    cases = []
    for _ in range(500):
        r1, r2 = (float(v) for v in rng.uniform(0.1, 2.0, 2))
        cases.append((r1, r2, float(rng.uniform(0.0, r1 + r2 + 0.5))))
    for eps in (1e-12, 1e-15, 0.0):
        for r1, r2 in ((1.0, 1.0), (1.0, 0.5), (0.3, 1.7)):
            cases.append((r1, r2, r1 + r2 - eps))
            if r1 != r2:
                cases.append((r1, r2, abs(r1 - r2) + eps))
    for r1, r2, d in cases:
        for a in (0.0, -7.5, 20.0):
            for theta in (0.0, 0.7, -2.0):
                c2 = (a + d * math.cos(theta), 0.3 + d * math.sin(theta))
                disks = [(a, 0.3, r1), (*c2, r2)]
                expected = _lens_union(r1, r2, math.hypot(c2[0] - a, c2[1] - 0.3))
                got = _disk_union_halfplane_area(disks, clip=False)
                assert got == pytest.approx(expected, rel=1e-13), (r1, r2, d, a, theta)


def test_clipped_disk_is_the_circular_segment():
    """One disk at height b above the axis keeps r^2 (pi - phi) + b h, with
    half-chord h = sqrt((r - b)(r + b)) and phi = atan2(h, b) the half-angle
    of the part below the axis (written with atan2, as acos(b/r) loses half
    the digits near tangency)."""
    for r in (0.25, 1.0, 3.0):
        for f in [*np.linspace(-0.95, 1.2, 44), 1.0 - 2.0 ** -52, -1.0 + 2.0 ** -52]:
            b = float(f) * r
            c = min(b, r)
            h = math.sqrt((r - c) * (r + c))
            expected = r * r * (math.pi - math.atan2(h, c)) + c * h
            for a in (0.0, 13.0):
                got = _disk_union_halfplane_area([(a, b, r)])
                assert got == pytest.approx(expected, rel=1e-14, abs=1e-15 * r * r), (r, b, a)


def _sqrt_primitive(u: float, r: float) -> float:
    """Antiderivative of sqrt(r^2 - u^2)."""
    u = min(max(u, -r), r)
    return 0.5 * (u * math.sqrt(max(r * r - u * u, 0.0)) + r * r * math.asin(u / r))


def slab_area(disks, clip=True):
    """Oracle: the former O(n^3) slab integrator.  It integrates the slice
    length between structural breakpoints (disk ends, axis crossings, circle
    intersections), each envelope piece by its antiderivative."""
    cuts = set()
    for (ac, bc, r) in disks:
        cuts.update((ac - r, ac + r))
        if clip and abs(bc) < r:
            w = math.sqrt(r * r - bc * bc)
            cuts.update((ac - w, ac + w))
    for i, (a1, b1, r1) in enumerate(disks):
        for a2, b2, r2 in disks[i + 1:]:
            dx, dy = a2 - a1, b2 - b1
            d2 = dx * dx + dy * dy
            d = math.sqrt(d2)
            if d >= r1 + r2 or d <= abs(r1 - r2) or d == 0.0:
                continue
            t = (d2 + r1 * r1 - r2 * r2) / (2.0 * d2)
            h2 = r1 * r1 - t * t * d2
            if h2 <= 0:
                continue
            h = math.sqrt(h2) / d
            cuts.update((a1 + t * dx + h * dy, a1 + t * dx - h * dy))
    xs = sorted(cuts)
    total = 0.0
    for a0, a1 in zip(xs, xs[1:]):
        if a1 - a0 <= 1e-14:
            continue
        am = a0 + 0.37371356 * (a1 - a0)  # off the midpoint, a possible tangency
        active = []
        for di, (ac, bc, r) in enumerate(disks):
            if abs(am - ac) >= r:
                continue
            h = math.sqrt(r * r - (am - ac) ** 2)
            if not (clip and bc + h <= 0.0):
                active.append((bc - h, bc + h, di))
        if not active:
            continue
        active.sort()
        comps = []
        cur_lo, cur_hi, lo_d, hi_d = active[0][0], active[0][1], active[0][2], active[0][2]
        for lo, hi, di in active[1:]:
            if lo <= cur_hi:
                if hi > cur_hi:
                    cur_hi, hi_d = hi, di
            else:
                comps.append((cur_lo, lo_d, cur_hi, hi_d))
                cur_lo, cur_hi, lo_d, hi_d = lo, hi, di, di
        comps.append((cur_lo, lo_d, cur_hi, hi_d))
        for lo, lo_d, hi, hi_d in comps:
            ac, bc, r = disks[hi_d]
            upper = bc * (a1 - a0) + _sqrt_primitive(a1 - ac, r) - _sqrt_primitive(a0 - ac, r)
            lower = 0.0
            if not (clip and lo < 0.0):
                ac, bc, r = disks[lo_d]
                lower = bc * (a1 - a0) - (_sqrt_primitive(a1 - ac, r)
                                          - _sqrt_primitive(a0 - ac, r))
            total += upper - lower
    return total


def test_union_area_agrees_with_slab_oracle():
    rng = np.random.default_rng(11)
    for trial in range(150):
        n = int(rng.integers(1, 15))
        r = float(rng.uniform(0.1, 1.5))
        disks = [(float(a), float(b), r) for a, b in rng.uniform(-1.5, 1.5, (n, 2))]
        if trial % 3 == 0:  # unequal radii
            disks = [(a, b, float(rng.uniform(0.1, 1.5))) for a, b, _ in disks]
        for clip in (True, False):
            expected = slab_area(disks, clip)
            got = _disk_union_halfplane_area(disks, clip)
            assert got == pytest.approx(expected, rel=1e-8, abs=1e-12), (disks, clip)


_disk = st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0), st.floats(0.05, 2.0))


@settings(max_examples=200, deadline=None)
@given(disks=st.lists(_disk, min_size=1, max_size=8), shift=st.floats(-50.0, 50.0),
       order=st.randoms(use_true_random=False))
# nearly coincident disks: less area than one of them, a permutation that
# moved the area by the whole 1e-12 strip, and a shift that parts a disk
# from its twin to rounding, whose arcs a third disk's cover had skipped
@example(disks=[(0.0, 0.0, 1.0), (0.0, 1e-12, 1.0)], shift=0.0, order=random.Random(0))
@example(disks=[(0.0, 1e-12, 1.0), (1.0, 0.0, 1.0), (0.0, 0.0, 1.0)], shift=0.0,
         order=random.Random(1))
@example(disks=[(0.0, 0.0, 0.5), (0.0, 0.00390625, 0.5), (1e-15, 0.0, 0.5)], shift=1.0,
         order=random.Random(0))
def test_union_area_properties(disks, shift, order):
    """Permuting the disks or shifting every abscissa keeps the area, which lies
    between the largest single clipped disk and the sum of the disk areas."""
    for clip in (True, False):
        area = _disk_union_halfplane_area(disks, clip)
        permuted = list(disks)
        order.shuffle(permuted)
        scale = max(area, 1e-300)
        assert abs(_disk_union_halfplane_area(permuted, clip) - area) <= 1e-13 * scale
        moved = [(a + shift, b, r) for a, b, r in disks]
        assert abs(_disk_union_halfplane_area(moved, clip) - area) <= 1e-13 * scale
        largest = max(_disk_union_halfplane_area([d], clip) for d in disks)
        assert largest * (1.0 - 1e-13) <= area <= math.fsum(math.pi * r * r
                                                            for _, _, r in disks) * (1 + 1e-13)


def test_nearly_coincident_disks_keep_their_strip():
    """Two unit disks d apart cover pi + 2d - d^3/12 + ...: for d <= 1e-6 the
    union is pi + 2d to a few ulps, in either order and any direction."""
    rng = np.random.default_rng(5)
    for d in 10.0 ** np.linspace(-14.0, -6.0, 33):
        for _ in range(12):
            t = float(rng.uniform(-math.pi, math.pi))
            a, b = (float(v) for v in rng.uniform(-2.0, 2.0, 2))
            disks = [(a, b, 1.0), (a + float(d) * math.cos(t), b + float(d) * math.sin(t), 1.0)]
            offset = math.hypot(disks[1][0] - a, disks[1][1] - b)
            for pair in (disks, disks[::-1]):
                area = _disk_union_halfplane_area(pair, clip=False)
                assert abs(area - (math.pi + 2.0 * offset)) <= 4 * math.ulp(math.pi), (d, pair)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.floats(-3.0, 3.0), st.floats(0.05, 2.0)), min_size=1, max_size=8))
def test_axis_centred_union_halves_when_clipped(centres):
    """Disks centred on the axis are symmetric about it: the clipped area is
    half the unclipped one."""
    disks = [(a, 0.0, r) for a, r in centres]
    half = 0.5 * _disk_union_halfplane_area(disks, clip=False)
    assert _disk_union_halfplane_area(disks) == pytest.approx(half, rel=1e-13)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0, 0.0])
def test_hostile_radius_is_refused(bad, spider3, book2):
    tree = sc.load_tree_file("edge a b 2.0")
    for space, pts, dim in ((book2, [book2.point((1, 0.0, 1.0))], 2),
                            (tree, [tree.point((0, 1.0))], 1),
                            (spider3, [spider3.point((1, 0.5))], 1)):
        with pytest.raises(GeometryError, match="radius"):
            hausdorff_measure_neighborhood(space, pts, bad, dim)
        with pytest.raises(GeometryError, match="radius"):
            NeighborhoodRegion(tuple(pts), bad)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0, 0.0])
def test_hostile_sigma_is_refused(bad, plane, book2):
    for space, p in ((plane, plane.point((0.0, 0.0))), (book2, book2.point((1, 0.0, 1.0)))):
        with pytest.raises(GeometryError, match="sigma"):
            estimate_condition_constants(space, NeighborhoodRegion((p,), 1.0), sigma=bad)
