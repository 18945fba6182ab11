"""Mean width, directional decrease, and the rectifiability bound audits."""
import math

import numpy as np
import pytest

import selfcontract as sc
from selfcontract.errors import GeometryError, UnsupportedSpaceError
from selfcontract.measures import (
    NeighborhoodRegion,
    estimate_condition_constants,
    radius_constants,
)
from selfcontract import widths
from selfcontract.spaces.base import Direction
from selfcontract.verify import is_self_contracted
from selfcontract.widths import (
    _distances_fall,
    book_length_bound,
    book_spine_jump_curve,
    directional_decrease_residual,
    euclidean_constants,
    euclidean_length_bound,
    generic_bound_for_curve,
    generic_cat0_bound,
    mean_width,
    projection_extent,
    random_self_contracted,
    random_tree,
    spider_jump_curve,
    tail_cover_direction,
    tree_length_bound,
    unrectifiable_witness,
)

from test_spaces import _bits


def test_projection_extent_examples(plane, spider3):
    base = plane.point((0.0, 0.0))
    e1 = Direction(plane, base, (1.0, 0.0))
    pts = [plane.point((1.0, 0.0)), plane.point((-2.0, 0.0))]
    assert projection_extent(plane, base, e1, pts) == pytest.approx((-2.0, 1.0))
    assert projection_extent(plane, base, e1, [base]) == (0.0, 0.0)
    ctr = spider3.center()
    into1 = Direction(spider3, ctr, (1, 1))
    tips = [spider3.point((1, 1.0)), spider3.point((2, 1.0))]
    assert projection_extent(spider3, ctr, into1, tips) == pytest.approx((-1.0, 1.0))


def test_mean_width_segment(plane):
    pts = [plane.point((0.0, 0.0)), plane.point((3.0, 0.0))]
    rep = mean_width(plane, pts, method="quadrature")
    assert rep.width == pytest.approx(2.0 * 3.0 / math.pi, rel=1e-15)
    mc = mean_width(plane, pts, n_dirs=4096, seed=0, method="mc")
    assert abs(mc.width - 2.0 * 3.0 / math.pi) <= 3.0 * mc.stderr


def hull(points):
    """Andrew's monotone chain, counter-clockwise."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower, upper = [], []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def test_mean_width_quadrature_matches_hull_perimeter(plane, rng):
    """Cauchy's formula: mean width of a planar convex body = perimeter/pi."""
    for n in (1, 2, 3, 15, 15, 15, 60):
        pts = [plane.point(tuple(rng.uniform(-1, 1, 2))) for _ in range(n)]
        h = hull([p.data for p in pts])
        perim = sum(math.dist(h[i], h[(i + 1) % len(h)]) for i in range(len(h)))
        rep = mean_width(plane, pts, method="quadrature")
        assert rep.width == pytest.approx(perim / math.pi, rel=1e-12, abs=1e-15)
        assert (rep.n_directions, rep.seed, rep.stderr) == (0, None, 0.0)
        inflated = mean_width(plane, pts, inflate=0.3, method="quadrature")
        assert inflated.width == pytest.approx(perim / math.pi + 0.6, rel=1e-12)


def test_mean_width_quadrature_square_no_aliasing(plane):
    """An axis-aligned square's width function aliases coarse symmetric
    grids; the exact width is perimeter/pi."""
    pts = [plane.point(p) for p in ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0),
                                    (0.0, 1.0))]
    rep = mean_width(plane, pts, method="quadrature")
    assert rep.width == pytest.approx(4.0 / math.pi, rel=1e-15)


def test_plane_width_matches_a_fine_direction_rule(plane):
    """On a random self-contracted curve the exact width matches the mean over
    2^18 equally spaced directions to 1e-10."""
    pts = random_self_contracted(plane, 14, seed=20_372).points
    arr = np.array([p.data for p in pts])
    n = 2 ** 18
    thetas = np.arange(n) * (math.pi / n)
    dots = np.stack([np.cos(thetas), np.sin(thetas)], axis=1) @ arr.T
    fine = float((dots.max(axis=1) - dots.min(axis=1)).mean())
    assert mean_width(plane, pts, method="quadrature").width == pytest.approx(fine, abs=1e-10)


@pytest.mark.parametrize("method", ["quadrature", "mc"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
def test_mean_width_refuses_hostile_inflate(plane, spider3, method, bad):
    pts = [plane.point((0.0, 0.0)), plane.point((1.0, 0.0))]
    with pytest.raises(GeometryError, match="inflate"):
        mean_width(plane, pts, inflate=bad, method=method)
    with pytest.raises(GeometryError, match="inflate"):
        mean_width(spider3, [spider3.point((1, 0.5))], n_dirs=4, inflate=bad)


def test_mean_width_refuses_unknown_methods(plane, spider3, book2):
    """Only auto, quadrature and mc are methods, and quadrature needs the plane."""
    pts = [plane.point((0.0, 0.0)), plane.point((1.0, 0.0))]
    for space, where in ((plane, pts), (book2, [book2.point((1, 0.0, 0.5))])):
        with pytest.raises(GeometryError, match="bogus"):
            mean_width(space, where, n_dirs=4, method="bogus")
    for space in (spider3, book2, sc.HyperbolicPlane(), sc.EuclideanSpace(3)):
        with pytest.raises(UnsupportedSpaceError, match="plane"):
            mean_width(space, [space.random_point(np.random.default_rng(0))], method="quadrature")
    assert mean_width(book2, [book2.point((1, 0.0, 0.5))], n_dirs=4, method="mc").method \
        == "mc_basepoints"


def test_mean_width_ball_and_singleton(plane):
    for r in (0.5, 1.0, 2.0):
        rep = mean_width(plane, [plane.point((0.0, 0.0))], n_dirs=256, seed=3,
                         inflate=r, method="mc")
        assert abs(rep.width - 2.0 * r) <= 3.0 * rep.stderr + 1e-9
    rep = mean_width(plane, [plane.point((0.7, -0.1))], n_dirs=64, seed=3,
                     method="mc")
    assert rep.width == 0.0


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_mc_width_is_the_row_extent_bit_for_bit(dim, rng):
    """The Monte Carlo width reduces each direction's projections to their
    extent, bit for bit the max(axis=1) - min(axis=1) of the projection
    matrix, for one to 200 points, all-zero points (signed zeros) included."""
    space = sc.EuclideanSpace(dim)
    sets = [[tuple(float(c) for c in rng.uniform(-2, 2, dim)) for _ in range(n)]
            for n in (1, 2, 7, 14, 60, 200)]
    sets += [[(0.0,) * dim] * 3, [(-0.0,) * dim, (0.0,) * dim]]
    for data in sets:
        pts = [space.point(p) for p in data]
        for inflate, seed in ((0.0, 0), (0.25, 7)):
            rep = mean_width(space, pts, n_dirs=512, seed=seed, inflate=inflate, method="mc")
            vecs = np.random.default_rng(seed).normal(size=(512, dim))
            vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
            dots = vecs @ np.array(data, dtype=float).T
            w = dots.max(axis=1) - dots.min(axis=1) + 2.0 * inflate
            assert rep.width.hex() == float(w.mean()).hex()
            assert rep.stderr.hex() == float(w.std(ddof=1) / math.sqrt(512)).hex()


def test_mean_width_monotone_and_diam_bound(plane, rng):
    pts = [plane.point(tuple(rng.uniform(-1, 1, 2))) for _ in range(20)]
    sub = pts[:8]
    w_all = mean_width(plane, pts, method="quadrature").width
    w_sub = mean_width(plane, sub, method="quadrature").width
    assert w_sub <= w_all + 1e-9
    assert w_all <= sc.diameter(pts) + 1e-9


def test_mean_width_nondeterministic_spaces(spider3, rng):
    tips = [spider3.point((leg, 1.0)) for leg in range(1, 4)]
    rep = mean_width(spider3, tips, n_dirs=600, seed=5)
    assert rep.width <= sc.diameter(tips) + 3 * rep.stderr
    assert rep.width > 0.5


def test_mean_width_hyperbolic_and_book(rng):
    hyp = sc.HyperbolicPlane()
    pts = [hyp.random_point(rng, 1.0) for _ in range(5)]
    rep = mean_width(hyp, pts, n_dirs=400, seed=6)
    assert 0.0 <= rep.width <= sc.diameter(pts) + 3 * rep.stderr
    book = sc.BookSpace(2)
    bpts = [book.random_point(rng, 1.0) for _ in range(5)]
    rep = mean_width(book, bpts, n_dirs=400, seed=6)
    assert 0.0 <= rep.width <= sc.diameter(bpts) + 3 * rep.stderr
    tree = random_tree(seed=17, max_edges=8)
    tpts = [tree.random_point(rng, 1.0) for _ in range(5)]
    rep = mean_width(tree, tpts, n_dirs=400, seed=6)
    assert 0.0 <= rep.width <= sc.diameter(tpts) + 3 * rep.stderr


def test_tail_cover_direction_segment(plane):
    pts = [plane.point((x, 0.0)) for x in np.linspace(0.0, 1.0, 6)]
    curve = sc.make_curve(pts)
    center, radius, m = tail_cover_direction(plane, curve, 0.0)
    assert center.data == pytest.approx((1.0, 0.0))
    assert radius == pytest.approx(0.0, abs=1e-12)


def test_directional_decrease_segment(plane):
    eps2 = radius_constants(2).eps
    pts = [plane.point((x, 0.0)) for x in np.linspace(0.0, 1.0, 6)]
    curve = sc.make_curve(pts)
    center, _, _ = tail_cover_direction(plane, curve, 0.0)
    res = directional_decrease_residual(plane, curve, 0.0, 2.0, center, eps2)
    d = plane.distance(curve.points[0], curve.points[2])
    assert res == pytest.approx(-(1.0 - eps2) * d)
    # coincident endpoints short-circuit to zero
    const = sc.make_curve([pts[0], pts[0], pts[0]], times=[0, 1, 2])
    assert directional_decrease_residual(plane, const, 0.0, 1.0, center, eps2) == 0.0


def test_directional_decrease_random_suite(plane, rng):
    eps2 = radius_constants(2).eps
    worst = -math.inf
    for trial in range(25):
        curve = random_self_contracted(plane, 12, seed=2000 + trial)
        times = curve.times
        if len(times) < 4:
            continue
        for _ in range(4):
            i = int(rng.integers(0, len(times) - 2))
            j = int(rng.integers(i + 1, len(times)))
            try:
                center, _, _ = tail_cover_direction(plane, curve, times[i])
            except GeometryError:
                continue
            psi = float(rng.uniform(-1, 1)) * 2.0 * math.asin(eps2 / 2.0)
            c, s = math.cos(psi), math.sin(psi)
            vx, vy = center.data
            v = Direction(plane, center.base, (c * vx - s * vy, s * vx + c * vy))
            worst = max(worst, directional_decrease_residual(
                plane, curve, times[i], times[j], v, eps2))
    assert worst <= 1e-9


def test_directional_decrease_perturbed_basepoint_spider():
    """The eps/2 decrease also holds from antipodal nearby basepoints
    with the germ pointing back at xi(tau) (the glued-space variant)."""
    spider = sc.SpiderSpace(3, 3.0)
    eps = 1.0 / 6.0  # one-germ covering on trees
    worst = -math.inf
    n_checked = 0
    for trial in range(40):
        curve = random_self_contracted(spider, 10, seed=9100 + trial)
        times = curve.times
        if len(times) < 4:
            continue
        for i in range(len(times) - 2):
            tau = times[i]
            base_tau = curve.point_at(tau)
            try:
                cover, _, _ = tail_cover_direction(spider, curve, tau)
            except GeometryError:
                continue
            # step slightly against the covering germ to get a basepoint
            # whose germ back to xi(tau) opposes the tail
            leg, sign = cover.data
            bt_leg, bt_r = base_tau.data
            if bt_leg == 0:
                # base at the center: probe into a leg other than the tail's
                probe_leg, probe_r = (leg % 3) + 1, 0.2
            else:
                probe_leg = bt_leg
                probe_r = bt_r - 0.2 * sign
            if not 0.0 < probe_r < 3.0:
                continue
            x = spider.point((probe_leg, probe_r))
            if spider.same_point(x, base_tau):
                continue
            germ, _ = spider.log_direction(x, base_tau)
            T = times[i + 1]
            res = directional_decrease_residual(
                spider, curve, tau, T, germ, eps / 2.0)
            worst = max(worst, res)
            n_checked += 1
    assert n_checked >= 30
    assert worst <= 1e-9, worst


def test_directional_decrease_perturbed_basepoint_book():
    book = sc.BookSpace(2)
    eps = 1.0 / (3.0 * math.sqrt(2.0))
    worst = -math.inf
    n_checked = 0
    rng = np.random.default_rng(47)
    for trial in range(30):
        curve = random_self_contracted(book, 9, seed=9500 + trial)
        times = curve.times
        if len(times) < 4:
            continue
        for i in range(len(times) - 2):
            tau = times[i]
            base_tau = curve.point_at(tau)
            try:
                cover, _, _ = tail_cover_direction(book, curve, tau)
            except GeometryError:
                continue
            if base_tau.data[0] == 0 or cover.data[0] != base_tau.data[0]:
                continue  # keep to the planar in-sheet construction
            sheet, ca, cb = cover.data
            # antipodal step of length 0.2 inside the sheet, clipped to b >= 0
            bx = base_tau.data[1] - 0.2 * ca
            by = base_tau.data[2] - 0.2 * cb
            if by <= 1e-6:
                continue
            x = book.point((sheet, bx, by))
            germ, _ = book.log_direction(x, base_tau)
            # perturb the germ within the allowed cone distance
            psi = float(rng.uniform(-1, 1)) * 2.0 * math.asin(eps / 2.0)
            c, s = math.cos(psi), math.sin(psi)
            gx, gy = germ.data[1], germ.data[2]
            rot = (germ.data[0], c * gx - s * gy, s * gx + c * gy)
            v = sc.Direction(book, germ.base, rot)
            T = times[i + 1]
            res = directional_decrease_residual(book, curve, tau, T, v, eps / 2.0)
            worst = max(worst, res)
            n_checked += 1
    assert n_checked >= 30
    assert worst <= 1e-9, worst


def test_euclidean_constants_formula():
    c2 = euclidean_constants(2)
    assert c2["eps"] == pytest.approx(1.0 / 54.0)
    assert c2["a_n"] == pytest.approx(4.0 * math.asin(1.0 / 108.0))
    assert c2["C_n"] == pytest.approx(
        2.0 * math.pi / (4.0 * math.asin(1.0 / 108.0) * (1.0 / 54.0))
    )
    assert c2["sphere_area"] == pytest.approx(2.0 * math.pi)
    c3 = euclidean_constants(3)
    assert c3["sphere_area"] == pytest.approx(4.0 * math.pi)
    # the C_n are >= 1 and blow up with dimension
    assert euclidean_constants(10)["C_n"] > euclidean_constants(4)["C_n"] > 1.0


def test_euclidean_constants_quadrature_matches_closed_form():
    # on S^3 a cap of angle theta has area 4 pi (theta/2 - sin(2 theta)/4)
    c4 = euclidean_constants(4)
    theta = c4["cap_angle"]
    exact = 4.0 * math.pi * (theta / 2.0 - math.sin(2.0 * theta) / 4.0)
    assert c4["a_n"] == pytest.approx(exact, rel=1e-9)


def test_euclidean_bound_segment(plane):
    pts = [plane.point((x, 0.0)) for x in np.linspace(0.0, 1.0, 5)]
    report = euclidean_length_bound(sc.make_curve(pts))
    assert report.length == pytest.approx(1.0)
    assert report.width == pytest.approx(2.0 / math.pi, abs=1e-6)
    assert report.passed
    # ratio is (pi/2)/C_2, far below 1
    assert report.ratio == pytest.approx(
        (math.pi / 2.0) / report.constants["C_n"], rel=1e-5
    )


def test_euclidean_bound_random_curves(plane):
    for trial in range(25):
        curve = random_self_contracted(plane, 14, seed=3000 + trial)
        report = euclidean_length_bound(curve)
        assert report.passed


def test_euclidean_bound_dim_guard():
    space = sc.EuclideanSpace(6)
    pts = [space.point(tuple(float(i == j) for j in range(6))) for i in range(3)]
    with pytest.raises(UnsupportedSpaceError):
        euclidean_length_bound(sc.make_curve(pts))


def test_tree_bound_spider_example():
    curve = spider_jump_curve(5)
    report = tree_length_bound(curve.space, curve)
    assert report.length == 8.0
    assert report.constants["max_degree"] == 5
    assert report.constants["h1_neighborhood"] == pytest.approx(5.0)
    assert report.diam == 2.0
    assert report.bound == pytest.approx(300.0)
    assert report.ratio == pytest.approx(8.0 / 300.0)
    assert report.passed


def test_tree_bound_constant_curve(spider3):
    p = spider3.point((1, 0.5))
    curve = sc.make_curve([p, p, p], times=[0, 1, 2])
    report = tree_length_bound(spider3, curve)
    assert report.length == 0.0 and report.passed


def test_tree_bound_random_trees():
    for trial in range(20):
        tree = random_tree(seed=4000 + trial, max_edges=12)
        curve = random_self_contracted(tree, 10, seed=trial)
        assert is_self_contracted(tree, curve).passed
        report = tree_length_bound(tree, curve)
        assert report.passed


def test_book_bound_examples():
    curve = book_spine_jump_curve(3)
    assert sc.curve_length(curve) == 4.0
    report = book_length_bound(curve.space, curve)
    assert report.passed
    assert report.constants["C"] == pytest.approx(54.0 * math.sqrt(2.0) * math.pi)
    # one-sheet segment
    book = sc.BookSpace(2)
    seg = sc.make_curve([book.point((1, 0.0, 1.0)), book.point((1, 1.0, 1.0))])
    rep = book_length_bound(book, seg)
    assert rep.passed and rep.ratio < 0.01


def test_tree_and_book_bounds_refuse_other_spaces():
    spider_curve, book_curve = spider_jump_curve(3), book_spine_jump_curve(3)
    with pytest.raises(UnsupportedSpaceError, match="tree or spider"):
        tree_length_bound(book_curve.space, book_curve)
    with pytest.raises(UnsupportedSpaceError, match="book curves"):
        book_length_bound(spider_curve.space, spider_curve)
    with pytest.raises(GeometryError, match="different space"):
        tree_length_bound(sc.SpiderSpace(4), spider_curve)
    with pytest.raises(GeometryError, match="different space"):
        book_length_bound(sc.BookSpace(2), book_curve)


def test_book_bound_random_curves():
    for k in (2, 3):
        book = sc.BookSpace(k)
        for trial in range(10):
            curve = random_self_contracted(book, 10, seed=5000 + 10 * k + trial)
            assert book_length_bound(book, curve).passed


def test_generic_bound_cross_checks_tree_path():
    curve = spider_jump_curve(5)
    spider = curve.space
    generic = generic_bound_for_curve(spider, curve)
    special = tree_length_bound(spider, curve)
    assert generic.passed and special.passed
    # the generic constant is weaker or equal (factor 2/(a b eps) vs 6 L H1)
    assert generic.bound >= special.bound - 1e-9


def test_generic_bound_book_constants():
    curve = book_spine_jump_curve(3)
    report = generic_bound_for_curve(curve.space, curve)
    assert report.passed
    assert report.constants["eps"] == pytest.approx(1.0 / (3.0 * math.sqrt(2.0)))


def test_generic_bound_containment_guard(plane):
    curve = sc.make_curve([plane.point((0.0, 0.0)), plane.point((5.0, 0.0))])
    constants = estimate_condition_constants(
        plane, NeighborhoodRegion((plane.point((0.0, 0.0)),), 1.0), sigma=1.0
    )
    small = NeighborhoodRegion((plane.point((0.0, 0.0)),), 1.0)
    with pytest.raises(GeometryError):
        generic_cat0_bound(plane, curve, constants, small)


def test_generic_bound_single_point(spider3):
    p = spider3.point((2, 0.7))
    curve = sc.make_curve([p])
    report = generic_bound_for_curve(spider3, curve)
    assert report.length == 0.0 and report.passed


def test_generic_bound_hyperbolic_with_supplied_constants(rng):
    """No estimator exists for the hyperbolic plane, but the generic
    audit accepts externally supplied constants."""
    from selfcontract.measures import RadiusConstants

    hyp = sc.HyperbolicPlane()
    curve = random_self_contracted(hyp, 10, seed=4242)
    pts = curve.points
    region = NeighborhoodRegion(tuple(pts), 1.5)
    constants = RadiusConstants(
        n=2, theta=math.acos(1.0 / 18.0), theta_improved=math.pi / 4,
        eps=1.0 / 54.0, m=9, eps_bold=1.0 / 54.0,
        a=0.01, b=0.01, sigma=1.0,
        notes=("volume-ratio constant supplied externally, not estimated",),
    )
    report = generic_cat0_bound(hyp, curve, constants, region)
    assert report.bound > 0
    assert "not estimated" in report.notes[0]
    with pytest.raises(UnsupportedSpaceError):
        estimate_condition_constants(hyp, region)


def test_generic_bound_random_curves_all_estimable_spaces():
    spaces = [sc.SpiderSpace(4), sc.BookSpace(3),
              random_tree(seed=81, max_edges=10, max_degree=5)]
    for i, space in enumerate(spaces):
        for trial in range(8):
            curve = random_self_contracted(space, 9, seed=8800 + 10 * i + trial)
            report = generic_bound_for_curve(space, curve)
            assert report.passed, (space.describe(), report.ratio)


def test_generic_bound_for_curve_skips_the_containment_scan(monkeypatch):
    """The unit neighborhood of the densified points holds their sigma = 1
    neighborhood by construction: `generic_bound_for_curve` gives
    `generic_cat0_bound`'s report on that region, bit for bit, without
    calling `contains_neighborhood`."""
    cases = [(c.space, c) for c in (spider_jump_curve(5), book_spine_jump_curve(3))]
    for i, space in enumerate([sc.SpiderSpace(4), sc.BookSpace(3),
                               random_tree(seed=81, max_edges=10, max_degree=5)]):
        cases += [(space, random_self_contracted(space, 9, seed=8800 + 10 * i + trial))
                  for trial in range(3)]
    calls = []
    scan = NeighborhoodRegion.contains_neighborhood
    monkeypatch.setattr(NeighborhoodRegion, "contains_neighborhood",
                        lambda region, *args: calls.append(args) or scan(region, *args))
    for space, curve in cases:
        got = generic_bound_for_curve(space, curve)
        assert calls == []
        region = NeighborhoodRegion(tuple(curve.densified().points), 1.0)
        want = generic_cat0_bound(space, curve,
                                  estimate_condition_constants(space, region), region)
        assert calls and calls.pop()[1] == 1.0
        assert repr(got) == repr(want)  # repr tells every float apart but NaN


def test_unrectifiable_witness_values():
    for k in (2, 5, 10):
        curve, report = unrectifiable_witness(k)
        assert is_self_contracted(curve.space, curve).max_violation == 0.0
        assert report.diam == pytest.approx(math.sqrt(2.0))
        ratio = report.constants["ratio_L_diam"]
        assert abs(ratio - (k - 1)) <= 4.0 * math.ulp(float(k - 1))
    with pytest.raises(GeometryError):
        unrectifiable_witness(1)


def test_witness_k10_satisfies_r10_bound():
    _, report = unrectifiable_witness(10)
    c10 = euclidean_constants(10)["C_n"]
    assert c10 >= 9.0
    assert report.length <= c10 * report.diam


def test_telescoping_consistency(plane):
    """Summed per-step decreases never exceed the initial mean width."""
    consts = euclidean_constants(2)
    rate = consts["a_n"] / consts["sphere_area"] * consts["eps"]
    for trial in range(10):
        curve = random_self_contracted(plane, 12, seed=6000 + trial)
        pts = curve.points
        total = sum(plane.distance(a, b) for a, b in zip(pts, pts[1:]))
        w0 = mean_width(plane, pts, method="quadrature").width
        assert rate * total <= w0 + 1e-9


def test_random_tree_properties():
    for trial in range(10):
        tree = random_tree(seed=trial, max_edges=15, max_degree=6)
        assert tree.max_degree <= 6
        assert len(tree.edges) == len(tree.vertex_names) - 1


def test_random_self_contracted_always_passes():
    spaces = [sc.EuclideanSpace(2), sc.SpiderSpace(4), sc.BookSpace(3),
              sc.HyperbolicPlane()]
    for i, space in enumerate(spaces):
        for trial in range(8):
            curve = random_self_contracted(space, 10, seed=7000 + 10 * i + trial)
            rep = is_self_contracted(space, curve)
            assert rep.passed and rep.max_violation <= 0.0
    single = random_self_contracted(sc.EuclideanSpace(2), 1, seed=1)
    assert len(single) == 1


def list_then_all_sampler(space, n_steps, seed, scale=1.5):
    """The rejection sampler before its accept test exited early: every
    distance to the proposal through `Space.distance`, then `all` over the
    list.  The reference for `random_self_contracted`."""
    rng = np.random.default_rng(seed)
    accepted = [space.random_point(rng, scale)]
    step = scale * 0.6
    stalls = 0
    while len(accepted) < n_steps and stalls < 400:
        target = space.random_point(rng, scale)
        d = space.distance(accepted[-1], target)
        if d <= 0.0:
            stalls += 1
            continue
        q = space.geodesic_point(accepted[-1], target, min(1.0, step / d))
        dists = [space.distance(p, q) for p in accepted]
        if all(b <= a for a, b in zip(dists, dists[1:])):
            accepted.append(q)
            step *= 0.9
            stalls = 0
        else:
            stalls += 1
            if stalls % 40 == 0:
                step *= 0.6
    return sc.make_curve(accepted, mode="discrete")


def _curve_bits(curve):
    return _bits(tuple((t, p.data) for t, p in curve.samples))


BRANCHING_TREE = random_tree(seed=5, max_edges=14, max_degree=5)


@pytest.mark.parametrize("space", [
    sc.EuclideanSpace(2),
    sc.HyperbolicPlane(),
    BRANCHING_TREE,
    sc.SpiderSpace(4, (1.0, 2.0, 0.5, 1.5)),
    sc.BookSpace(2),
    sc.BookSpace(3),
    sc.BookSpace(5),
    sc.EuclideanSpace(1),
    sc.parse_space_spec("product:[spider:3|book:2]"),
], ids=lambda space: space.describe())
def test_early_exit_sampler_matches_list_then_all_oracle(space, monkeypatch):
    """The payload sampler draws the same numbers and accepts the same
    proposals: every curve agrees with the oracle's bit for bit.  It also
    makes the oracle's `Space.geodesic_point` calls, one per proposal at
    d > 0, which the benchmark trace divides the accepted steps by."""
    assert max(len(adj) for adj in BRANCHING_TREE._adj) >= 3
    calls = []
    geodesic_point = sc.Space.geodesic_point
    monkeypatch.setattr(sc.Space, "geodesic_point",
                        lambda *args: calls.append(1) or geodesic_point(*args))
    for n_steps, seed in [(n, seed) for n in (10, 14) for seed in range(30)]:
        got = random_self_contracted(space, n_steps, seed=seed)
        n_got = len(calls)
        want = list_then_all_sampler(space, n_steps, seed)
        assert _curve_bits(got) == _curve_bits(want), (n_steps, seed)
        assert 0 < n_got == len(calls) - n_got, (n_steps, seed)
        calls.clear()


def recomputing_distances_fall(dist, payloads, q, first):
    """`_distances_fall` before the walk read pair `first`'s two distances:
    the walk computes them again.  The reference for the sampler's curves."""
    if first >= 0 and not dist(payloads[first + 1], q) <= dist(payloads[first], q):
        return first
    newer = dist(payloads[-1], q)
    for i in range(len(payloads) - 2, -1, -1):
        older = dist(payloads[i], q)
        if not newer <= older:
            return i
        newer = older
    return -1


def test_walk_reads_the_first_pairs_distances(monkeypatch):
    """Over 600 bound_audit-like specs (trees of 6-16 edges, books of 2, 3
    and 5 sheets, the plane; 10, 10 and 14 steps) every sampled curve is the
    recomputing oracle's, payloads and times, and each kind makes strictly
    fewer `_dist` calls, counted by wrapping `space._dist`."""
    rng = np.random.default_rng([1, 4])
    specs = []
    for i in range(600):
        kind = ("tree", "book", "plane")[i % 3]
        tree_args = {"seed": int(rng.integers(1 << 31)), "max_edges": int(rng.integers(6, 17)),
                     "max_degree": int(rng.integers(3, 7))}
        specs.append((kind, tree_args, (2, 3, 5)[(i // 3) % 3], int(rng.integers(1 << 31))))

    def sample_all():
        curves, calls = [], {"tree": 0, "book": 0, "plane": 0}
        for kind, tree_args, book_k, seed in specs:
            space = (random_tree(**tree_args) if kind == "tree"
                     else sc.BookSpace(book_k) if kind == "book" else sc.EuclideanSpace(2))
            dist = space._dist

            def counted(a, b, dist=dist, kind=kind):
                calls[kind] += 1
                return dist(a, b)
            space._dist = counted
            curve = random_self_contracted(space, {"tree": 10, "book": 10, "plane": 14}[kind],
                                           seed=seed)
            curves.append((curve.payloads, curve.times))
        return curves, calls

    curves, calls = sample_all()
    monkeypatch.setattr(widths, "_distances_fall", recomputing_distances_fall)
    want, want_calls = sample_all()
    assert _bits(tuple(curves)) == _bits(tuple(want))
    assert sum(len(p) > 1 for p, _ in curves) > 500
    for kind in calls:
        assert 0 < calls[kind] < want_calls[kind], (kind, calls, want_calls)


def test_rise_search_order_keeps_the_answer():
    """`_distances_fall` finds a rise from any first pair exactly when the
    newest-back walk does, and the pair it names rises."""
    plane = sc.EuclideanSpace(2)
    rng = np.random.default_rng(31)
    for _ in range(300):
        n = int(rng.integers(2, 15))
        payloads = [tuple(p) for p in rng.uniform(-1.0, 1.0, (n, 2)).tolist()]
        # a payload pulled toward q shrinks its distance: some rows fall
        q = tuple(rng.uniform(-1.0, 1.0, 2).tolist())
        payloads.sort(key=lambda p: -plane._dist(p, q) * float(rng.uniform(0.9, 1.0)))
        dists = [plane._dist(p, q) for p in payloads]
        falls = all(b <= a for a, b in zip(dists, dists[1:]))
        walked = _distances_fall(plane._dist, payloads, q, -1)
        for first in range(-1, n - 1):
            rise = _distances_fall(plane._dist, payloads, q, first)
            assert (rise < 0) == falls
            assert rise < 0 or not dists[rise + 1] <= dists[rise]
            if first < 0 or dists[first + 1] <= dists[first]:
                assert rise == walked
