"""Per-space geometry: distances, geodesics, directions, serialization."""
import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

import selfcontract as sc
from selfcontract.errors import GeometryError, SpaceMismatchError
from selfcontract.spaces.base import RANDOM_BLOCK, Space, vec_norm, vec_sub
from selfcontract.spaces.book import spine_germ

from conftest import decimal_atan2, decimal_pi, random_point_pairs

NAN, INF = float("nan"), float("inf")


def spaces_under_test():
    return [
        sc.EuclideanSpace(2),
        sc.EuclideanSpace(3),
        sc.HyperbolicPlane(),
        sc.SpiderSpace(3),
        sc.SpiderSpace(5, 2.0),
        sc.BookSpace(3),
        sc.load_tree_file("edge a b 1.0\nedge b c 2.0\nedge b d 0.5"),
        sc.ProductSpace(sc.EuclideanSpace(1), sc.SpiderSpace(3)),
    ]


def test_euclidean_basics(plane):
    assert plane.distance(plane.point((0.0, 0.0)), plane.point((3.0, 4.0))) == 5.0
    mid = plane.geodesic_point(plane.point((0.0, 0.0)), plane.point((2.0, 0.0)), 0.5)
    assert mid.data == (1.0, 0.0)
    d, r = plane.log_direction(plane.point((0.0, 0.0)), plane.point((3.0, 4.0)))
    assert r == 5.0
    assert d.data == pytest.approx((0.6, 0.8))


def test_spider_distance_and_geodesic(spider3):
    a = spider3.point((1, 1.0))
    b = spider3.point((2, 1.0))
    assert spider3.distance(a, b) == 2.0
    assert spider3.geodesic_point(a, b, 0.5).data == (0, 0.0)
    # quarter point sits on a's leg
    q = spider3.geodesic_point(a, b, 0.25)
    assert q.data == (1, 0.5)
    d, r = spider3.log_direction(a, b)
    assert d.data == (1, -1) and r == 2.0


def test_book_unfolding_distance_formula(book2):
    x = book2.point((1, 0.0, 1.0))
    y = book2.point((2, 0.0, 1.0))
    assert book2.distance(x, y) == 2.0
    quarter = book2.geodesic_point(x, y, 0.25)
    assert quarter.data == (1, 0.0, 0.5)
    d, r = book2.log_direction(x, y)
    assert d.data == (1, 0.0, -1.0) and r == 2.0


def _book_crossing_oracle(a, b):
    """Shortest path over all spine crossing points (independent of the
    reflection formula): golden-section over the crossing coordinate."""
    (i, ax, bx), (j, ay, by) = a, b
    phi = (math.sqrt(5) - 1) / 2

    def through(c):
        return math.hypot(ax - c, bx) + math.hypot(ay - c, by)

    lo, hi = min(ax, ay) - 5.0, max(ax, ay) + 5.0
    c = hi - phi * (hi - lo)
    d = lo + phi * (hi - lo)
    fc, fd = through(c), through(d)
    for _ in range(200):
        if fc <= fd:
            hi, d, fd = d, c, fc
            c = hi - phi * (hi - lo)
            fc = through(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + phi * (hi - lo)
            fd = through(d)
    return min(fc, fd)


def test_book_distance_vs_crossing_search_oracle(rng):
    book = sc.BookSpace(3)
    for _ in range(1000):
        p = book.random_point(rng, 2.0)
        q = book.random_point(rng, 2.0)
        got = book.distance(p, q)
        if p.data[0] == q.data[0] or p.data[0] == 0 or q.data[0] == 0:
            direct = math.hypot(p.data[1] - q.data[1], p.data[2] - q.data[2])
            assert got == pytest.approx(direct, abs=1e-12)
        else:
            assert got == pytest.approx(_book_crossing_oracle(p.data, q.data),
                                        abs=1e-9)


def test_book_spine_angle_gluing(book2):
    sp = book2.point((0, 0.0, 0.0))
    up1 = sc.Direction(book2, sp, (1, math.cos(math.pi / 4), math.sin(math.pi / 4)))
    up2 = sc.Direction(book2, sp, (2, math.cos(math.pi / 4), math.sin(math.pi / 4)))
    assert book2.direction_angle(up1, up2) == pytest.approx(math.pi / 2)
    # nearly vertical directions in different sheets wrap through the far ray
    v1 = sc.Direction(book2, sp, (1, math.cos(2.8), math.sin(2.8)))
    v2 = sc.Direction(book2, sp, (2, math.cos(2.8), math.sin(2.8)))
    assert book2.direction_angle(v1, v2) == pytest.approx(2 * math.pi - 5.6)


def test_hyperbolic_distance_stability(hyperbolic, rng):
    o = hyperbolic.point((1.0, 0.0, 0.0))
    # exp/dist consistency over a range of radii
    for r in (1e-6, 1e-3, 0.1, 1.0, 3.0):
        v = hyperbolic.random_direction(rng, o.data)
        p = sc.Point(hyperbolic, hyperbolic.exp(o.data, v, r))
        assert hyperbolic.distance(o, p) == pytest.approx(r, abs=1e-10, rel=1e-10)


def test_hyperbolic_random_point_reuses_the_origin_basis(hyperbolic):
    """`_random_point` keeps the origin's tangent basis; its payloads are the
    bits of the draw that recomputes that basis every time."""
    rng, ref = np.random.default_rng(1), np.random.default_rng(1)
    o = hyperbolic.origin()
    for _ in range(2000):
        theta = float(ref.uniform(0.0, 2.0 * math.pi))
        r = float(ref.uniform(0.0, 1.5))
        e1, e2 = hyperbolic.tangent_basis(o)
        v = tuple(math.cos(theta) * e1[i] + math.sin(theta) * e2[i] for i in range(3))
        assert hyperbolic._random_point(rng, 1.5) == hyperbolic.exp(o, v, r)


def test_tree_distances_and_walks(small_tree):
    t = small_tree
    a = t.point((0, 0.0))          # vertex a
    c = t.point((1, 2.0))          # vertex c
    e = t.point((3, 1.5))          # vertex e
    assert t.distance(a, c) == 3.0
    assert t.distance(c, e) == 4.0
    assert t.distance(a, e) == 3.0
    mid = t.geodesic_point(a, c, 0.5)
    assert mid.data == (1, 0.5)
    # halfway from c to e (arclength 2) is exactly vertex b
    q = t.geodesic_point(c, e, 0.5)
    assert t.distance(q, t.point(t._vertex_rep[1])) == pytest.approx(0.0, abs=1e-12)
    # arclength 2.5 of 4 is vertex d
    q = t.geodesic_point(c, e, 0.625)
    assert t.distance(q, t.point(t._vertex_rep[3])) == pytest.approx(0.0, abs=1e-12)


def test_tree_file_grammar_errors():
    with pytest.raises(GeometryError):
        sc.load_tree_file("edge a b\n")
    with pytest.raises(GeometryError):
        sc.load_tree_file("edge a b 1.0\nedge c d 1.0\n")  # disconnected
    with pytest.raises(GeometryError):
        sc.load_tree_file("edge a b 1.0\nedge b c 1.0\nedge c a 1.0\n")  # cycle


def test_point_canonicalization(spider3, book2):
    assert spider3.point((2, 0.0)).data == (0, 0.0)
    assert spider3.point((1, 1e-12)).data == (0, 0.0)
    assert book2.point((2, 0.7, 0.0)).data == (0, 0.7, 0.0)
    assert book2.point((1, 0.7, 1e-12)).data == (0, 0.7, 0.0)


def test_space_mismatch_raises(plane, spider3):
    with pytest.raises(SpaceMismatchError):
        plane.distance(plane.point((0.0, 0.0)), spider3.point((1, 0.5)))


@pytest.mark.parametrize("space", spaces_under_test(), ids=lambda s: s.describe())
def test_geodesic_constant_speed(space, rng):
    # d(gamma(s), gamma(t)) == |t - s| d(x, y) within 1e-7
    for x, y in random_point_pairs(space, rng, 125):
        d = space.distance(x, y)
        s, t = sorted(rng.uniform(0.0, 1.0, 2))
        gs = space.geodesic_point(x, y, float(s))
        gt = space.geodesic_point(x, y, float(t))
        assert space.distance(gs, gt) == pytest.approx((t - s) * d, abs=1e-7)
        assert space.distance(x, gs) == pytest.approx(s * d, abs=1e-7)


@pytest.mark.parametrize("space", spaces_under_test(), ids=lambda s: s.describe())
def test_distance_metric_axioms(space, rng):
    pts = [space.random_point(rng, 1.2) for _ in range(12)]
    for p in pts:
        assert space.distance(p, p) == pytest.approx(0.0, abs=1e-12)
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            dij = space.distance(pts[i], pts[j])
            assert dij == pytest.approx(space.distance(pts[j], pts[i]), abs=1e-12)
            for k in range(len(pts)):
                dik = space.distance(pts[i], pts[k])
                dkj = space.distance(pts[k], pts[j])
                assert dij <= dik + dkj + 1e-9


@pytest.mark.parametrize("space", spaces_under_test(), ids=lambda s: s.describe())
def test_space_json_roundtrip(space, rng):
    doc = space._to_json()
    back = sc.space_from_json(doc)
    assert back == space
    p = space.random_point(rng, 1.0)
    q = back.point(space._point_json(p.data))
    assert space.distance(p, sc.Point(space, q.data)) <= 1e-12


def test_space_equality():
    spaces = spaces_under_test()
    for i, space in enumerate(spaces):
        assert space == space
        back = sc.space_from_json(space._to_json())
        assert back is not space and back == space and hash(back) == hash(space)
        for other in spaces[i + 1:]:
            assert space != other and other != space
    assert sc.SpiderSpace(3) != sc.SpiderSpace(3, 2.0)


def test_space_equality_and_hash_follow_the_descriptor():
    """Equality is equality of `_to_json()`, nested products included, and
    equal spaces hash alike, before and after the cached key exists."""
    e1, s3 = sc.EuclideanSpace(1), sc.SpiderSpace(3)

    def build():
        return [
            sc.ProductSpace(sc.ProductSpace(e1, s3), sc.BookSpace(2)),
            sc.ProductSpace(sc.ProductSpace(e1, sc.SpiderSpace(3, 2.0)), sc.BookSpace(2)),
            sc.ProductSpace(sc.ProductSpace(e1, s3), sc.BookSpace(2), tolerance=1e-8),
            sc.ProductSpace(sc.ProductSpace(s3, e1), sc.BookSpace(2)),
            sc.ProductSpace(e1, s3),
            sc.load_tree_file("edge a b 1.0\nedge b c 2.0"),
            sc.load_tree_file("edge a b 1.0\nedge b c 2.5"),
            sc.EuclideanSpace(2),
            sc.EuclideanSpace(2, tolerance=1e-6),
        ]

    first, second = build(), build()
    for x in first:
        for y in second:
            equal = x._to_json() == y._to_json()
            assert (x == y) is equal and (y == x) is equal
            if equal:
                assert hash(x) == hash(y)
    assert len(set(first) | set(second)) == len(first)


def test_direction_angle_needs_one_base(plane, hyperbolic, rng):
    for space in (plane, hyperbolic):
        p, q, r = (space.random_point(rng, 1.0) for _ in range(3))
        d1, _ = space.log_direction(p, q)
        d2, _ = space.log_direction(sc.Point(space, p.data), r)
        assert d1.base is not d2.base
        assert space.direction_angle(d1, d2) == space._angle(p.data, d1.data, d2.data)
        with pytest.raises(SpaceMismatchError):
            space.direction_angle(d1, space.log_direction(q, r)[0])


@pytest.mark.parametrize("space, index, rest", [
    (sc.BookSpace(2), 1.5, (0.5, 0.5)),
    (sc.BookSpace(2), NAN, (0.5, 0.5)),
    (sc.SpiderSpace(3), 2.7, (0.5,)),
    (sc.SpiderSpace(3), NAN, (0.5,)),
    (sc.load_tree_file("edge a b 1.0\nedge b c 2.0"), 0.9, (0.5,)),
    (sc.load_tree_file("edge a b 1.0\nedge b c 2.0"), INF, (0.5,)),
])
def test_points_need_an_integral_index(space, index, rest):
    with pytest.raises(GeometryError):
        space.point((index, *rest))
    assert space.point((1.0, *rest)).data == (1, *rest)


def test_parse_space_spec():
    assert sc.parse_space_spec("euclidean:3").dim == 3
    assert sc.parse_space_spec("spider:5").k == 5
    assert sc.parse_space_spec("book:4").k == 4
    assert sc.parse_space_spec("hyperbolic2").kind == "hyperbolic2"
    prod = sc.parse_space_spec("product:[euclidean:1|spider:3]")
    assert prod.kind == "product"
    with pytest.raises(GeometryError):
        sc.parse_space_spec("pretzel:7")


def test_nested_product_spec_round_trips():
    spec = "product:[product:[euclidean:1|spider:3]|book:2]"
    space = sc.parse_space_spec(spec)
    assert space.describe() == spec
    assert isinstance(space.left, sc.ProductSpace) and space.right.k == 2
    back = sc.space_from_json(space._to_json())
    assert back == space and back.describe() == spec


@pytest.mark.parametrize("space", spaces_under_test(), ids=lambda s: s.describe())
def test_direction_angle_triangle_inequality(space, rng):
    """The angle is a metric on the space of directions at each point."""
    checked = 0
    guard = 0
    while checked < 130 and guard < 2000:
        guard += 1
        base = space.random_point(rng, 1.2)
        targets = [space.random_point(rng, 1.2) for _ in range(3)]
        if any(space.same_point(base, t) for t in targets):
            continue
        g1, g2, g3 = (space.log_direction(base, t)[0] for t in targets)
        a12 = space.direction_angle(g1, g2)
        a23 = space.direction_angle(g2, g3)
        a13 = space.direction_angle(g1, g3)
        assert a13 <= a12 + a23 + 1e-9
        checked += 1
    assert checked >= 100


def test_product_angles_match_plane_oracle(rng):
    """R x R with the product metric is isometric to R^2, so product
    direction angles must equal plane angles."""
    prod = sc.ProductSpace(sc.EuclideanSpace(1), sc.EuclideanSpace(1))
    plane = sc.EuclideanSpace(2)
    for _ in range(100):
        coords = rng.uniform(-2, 2, 6)
        base_p = prod.point(((coords[0],), (coords[1],)))
        y_p = prod.point(((coords[2],), (coords[3],)))
        z_p = prod.point(((coords[4],), (coords[5],)))
        base_e = plane.point((coords[0], coords[1]))
        y_e = plane.point((coords[2], coords[3]))
        z_e = plane.point((coords[4], coords[5]))
        if (plane.same_point(base_e, y_e) or plane.same_point(base_e, z_e)):
            continue
        d1p, r1p = prod.log_direction(base_p, y_p)
        d2p, r2p = prod.log_direction(base_p, z_p)
        d1e, r1e = plane.log_direction(base_e, y_e)
        d2e, r2e = plane.log_direction(base_e, z_e)
        assert r1p == pytest.approx(r1e, abs=1e-12)
        assert prod.direction_angle(d1p, d2p) == pytest.approx(
            plane.direction_angle(d1e, d2e), abs=1e-9
        )


def test_book_spine_angle_matches_comparison_limit(rng):
    """The glued-angle formula at spine points must agree with the limit
    of Euclidean comparison angles along shrinking radii."""
    book = sc.BookSpace(3)
    sp = book.point((0, 0.0, 0.0))
    for _ in range(60):
        s1, s2 = rng.integers(1, 4, 2)
        a1 = float(rng.uniform(0.05, math.pi - 0.05))
        a2 = float(rng.uniform(0.05, math.pi - 0.05))
        d1 = sc.Direction(book, sp, (int(s1), math.cos(a1), math.sin(a1)))
        d2 = sc.Direction(book, sp, (int(s2), math.cos(a2), math.sin(a2)))
        got = book.direction_angle(d1, d2)
        # walk small distances along each germ and take comparison angles
        for r in (1e-2, 1e-4):
            y = book.point((int(s1), r * math.cos(a1), r * math.sin(a1)))
            z = book.point((int(s2), r * math.cos(a2), r * math.sin(a2)))
            comp = sc.comparison_angle(book, sp, y, z)
            assert comp == pytest.approx(got, abs=1e-9)


ANGLE_BUDGET = 4 * math.ulp(math.pi)


def _turns(rng, n):
    """n (polar angle, turn) pairs: a third of the turns at random, a
    third tiny (near-parallel germs) and a third pi plus a tiny one
    (near-antipodal germs)."""
    tiny = 10.0 ** rng.uniform(-17.0, -1.0, n) * rng.choice((-1.0, 1.0), n)
    spread = rng.uniform(-math.pi, math.pi, n)
    return [(float(t), float((spread[i], tiny[i], math.pi + tiny[i])[i % 3]))
            for i, t in enumerate(rng.uniform(-math.pi, math.pi, n))]


def _decimal_gap(t1, t2, turn=False):
    """The angle of two exact polar angles: their circular distance, or
    across two book sheets at the spine, the turn min(s, 2 pi - s)."""
    gap = t1 + t2 if turn else abs(t1 - t2)
    return min(gap, 2 * decimal_pi() - gap)


def _angle_error(angle, exact):
    with localcontext() as ctx:
        ctx.prec = 50
        return float(abs(Decimal(angle) - exact))


def test_plane_and_book_angles_within_four_ulps_of_pi(rng):
    """`_angle` on the plane and on books, at an interior and a spine
    base, is within 4 ulp(pi) of a 50-digit angle between the same germ
    doubles, over 1,000 pairs per case, near-parallel and near-antipodal
    ones included: the worst is 2.03 ulp(pi) at this seed, where the acos
    of a rounded cosine was 1.5e-8 off."""
    plane, book = sc.EuclideanSpace(2), sc.BookSpace(3)
    # atan2 gives pi and -pi on the negative axis, and the angle is 0
    cases = [(plane, None, ((-1.0, 0.0), (-1.0, -0.0))),
             (book, (2, 0.1, 0.4), ((2, -1.0, 0.0), (2, -1.0, -0.0)))]
    for t, turn in _turns(rng, 1000):
        g1, g2 = (math.cos(t), math.sin(t)), (math.cos(t + turn), math.sin(t + turn))
        cases.append((plane, None, (g1, g2)))
        cases.append((book, (2, 0.1, 0.4), ((2, *g1), (2, *g2))))
        # at a spine base: the pair in one sheet, and reflected across
        # the vertical into two sheets, where a turn near pi meets pi
        a1, a2 = abs(t), abs(t + turn) % math.pi
        s1, s2 = (int(s) for s in rng.integers(1, 4, 2))
        cases.append((book, (0, 0.3, 0.0), ((s1, math.cos(a1), math.sin(a1)),
                                            (s2, -math.cos(a2), math.sin(a2)))))
    for space, base, (g1, g2) in cases:
        if space is plane:
            exact = _decimal_gap(decimal_atan2(g1[1], g1[0]), decimal_atan2(g2[1], g2[0]))
        else:
            exact = _decimal_gap(decimal_atan2(g1[2], g1[1]), decimal_atan2(g2[2], g2[1]),
                                 base[0] == 0 and g1[0] != g2[0])
        err = _angle_error(space._angle(base, g1, g2), exact)
        assert err <= ANGLE_BUDGET, (space.describe(), base, g1, g2, err)


def _decimal_tangent_angle(base, g1, g2):
    """The 50-digit angle between the projections of g1 and g2 onto the
    tangent plane at `base`, in the Minkowski form."""
    with localcontext() as ctx:
        ctx.prec = 60
        p = [Decimal(v) for v in base]

        def mdot(a, b):
            return a[1] * b[1] + a[2] * b[2] - a[0] * b[0]

        def project(g):
            v = [Decimal(c) for c in g]
            c = mdot(p, v) / -mdot(p, p)
            return [vi + c * pi for vi, pi in zip(v, p)]

        u, w = project(g1), project(g2)
        dot = mdot(u, w)
        cross = max(mdot(u, u) * mdot(w, w) - dot * dot, Decimal(0)).sqrt()
        return decimal_atan2(cross, dot)


def test_hyperbolic_angle_error_budget(hyperbolic, rng):
    """On H^2 the frame `tangent_basis(base)` is itself rounded.  Over 1,000
    germ pairs from `_log` at bases within distance 1.5 of the origin,
    near-parallel and near-antipodal ones included, the worst error against
    the 50-digit angle between the germs' tangent projections is 1.99
    ulp(pi) at this seed (2.26 to 2.96 at numpy seeds 0 to 4), so the
    plane's 4 ulp(pi) holds; the acos of a rounded cosine was 1.2e-7 off."""
    worst = 0.0
    for t, turn in _turns(rng, 1000):
        base = hyperbolic.random_point(rng, 1.5).data
        e1, e2 = hyperbolic.tangent_basis(base)
        germs = []
        for a in (t, t + turn):
            v = tuple(math.cos(a) * x + math.sin(a) * y for x, y in zip(e1, e2))
            q = hyperbolic.exp(base, v, float(rng.uniform(0.1, 2.0)))
            germs.append(hyperbolic._log(base, q)[0])
        exact = _decimal_tangent_angle(base, *germs)
        worst = max(worst, _angle_error(hyperbolic._angle(base, *germs), exact))
    assert worst <= ANGLE_BUDGET, worst / math.ulp(math.pi)


@pytest.mark.parametrize("space", spaces_under_test(), ids=lambda s: s.describe())
def test_upper_angle_converges_to_direction_angle(space, rng):
    count = 0
    guard = 0
    while count < 25 and guard < 400:
        guard += 1
        x = space.random_point(rng, 1.2)
        y = space.random_point(rng, 1.2)
        z = space.random_point(rng, 1.2)
        if (space.same_point(x, y) or space.same_point(x, z)
                or space.same_point(y, z)):
            continue
        limit = sc.upper_angle(space, x, y, z)
        ys = space.geodesic_point(x, y, 2.0 ** -10)
        zs = space.geodesic_point(x, z, 2.0 ** -10)
        comp = sc.comparison_angle(space, x, ys, zs)
        assert -1e-7 <= comp - limit <= 2e-2
        count += 1
    assert count >= 20


def test_hyperbolic_strict_negative_curvature(hyperbolic):
    """A fat hyperbolic triangle has strictly positive comparison slack."""
    o = hyperbolic.point((1.0, 0.0, 0.0))
    e1, e2 = hyperbolic.tangent_basis(o.data)
    y = sc.Point(hyperbolic, hyperbolic.exp(o.data, e1, 2.0))
    z = sc.Point(hyperbolic, hyperbolic.exp(o.data, e2, 2.0))
    assert sc.cat0_inequality_residual(hyperbolic, o, y, z, 0.5) > 0.1


def test_product_of_spider_and_line_matches_book(rng):
    """A book is isometric to (spider x R) via (i, a, b) -> ((i, b), a)."""
    book = sc.BookSpace(3)
    prod = sc.ProductSpace(sc.SpiderSpace(3, 50.0), sc.EuclideanSpace(1))

    def to_prod(data):
        i, a, b = data
        spider_part = (i, b) if i != 0 else (0, 0.0)
        return prod.point((spider_part, (a,)))

    for _ in range(100):
        p = book.random_point(rng, 2.0)
        q = book.random_point(rng, 2.0)
        assert book.distance(p, q) == pytest.approx(
            prod.distance(to_prod(p.data), to_prod(q.data)), abs=1e-12
        )



class ProbeWalkTree:
    """The tree kernels as they stood before the geodesic route was shared:
    `_dist` and `_walk` each search the four end pairs, `_log` probes the
    germ by walking a short step, and each vertex distance walks up to the
    lowest common ancestor.  The reference for the route kernels and the
    vertex-distance rows."""

    def __init__(self, tree):
        self.t = tree

    def lca(self, a, b):
        t = self.t
        while t._depth[a] > t._depth[b]:
            a = t._parent[a]
        while t._depth[b] > t._depth[a]:
            b = t._parent[b]
        while a != b:
            a, b = t._parent[a], t._parent[b]
        return a

    def vertex_distance(self, a, b):
        rd, c = self.t._root_dist, self.lca(a, b)
        return rd[a] + rd[b] - 2.0 * rd[c]

    def vertex_path(self, a, b):
        t = self.t
        c = self.lca(a, b)
        up, w = [], a
        while w != c:
            up.append(w)
            w = t._parent[w]
        down, w = [], b
        while w != c:
            down.append(w)
            w = t._parent[w]
        return up + [c] + list(reversed(down))

    def edge_between(self, a, b):
        return next(ei for ei, other in self.t._adj[a] if other == b)

    def dist(self, a, b):
        t = self.t
        if a[0] == b[0]:
            return abs(a[1] - b[1])
        (e1, o1), (e2, o2) = a, b
        u1, v1, L1 = t.edges[e1]
        u2, v2, L2 = t.edges[e2]
        best = math.inf
        for w1, d1 in ((u1, o1), (v1, L1 - o1)):
            for w2, d2 in ((u2, o2), (v2, L2 - o2)):
                best = min(best, d1 + self.vertex_distance(w1, w2) + d2)
        return best

    def walk(self, a, b, arc):
        t = self.t
        if a[0] == b[0]:
            step = arc if b[1] >= a[1] else -arc
            return (a[0], a[1] + step)
        (e1, o1), (e2, o2) = a, b
        u1, v1, L1 = t.edges[e1]
        u2, v2, L2 = t.edges[e2]
        best = None
        for w1, d1 in ((u1, o1), (v1, L1 - o1)):
            for w2, d2 in ((u2, o2), (v2, L2 - o2)):
                tot = d1 + self.vertex_distance(w1, w2) + d2
                if best is None or tot < best[0]:
                    best = (tot, w1, w2, d1, d2)
        _, w1, w2, d1, d2 = best
        if arc <= d1 and d1 > 0:
            frac = arc / d1
            target = 0.0 if w1 == u1 else L1
            return (e1, o1 + frac * (target - o1))
        arc -= d1
        path = self.vertex_path(w1, w2)
        for i in range(len(path) - 1):
            x, y = path[i], path[i + 1]
            ei = self.edge_between(x, y)
            u, v, length = t.edges[ei]
            if arc <= length:
                return (ei, arc) if x == u else (ei, length - arc)
            arc -= length
        target = 0.0 if w2 == u2 else L2
        frac = min(1.0, arc / d2) if d2 > 0 else 1.0
        return (e2, target + frac * (o2 - target))

    def geodesic(self, a, b, s):
        return self.walk(a, b, s * self.dist(a, b))

    def log(self, a, b):
        t = self.t
        d = self.dist(a, b)
        w = t._vertex_of(a)
        if w is None:
            length = t.edges[a[0]][2]
            probe = self.walk(a, b, 0.5 * min(d, a[1], length - a[1]))
            return (a[0], 1 if probe[1] > a[1] else -1), d
        min_incident = min(t.edges[e][2] for e, _ in t._adj[w])
        ei = self.walk(a, b, min(d, min_incident) * 0.5)[0]
        return (ei, 1 if t.edges[ei][0] == w else -1), d


def _bits(value):
    """Floats by their bits, so that 0.0 and -0.0 differ."""
    if isinstance(value, tuple):
        return tuple(_bits(v) for v in value)
    return value.hex() if isinstance(value, float) else value


@pytest.mark.parametrize("seed", range(10))
def test_tree_route_kernels_match_the_probe_walk(seed):
    """`_dist`, `_geodesic` and `_log` read one route; they agree bit for bit
    with the probe-walk kernels on every vertex, interior points on each
    edge (so pairs on one edge), and random points of a branching tree."""
    tree = sc.random_tree(seed, max_edges=12, max_degree=4)
    oracle = ProbeWalkTree(tree)
    rng = np.random.default_rng(seed)
    pts = list(tree._vertex_rep)
    for ei, (_, _, length) in enumerate(tree.edges):
        pts += [tree.point((ei, 0.3 * length)).data, tree.point((ei, 0.71 * length)).data]
    pts += [tree.random_point(rng).data for _ in range(8)]
    for a in pts:
        for b in pts:
            d = tree._dist(a, b)
            assert _bits(d) == _bits(oracle.dist(a, b))
            if d > tree.tolerance:
                assert _bits(tree._log(a, b)) == _bits(oracle.log(a, b))
            for s in (0.0, 0.13, 0.5, 0.77, 1.0):
                assert _bits(tree._geodesic(a, b, s)) == _bits(oracle.geodesic(a, b, s))


class BranchingKernels:
    """The spider and book kernels with their own centre and spine cases, as
    they stood before the general formulas took those cases over, and their
    scalar germ rules, as they stood before `_log` read `_log_row`: the
    reference for the folded kernels and the germ rows."""

    @staticmethod
    def spider_dist(a, b):
        if a[0] == b[0]:
            return abs(a[1] - b[1])
        if a[0] == 0:
            return b[1]
        if b[0] == 0:
            return a[1]
        return a[1] + b[1]

    @staticmethod
    def spider_dist_row(a, payloads):
        leg, r = a
        if leg == 0:
            return [abs(r - u) if k == 0 else u for k, u in payloads]
        return [abs(r - u) if k == leg else r if k == 0 else r + u for k, u in payloads]

    @classmethod
    def spider_geodesic(cls, a, b, s):
        if a[0] == b[0]:
            return (a[0], a[1] + (b[1] - a[1]) * s)
        arc = s * cls.spider_dist(a, b)
        if b[0] == 0:
            return (a[0], a[1] - arc)
        if a[0] == 0:
            return (b[0], arc)
        if arc <= a[1]:
            return (a[0], a[1] - arc)
        return (b[0], arc - a[1])

    @staticmethod
    def spider_log(a, b):
        d = BranchingKernels.spider_dist(a, b)
        if a[0] == 0:
            return (b[0], 1), d
        if a[0] == b[0] and b[1] > a[1]:
            return (a[0], 1), d
        return (a[0], -1), d

    @staticmethod
    def book_dist(a, b):
        if a[0] == b[0] or a[0] == 0 or b[0] == 0:
            return math.hypot(a[1] - b[1], a[2] - b[2])
        return math.hypot(a[1] - b[1], a[2] + b[2])

    @staticmethod
    def book_dist_row(a, payloads):
        s, x, y = a
        if s == 0:
            return [math.hypot(x - u, y - v) for _, u, v in payloads]
        return [math.hypot(x - u, y - v if t == s or t == 0 else y + v)
                for t, u, v in payloads]

    @staticmethod
    def book_unfold(a, b):
        """Planar coordinates of a and b with a in the upper half-plane, and
        the sheets above and below: b is reflected below the spine when the
        segment crosses into a different sheet."""
        pa = (a[1], a[2])
        if a[0] == b[0] or a[0] == 0 or b[0] == 0:
            up = a[0] if a[0] != 0 else b[0]
            return pa, (b[1], b[2]), up, up
        return pa, (b[1], -b[2]), a[0], b[0]

    @classmethod
    def book_log(cls, a, b):
        pa, pb, up, down = cls.book_unfold(a, b)
        dx, dy = pb[0] - pa[0], pb[1] - pa[1]
        r = math.hypot(dx, dy)
        ux, uy = dx / r, dy / r
        if a[0] != 0:
            return (a[0], ux, uy), r
        return spine_germ(up if uy > 0 else down, ux, uy), r

    @staticmethod
    def book_log_row(base, payloads, dists):
        s0, a1, a2 = base
        if s0 == 0:
            return [spine_germ(b[0], (b[1] - a1) / r, (b[2] - a2) / r)
                    for b, r in zip(payloads, dists)]
        return [(s0, (b[1] - a1) / r, ((b[2] if b[0] in (s0, 0) else -b[2]) - a2) / r)
                for b, r in zip(payloads, dists)]


GEODESIC_STEPS = (0.0, 0.25, 0.5, 1.0)


def _branch_payloads(space, rng):
    """150 random payloads, the centre or spine points (0.0 and -0.0),
    leg tips, -0.0 and subnormal offsets, and the raw geodesic midpoints of
    a few of them, which `objectives._midpoint_prox` reads uncanonicalized."""
    pts = [space.random_point(rng).data for _ in range(150)]
    if isinstance(space, sc.SpiderSpace):
        pts += [(0, 0.0), (0, -0.0)]
        for leg, length in enumerate(space.leg_lengths, start=1):
            pts += [(leg, length), (leg, 5e-324), (leg, 1e-300), (leg, 0.5 * length)]
    else:
        pts += [(0, 0.0, 0.0), (0, -1.5, 0.0), (0, 0.25, -0.0), (0, -0.0, 0.0)]
        for sheet in range(1, space.k + 1):
            pts += [(sheet, 0.5, 5e-324), (sheet, -0.0, 1e-300), (sheet, 0.25, 0.75)]
    return pts + [space._geodesic(a, b, 0.5) for a, b in zip(pts[::7], pts[3::11])]


@pytest.mark.parametrize("space", [
    sc.SpiderSpace(3), sc.SpiderSpace(5, (1.0, 2.0, 0.5, 1.5, 3.0)),
    sc.BookSpace(2), sc.BookSpace(3), sc.BookSpace(5),
], ids=lambda s: s.describe() + ("u" if len(set(getattr(s, "leg_lengths", ()))) > 1 else ""))
def test_folded_kernels_match_the_branching_oracle(space):
    """Without their centre and spine cases, the spider's `_dist`, `_dist_row`
    and `_geodesic` and the book's `_dist`, `_dist_row` and `_log_row` give
    the branching kernels' bits on every pair of the payload mix."""
    pts = _branch_payloads(space, np.random.default_rng(space.k))
    spider = isinstance(space, sc.SpiderSpace)
    dist = BranchingKernels.spider_dist if spider else BranchingKernels.book_dist
    dist_row = BranchingKernels.spider_dist_row if spider else BranchingKernels.book_dist_row
    for a in pts:
        assert _bits(space._dist_row(a, pts)) == _bits(dist_row(a, pts))
        assert _bits([space._dist(a, b) for b in pts]) == _bits([dist(a, b) for b in pts])
        if spider:
            for b in pts:
                for s in GEODESIC_STEPS:
                    got = space._geodesic(a, b, s)
                    want = BranchingKernels.spider_geodesic(a, b, s)
                    assert _bits(got) == _bits(want), (a, b, s)
                    assert _bits(space._canonical(got)) == _bits(space._canonical(want))
        elif a[0] == 0 or a[2] > 0.0:  # a germ base: the spine, or inside a sheet
            others = [b for b in pts if b != a and space._dist(a, b) > 0.0]
            dists = space._dist_row(a, others)
            assert (_bits(space._log_row(a, others, dists))
                    == _bits(BranchingKernels.book_log_row(a, others, dists)))


@pytest.mark.parametrize("space", [
    sc.SpiderSpace(3), sc.SpiderSpace(5, (1.0, 2.0, 0.5, 1.5, 3.0)),
    sc.BookSpace(2), sc.BookSpace(3), sc.BookSpace(5),
], ids=lambda s: s.describe() + ("u" if len(set(getattr(s, "leg_lengths", ()))) > 1 else ""))
def test_log_matches_the_scalar_germ_rule(space):
    """The spider's and the book's `_log` read their `_log_row`; they give
    the bits of the scalar germ rules they replaced (the book's unfolding
    included) on every pair of distinct points of the payload mix.  The
    tree's `_log` meets `ProbeWalkTree.log` above."""
    pts = _branch_payloads(space, np.random.default_rng(space.k + 1))
    log = (BranchingKernels.spider_log if isinstance(space, sc.SpiderSpace)
           else BranchingKernels.book_log)
    n = 0
    for a in pts:
        for b in pts:
            if space._dist(a, b) > 0.0:
                assert _bits(space._log(a, b)) == _bits(log(a, b)), (a, b)
                n += 1
    assert n > len(pts) ** 2 // 2


class _FixedDraw:
    """An rng whose draws are given: `integers` the sheet, `uniform` the angle."""

    def __init__(self, sheet, theta):
        self.sheet, self.theta = sheet, theta

    def integers(self, lo, hi):
        return self.sheet

    def uniform(self, lo, hi):
        return self.theta


def test_spine_germs_come_from_one_rule():
    """A spine point's random direction and its cone barycenter are
    `spine_germ`'s payload, the germ `_log` gives: a sheet germ at 1e-13
    from a spine ray, and the spine ray itself only within 1e-15 of it."""
    book = sc.BookSpace(3)
    spine = book.point((0, 0.3, 0.0))
    got, want = np.random.default_rng(4), np.random.default_rng(4)
    for _ in range(500):
        sheet, theta = int(want.integers(1, 4)), float(want.uniform(0.0, math.pi))
        assert (_bits(book.random_direction(got, spine.data))
                == _bits(spine_germ(sheet, math.cos(theta), math.sin(theta))))
    for theta, germ in ((1e-13, (2, math.cos(1e-13), math.sin(1e-13))),
                        (math.pi - 1e-13, (2, math.cos(math.pi - 1e-13),
                                           math.sin(math.pi - 1e-13))),
                        (0.0, (0, 1.0, 0.0)), (math.pi, (0, -1.0, 0.0))):
        assert _bits(book.random_direction(_FixedDraw(2, theta), spine.data)) == _bits(germ)
        assert germ[0] == book._log(spine.data, (2, 0.3 + germ[1], germ[2]))[0][0]
        cp = sc.cone_barycenter([sc.Direction(book, spine, germ)])
        alpha = math.atan2(germ[2], germ[1])
        assert cp.radius == 1.0
        assert (_bits(cp.direction.data)
                == _bits(spine_germ(germ[0] or 1, math.cos(alpha), math.sin(alpha))))
        assert cp.direction.data[0] == germ[0]


def test_vertex_distance_rows_match_the_lca_walk():
    """Each row, built on first use, holds the walk's distance bit for bit,
    and only the rows of the vertices asked for are built."""
    for seed in range(50):
        tree = sc.random_tree(seed, max_edges=40, max_degree=5)
        oracle = ProbeWalkTree(tree)
        n = len(tree.vertex_names)
        assert tree._row(n - 1)[0] == oracle.vertex_distance(n - 1, 0)
        assert [row is not None for row in tree._rows] == [w == n - 1 for w in range(n)]
        for a in range(n):
            for b in range(n):
                assert _bits(tree._row(a)[b]) == _bits(oracle.vertex_distance(a, b))


def test_plane_distance_matches_the_fsum_norm():
    """The 2-D distance adds the two squares once; a two-term fsum is the
    same correctly rounded add, from 1e-8 to 1e8 in each coordinate."""
    plane = sc.EuclideanSpace(2)
    rng = np.random.default_rng(12)
    for _ in range(3000):
        a, b = (tuple(float(v) for v in rng.choice((-1.0, 1.0), 2) * 10.0 ** rng.uniform(-8, 8, 2))
                for _ in range(2))
        assert _bits(plane._dist(a, b)) == _bits(vec_norm(vec_sub(a, b)))


def _tree_draw_loop(tree, rng):
    weights = tree._edge_lengths
    r = float(rng.uniform(0.0, tree._total_length))
    for ei, w in enumerate(weights):
        if r <= w or ei == len(weights) - 1:
            return (ei, min(max(r, 0.0), w))
        r -= w


def _spider_draw_loop(spider, rng):
    r = float(rng.uniform(0.0, math.fsum(spider.leg_lengths)))
    for leg in range(1, spider.k + 1):
        if r <= spider.leg_lengths[leg - 1] or leg == spider.k:
            return (leg, min(r, spider.leg_lengths[leg - 1]))
        r -= spider.leg_lengths[leg - 1]


@pytest.mark.parametrize("space, oracle", [
    (sc.random_tree(seed=5, max_edges=14, max_degree=5), _tree_draw_loop),
    (sc.SpiderSpace(4, (1.0, 2.0, 0.5, 1.5)), _spider_draw_loop),
], ids=["tree", "spider"])
def test_random_point_matches_the_per_space_loops(space, oracle):
    """Trees and spiders share one uniform draw over their segments; it
    gives the bits of the two loops it replaced, kept here as oracles."""
    assert space.max_degree >= 3
    got, want = np.random.default_rng(17), np.random.default_rng(17)
    for _ in range(2000):
        assert (_bits(space.random_point(got).data)
                == _bits(space._canonical(oracle(space, want))))


@pytest.mark.parametrize("space", [
    sc.EuclideanSpace(1),
    sc.EuclideanSpace(2),
    sc.EuclideanSpace(3),
    sc.HyperbolicPlane(),
    sc.random_tree(seed=5, max_edges=14, max_degree=5),
    sc.SpiderSpace(4, (1.0, 2.0, 0.5, 1.5)),
    sc.BookSpace(3),
    sc.parse_space_spec("product:[spider:3|book:2]"),
], ids=lambda space: space.describe())
def test_random_point_streams_match_the_base_loop(space):
    """Every `_random_points` gives the base loop's payloads bit for bit,
    across RANDOM_BLOCK boundaries, and after whole blocks it has made the
    same draws."""
    got, want = np.random.default_rng(23), np.random.default_rng(23)
    stream, loop = space._random_points(got, 1.5), Space._random_points(space, want, 1.5)
    for _ in range(32 * RANDOM_BLOCK):
        assert _bits(next(stream)) == _bits(next(loop))
    assert got.bit_generator.state == want.bit_generator.state


def test_base_random_point_stream_draws_nothing_ahead():
    """The base loop, which books keep (their `rng.integers` takes a
    buffered 32-bit draw), leaves the generator where k scalar draws do."""
    book = sc.BookSpace(3)
    got, want = np.random.default_rng(29), np.random.default_rng(29)
    stream = book._random_points(got, 1.5)
    for _ in range(100):
        assert got.bit_generator.state == want.bit_generator.state
        assert _bits(next(stream)) == _bits(book._random_point(want, 1.5))
    assert got.bit_generator.state == want.bit_generator.state


def test_line_distance_is_exact_at_the_float_extremes():
    """On the line the distance is |dx| in `_dist`, `_dist_row` and `_log`:
    the square of dx would underflow at 1e-170 and overflow at 1e160."""
    line = sc.EuclideanSpace(1)
    for x in (1e-170, -1e-170, 1e160, -1e160):
        a, b = (0.0,), (x,)
        row = line._dist_row(a, [b])
        assert line._dist(a, b) == row[0] == line._log(a, b)[1] == abs(x)
        assert line.distance(line.point(0.0), line.point(x)) == abs(x)
        assert _bits(line._log_row(a, [b], row)) == _bits([line._log(a, b)[0]])


@pytest.mark.parametrize("space, payload", [
    (sc.SpiderSpace(3), (0, NAN)),
    (sc.HyperbolicPlane(), (NAN, 0.0, 0.0)),
    (sc.HyperbolicPlane(), (1.0, NAN, 0.0)),
    (sc.HyperbolicPlane(), (INF, INF, 0.0)),
    (sc.BookSpace(2), (0, NAN, 0.0)),
    (sc.BookSpace(2), (0, INF, 0.0)),
    (sc.BookSpace(2), (1, NAN, 0.5)),
])
def test_non_finite_coordinates_rejected(space, payload):
    with pytest.raises(GeometryError):
        space.point(payload)


@pytest.mark.parametrize("make", [
    lambda: sc.SpiderSpace(3, NAN),
    lambda: sc.SpiderSpace(3, INF),
    lambda: sc.SpiderSpace(3, [1.0, NAN, 1.0]),
    lambda: sc.parse_space_spec("spider:3:nan"),
    lambda: sc.parse_space_spec("spider:3:inf"),
])
def test_spider_rejects_non_finite_leg_lengths(make):
    with pytest.raises(GeometryError):
        make()


@pytest.mark.parametrize("space, obj", [
    (sc.SpiderSpace(3), [1.5, 0.5]),
    (sc.SpiderSpace(3), [NAN, 0.5]),
    (sc.SpiderSpace(3), [1, 0.5, 0.2]),
    (sc.BookSpace(2), [1.5, 0.5, 0.5]),
    (sc.BookSpace(2), [1, 0.5]),
    (sc.load_tree_file("edge a b 1.0\nedge b c 2.0"), [INF, 0.5]),
    (sc.ProductSpace(sc.EuclideanSpace(1), sc.SpiderSpace(3)), [[0.5], [1, 0.5], [2]]),
])
def test_payloads_need_integral_indices_and_exact_fields(space, obj):
    with pytest.raises(GeometryError):
        space.point(obj)


def test_segments_and_default_direction_sampler(spider3, small_tree, rng):
    assert spider3.segments() == [(leg, 1.0, (0, 0.0), (leg, 1.0)) for leg in (1, 2, 3)]
    for ei, length, start, end in small_tree.segments():
        assert small_tree._dist(start, end) == length
        assert small_tree.point((ei, 0.0)).data == start
    for space, base in ((spider3, (0, 0.0)), (small_tree, (1, 0.0))):
        germs = space.directions_at(base)
        assert {space.random_direction(rng, base) for _ in range(60)} == set(germs)
    product = sc.ProductSpace(sc.EuclideanSpace(1), spider3)
    with pytest.raises(sc.UnsupportedSpaceError):
        product.random_direction(rng, ((0.0,), (0, 0.0)))
