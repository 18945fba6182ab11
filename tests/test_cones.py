"""Tangent-cone machinery: cone metric, barycenters, covering directions."""
import math
from itertools import islice

import numpy as np
import pytest
from conftest import GERM_SPACES

import selfcontract as sc
from selfcontract.cones import (
    ConePoint,
    cone_barycenter,
    cone_distance,
    direction_cover_center,
    greedy_separated_subset,
)
from selfcontract.errors import GeometryError
from selfcontract.measures import radius_constants
from selfcontract.metric import golden_section
from selfcontract.spaces.base import Direction


def cone_point_distance(space, v, w) -> float:
    """The cone metric between two cone points at one basepoint."""
    if v.radius == 0.0:
        return w.radius
    if w.radius == 0.0:
        return v.radius
    ang = space.direction_angle(v.direction, w.direction)
    return cone_distance(ang, v.radius, w.radius)


def variance_gap(dirs, center, probe) -> float:
    """Slack of the variance inequality at a probe cone point.

    Nonnegative (up to float noise) when `center` is the true barycenter
    of the unit cone points over `dirs`.
    """
    space, k = dirs[0].space, len(dirs)
    unit = [ConePoint(d, 1.0) for d in dirs]
    mean_probe = math.fsum(cone_point_distance(space, probe, u) ** 2 for u in unit) / k
    mean_center = math.fsum(cone_point_distance(space, center, u) ** 2 for u in unit) / k
    dcp = cone_point_distance(space, probe, center)
    return mean_probe - dcp * dcp - mean_center


def unit_dirs(space, base, vectors):
    return [Direction(space, base, tuple(v)) for v in vectors]


def test_cone_distance_values():
    assert cone_distance(math.pi / 2, 1.0, 1.0) == pytest.approx(math.sqrt(2))
    assert cone_distance(1.234, 0.0, 3.0) == 3.0
    assert cone_distance(math.pi, 2.0, 3.0) == pytest.approx(5.0)
    with pytest.raises(GeometryError):
        cone_distance(1.0, -1.0, 1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_cone_radii_are_refused(plane, spider3, bad):
    """NaN and +inf radii used to pass the `r < 0` checks: the plane's
    barycenter came out (nan, nan) with radius nan, and the spider's
    silently gave the cone origin."""
    origin = plane.point((0.0, 0.0))
    plane_dirs = unit_dirs(plane, origin, [(1.0, 0.0), (0.0, 1.0)])
    spider_dirs = [Direction(spider3, spider3.center(), (leg, 1)) for leg in (1, 2)]
    for dirs in (plane_dirs, spider_dirs):
        with pytest.raises(GeometryError, match="finite nonnegative radius"):
            cone_barycenter(dirs, [bad, 1.0])
    with pytest.raises(GeometryError, match="finite and nonnegative"):
        ConePoint(None, bad)
    with pytest.raises(GeometryError, match="finite and nonnegative"):
        cone_distance(0.5, bad, 1.0)
    with pytest.raises(GeometryError, match="finite and nonnegative"):
        cone_distance(0.5, 1.0, bad)


@pytest.mark.parametrize("spec, base, target", [
    ("euclidean:2", (0.0, 0.0), (1.0, 0.0)),
    ("hyperbolic2", (1.0, 0.0, 0.0), (math.cosh(0.8), math.sinh(0.8), 0.0)),
    ("book:2", (1, 0.0, 0.5), (1, 1.0, 0.5)),
    ("book:2", (0, 0.0, 0.0), (1, 1.0, 0.0)),
    ("spider:3", (0, 0.0), (1, 1.0)),
    ("tree", (0, 0.5), (0, 0.0)),
    ("product:[euclidean:1|spider:3]", ((0.0,), (1, 0.5)), ((1.0,), (1, 0.5))),
], ids=["euclidean2", "hyperbolic2", "book-interior", "book-spine", "spider", "tree",
        "product"])
def test_overflowing_cone_barycenter_is_a_geometry_error(spec, base, target):
    """Finite radii whose weighted sum overflows ended in `OverflowError:
    intermediate overflow in fsum` on every space kind."""
    space = sc.random_tree(5, 14, 5) if spec == "tree" else sc.parse_space_spec(spec)
    germ = space.log_direction(space.point(base), space.point(target))[0]
    with pytest.raises(GeometryError, match="overflows"):
        cone_barycenter([germ, germ], [1e308, 1e308])
    assert cone_barycenter([germ, germ], [1.0, 1.0]).radius == pytest.approx(1.0)


def test_cone_distance_refuses_a_nan_angle():
    with pytest.raises(GeometryError, match="NaN"):
        cone_distance(math.nan, 0.5, 1.0)


def test_barycenter_two_orthogonal_directions(plane):
    base = plane.point((0.0, 0.0))
    dirs = unit_dirs(plane, base, [(1.0, 0.0), (0.0, 1.0)])
    bc = cone_barycenter(dirs)
    assert bc.radius == pytest.approx(math.sqrt(2) / 2)
    assert bc.direction.data == pytest.approx(
        (math.sqrt(2) / 2, math.sqrt(2) / 2)
    )


def test_barycenter_single_and_antipodal(plane):
    base = plane.point((0.0, 0.0))
    single = cone_barycenter(unit_dirs(plane, base, [(0.0, 1.0)]))
    assert single.radius == pytest.approx(1.0)
    assert single.direction.data == pytest.approx((0.0, 1.0))
    anti = cone_barycenter(unit_dirs(plane, base, [(1.0, 0.0), (-1.0, 0.0)]))
    assert anti.radius == 0.0 and anti.direction is None


@pytest.mark.parametrize("dim", [2, 3])
def test_variance_inequality_euclidean_cones(dim, rng):
    space = sc.EuclideanSpace(dim)
    base = space.point(tuple([0.0] * dim))
    worst = 0.0
    for trial in range(60):
        k = int(rng.integers(2, 7))
        vecs = rng.normal(size=(k, dim))
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        dirs = unit_dirs(space, base, [tuple(map(float, v)) for v in vecs])
        center = cone_barycenter(dirs)
        for _ in range(40):
            v = rng.normal(size=dim)
            v /= np.linalg.norm(v)
            probe = ConePoint(
                Direction(space, base, tuple(map(float, v))),
                float(rng.uniform(0.0, 2.0)),
            )
            worst = min(worst, variance_gap(dirs, center, probe))
    assert worst >= -1e-9


def test_variance_inequality_spider_cone(spider3, rng):
    base = spider3.center()
    dirs = [Direction(spider3, base, (leg, 1)) for leg in (1, 1, 2, 3)]
    center = cone_barycenter(dirs)
    worst = 0.0
    for _ in range(200):
        leg = int(rng.integers(1, 4))
        probe = ConePoint(Direction(spider3, base, (leg, 1)),
                          float(rng.uniform(0.0, 2.0)))
        worst = min(worst, variance_gap(dirs, center, probe))
    assert worst >= -1e-9


def test_variance_inequality_book_spine_cone(book2, rng):
    base = book2.point((0, 0.0, 0.0))
    sets = [
        [(1, math.cos(0.3), math.sin(0.3)), (2, math.cos(0.9), math.sin(0.9))],
        [(1, math.cos(1.2), math.sin(1.2)), (1, math.cos(0.2), math.sin(0.2)),
         (2, math.cos(0.4), math.sin(0.4))],
    ]
    for payloads in sets:
        dirs = [Direction(book2, base, p) for p in payloads]
        center = cone_barycenter(dirs)
        worst = 0.0
        for _ in range(300):
            germ = book2.random_direction(rng, base.data)
            probe = ConePoint(Direction(book2, base, germ),
                              float(rng.uniform(0.0, 2.0)))
            worst = min(worst, variance_gap(dirs, center, probe))
        assert worst >= -1e-7


def _book_angle_between(alpha: float, sheet: int, payload: tuple) -> float:
    """Angle from candidate (sheet, alpha-from-positive-spine) to a germ."""
    s2, x2, y2 = payload
    a2 = math.atan2(abs(y2), x2)
    if s2 == 0 or s2 == sheet:
        return abs(alpha - a2)
    return min(alpha + a2, 2.0 * math.pi - alpha - a2)


def search_book_barycenter(space, base, payloads, rs) -> ConePoint:
    """Oracle: the former book barycenter, a 1,025-point angle grid and 60
    golden-section steps per sheet at spine points, the plain circle mean at
    interior points."""
    if base.data[0] != 0:
        vx = math.fsum(r * p[1] for p, r in zip(payloads, rs)) / len(rs)
        vy = math.fsum(r * p[2] for p, r in zip(payloads, rs)) / len(rs)
        norm = math.hypot(vx, vy)
        if norm <= 1e-14:
            return ConePoint(None, 0.0)
        return ConePoint(Direction(space, base, (base.data[0], vx / norm, vy / norm)), norm)
    n = len(payloads)
    sheets = sorted({p[0] for p in payloads if p[0] != 0}) or [1]

    def mean_cos(sheet, alpha):
        return math.fsum(r * math.cos(min(_book_angle_between(alpha, sheet, p), math.pi))
                         for p, r in zip(payloads, rs)) / n

    best = (-math.inf, sheets[0], 0.0)
    for sheet in sheets:
        grid = 1024
        alphas = [math.pi * i / grid for i in range(grid + 1)]
        vals = [mean_cos(sheet, a) for a in alphas]
        k = max(range(len(vals)), key=lambda i: vals[i])
        bracket = golden_section(lambda a, sheet=sheet: -mean_cos(sheet, a),
                                 alphas[max(k - 1, 0)], alphas[min(k + 1, grid)])
        for _, _, c, fc, d, fd in islice(bracket, 61):  # set-up + 60 steps
            pass
        val, alpha = max([(vals[k], alphas[k]), (-fc, c), (-fd, d)], key=lambda t: t[0])
        if val > best[0]:
            best = (val, sheet, alpha)
    val, sheet, alpha = best
    t = max(val, 0.0)
    if t <= 1e-14:
        return ConePoint(None, 0.0)
    if alpha <= 1e-12:
        payload = (0, 1.0, 0.0)
    elif alpha >= math.pi - 1e-12:
        payload = (0, -1.0, 0.0)
    else:
        payload = (sheet, math.cos(alpha), math.sin(alpha))
    return ConePoint(Direction(space, base, payload), t)


def _book_cases(rng, count):
    """(space, base, payloads, radii) at spine and interior bases of books,
    with spine germs mixed in and unit or random radii."""
    for trial in range(count):
        space = sc.BookSpace(int(rng.integers(2, 6)))
        spine = trial % 3 != 2
        base = space.point((0, float(rng.uniform(-1, 1)), 0.0) if spine
                           else (int(rng.integers(1, space.k + 1)), 0.3, 0.5))
        n = int(rng.integers(1, 9))
        payloads = [space.random_direction(rng, base.data) for _ in range(n)]
        if spine and trial % 5 == 0:
            payloads.append((0, -1.0 if trial % 2 else 1.0, 0.0))
        rs = ([1.0] * len(payloads) if trial % 2 else
              [float(r) for r in rng.uniform(0.2, 2.0, len(payloads))])
        yield space, base, payloads, rs


def test_book_barycenter_agrees_with_search_oracle():
    """Spine bases: the radius within 1e-12 of the former search and never
    below it, the direction within 1e-7 rad; interior bases: bit for bit."""
    rng = np.random.default_rng(31)
    for space, base, payloads, rs in _book_cases(rng, 240):
        dirs = [Direction(space, base, p) for p in payloads]
        got = cone_barycenter(dirs, rs)
        old = search_book_barycenter(space, base, payloads, rs)
        if base.data[0] != 0:
            assert got == old
            continue
        assert old.radius - 1e-15 <= got.radius <= old.radius + 1e-12
        if old.direction is not None:
            assert space.direction_angle(got.direction, old.direction) <= 1e-7


def test_book_spine_barycenter_beats_every_grid_angle():
    """At a spine base the barycenter radius is the largest mean cosine: no
    point of a 4,097-angle grid on any sheet exceeds it by more than the
    rounding of the grid's own sums (1e-15)."""
    rng = np.random.default_rng(32)
    alphas = np.linspace(0.0, math.pi, 4097)
    for space, base, payloads, rs in _book_cases(rng, 300):
        if base.data[0] != 0:
            continue
        got = cone_barycenter([Direction(space, base, p) for p in payloads], rs)
        for sheet in range(1, space.k + 1):
            vals = np.zeros_like(alphas)
            for p, r in zip(payloads, rs):
                a2 = math.atan2(abs(p[2]), p[1])
                if p[0] in (0, sheet):
                    vals += r * np.cos(np.abs(alphas - a2))
                else:
                    vals += r * np.cos(np.minimum(alphas + a2, 2.0 * math.pi - alphas - a2))
            assert got.radius >= float(vals.max()) / len(payloads) - 1e-15, (payloads, sheet)


def test_greedy_subset_cardinality_euclidean(rng):
    # pi/3-separated direction sets found greedily stay within 3^n
    for dim, cap in ((2, 9), (3, 27)):
        space = sc.EuclideanSpace(dim)
        base = space.point(tuple([0.0] * dim))
        vecs = rng.normal(size=(200, dim))
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        dirs = unit_dirs(space, base, [tuple(map(float, v)) for v in vecs])
        subset = greedy_separated_subset(space, dirs)
        assert len(subset) <= cap


def test_cover_center_examples(plane):
    base = plane.point((0.0, 0.0))
    d1, d2 = unit_dirs(plane, base, [(1.0, 0.0), (0.0, 1.0)])
    center, radius, m = direction_cover_center(plane, base, [d1, d2])
    assert center.data == pytest.approx((math.sqrt(2) / 2, math.sqrt(2) / 2))
    assert radius == pytest.approx(math.pi / 4)
    single, radius, _ = direction_cover_center(plane, base, [d1])
    assert single.data == d1.data and radius == 0.0
    with pytest.raises(GeometryError):
        direction_cover_center(plane, base,
                               unit_dirs(plane, base, [(1.0, 0.0), (-1.0, 0.0)]))


@pytest.mark.parametrize("dim", [2, 3])
def test_cover_radius_bound_random_sets(dim, rng):
    space = sc.EuclideanSpace(dim)
    base = space.point(tuple([0.0] * dim))
    bound = math.acos(1.0 / (2.0 * 3 ** dim))
    for trial in range(100):
        center = rng.normal(size=dim)
        center /= np.linalg.norm(center)
        dirs = []
        while len(dirs) < 10:
            v = rng.normal(size=dim)
            v /= np.linalg.norm(v)
            if math.acos(min(max(float(v @ center), -1.0), 1.0)) <= math.pi / 4:
                dirs.append(tuple(map(float, v)))
        _, radius, _ = direction_cover_center(space, base, unit_dirs(space, base, dirs))
        assert radius <= bound + 1e-7


def test_cover_center_tree_and_book(spider3, book2):
    ctr = spider3.center()
    g = Direction(spider3, ctr, (2, 1))
    center, radius, _ = direction_cover_center(spider3, ctr, [g, g])
    assert center.data == (2, 1) and radius == 0.0
    sp = book2.point((0, 0.0, 0.0))
    dirs = [
        Direction(book2, sp, (1, math.cos(0.6), math.sin(0.6))),
        Direction(book2, sp, (2, math.cos(0.7), math.sin(0.7))),
    ]
    center, radius, m = direction_cover_center(book2, sp, dirs)
    assert radius <= math.acos(1.0 / (2.0 * m)) + 1e-7


WIDE = "direction set has angular diameter > pi/2"


def loop_wider_than_a_quarter_turn(space, dirs) -> bool:
    """The pairwise `direction_angle` loop of `direction_cover_center`'s
    guard: the reference."""
    return any(space.direction_angle(a, b) > math.pi / 2.0 + 1e-7
               for i, a in enumerate(dirs) for b in dirs[i + 1:])


def refused_as_wide(space, base, dirs) -> bool:
    """Whether `direction_cover_center` refuses the set at its guard; past
    the guard it may still refuse a degenerate barycenter."""
    try:
        direction_cover_center(space, base, dirs)
    except GeometryError as e:
        return str(e) == WIDE
    return False


def _tail_like_dirs(space, rng, m):
    """Germs at a random base toward m points on the geodesics from one
    anchor point toward random points, at most a random share of the way,
    so that the sets' diameters fall on both sides of a quarter-turn."""
    base = space.random_point(rng, 1.5)
    anchor = space.random_point(rng, 1.5)
    spread = float(rng.choice([0.05, 0.3, 1.0]))
    targets = [space.geodesic_point(anchor, space.random_point(rng, 1.5),
                                    float(rng.uniform(0.0, spread))) for _ in range(m)]
    return base, [space.log_direction(base, q)[0] for q in targets
                  if not space.same_point(base, q)]


@pytest.mark.parametrize("space", GERM_SPACES, ids=lambda s: s.describe())
def test_cover_guard_matches_the_pairwise_loop(space, rng):
    """250 direction sets of 1-40 germs per space: the guard refuses a set
    exactly when some pair's `direction_angle` exceeds pi/2 + 1e-7."""
    decisions = {True: 0, False: 0}
    while sum(decisions.values()) < 250:
        base, dirs = _tail_like_dirs(space, rng, int(rng.integers(1, 41)))
        if not dirs:
            continue
        wide = loop_wider_than_a_quarter_turn(space, dirs)
        assert refused_as_wide(space, base, dirs) == wide
        decisions[wide] += 1
    assert min(decisions.values()) >= 10, decisions


def test_cover_guard_matches_the_pairwise_loop_near_the_threshold(plane, rng):
    """Plane pairs, and pairs with a third germ between them, whose angle
    lies within a few ulps of pi/2 + 1e-7, each pair turned by a random
    angle: the rounded decision is the loop's on both sides."""
    base = plane.point((0.0, 0.0))
    limit = math.pi / 2.0 + 1e-7
    decisions = {True: 0, False: 0}
    for _ in range(40):
        phi = float(rng.uniform(-math.pi, math.pi))
        for k in range(-6, 7):
            theta = limit + k * math.ulp(limit)
            angles = [phi, phi + theta] + ([phi + 0.5 * theta] if k % 2 else [])
            dirs = unit_dirs(plane, base, [(math.cos(a), math.sin(a)) for a in angles])
            wide = loop_wider_than_a_quarter_turn(plane, dirs)
            assert refused_as_wide(plane, base, dirs) == wide
            decisions[wide] += 1
    assert min(decisions.values()) >= 100, decisions


def test_radius_constants_table():
    rc1 = radius_constants(1)
    assert rc1.theta_improved == 0.0
    assert rc1.eps == pytest.approx(1.0 / 18.0)
    rc2 = radius_constants(2)
    assert rc2.theta == pytest.approx(math.acos(1.0 / 18.0))
    assert rc2.theta_improved == pytest.approx(math.pi / 4)
    assert rc2.eps == pytest.approx(1.0 / 54.0)
    assert rc2.m == 9
    rc3 = radius_constants(3)
    assert rc3.eps == pytest.approx(1.0 / 162.0)
    assert rc3.eps_bold == pytest.approx(rc3.eps)
    # eps = cos(theta)/3 by construction
    for rc in (rc1, rc2, rc3):
        assert rc.eps == pytest.approx(math.cos(rc.theta) / 3.0)
