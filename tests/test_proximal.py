"""Moreau-Yosida values, resolvent sets, and gradient-curve runs."""
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import selfcontract as sc
from selfcontract import proximal
from selfcontract.errors import GeometryError
from selfcontract.objectives import BoxDomain, ObjectiveFn, make_objective
from selfcontract.proximal import (
    EMPTY,
    MULTIPLE_TIES,
    UNBOUNDED,
    UNIQUE,
    discrete_gradient_curve,
    geodesic_interpolation,
    moreau_yosida,
    resolvent,
)
from selfcontract.spaces.base import Point
from selfcontract.widths import random_tree

from test_spaces import _bits


def line():
    return sc.EuclideanSpace(1)


def test_neg_cube_unit_interval_ties():
    """argmin of -z^3 + z^2 over [0,1] is exactly {0, 1}."""
    space = line()
    f = make_objective(space, "neg_cube_unit")
    res = resolvent(f, space, space.point((0.0,)), 0.5)
    assert res.status == MULTIPLE_TIES
    locs = sorted(p.data[0] for p in res.minimizers)
    assert locs[0] == pytest.approx(0.0, abs=1e-9)
    assert locs[1] == pytest.approx(1.0, abs=1e-9)
    assert res.value == pytest.approx(0.0, abs=1e-12)


def test_neg_cube_unbounded_on_line():
    """-z^3 declares decay order 3 > 2, so every step is unbounded, also
    from left of 0, where the composite has a local minimum."""
    space = line()
    f = make_objective(space, "neg_cube")
    for start in (0.0, -1.0, -0.3):
        for tau in (0.3, 0.5, 0.8):
            x = space.point((start,))
            res = resolvent(f, space, x, tau)
            assert res.status == UNBOUNDED and res.evals == 0, (start, tau)
            assert not res.minimizers
            assert moreau_yosida(f, space, x, tau) == -math.inf


def test_moreau_value_half_sq_dist(plane):
    """min over z of |z-p|^2/2 + |z|^2/2 at tau=1 equals 1/4 (p unit)."""
    f = make_objective(plane, "half_sq_dist", target=(1.0, 0.0))
    value = moreau_yosida(f, plane, plane.point((0.0, 0.0)), 1.0)
    assert value == pytest.approx(0.25, abs=1e-10)


def test_moreau_constant_objective(plane):
    f = ObjectiveFn(name="const", space=plane, fn=lambda p: 3.5, convexity="convex")
    assert moreau_yosida(f, plane, plane.point((0.2, -0.3)), 2.0) == pytest.approx(3.5, abs=1e-10)
    res = resolvent(f, plane, plane.point((0.2, -0.3)), 2.0)
    assert res.status == UNIQUE
    assert plane.distance(res.point, plane.point((0.2, -0.3))) <= 1e-6


def test_resolvent_half_sq_dist_geodesic_point(plane, spider3, book2):
    """prox of d(.,p)^2/2 with step tau lands at gamma_{x p}(tau/(1+tau))."""
    rng = np.random.default_rng(8)
    for space in (plane, spider3, book2):
        for _ in range(5):
            p = space.random_point(rng, 1.2)
            x = space.random_point(rng, 1.2)
            if space.same_point(p, x):
                continue
            tau = float(rng.uniform(0.3, 2.0))
            f = make_objective(space, "half_sq_dist", target=p)
            res = resolvent(f, space, x, tau)
            expected = space.geodesic_point(x, p, tau / (1.0 + tau))
            assert space.distance(res.point, expected) <= 1e-8


def exact_step(space, name, x, p, tau):
    """The CAT(0) prox of half_sq_dist or dist: a point of the geodesic [x, p]."""
    d = space.distance(x, p)
    if name == "half_sq_dist":
        return space.geodesic_point(x, p, tau / (1.0 + tau))
    return space.geodesic_point(x, p, min(tau, d) / d if d > 0.0 else 0.0)


def test_numeric_solver_agrees_with_closed_form_prox():
    """The numeric solver, run directly, finds the closed-form minimizer."""
    tree = random_tree(seed=78, max_edges=10, max_degree=5)
    assert tree.max_degree >= 3
    spaces = [sc.EuclideanSpace(1), sc.EuclideanSpace(2), sc.HyperbolicPlane(),
              sc.SpiderSpace(4), tree, sc.BookSpace(3)]
    rng = np.random.default_rng(1124)
    landed = 0
    for space in spaces:
        for _ in range(3):
            x, p = space.random_point(rng, 2.0), space.random_point(rng, 2.0)
            for name in ("half_sq_dist", "dist"):
                f = make_objective(space, name, target=p)
                for tau in (0.3, 0.8, 4.0):
                    z = f.prox(x, tau)
                    assert space.distance(z, exact_step(space, name, x, p, tau)) <= 1e-12
                    exact = f(z) + space.distance(x, z) ** 2 / (2.0 * tau)
                    status, cands, _ = proximal._solve(f, space, x, tau)
                    assert status == "ok"
                    best, value = cands[0]
                    where = (space.describe(), name, tau, x.data, p.data)
                    assert value >= exact - 1e-12, where
                    assert space.distance(best, z) <= 1e-6, where
                    landed += name == "dist" and space.distance(x, p) <= tau
    assert landed > 0  # some dist steps reach the target

    # the segment objectives and max_two_dists, whose composites are strongly
    # convex: the exact prox is never beaten, and the solver lands on it
    # unless its compass search stalls on the kink ridge d(z,p) = d(z,q) of
    # the plane or H^2, where strong convexity bounds how far off it stalls
    spider, book = spaces[3], spaces[5]
    cases = []
    for space in spaces[:5]:
        for _ in range(3):
            cases.append(make_objective(space, "max_two_dists",
                                        target=space.random_point(rng, 2.0),
                                        other=space.random_point(rng, 2.0)))
    for _ in range(3):
        leg = int(rng.integers(1, 5))
        lo, hi = sorted(float(v) for v in rng.uniform(0.0, 1.0, 2))
        cases.append(make_objective(spider, "dist_to_leg_segment", leg=leg, lo=lo, hi=hi))
        edge = int(rng.integers(0, len(tree.edges)))
        lo, hi = sorted(float(v) for v in rng.uniform(0.0, tree.edges[edge][2], 2))
        cases.append(make_objective(tree, "dist_to_edge_segment", edge=edge, lo=lo, hi=hi))
        lo, hi = sorted(float(v) for v in rng.uniform(-1.0, 1.0, 2))
        cases.append(make_objective(book, "dist_to_spine_segment", lo=lo, hi=hi))
    stalled = set()
    for f in cases:
        space = f.space
        x = space.random_point(rng, 2.0)
        for tau in (0.3, 0.8, 4.0):
            res = resolvent(f, space, x, tau)
            assert res.status == UNIQUE and res.evals == 0
            z = res.point
            exact = f(z) + space.distance(x, z) ** 2 / (2.0 * tau)
            assert res.value == exact
            status, cands, _ = proximal._solve(f, space, x, tau)
            assert status == "ok"
            best, value = cands[0]
            where = (space.describe(), f.name, tau, x.data, f.params)
            assert exact <= value + 1e-12, where
            off = space.distance(best, z)
            if off > 1e-6:
                assert off <= math.sqrt(2.0 * tau * (value - exact)), where
                stalled.add((space.describe(), f.name))
    assert stalled <= {("euclidean:2", "max_two_dists"), ("hyperbolic2", "max_two_dists")}


# q sits 1.9e-9 along edge 0 from the vertex p = (0, 0.0) of this tree, so
# the midpoint of [p, q] lies within the 1e-9 tolerance of p
WITNESS_TREE = {"seed": 1, "max_edges": 12, "max_degree": 4}
WITNESS_EDGE_LENGTH = random_tree(**WITNESS_TREE).edges[0][2]


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 10_000),
       where=st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
                      min_size=3, max_size=3))
@example(seed=WITNESS_TREE["seed"],
         where=[(0.0, 0.0), (0.0, 1.9e-9 / WITNESS_EDGE_LENGTH), (0.0, 0.0)])
def test_rtree_midpoint_identity(seed, where):
    """On a branching tree, max(d(z,p), d(z,q)) = d(z,m) + d(p,q)/2 for the
    midpoint m of [p, q]: the identity behind max_two_dists' tree prox.  m is
    the geodesic payload itself; its canonical form snaps to a vertex within
    the space tolerance, which would move it by up to 1e-9 (the example)."""
    tree = random_tree(seed=seed, max_edges=12, max_degree=4)
    assume(tree.max_degree >= 3)
    n = len(tree.edges)

    def at(e, s):
        edge = min(int(e * n), n - 1)
        return tree.point((edge, s * tree.edges[edge][2]))

    p, q, z = (at(e, s) for e, s in where)
    m = Point(tree, tree._geodesic(p.data, q.data, 0.5))
    lhs = max(tree.distance(z, p), tree.distance(z, q))
    assert abs(lhs - (tree.distance(z, m) + tree.distance(p, q) / 2.0)) <= 1e-12


def test_tree_max_two_dists_prox_steps_toward_the_midpoint_payload():
    """At the identity's witness, the prox is the canonical form of the dist
    step toward the midpoint payload m, not toward the vertex that m snaps
    to; a step that stops short of m has the composite d(x,m) - tau/2 +
    d(p,q)/2 to 1e-12."""
    tree = random_tree(**WITNESS_TREE)
    p, q = tree.point((0, 0.0)), tree.point((0, 1.9e-9))
    m = Point(tree, tree._geodesic(p.data, q.data, 0.5))
    assert tree.point(m.data).data != m.data
    f = make_objective(tree, "max_two_dists", target=p, other=q)
    rng = np.random.default_rng(8)
    short = 0
    for _ in range(300):
        x, tau = tree.random_point(rng, 1.0), float(rng.uniform(0.05, 2.0))
        z = f.prox(x, tau)
        d = tree.distance(x, z)
        assert z.data == tree._canonical(
            tree._geodesic(x.data, m.data, min(tau / tree.distance(x, m), 1.0)))
        if tree.distance(x, m) > tau + tree.tolerance:
            short += 1
            expected = tree.distance(x, m) - tau / 2.0 + tree.distance(p, q) / 2.0
            assert abs(f(z) + d * d / (2.0 * tau) - expected) <= 1e-12
    assert short > 100


def test_numeric_minimizers_are_valid_points():
    """The solver builds its candidates without `Space.point`; every
    minimizer it returns still passes the space's own payload check and,
    off the hyperboloid, whose re-projection moves the last bits, is its own
    canonical form.  Covers every kind of search piece: tree and spider
    segments, the book's spine and sheets, the line's box, windows on the
    line and the plane, and the exp chart of H^2, with ties on the box,
    segments and sheets and minimizers at a spider's centre, a tree vertex
    and a book's spine.
    Catalogue objectives with an exact prox or a candidate set reach the
    solver through `proximal._solve`, whose candidates are checked the same
    way."""
    line, plane, h2 = sc.EuclideanSpace(1), sc.EuclideanSpace(2), sc.HyperbolicPlane()
    spider, book = sc.SpiderSpace(3), sc.BookSpace(3)
    tree = random_tree(seed=78, max_edges=10, max_degree=5)
    rng = np.random.default_rng(57)
    cases = [
        (make_objective(line, "neg_cube_unit"), line.point((0.0,)), 0.5),
        (ObjectiveFn(name="neg_cube_box", space=line, fn=lambda z: -z.data[0] ** 3,
                     domain=BoxDomain(((0.0, 1.0),))), line.point((0.0,)), 0.5),
        (ObjectiveFn(name="neg_radius", space=spider, fn=lambda z: -z.data[1]),
         spider.center(), 0.5),
        (ObjectiveFn(name="neg_height", space=book, fn=lambda z: -z.data[2]),
         book.point((0, 0.0, 0.0)), 0.5),
        (ObjectiveFn(name="radius", space=spider, fn=lambda z: z.data[1]),
         spider.point((1, 0.3)), 1.0),
        (ObjectiveFn(name="height", space=book, fn=lambda z: z.data[2]),
         book.point((1, 0.2, 0.3)), 1.0),
    ]
    hub = tree.point(tree._vertex_rep[max(range(len(tree.vertex_names)),
                                          key=lambda w: len(tree._adj[w]))])
    cases.append((ObjectiveFn(name="to_hub", space=tree, fn=lambda z: tree.distance(z, hub)),
                  tree.random_point(rng, 1.0), 10.0))
    for space, name, params in [
        (line, "neg_cube_unit", {}), (line, "sqrt_abs", {}), (line, "ripple_vee", {}),
        (spider, "dist_to_leg_segment", {"leg": 2, "lo": 0.25, "hi": 0.75}),
        (tree, "dist_to_edge_segment", {"edge": 1, "lo": 0.0}),
        (book, "dist_to_spine_segment", {}),
    ] + [(space, "max_two_dists", {}) for space in (plane, h2, spider, tree, book)]:
        for tau in (0.3, 1.5):
            if name == "max_two_dists":
                params = {"target": space.random_point(rng, 1.5),
                          "other": space.random_point(rng, 1.5)}
            f = make_objective(space, name, **params)
            x = (space.point((float(rng.uniform(0.0, 1.0)),)) if f.domain
                 else space.random_point(rng, 1.5))
            cases.append((f, x, tau))
    ties = 0
    for f, x, tau in cases:
        if f.prox is None and f.candidates is None:
            res = resolvent(f, f.space, x, tau)
            evals, found = res.evals, res.minimizers
            ties += res.status == MULTIPLE_TIES
        else:
            _, cands, evals = proximal._solve(f, f.space, x, tau)
            found = [p for p, _ in cands]
        assert evals > 0 and found, (f.name, f.space.describe())
        for p in found:
            f.space._check(p.data)
            assert f.space is h2 or f.space.point(p.data).data == p.data
    assert ties >= 3


def test_resolvent_reports_evaluations(plane, monkeypatch):
    """0 on the exact path, one per candidate on the line's candidate sets,
    the numeric solver's count on user-built objectives: in a window of the
    plane and in the exp chart of H^2, and on the line through every way
    out of the window loop."""
    space = line()
    for name in ("neg_cube_unit", "sqrt_abs", "ripple_vee"):
        f = make_objective(space, name)
        for x in (0.0, 0.2, 0.9):
            got = resolvent(f, space, space.point((x,)), 2.5).evals
            assert got == len(f.candidates(space.point((x,)), 2.5)) >= 1
    x = plane.point((0.5, 1.5))
    for name in ("half_sq_dist", "dist"):
        f = make_objective(plane, name, target=(1.0, 0.0))
        assert resolvent(f, plane, x, 0.5).evals == 0
    f = make_objective(plane, "max_two_dists", target=(1.0, 0.0), other=(-1.0, 0.5))
    assert resolvent(f, plane, x, 0.5).evals == 0
    assert proximal._solve(f, plane, x, 0.5)[2] > 0
    f = ObjectiveFn(name="max_two_dists", space=plane, fn=f.fn, convexity="convex")
    assert resolvent(f, plane, x, 0.5).evals > 0
    h2 = sc.HyperbolicPlane()
    p = h2.point((math.cosh(0.8), math.sinh(0.8), 0.0))
    f = ObjectiveFn(name="to_p", space=h2, fn=lambda z: h2.distance(z, p), convexity="convex")
    res = resolvent(f, h2, h2.point(h2.origin()), 0.5)
    assert res.evals > 0 and h2.distance(res.point, h2.geodesic_point(
        h2.point(h2.origin()), p, 0.5 / 0.8)) <= 1e-6
    radii = []

    search_pieces = sc.EuclideanSpace._search_pieces

    def line_pieces(self, x, radius, box, start):
        radii.append(radius)
        return search_pieces(self, x, radius, box, start)

    monkeypatch.setattr(sc.EuclideanSpace, "_search_pieces", line_pieces)
    x = space.point((0.3,))

    def user_built(fn):
        return ObjectiveFn(name="user", space=space, fn=lambda z: fn(z.data[0]))

    # the minimum at 50 lies outside the first window, radius 2 sqrt(tau)
    res = resolvent(user_built(lambda z: abs(z - 50.0)), space, x, 100.0)
    assert radii == [20.0, 80.0] and res.status == UNIQUE
    assert abs(res.point.data[0] - 50.0) <= 1e-9
    # unbounded by value: the best falls below -1e12 inside the window
    radii.clear()
    res = resolvent(user_built(lambda z: -z ** 3), space, x, 0.5)
    assert res.status == UNBOUNDED and res.evals == 1488
    assert radii[-1] == 32768.0 < proximal.DEFAULT_SOLVER.max_radius
    # unbounded by radius: the composite -0.6 z + 0.09 is linear, so the
    # best stays on a window side, above -1e12, until the radius passes 1e6
    radii.clear()
    res = resolvent(user_built(lambda z: -z * z), space, x, 0.5)
    assert res.status == UNBOUNDED and res.evals > 0
    assert radii[-1] == 2097152.0 > proximal.DEFAULT_SOLVER.max_radius


def test_exp_chart_off_the_sheet_raises_geometry_error():
    """Once the exp chart's window grows far enough, cancellation loses the
    hyperboloid (<x,x> >= 0) and the chart point is refused with a
    GeometryError.  Nearer minimizers keep their exact composite values."""
    h2 = sc.HyperbolicPlane()
    o = h2.point(h2.origin())

    def dist_to(d):
        p = h2.point((math.cosh(d), math.sinh(d), 0.0))
        return ObjectiveFn(name="to_p", space=h2, fn=lambda z: h2.distance(z, p))

    for d, tau, value in ((5, 4, 3.0), (5, 10, 1.25), (9, 4, 7.0)):
        assert resolvent(dist_to(d), h2, o, tau).value == pytest.approx(value, abs=1e-8)
    for d, tau in ((5, 6), (7, 4), (7, 6), (7, 10), (9, 6), (9, 10)):
        with pytest.raises(GeometryError, match="hyperboloid"):
            resolvent(dist_to(d), h2, o, tau)
    for data in ((1.0, 1.0, 0.0), (1.0, 0.0, 2.0)):
        with pytest.raises(GeometryError, match="hyperboloid"):
            h2._canonical(data)


@pytest.mark.parametrize("space", [
    sc.EuclideanSpace(3), sc.ProductSpace(sc.EuclideanSpace(1), sc.SpiderSpace(3)),
], ids=lambda s: s.describe())
def test_exact_prox_beyond_the_numeric_solver(space):
    """Spaces the numeric solver rejects still take distance-objective steps."""
    rng = np.random.default_rng(31)
    for name in ("half_sq_dist", "dist"):
        p = space.random_point(rng, 1.5)
        f = make_objective(space, name, target=p)
        x = space.random_point(rng, 1.5)
        res = resolvent(f, space, x, 0.4)
        assert res.status == UNIQUE and res.evals == 0
        assert space.distance(res.point, exact_step(space, name, x, p, 0.4)) <= 1e-12
        run = discrete_gradient_curve(f, space, x, [0.4] * 5)
        assert run.diagnostic is None and len(run.points) == 6
        for a, b in zip(run.points, run.points[1:]):
            assert space.distance(b, exact_step(space, name, a, p, 0.4)) <= 1e-12


# the line objectives in numpy, on a grid zs, for the center c of sqrt_abs
LINE_OBJECTIVES = {
    "neg_cube_unit": lambda zs, c: -zs ** 3,
    "sqrt_abs": lambda zs, c: np.sqrt(np.abs(zs - c)),
    "ripple_vee": lambda zs, c: np.abs(zs) + 0.5 * np.sin(np.abs(zs)),
}


def test_resolvent_vs_grid_oracle_sweep():
    """No point of a dense grid beats the reported minimizer, over 1,000
    (x, tau) draws per line objective; every minimizer reported lies within
    the tie value of the least.  On the first 300 draws of sqrt_abs and
    neg_cube_unit, the numeric line search lies within 1e-6 of it."""
    space = line()
    rng = np.random.default_rng(4)
    for name, objective in LINE_OBJECTIVES.items():
        box = name == "neg_cube_unit"
        zs = np.linspace(0.0, 1.0, 20_001) if box else np.linspace(-10.0, 10.0, 100_001)
        fz = objective(zs, 0.0)
        for draw in range(1000):
            tau = float(rng.choice([0.3, 0.5, 0.8, 2.0, 4.0]))
            c = float(rng.uniform(-1.0, 1.0)) if name == "sqrt_abs" else 0.0
            f = make_objective(space, name, **({"center": c} if name == "sqrt_abs" else {}))
            x = float(rng.uniform(0.0, 1.0) if box else rng.uniform(-8.0, 8.0))
            res = resolvent(f, space, space.point((x,)), tau)
            if name == "sqrt_abs":
                fz = objective(zs, c)
            grid = float(np.min(fz + (zs - x) ** 2 / (2.0 * tau)))
            assert res.value <= grid + 1e-9, (name, x, tau, c)
            assert 1 <= res.evals <= 6
            if draw < 300 and name != "ripple_vee":
                _, cands, _ = proximal._solve(f, space, space.point((x,)), tau)
                assert cands[0][1] <= res.value + 1e-6, (name, x, tau, c)
            for p in res.minimizers:
                value = f(p) + (p.data[0] - x) ** 2 / (2.0 * tau)
                assert value <= res.value + proximal.DEFAULT_SOLVER.tie_value


def test_line_resolvent_witnesses():
    """Minimizers at a kink that the numeric grid never evaluates: sqrt_abs
    at its centre for a step of 0.5, and ripple_vee at 0 for a step of 4,
    where the composite is x^2 / (2 tau).  The numeric line search comes
    within 1e-6 of the sqrt_abs kink; on ripple_vee its first window's
    best point is interior, so the window never grows to reach 0."""
    space = line()
    for name, x, tau in [("sqrt_abs", 0.8645536149147341, 0.5),
                         ("ripple_vee", 5.260769135624358, 4.0)]:
        f = make_objective(space, name)
        res = resolvent(f, space, space.point((x,)), tau)
        assert res.status == UNIQUE and res.point.data == (0.0,), name
        assert res.value == x * x / (2.0 * tau), name
        _, cands, _ = proximal._solve(f, space, space.point((x,)), tau)
        if name == "sqrt_abs":
            assert res.value < cands[0][1] <= res.value + 1e-6
        else:
            assert cands[0][1] > res.value + 0.03, name  # the numeric search misses it


def test_spider_resolvent_vs_leg_sweep_oracle():
    """Dense per-leg sweeps never beat the spider resolvent value."""
    spider = sc.SpiderSpace(4, 2.0)
    rng = np.random.default_rng(21)
    for trial in range(6):
        f = make_objective(spider, "max_two_dists",
                           target=spider.random_point(rng, 1.5),
                           other=spider.random_point(rng, 1.5))
        x = spider.random_point(rng, 1.5)
        tau = float(rng.uniform(0.3, 1.5))
        res = resolvent(f, spider, x, tau)
        best = math.inf
        for leg in range(1, 5):
            for t in np.linspace(0.0, 2.0, 10_001):
                z = spider.point((leg, float(t)))
                best = min(best, f(z) + spider.distance(x, z) ** 2 / (2 * tau))
        assert res.value <= best + 1e-9


def test_gradient_run_halving(plane):
    """x^2/2 with tau = 1 halves the point at every step."""
    space = line()
    f = make_objective(space, "half_sq_dist", target=(0.0,))
    run = discrete_gradient_curve(f, space, space.point((1.0,)), [1.0] * 5)
    got = [p.data[0] for p in run.points]
    assert got == pytest.approx([2.0 ** -k for k in range(6)], abs=1e-9)
    assert run.times == pytest.approx([0.0, 1.0, 2.0, 3.0, 4.0, 5.0])


def test_gradient_run_zero_steps(plane):
    f = make_objective(plane, "dist", target=(1.0, 1.0))
    run = discrete_gradient_curve(f, plane, plane.point((0.0, 0.0)), [])
    assert len(run.points) == 1


def test_gradient_run_spider_through_center(spider3):
    """dist to a tip from another leg walks monotonically through the center."""
    f = make_objective(spider3, "dist", target=(1, 1.0))
    run = discrete_gradient_curve(f, spider3, spider3.point((2, 1.0)), [0.5] * 5)
    values = list(run.values)
    assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))
    # strictly decreasing until the target is reached
    assert values[0] == pytest.approx(2.0)
    assert values[-1] == pytest.approx(0.0, abs=1e-9)
    legs = [p.data[0] for p in run.points]
    assert legs[0] == 2 and legs[-1] == 1


def test_gradient_run_aborts_on_unbounded():
    """An unbounded or an empty resolvent stops the run at its prefix."""
    space = line()
    f = make_objective(space, "neg_cube")
    run = discrete_gradient_curve(f, space, space.point((0.0,)), [0.5] * 3)
    assert len(run.points) == 1
    assert run.diagnostic is not None and "unbounded" in run.diagnostic
    f = ObjectiveFn(name="no_candidates", space=space, fn=lambda z: z.data[0] ** 2,
                    candidates=lambda x, tau: [])
    res = resolvent(f, space, space.point((0.3,)), 0.5)
    assert res.status == EMPTY and res.value == math.inf and res.evals == 0
    run = discrete_gradient_curve(f, space, space.point((0.3,)), [0.5] * 3)
    assert len(run.points) == 1
    assert run.diagnostic is not None and "empty" in run.diagnostic


def test_lambda_step_guard(plane):
    f = ObjectiveFn(name="concaveish", space=plane,
                    fn=lambda p: -0.25 * (p.data[0] ** 2 + p.data[1] ** 2),
                    convexity="lambda", lam=-0.5)
    with pytest.raises(GeometryError):
        resolvent(f, plane, plane.point((0.1, 0.1)), 3.0)
    # steps under 1/(-lambda) are allowed
    res = resolvent(f, plane, plane.point((0.1, 0.1)), 1.0)
    assert res.minimizers


def test_geodesic_interpolation(plane):
    space = line()
    f = make_objective(space, "half_sq_dist", target=(0.0,))
    run = discrete_gradient_curve(f, space, space.point((1.0,)), [1.0] * 4)
    curve = geodesic_interpolation(space, run)
    assert curve.mode == "geodesic"
    # midpoint of the first step sits at 0.75
    assert curve.point_at(0.5).data[0] == pytest.approx(0.75, abs=1e-9)
    two_pt = geodesic_interpolation(
        plane, discrete_gradient_curve(
            make_objective(plane, "dist", target=(2.0, 0.0)),
            plane, plane.point((0.0, 0.0)), [0.5]))
    assert two_pt.point_at(0.25).data[1] == pytest.approx(0.0, abs=1e-9)


def test_tie_break_determinism():
    space = line()
    f = make_objective(space, "neg_cube_unit")
    runs = [discrete_gradient_curve(f, space, space.point((0.0,)), [0.5] * 2)
            for _ in range(2)]
    assert [p.data for p in runs[0].points] == [p.data for p in runs[1].points]
    # nearest-to-x tie break picks 0 over 1 at the first step
    assert runs[0].points[1].data[0] == pytest.approx(0.0, abs=1e-9)


def test_invalid_tau(plane):
    f = make_objective(plane, "dist", target=(1.0, 0.0))
    with pytest.raises(GeometryError):
        resolvent(f, plane, plane.point((0.0, 0.0)), 0.0)
    with pytest.raises(GeometryError):
        discrete_gradient_curve(f, plane, plane.point((0.0, 0.0)), [0.5, -1.0])


def exact_prox_objectives(rng):
    """Every catalogue objective with an exact prox: the two distances on
    the six space kinds, max_two_dists where a rule gives its prox, and the
    leg, edge and spine segment distances."""
    tree = random_tree(seed=78, max_edges=10, max_degree=5)
    spider, book = sc.SpiderSpace(4), sc.BookSpace(3)
    spaces = [sc.EuclideanSpace(1), sc.EuclideanSpace(2), sc.HyperbolicPlane(),
              spider, tree, book]
    out = []
    for space in spaces:
        for name in ("half_sq_dist", "dist"):
            out.append(make_objective(space, name, target=space.random_point(rng, 2.0)))
        if space is not book:
            out.append(make_objective(space, "max_two_dists",
                                      target=space.random_point(rng, 2.0),
                                      other=space.random_point(rng, 2.0)))
    lo, hi = sorted(float(v) for v in rng.uniform(0.0, 1.0, 2))
    out.append(make_objective(spider, "dist_to_leg_segment", leg=2, lo=lo, hi=hi))
    lo, hi = sorted(float(v) for v in rng.uniform(0.0, tree.edges[1][2], 2))
    out.append(make_objective(tree, "dist_to_edge_segment", edge=1, lo=lo, hi=hi))
    lo, hi = sorted(float(v) for v in rng.uniform(-1.0, 1.0, 2))
    out.append(make_objective(book, "dist_to_spine_segment", lo=lo, hi=hi))
    assert all(f.prox is not None for f in out)
    return out


def test_exact_prox_reports_f_at_its_point():
    """An exact prox sets `f_value` to f(point), the same float, and the
    value is that f plus the quadratic, as before."""
    rng = np.random.default_rng(2038)
    for f in exact_prox_objectives(rng):
        space = f.space
        for tau in (0.3, 0.8, 4.0):
            x = space.random_point(rng, 2.0)
            res = resolvent(f, space, x, tau)
            where = (space.describe(), f.name, tau, x.data)
            assert res.status == UNIQUE and res.evals == 0, where
            assert res.f_value.hex() == f(res.point).hex(), where
            d = space.distance(x, res.point)
            assert res.value == res.f_value + d * d / (2.0 * tau), where


def test_f_value_is_none_off_the_exact_path():
    """Candidate sets (the neg_cube_unit tie at {0, 1} too), the numeric
    solver (book max_two_dists) and an unbounded step leave `f_value` None."""
    space = line()
    f = make_objective(space, "neg_cube_unit")
    tie = resolvent(f, space, space.point((0.0,)), 0.5)
    assert tie.status == MULTIPLE_TIES and tie.f_value is None
    for name in ("neg_cube_unit", "sqrt_abs", "ripple_vee"):
        res = resolvent(make_objective(space, name), space, space.point((0.4,)), 0.8)
        assert res.evals > 0 and res.f_value is None
    book = sc.BookSpace(3)
    f = make_objective(book, "max_two_dists", target=(1, 0.5, 0.8), other=(2, -0.3, 0.4))
    res = resolvent(f, book, book.point((3, 0.2, 0.3)), 0.5)
    assert res.status == UNIQUE and res.evals > 0 and res.f_value is None
    res = resolvent(make_objective(space, "neg_cube"), space, space.point((0.5,)), 0.5)
    assert res.status == UNBOUNDED and res.f_value is None


def counting(f):
    calls = [0]

    def fn(z):
        calls[0] += 1
        return f.fn(z)
    return dataclasses.replace(f, fn=fn), calls


def test_exact_run_evaluates_f_once_per_step():
    """An exact-prox run of n steps calls f 1 + n times (the start, then
    once per step inside the resolvent) and takes the same values; a
    candidate-set run calls it once per candidate and once per step."""
    rng = np.random.default_rng(2039)
    for f in exact_prox_objectives(rng):
        space = f.space
        counted, calls = counting(f)
        x0 = space.random_point(rng, 2.0)
        run = discrete_gradient_curve(counted, space, x0, [0.4] * 6)
        assert run.diagnostic is None and len(run.points) == 7
        assert calls[0] == 1 + 6, (space.describe(), f.name)
        assert _bits(run.values) == _bits(tuple(f(p) for p in run.points))
    space = line()
    for name in ("neg_cube_unit", "sqrt_abs", "ripple_vee"):
        f = make_objective(space, name)
        counted, calls = counting(f)
        run = discrete_gradient_curve(counted, space, space.point((0.7,)), [0.5] * 4)
        assert len(run.points) == 5
        per_step = [len(f.candidates(p, 0.5)) + 1 for p in run.points[:-1]]
        assert calls[0] == 1 + sum(per_step), name


def test_run_records_are_immutable(plane):
    f = make_objective(plane, "dist", target=(1.0, 0.0))
    x = plane.point((0.0, 0.0))
    res = resolvent(f, plane, x, 0.5)
    run = discrete_gradient_curve(f, plane, x, [0.5] * 2)
    for record, field in ((res, "value"), (res, "f_value"), (run, "points"),
                          (run, "diagnostic")):
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    assert res == resolvent(f, plane, x, 0.5) and hash(res) == hash(resolvent(f, plane, x, 0.5))
    assert res._replace(status=MULTIPLE_TIES).status == MULTIPLE_TIES != res.status
    assert run.times == [0.0, 0.5, 1.0]
