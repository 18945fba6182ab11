"""Self-contractedness checks and their consequence checks."""
import math
import time

import numpy as np
import pytest
from conftest import GERM_SPACES
from hypothesis import given, settings, strategies as st

import selfcontract as sc
from selfcontract.errors import GeometryError, SpaceMismatchError
from selfcontract.objectives import make_objective
from selfcontract.proximal import GradientCurveRun, discrete_gradient_curve
from selfcontract.spaces.base import Point, Space
from selfcontract.spaces.book import spine_germ
from selfcontract.verify import (
    DEFAULT_SAMPLING,
    VIOLATION_TOL,
    SamplingConfig,
    ViolationReport,
    _effective_samples,
    angle_estimate_check,
    angle_estimate_sweep,
    ball_confinement_check,
    contraction_check,
    evi_residual,
    is_self_contracted,
    reparam_preserves,
    run_checks,
    stationarity_check,
    tail_halving_check,
    tail_monotonicity,
)
from selfcontract.measures import NeighborhoodRegion
from selfcontract.widths import unrectifiable_witness


def segment_curve(plane, n=8, length=2.0):
    pts = [plane.point((length * i / (n - 1), 0.0)) for i in range(n)]
    return sc.make_curve(pts, mode="discrete")


def failing_curve(plane):
    pts = [plane.point((x, 0.0)) for x in (0.0, 3.0, 1.0)]
    return sc.make_curve(pts, mode="discrete")


def test_segment_passes(plane):
    rep = is_self_contracted(plane, segment_curve(plane))
    assert rep.passed and rep.max_violation == 0.0


def test_run_checks_refuses_unknown_names(plane):
    with pytest.raises(GeometryError, match=r"unknown checks \['bogus'\]"):
        run_checks(plane, segment_curve(plane), ["self_contracted", "bogus"])


def test_backtracking_fails_with_violation_one(plane):
    rep = is_self_contracted(plane, failing_curve(plane))
    assert not rep.passed
    # d(xi(t2), xi(t3)) = 2 > d(xi(t1), xi(t3)) = 1
    assert rep.max_violation == pytest.approx(1.0)
    assert rep.witness["t1"] == 0.0 and rep.witness["t2"] == 1.0


def test_orthonormal_jump_curve_passes():
    for k in (2, 5, 9):
        curve, _ = unrectifiable_witness(k)
        rep = is_self_contracted(curve.space, curve)
        assert rep.passed and rep.max_violation == 0.0


def test_long_curve_stratified_subsampling(plane):
    """Above the exhaustive cap the checker subsamples but stays exact on
    planted violations near the ends."""
    from selfcontract.verify import SamplingConfig

    n = 1500
    pts = [plane.point((1.0 / (i + 1.0), 0.0)) for i in range(n)]
    curve = sc.make_curve(pts)
    cfg = SamplingConfig(max_exhaustive=400, seed=5)
    rep = is_self_contracted(plane, curve, cfg)
    assert rep.passed
    assert rep.n_checked <= 400 * 399 // 2
    # plant a violation at the tail
    bad = sc.make_curve(pts[:-1] + [plane.point((2.0, 0.0))])
    rep = is_self_contracted(plane, bad, cfg)
    assert not rep.passed


@pytest.mark.parametrize("field", [
    {"max_exhaustive": 1}, {"max_exhaustive": 0}, {"max_exhaustive": 400.0},
    {"max_exhaustive": True}, {"densify_levels": -1}, {"tolerance": -1e-12},
    {"tolerance": math.nan}, {"tolerance": math.inf}, {"seed": -1}, {"seed": 1.5}])
def test_sampling_config_is_validated(field, plane):
    """A sampling config no check can run with is refused when it is made."""
    with pytest.raises(GeometryError, match=next(iter(field))):
        SamplingConfig(**field)
    edge = SamplingConfig(max_exhaustive=2, densify_levels=0, tolerance=0.0)
    assert is_self_contracted(plane, segment_curve(plane), edge).n_checked == 1


def test_geodesic_mode_samples_within_segments(plane):
    # a geodesic-interpolated V-shape fails even though the 3 raw samples
    # are consistent at their own times
    pts = [plane.point(p) for p in ((0.0, 0.0), (2.0, 0.0), (1.0, 0.9))]
    curve = sc.make_curve(pts, mode="geodesic")
    rep = is_self_contracted(plane, curve)
    assert not rep.passed


def test_tail_monotonicity(plane):
    space = sc.EuclideanSpace(1)
    f = make_objective(space, "half_sq_dist", target=(0.0,))
    run = discrete_gradient_curve(f, space, space.point((1.0,)), [1.0] * 5)
    curve = run.discrete_curve()
    rep = tail_monotonicity(space, curve, curve.times[-1])
    assert rep.passed
    bad = failing_curve(plane)
    rep = tail_monotonicity(plane, bad, 2.0)
    assert not rep.passed
    single = sc.make_curve([plane.point((0.0, 0.0))])
    assert tail_monotonicity(plane, single, 0.0).passed
    with pytest.raises(GeometryError):
        tail_monotonicity(plane, bad, 17.0)


def test_stationarity(plane):
    p0 = plane.point((0.0, 0.0))
    revisit = sc.make_curve([p0, plane.point((1.0, 0.0)), p0])
    rep = stationarity_check(plane, revisit)
    assert not rep.passed and rep.max_violation == pytest.approx(1.0)
    injective = segment_curve(plane)
    assert stationarity_check(plane, injective).passed
    constant = sc.make_curve([p0, p0, p0], times=[0.0, 1.0, 2.0])
    assert stationarity_check(plane, constant).passed
    # a return at exactly the space's tolerance is a revisit
    edge = sc.make_curve([p0, plane.point((1.0, 0.0)), plane.point((plane.tolerance, 0.0))])
    assert stationarity_check(plane, edge).witness == {
        "t1": 0.0, "t2": 1.0, "t3": 2.0, "deviation": 1.0}


def test_reparam_preserves(plane):
    curve = segment_curve(plane)
    t1 = curve.times[-1]
    assert reparam_preserves(plane, curve, lambda t: t * t / t1).passed
    # step function: neither continuous nor injective
    assert reparam_preserves(
        plane, curve, lambda t: 0.0 if t < t1 / 2 else t1
    ).passed
    with pytest.raises(GeometryError):
        reparam_preserves(plane, curve, lambda t: -t)


def test_reparam_preserves_random_monotone_maps(plane, rng):
    """100 random piecewise-linear non-decreasing maps keep the property."""
    curve = sc.random_self_contracted(plane, 10, seed=321)
    t0, t1 = curve.times[0], curve.times[-1]
    for _ in range(100):
        knots = np.sort(rng.uniform(t0, t1, 5))
        values = np.sort(rng.uniform(t0, t1, 5))

        def phi(t, knots=knots, values=values):
            return float(np.interp(t, knots, values))

        assert reparam_preserves(plane, curve, phi).passed


def test_angle_estimate_examples(plane):
    curve = segment_curve(plane)
    # collinear forward directions
    ang = angle_estimate_check(plane, curve, curve.times[0], curve.times[2],
                               curve.times[4])
    assert ang == pytest.approx(0.0, abs=1e-12)
    # the angle check is necessary, not sufficient: the failing curve
    # still has angle 0 at tau=0
    bad = failing_curve(plane)
    ang = angle_estimate_check(plane, bad, 0.0, 1.0, 2.0)
    assert ang == pytest.approx(0.0, abs=1e-12)
    assert not is_self_contracted(plane, bad).passed
    with pytest.raises(GeometryError):
        angle_estimate_check(plane, curve, 1.0, 0.5, 2.0)


def test_angle_estimate_spider_jump():
    from selfcontract.widths import spider_jump_curve

    curve = spider_jump_curve(4)
    space = curve.space
    # at a visited tip, all later tips lie through the single inward germ
    ang = angle_estimate_check(space, curve, 0.0, 1.0, 2.0)
    assert ang == 0.0
    rep = angle_estimate_sweep(space, curve)
    assert rep.passed  # every angle below pi/2


def test_ball_confinement(plane, rng):
    inside = segment_curve(plane, length=0.5)
    rep = ball_confinement_check(plane, inside, plane.point((0.0, 0.0)), 1.0)
    assert rep.passed
    # synthetic excursion: starts and ends near x, wanders past 3r
    pts = [plane.point(p) for p in ((0.0, 0.0), (5.0, 0.0), (0.5, 0.0))]
    curve = sc.make_curve(pts)
    rep = ball_confinement_check(plane, curve, plane.point((0.0, 0.0)), 1.0)
    assert not rep.passed
    assert rep.max_violation == pytest.approx(2.0)
    # random self-contracted curves always confine: 100 random (x, r)
    for trial in range(10):
        cur = sc.random_self_contracted(plane, 12, seed=500 + trial)
        for _ in range(10):
            x = plane.random_point(rng, 2.0)
            r = float(rng.uniform(0.2, 1.5))
            assert ball_confinement_check(plane, cur, x, r).passed


def test_tail_halving_on_self_contracted(plane):
    for trial in range(15):
        cur = sc.random_self_contracted(plane, 12, seed=900 + trial)
        assert tail_halving_check(plane, cur).passed


def test_metric_angle_projection_inequality_hyperbolic(rng):
    """With metric angles the projection sum dominates the side: angles
    never exceed their comparison angles in nonpositive curvature."""
    hyp = sc.HyperbolicPlane()
    count = 0
    while count < 80:
        x, p, q = (hyp.random_point(rng, 1.5) for _ in range(3))
        if (hyp.same_point(x, p) or hyp.same_point(x, q)
                or hyp.same_point(p, q)):
            continue
        ang_x = hyp.direction_angle(hyp.log_direction(x, p)[0],
                                    hyp.log_direction(x, q)[0])
        ang_p = hyp.direction_angle(hyp.log_direction(p, x)[0],
                                    hyp.log_direction(p, q)[0])
        lhs = (hyp.distance(x, q) * math.cos(ang_x)
               + hyp.distance(p, q) * math.cos(ang_p))
        assert lhs >= hyp.distance(x, p) - 1e-7
        count += 1


def test_evi_residual_exact_flow(plane):
    """Exact gradient flow of x^2/2 is e^{-t}; EVI residual stays <= 0."""
    space = sc.EuclideanSpace(1)
    f = make_objective(space, "half_sq_dist", target=(0.0,))
    times = [0.1 * i for i in range(40)]
    pts = [space.point((math.exp(-t),)) for t in times]
    flow = sc.make_curve(pts, times=times, mode="geodesic")
    y = space.point((0.0,))
    for t in (0.0, 0.5, 1.5):
        assert evi_residual(space, f, flow, t, y, 1e-4) <= 1e-6
    # y = xi(t): residual = d^2(xi(t+h), xi(t))/(2h) >= 0, about speed^2 h/2
    t, h = 0.5, 1e-3
    res = evi_residual(space, f, flow, t, flow.point_at(t), h)
    speed = math.exp(-t)
    assert 0.0 <= res <= speed * speed * h
    with pytest.raises(GeometryError):
        evi_residual(space, make_objective(space, "neg_cube"), flow, 0.0, y, h)


def test_evi_residual_fine_proximal_run(plane):
    """Small-step proximal runs of a convex objective keep the forward
    EVI residual near or below zero (informational diagnostic)."""
    f = make_objective(plane, "half_sq_dist", target=(0.0, 0.0))
    run = discrete_gradient_curve(f, plane, plane.point((1.0, 0.4)),
                                  [0.02] * 30)
    curve = run.interpolated_curve()
    y = plane.point((0.2, -0.1))
    times = curve.times
    for t in (times[2], times[10], times[20]):
        res = evi_residual(plane, f, curve, t, y, 0.02)
        assert res <= 0.05


def test_contraction_half_sq_dist(plane):
    f = make_objective(plane, "half_sq_dist", target=(0.0, 0.0))
    r1 = discrete_gradient_curve(f, plane, plane.point((1.0, 0.5)), [0.5] * 6)
    r2 = discrete_gradient_curve(f, plane, plane.point((-0.5, 1.0)), [0.5] * 6)
    rep = contraction_check(plane, f, r1, r2)
    assert rep.passed and not rep.informational
    # identical starts keep distance zero
    r3 = discrete_gradient_curve(f, plane, plane.point((1.0, 0.5)), [0.5] * 6)
    rep = contraction_check(plane, f, r1, r3)
    assert rep.passed and rep.max_violation == 0.0
    # mismatched schedules are an input error
    r4 = discrete_gradient_curve(f, plane, plane.point((0.0, 1.0)), [0.4] * 6)
    with pytest.raises(GeometryError):
        contraction_check(plane, f, r1, r4)


def test_contraction_informational_for_quasiconvex():
    space = sc.EuclideanSpace(1)
    f = make_objective(space, "ripple_vee")
    r1 = discrete_gradient_curve(f, space, space.point((3.0,)), [0.5] * 4)
    r2 = discrete_gradient_curve(f, space, space.point((-2.0,)), [0.5] * 4)
    rep = contraction_check(space, f, r1, r2)
    assert rep.informational


def test_gradient_runs_self_contracted_both_modes(rng):
    """Resolvent runs are self-contracted, discrete and interpolated."""
    spaces = [sc.EuclideanSpace(2), sc.SpiderSpace(3), sc.BookSpace(2),
              sc.HyperbolicPlane()]
    for i, space in enumerate(spaces):
        f = make_objective(space, "dist", target=space.random_point(rng, 1.0))
        run = discrete_gradient_curve(f, space, space.random_point(rng, 1.0),
                                      [0.6] * 6)
        assert is_self_contracted(space, run.discrete_curve()).passed
        assert is_self_contracted(space, run.interpolated_curve()).passed
        assert angle_estimate_sweep(space, run.discrete_curve()).passed


KERNEL_SPACES = [
    sc.EuclideanSpace(1),
    sc.EuclideanSpace(2),
    sc.EuclideanSpace(3),
    sc.HyperbolicPlane(),
    sc.SpiderSpace(4),
    sc.BookSpace(3),
    sc.load_tree_file("edge a b 1.0\nedge b c 2.0\nedge b d 0.5\nedge d e 1.5\nedge b f 0.7"),
    sc.ProductSpace(sc.EuclideanSpace(1), sc.SpiderSpace(3)),
]


def _germs(space, base, rng, m):
    """Germs at `base` toward m random points that differ from it."""
    germs = []
    while len(germs) < m:
        p = space.random_point(rng, 1.5).data
        if space._dist(base, p) > space.tolerance:
            germs.append(space._log(base, p)[0])
    return germs


def _spine_germs(book, base, rng, per_sheet):
    """Germs at a spine base toward `per_sheet` points in every sheet and
    toward spine points on both sides, so that germs (0, +-1.0, 0.0) run
    along the spine."""
    targets = [(sheet, float(rng.uniform(-1.5, 1.5)), float(rng.uniform(0.05, 1.5)))
               for _ in range(per_sheet) for sheet in range(1, book.k + 1)]
    targets += [(0, base[1] + 0.7, 0.0), (0, base[1] - 1.1, 0.0)]
    return [book._log(base, targets[i])[0] for i in rng.permutation(len(targets))]


def _line_targets(space, base, rng):
    """Points on both sides of `base` along one geodesic through it, and
    along a second geodesic turned 1e-9 from the first, for the spaces
    with polar angles: their germs are near-parallel or near-antipodal."""
    theta = float(rng.uniform(-math.pi, math.pi))
    steps = (0.3, 0.7, 1.1, -0.2, -0.9)
    if isinstance(space, sc.EuclideanSpace):
        v = rng.normal(size=space.dim)
        w = rng.normal(size=space.dim)
        return [tuple(float(c) for c in np.array(base) + t * (v + e * w))
                for e in (0.0, 1e-9) for t in steps]
    if isinstance(space, sc.HyperbolicPlane):
        e1, e2 = space.tangent_basis(base)
        return [space.exp(base, tuple(math.cos(theta + e) * x + math.sin(theta + e) * y
                                      for x, y in zip(e1, e2)), t)
                for e in (0.0, 1e-9) for t in steps]
    if isinstance(space, sc.BookSpace):
        sheet, a, b = base
        targets = []
        for e in (0.0, 1e-9):
            for t in steps:
                x, y = a + t * math.cos(theta + e), b + t * math.sin(theta + e)
                if sheet == 0:  # the line runs from sheet 1 into sheet 2
                    targets.append((1 if t > 0 else 2, x, abs(y)))
                elif y > 0:
                    targets.append((sheet, x, y))
                else:  # unfolded below the spine: the next sheet
                    targets.append((sheet % space.k + 1, x, -y))
        return targets
    return []


def _unit(t):
    return (math.cos(t), math.sin(t))


def _polar_sets(rng):
    """(x, y) germ sets in one frame whose polar angles tie: half-turn sets
    with a one-ulp twin of either end, repeated ends, a straight run's
    cluster, exactly antipodal pairs with pi and -pi together, angles 0.0
    and -0.0, sets spanning more than a half-turn across the cut at pi, and
    around the whole circle regular polygons and uniform sets, where many
    angles share the widest gap: each polygon both from wrapped angles and
    by repeated rotation, whose polar angles come from atan2 alone."""
    sets = []
    for width in (0.2, 1.0, math.pi / 2.0, math.pi - 1e-9):
        lo = float(rng.uniform(-math.pi, math.pi - width))
        (x0, y0), (x1, y1) = _unit(lo), _unit(lo + width)
        mid = [_unit(t) for t in rng.uniform(lo, lo + width, 3)]
        lo_twin = (x0, math.nextafter(y0, math.inf if x0 < 0 else -math.inf))
        hi_twin = (x1, math.nextafter(y1, -math.inf if x1 < 0 else math.inf))
        ends = [(x0, y0), (x1, y1)]
        sets += [mid[:1] + ends + [lo_twin] + mid[1:], [hi_twin] + ends[::-1] + mid,
                 [lo_twin, hi_twin] + mid + ends, ends + ends[:1] + mid + ends,
                 mid[:2] + ends[::-1] * 3]
    base = float(rng.uniform(-math.pi, math.pi))
    x, y = _unit(base)
    run = [(x, y)]
    for _ in range(7):
        run.append((run[-1][0], math.nextafter(run[-1][1], math.inf)))
    sets += [run, run[::-1], run[3:] + run[:3]]
    axes = [(-1.0, 0.0), (1.0, 0.0), (-1.0, -0.0), (0.0, 1.0), (0.0, -1.0), (1.0, -0.0)]
    sets += [axes, axes[::-1], [axes[i] for i in rng.permutation(6)], axes[:3], axes[3:5],
             [(1.0, 0.0), (1.0, -0.0), (2.0, -0.0)]]
    for _ in range(4):
        across = [_unit(math.pi - abs(t)) if t > 0 else _unit(-math.pi + abs(t))
                  for t in rng.normal(0.0, 0.4, 9)]
        sets += [across, across + [_unit(float(rng.uniform(-math.pi, math.pi)))]]
    sets.append([_unit(t) for t in rng.uniform(-math.pi, math.pi, 15)])
    for m in (3, 4, 5, 6, 7, 8, 17, 64, 199, 200):
        phase = float(rng.uniform(-math.pi, math.pi))
        wrapped = [_unit(math.remainder(phase + 2.0 * math.pi * i / m, 2.0 * math.pi))
                   for i in range(m)]
        step, rotated = complex(*_unit(2.0 * math.pi / m)), [complex(*_unit(phase))]
        while len(rotated) < m:
            rotated.append(rotated[-1] * step)
        rotated = [(z.real, z.imag) for z in rotated]
        sets += [wrapped, [rotated[i] for i in rng.permutation(m)]]
    sets += [[_unit(t) for t in rng.uniform(-math.pi, math.pi, m)] for m in (199, 200)]
    return sets


def _mirrored_spine_germs(book, rng):
    """Spine-base germs that tie at a turn of pi: for each sheet a germ at
    angle t and, in the next sheet, one at pi - t, with both spine rays."""
    t = float(rng.uniform(0.1, math.pi - 0.1))
    germs = [(0, 1.0, 0.0), (0, -1.0, 0.0)]
    for sheet in range(1, book.k + 1):
        other = sheet % book.k + 1
        germs += [spine_germ(sheet, math.cos(t), math.sin(t)),
                  spine_germ(other, -math.cos(t), math.sin(t))]
    return [germs[i] for i in rng.permutation(len(germs))]


def _germ_cases(space, rng):
    """(base, germs) cases: random bases, one germ, all-equal and
    duplicated germs, antipodal, near-parallel and near-antipodal sets, and
    the book spine and tree vertex bases where germs branch."""
    bases = [space.random_point(rng, 1.5).data for _ in range(6)]
    if isinstance(space, sc.BookSpace):
        bases += [(0, 0.3, 0.0), (0, -0.8, 0.0), (2, 0.1, 0.4)]
    if isinstance(space, sc.TreeSpace):
        bases += [space.point(rep).data for rep in space._vertex_rep]
    if isinstance(space, sc.SpiderSpace):
        bases.append((0, 0.0))
    cases = []
    for base in bases:
        cases.append((base, _germs(space, base, rng, 1)))
        cases.append((base, _germs(space, base, rng, 1) * 4))
        for m in (2, 5, 12):
            cases.append((base, _germs(space, base, rng, m)))
        germs = _germs(space, base, rng, 5)
        cases.append((base, germs + germs[3:0:-1]))
        targets = [q for q in _line_targets(space, base, rng)
                   if space._dist(base, q) > space.tolerance]
        if targets:
            cases.append((base, [space._log(base, q)[0] for q in targets]))
        if isinstance(space, (sc.EuclideanSpace, sc.HyperbolicPlane)):
            g = germs[0]
            cases.append((base, [g, tuple(-c for c in g)] + germs[1:]))
    if isinstance(space, sc.EuclideanSpace) and space.dim == 1:
        # _log rounds (b - a) / r to 1 or a neighbour of 1; -0.0 has polar
        # angle pi, as atan2 gives it
        below, above = math.nextafter(1.0, 0.0), math.nextafter(1.0, 2.0)
        near = [(below,), (1.0,), (above,), (below,)]
        cases += [(None, near), (None, near + [(-below,), (-1.0,)]),
                  (None, [(-below,), (-above,), (-1.0,)] + near),
                  (None, [(0.0,), (-0.0,)]), (None, [(-0.0,), (-1.0,), (below,)])]
    if isinstance(space, sc.EuclideanSpace) and space.dim == 2:
        # atan2 gives pi and -pi on the negative axis: one germ, angle 0
        axis = [(-1.0, 0.0), (-1.0, -0.0), (1.0, 0.0), (1.0, -0.0), (0.0, 1.0)]
        cases += [(None, axis), (None, axis[::-1])]
    if isinstance(space, sc.BookSpace):
        for spine in ((0, 0.3, 0.0), (0, -0.8, 0.0)):
            for per_sheet in (1, 3):
                cases.append((spine, _spine_germs(space, spine, rng, per_sheet)))
        spine = (0, 0.3, 0.0)
        along = [(0, 1.0, 0.0), (0, -1.0, 0.0)]
        cases.append((spine, along + _germs(space, spine, rng, 4)))
        # a cross-sheet pair and the along-spine pair both at angle pi:
        # loop order alone picks the witness
        up = [(1, 0.0, 1.0), (2, 0.0, 1.0)]
        cases.append((spine, up + along))
        cases.append((spine, along[:1] + up + along[1:]))
        # a cross-sheet pair from a bending run's sweep: its turn must not
        # depend on the order of the pair
        cases.append((spine, [(1, -0.030199081137974683, 0.9995439037373106),
                              (2, -0.038294307549995396, 0.9992665039964396)]))
        # a spine ray and a germ in a sheet meet at the gap of their polar
        # angles, which here differs from the turn in the last bits
        cases.append((spine, [(0, -1.0, 0.0), (1, -0.41712332493858084, 0.9088498950828916)]))
        cases.append(((2, 0.1, 0.4), [(2, -1.0, 0.0), (2, -1.0, -0.0), (2, 0.6, 0.8)]))
        # germs in one sheet keep the polar path at the spine, with both
        # spine rays, with the +spine ray alone and with neither
        for spine in ((0, 0.3, 0.0), (0, -0.8, 0.0)):
            one = [g for g in _spine_germs(space, spine, rng, 3) if g[0] in (0, 2)]
            cases += [(spine, one), (spine, [g for g in one if g != (0, -1.0, 0.0)]),
                      (spine, [g for g in one if g[0]])]
        for spine in ((0, 0.3, 0.0), (0, -0.8, 0.0)):
            cases.append((spine, _mirrored_spine_germs(space, rng)))
            cases.append((spine, _spine_germs(space, spine, rng, 2)
                          + _mirrored_spine_germs(space, rng)))
        cases += [((1, 0.2, 0.5), [(1, *g) for g in germs]) for germs in _polar_sets(rng)]
    if isinstance(space, sc.EuclideanSpace) and space.dim == 2:
        cases += [(None, germs) for germs in _polar_sets(rng)]
    return cases


@pytest.mark.parametrize("space", KERNEL_SPACES + [sc.BookSpace(5)],
                         ids=lambda s: s.describe())
def test_germ_diameter_matches_the_base_loop(space, rng):
    """Every `_germ_diameter` override is the scalar double loop, bit for bit."""
    for base, germs in _germ_cases(space, rng):
        for limit in (math.pi / 2.0, 0.3, 0.0):
            excess, a, b = space._germ_diameter(base, germs, limit)
            ref = Space._germ_diameter(space, base, germs, limit)
            assert (excess.hex(), a, b) == (ref[0].hex(), ref[1], ref[2])


def test_book_germ_diameter_takes_the_loop_at_multi_sheet_spine_bases(monkeypatch, rng):
    """`BookSpace._germ_diameter` hands a spine base whose germs lie in two
    or more sheets to the scalar loop, and every other base to the polar
    path; the book:3 run of the 961-sample budget reaches the loop nowhere."""
    loop, calls = Space._germ_diameter, []

    def spy(self, base, germs, limit):
        calls.append((base, germs))
        return loop(self, base, germs, limit)

    monkeypatch.setattr(Space, "_germ_diameter", spy)
    book, kinds = sc.BookSpace(5), set()
    for base, germs in _germ_cases(book, rng):
        calls.clear()
        book._germ_diameter(base, germs, math.pi / 2.0)
        sheets = len({g[0] for g in germs} - {0}) if base[0] == 0 else None
        kinds.add(sheets)
        assert calls == ([(base, germs)] if sheets and sheets > 1 else [])
    assert {None, 1, 5} <= kinds
    curve = _budget_curve(sc.BookSpace(3), (2, -1.0, 1.0), (1, 0.5, 0.5))
    calls.clear()
    angle_estimate_sweep(sc.BookSpace(3), curve)
    assert calls == []


# polar angles near a few anchors, some of them a few ulps apart
_ANCHORS = st.sampled_from([0.0, -0.0, 0.4, math.pi / 2.0, 2.0, math.pi, -math.pi, -1.0, -2.9])


@st.composite
def _angles(draw):
    anchors = draw(st.lists(st.one_of(_ANCHORS, st.floats(-math.pi, math.pi)),
                            min_size=1, max_size=4))
    out = []
    for _ in range(draw(st.integers(1, 24))):
        t = draw(st.sampled_from(anchors))
        for _ in range(draw(st.integers(0, 3))):
            t = math.nextafter(t, draw(st.sampled_from([-math.inf, math.inf])))
        out.append(min(max(t, -math.pi), math.pi))
    return out


@settings(max_examples=300, deadline=None, derandomize=True)
@given(angles=_angles(), sheets=st.lists(st.integers(0, 5), min_size=24, max_size=24),
       limit=st.sampled_from([math.pi / 2.0, 0.3, math.pi / 4.0, 0.0]))
def test_germ_diameter_matches_the_base_loop_on_polar_sets(angles, sheets, limit):
    """Random polar sets, rich in repeated and one-ulp-apart angles: the
    plane's germs at those angles, and a book:5 spine base's germs in the
    drawn sheets (0 for the spine ray nearest the angle), match the loop."""
    plane, book = sc.EuclideanSpace(2), sc.BookSpace(5)
    germs = [_unit(t) for t in angles]
    got = plane._germ_diameter(None, germs, limit)
    ref = Space._germ_diameter(plane, None, germs, limit)
    assert (got[0].hex(), got[1:]) == (ref[0].hex(), ref[1:])
    spine = (0, 0.0, 0.0)
    germs = [spine_germ(s, math.cos(abs(t)), math.sin(abs(t))) if s else
             (0, 1.0 if abs(t) < math.pi / 2.0 else -1.0, 0.0)
             for t, s in zip(angles, sheets)]
    got = book._germ_diameter(spine, germs, limit)
    ref = Space._germ_diameter(book, spine, germs, limit)
    assert (got[0].hex(), got[1:]) == (ref[0].hex(), ref[1:])


def _row_payloads(space, rng):
    """20 random payloads and the ones where `_dist` branches or rounds
    apart: tree vertex representatives and pairs on one edge, the spider
    centre and one leg, both book spine rays and every sheet, coincident
    and far H^2 points, overflowing and underflowing Euclidean squares,
    and -0.0 coordinates."""
    if isinstance(space, sc.ProductSpace):
        left, right = _row_payloads(space.left, rng), _row_payloads(space.right, rng)
        return (list(zip(left, right))
                + [(p, right[-1]) for p in left[20:]] + [(left[-1], p) for p in right[20:]])
    pts = [space.random_point(rng, 1.5).data for _ in range(20)]
    if isinstance(space, sc.EuclideanSpace):
        # in three coordinates, squares of 1e154 sum past the largest double
        ext = [1e154, -1e154, 1e-200, -1e-200, 0.0, -0.0]
        extremes = [(c,) * space.dim for c in ext]
        extremes += [tuple(ext[(i + j) % 6] for j in range(space.dim)) for i in range(6)]
        pts += [space.point(p).data for p in extremes]
    if isinstance(space, sc.HyperbolicPlane):
        e1, e2 = space._origin_basis
        for r in (0.5, 2.0, 4.0, 6.0, 8.0):
            theta = float(rng.uniform(-math.pi, math.pi))
            pts.append(space.exp(space.origin(), tuple(
                math.cos(theta) * x + math.sin(theta) * y for x, y in zip(e1, e2)), r))
        pts += [space.point(1.0, -0.0, 0.0).data, space.origin(),
                space._canonical(space._geodesic(pts[0], pts[1], 1e-12))]
    if isinstance(space, sc.SpiderSpace):
        pts += [(0, 0.0), (1, 0.25), (1, 0.75), (2, 1.0)]
    if isinstance(space, sc.BookSpace):
        pts += [space.point(p).data for p in ((0, 0.7, 0.0), (0, -1.2, 0.0), (0, -0.0, 0.0))]
        pts += [(sheet, 0.3, 0.5) for sheet in range(1, space.k + 1)] + [(1, -0.0, 1.0)]
    if isinstance(space, sc.TreeSpace):
        pts += [space.point(rep).data for rep in space._vertex_rep]
        pts += [(ei, f * length) for ei, (_, _, length) in enumerate(space.edges)
                for f in (0.25, 0.75)]
    return pts


@pytest.mark.parametrize("space", KERNEL_SPACES, ids=lambda s: s.describe())
def test_dist_row_matches_the_scalar_distance(space, rng):
    """Every row kernel is the base class's `_dist` loop from its first
    point, bit for bit, over all ordered pairs, each point with itself
    included."""
    pts = _row_payloads(space, rng)
    for a in pts:
        row = space._dist_row(a, pts)
        assert [d.hex() for d in row] == [d.hex() for d in Space._dist_row(space, a, pts)]
        assert all(type(d) is float for d in row)
        assert space._dist_row(a, []) == []


def _exact(value):
    """A payload with every float as its hex string, every other leaf kept
    with its type, so == compares bit for bit."""
    if isinstance(value, tuple):
        return tuple(_exact(v) for v in value)
    return value.hex() if type(value) is float else (type(value), value)


@pytest.mark.parametrize("space", KERNEL_SPACES, ids=lambda s: s.describe())
def test_log_row_matches_the_scalar_log(space, rng):
    """Every `_log_row` override is the scalar `_log` loop, bit for bit, at
    random bases and at the book spine, tree vertex, spider centre and
    spider leg bases, toward payloads on the base's own edge or leg.  Trees,
    spiders and books take `_log` from a one-point row, so there the loop
    is checked against the former scalar rules in `tests/test_spaces.py`."""
    pts = [space.random_point(rng, 1.5).data for _ in range(20)]
    bases = pts[:5]
    if isinstance(space, sc.BookSpace):
        bases += [(0, 0.3, 0.0), (0, -0.8, 0.0)]
        pts += [(0, 1.2, 0.0), (0, -1.4, 0.0), (0, 0.3, 0.0)]
    if isinstance(space, sc.TreeSpace):
        bases += [space.point(rep).data for rep in space._vertex_rep]
        pts += bases[5:]
        pts += [(ei, f * length) for ei, (_, _, length) in enumerate(space.edges)
                for f in (0.25, 0.75)]
    if isinstance(space, sc.SpiderSpace):
        bases += [(0, 0.0), (1, 0.25), (1, 0.75), (space.k, 1.0)]
        pts += [(0, 0.0), (1, 0.25), (1, 0.5), (1, 0.75), (1, 1.0), (2, 0.25)]
    for base in bases:
        later = [b for b in pts if space._dist(base, b) > space.tolerance]
        row = space._log_row(base, later, space._dist_row(base, later))
        assert [_exact(g) for g in row] == [_exact(space._log(base, b)[0]) for b in later]
        assert space._log_row(base, [], []) == []


def test_germ_diameter_witness_is_first_by_excess():
    """Two distinct polar gaps below pi/4 that round to the same excess:
    the pair that comes first in loop order wins, though its angle is
    smaller."""
    plane = sc.EuclideanSpace(2)
    y = math.sqrt(1.0 - 0.9 * 0.9)
    germs = [(1.0, 0.0), (0.9, y), (0.9, math.nextafter(y, 1.0))]
    limit = math.pi / 2.0
    ang1 = plane._angle(None, germs[0], germs[1])
    ang2 = plane._angle(None, germs[0], germs[2])
    assert ang1 < ang2 < math.pi / 4.0
    assert ang1 - limit == ang2 - limit
    assert plane._germ_diameter(None, germs, limit) == (ang1 - limit, 0, 1)
    assert Space._germ_diameter(plane, None, germs, limit) == (ang1 - limit, 0, 1)


def effective_points(space, curve, cfg=DEFAULT_SAMPLING):
    """The checks' effective samples as (time, Point) pairs, for the
    references that go through the public space calls."""
    times, payloads = _effective_samples(space, curve, cfg)
    return [(t, Point(space, p)) for t, p in zip(times, payloads)]


def scalar_angle_sweep(space, curve, limit=math.pi / 2.0):
    """The angle sweep as one Python call per triple, through the public
    `log_direction` and `direction_angle`: the reference for the kernels."""
    samples = effective_points(space, curve)
    worst, witness, n_checked = -math.inf, None, 0
    for i, (ti, base) in enumerate(samples):
        germs = [(tj, space.log_direction(base, pj)[0]) for tj, pj in samples[i + 1:]
                 if not space.same_point(base, pj)]
        for a in range(len(germs)):
            for b in range(a, len(germs)):
                ang = space.direction_angle(germs[a][1], germs[b][1])
                n_checked += 1
                if ang - limit > worst:
                    worst = ang - limit
                    witness = {"tau": ti, "t1": germs[a][0], "t2": germs[b][0],
                               "angle": ang}
    return (worst if n_checked else 0.0), witness, max(n_checked, 1)


@pytest.mark.parametrize("space", KERNEL_SPACES, ids=lambda s: s.describe())
def test_angle_sweep_matches_the_scalar_sweep(space, rng):
    """Random curves, passing and failing, with repeated samples, and on
    books a curve that crosses the spine between sheets."""
    curves = []
    for trial in range(6):
        pts = [space.random_point(rng, 1.3) for _ in range(int(rng.integers(1, 6)))]
        if len(pts) > 3:
            pts[2] = pts[0]
        curves.append(pts)
    if isinstance(space, sc.BookSpace):
        curves.append([space.point(p) for p in ((1, -0.6, 0.8), (0, 0.1, 0.0),
                                                (2, 0.5, 0.4), (3, -0.2, 1.1),
                                                (1, 0.9, 0.3), (0, -0.7, 0.0))])
    for pts in curves:
        for mode in ("discrete", "geodesic"):
            curve = sc.make_curve(pts, mode=mode)
            rep = angle_estimate_sweep(space, curve)
            worst, witness, n_checked = scalar_angle_sweep(space, curve)
            assert rep.max_violation.hex() == worst.hex()
            assert rep.witness == witness
            assert rep.n_checked == n_checked


def loop_angle_estimate_check(space, curve, tau, t1, t2):
    """angle_estimate_check through the public `same_point`,
    `log_direction` and `direction_angle`: the reference."""
    if not (t1 > tau and t2 > tau):
        raise GeometryError("need t1, t2 > tau")
    base = curve.point_at(tau)
    p1 = curve.point_at(t1)
    p2 = curve.point_at(t2)
    if space.same_point(base, p1) or space.same_point(base, p2):
        raise GeometryError("degenerate triple: later point equals xi(tau)")
    d1, _ = space.log_direction(base, p1)
    d2, _ = space.log_direction(base, p2)
    return space.direction_angle(d1, d2)


def _angle_or_refusal(check, *args):
    try:
        return check(*args)
    except GeometryError as e:
        return str(e)


@pytest.mark.parametrize("mode", ["discrete", "geodesic"])
@pytest.mark.parametrize("space", GERM_SPACES, ids=lambda s: s.describe())
def test_angle_estimate_check_matches_the_point_level_loop(space, mode, rng):
    """400 triples per space and curve mode, at sample times and between
    them, on curves with a repeated sample, some with t1 or t2 not after
    tau.  Every angle and every refusal is the reference's, bit for bit,
    but on H^2, where `log_direction` re-canonicalizes the base, so the
    reference's angle may differ by up to 2 ulp(pi)."""
    outcomes = {"angle": 0, "refused": 0}
    for trial in range(40):
        pts = [space.random_point(rng, 1.3) for _ in range(int(rng.integers(2, 7)))]
        if len(pts) > 3:
            pts[3] = pts[1]
        curve = sc.make_curve(pts, mode=mode)
        times = curve.times
        for _ in range(10):
            tau, t1, t2 = sorted(float(times[int(rng.integers(len(times)))])
                                 if rng.random() < 0.5
                                 else float(rng.uniform(times[0], times[-1]))
                                 for _ in range(3))
            if rng.random() < 0.5:
                t1, t2 = t2, t1
            got = _angle_or_refusal(angle_estimate_check, space, curve, tau, t1, t2)
            ref = _angle_or_refusal(loop_angle_estimate_check, space, curve, tau, t1, t2)
            assert type(got) is type(ref), (got, ref)
            if isinstance(ref, str):
                assert got == ref
                outcomes["refused"] += 1
                continue
            outcomes["angle"] += 1
            if isinstance(space, sc.HyperbolicPlane):
                assert abs(got - ref) <= 2.0 * math.ulp(math.pi), (got, ref)
            else:
                assert got.hex() == ref.hex()
    assert outcomes["angle"] >= 100 and outcomes["refused"] >= 20, outcomes


@pytest.mark.parametrize("space", GERM_SPACES, ids=lambda s: s.describe())
def test_angle_estimate_check_returns_the_sweep_witness_angle(space, rng):
    """On discrete curves the check at the sweep's witness times returns
    the witness angle bit for bit, since both read the same kernels at the
    same payload.  The Point-level loop missed it on H^2 by an ulp or two
    at a few of these witnesses."""
    witnesses = 0
    for trial in range(150):
        pts = [space.random_point(rng, 1.5) for _ in range(int(rng.integers(2, 9)))]
        curve = sc.make_curve(pts, mode="discrete")
        w = angle_estimate_sweep(space, curve).witness
        if w is None:
            continue
        witnesses += 1
        angle = angle_estimate_check(space, curve, w["tau"], w["t1"], w["t2"])
        assert angle.hex() == w["angle"].hex(), (w, angle)
    assert witnesses >= 100


def test_angle_sweep_budget_on_a_481_sample_plane_run():
    """One sweep of a 60-step half_sq_dist run at tau = 0.05, interpolated
    and densified to 481 samples, in under 0.4 s (0.06-0.1 s with the sorted
    polar sweep, 0.4-0.5 s with the germ-gap matrix before it and 1.1-1.8 s
    with the germ-cosine matrix before that).  The run is straight, so its
    witness angle is rounding: 1.3e-13, where the arccos gave 3.7e-8."""
    plane = sc.EuclideanSpace(2)
    f = make_objective(plane, "half_sq_dist", target=(0.5, -0.25))
    run = discrete_gradient_curve(f, plane, plane.point((1.5, 1.0)), [0.05] * 60)
    curve = sc.geodesic_interpolation(plane, run)
    assert len(_effective_samples(plane, curve, DEFAULT_SAMPLING)[0]) == 481
    t0 = time.perf_counter()
    rep = angle_estimate_sweep(plane, curve)
    dt = time.perf_counter() - t0
    assert rep.witness["angle"] < 1e-11
    assert dt < 0.4, f"angle sweep took {dt:.2f}s"


def _budget_curve(space, start, target):
    """A 120-step half_sq_dist run at tau = 0.05 from start to target,
    interpolated; its sweep sees 961 samples."""
    f = make_objective(space, "half_sq_dist", target=space.point(target))
    run = discrete_gradient_curve(f, space, space.point(start), [0.05] * 120)
    curve = sc.geodesic_interpolation(space, run)
    assert len(_effective_samples(space, curve, DEFAULT_SAMPLING)[0]) == 961
    return curve


@pytest.mark.parametrize("space, start, target", [
    (sc.EuclideanSpace(2), (1.5, 1.0), (0.5, -0.25)),
    (sc.HyperbolicPlane(), (math.cosh(1.2), 0.6 * math.sinh(1.2), -0.8 * math.sinh(1.2)),
     (math.cosh(0.5), math.sinh(0.5), 0.0)),
    (sc.BookSpace(3), (2, -1.0, 1.0), (1, 0.5, 0.5)),
], ids=["euclidean2", "hyperbolic2", "book3"])
def test_angle_sweep_budget_on_961_sample_runs(space, start, target):
    """One sweep of a 120-step half_sq_dist run at tau = 0.05, interpolated
    and densified to 961 samples, in under 1.2 s: one sort per base makes
    it 0.2-0.6 s, where the germ-gap matrix took 2.3-3.4 s.  Each run goes
    straight to its target (the book's through the spine), so it passes."""
    curve = _budget_curve(space, start, target)
    t0 = time.perf_counter()
    rep = angle_estimate_sweep(space, curve)
    dt = time.perf_counter() - t0
    assert rep.passed
    assert dt < 1.2, f"angle sweep took {dt:.2f}s on {space.describe()}"


@pytest.mark.parametrize("space", [sc.EuclideanSpace(2), sc.HyperbolicPlane(), sc.BookSpace(3)],
                         ids=lambda s: s.describe())
def test_angle_sweep_budget_on_961_sample_failing_runs(space):
    """One sweep of a geodesic curve through 121 random points, densified to
    961 samples, in under 3 s (0.5-0.7 s measured).  Most of its bases see
    germs over more than a half-turn, so this times the two-pointer pass
    over each angle's widest gap, which must stay O(m) per frame."""
    rng = np.random.default_rng(3)
    curve = sc.make_curve([space.random_point(rng, 1.5) for _ in range(121)], mode="geodesic")
    assert len(_effective_samples(space, curve, DEFAULT_SAMPLING)[0]) == 961
    t0 = time.perf_counter()
    rep = angle_estimate_sweep(space, curve)
    dt = time.perf_counter() - t0
    assert not rep.passed
    assert dt < 3.0, f"angle sweep took {dt:.2f}s on {space.describe()}"


@pytest.mark.parametrize("check", [angle_estimate_sweep, is_self_contracted,
                                   tail_halving_check, stationarity_check])
def test_payload_checks_own_the_curve(check, plane):
    """The checks work on raw payloads, but a curve from another space is
    still refused, and one from an equal space object is accepted."""
    curve = segment_curve(plane)
    with pytest.raises(SpaceMismatchError):
        check(sc.SpiderSpace(3), curve)
    twin = sc.EuclideanSpace(2)
    assert twin is not plane
    assert check(twin, curve).to_json() == check(plane, curve).to_json()


@pytest.mark.parametrize("times, message", [
    ((0.0, 1.0, math.nextafter(1.0, 2.0)), "strictly increasing"),
    ((0.0, 1e308, 1.7e308), "finite"),
], ids=["adjacent-floats", "overflowing-midpoints"])
def test_densified_times_are_checked_as_a_curve_checks_them(plane, times, message):
    """A midpoint between adjacent floats repeats a time, and the midpoint
    of two huge times overflows: the three checks that densify refuse
    both, as a Curve of those samples would, and stationarity_check, which
    reads the samples as they are, passes."""
    curve = sc.make_curve([plane.point((float(i), 0.0)) for i in range(3)], times,
                          mode="geodesic", domain_end=math.inf)
    for check in (is_self_contracted, tail_halving_check, angle_estimate_sweep):
        with pytest.raises(GeometryError, match=f"sample times must be {message}"):
            check(plane, curve)
    assert stationarity_check(plane, curve).passed


@pytest.mark.parametrize("check", [is_self_contracted, tail_halving_check,
                                   angle_estimate_sweep])
def test_densifying_checks_sample_through_curve_densified(check, plane, monkeypatch):
    """Each densifying check takes its samples from one
    `Curve.densified(cfg.densify_levels)` call, so what observes that
    method (the benchmark's traced run does) sees every check's sampling."""
    calls, densified = [], sc.Curve.densified

    def spy(curve, levels=3):
        calls.append(levels)
        return densified(curve, levels)

    monkeypatch.setattr(sc.Curve, "densified", spy)
    curve = sc.make_curve([plane.point((x, 0.0)) for x in (0.0, 1.0, 1.5)],
                          mode="geodesic")
    check(plane, curve, SamplingConfig(densify_levels=2))
    assert calls == [2]


def loop_tail_monotonicity(space, curve, T, tol=VIOLATION_TOL):
    """tail_monotonicity as its own running-minimum loop: the reference."""
    target = curve.point_at(T)
    worst, witness, run_min, run_min_t, n_checked = 0.0, None, math.inf, None, 0
    for t, p in curve.samples:
        if t > T + 1e-12:
            break
        d = space.distance(p, target)
        n_checked += 1
        if d - run_min > worst:
            worst = d - run_min
            witness = {"t1": run_min_t, "t2": t, "T": T, "d_t1_T": run_min, "d_t2_T": d}
        if d < run_min:
            run_min, run_min_t = d, t
    return ViolationReport("tail_monotonicity", worst, n_checked, tol, witness)


def loop_contraction(space, objective, run1, run2, tol=1e-6):
    """contraction_check as its own running-minimum loop: the reference."""
    worst, witness, run_min, run_min_k = 0.0, None, math.inf, None
    n = min(len(run1.points), len(run2.points))
    for k in range(n):
        d = space.distance(run1.points[k], run2.points[k])
        if d - run_min > worst:
            worst = d - run_min
            witness = {"k_earlier": run_min_k, "k": k, "d_earlier": run_min, "d": d}
        if d < run_min:
            run_min, run_min_k = d, k
    return ViolationReport("contraction", worst, n, tol, witness,
                           informational=not objective.is_convex)


def loop_ball_confinement(space, curve, x, r, tol=VIOLATION_TOL):
    """ball_confinement_check with its before/after visit passes: the reference."""
    samples = list(curve.samples)
    dists = [space.distance(x, p) for _, p in samples]
    n = len(samples)
    before, after, seen = [False] * n, [False] * n, False
    for i in range(n):
        before[i] = seen
        seen = seen or dists[i] <= r
    seen = False
    for i in range(n - 1, -1, -1):
        after[i] = seen
        seen = seen or dists[i] <= r
    worst, witness, n_checked = 0.0, None, 0
    for i in range(n):
        if before[i] and after[i]:
            n_checked += 1
            if dists[i] - 3.0 * r > worst:
                worst = dists[i] - 3.0 * r
                witness = {"t": samples[i][0], "d_to_center": dists[i], "allowed": 3.0 * r}
    return ViolationReport("ball_confinement", worst, max(n_checked, 1), tol, witness)


def _wandering_curve(space, rng, n, mode="discrete"):
    """Random samples, so the checks below see rises, repeats and returns."""
    pts = [space.random_point(rng, 1.5) for _ in range(n)]
    pts[n // 2] = pts[1]
    return sc.make_curve(pts, mode=mode)


@pytest.mark.parametrize("space", KERNEL_SPACES, ids=lambda s: s.describe())
def test_running_minimum_checks_match_their_loops(space, rng):
    """tail_monotonicity, contraction_check and ball_confinement_check agree
    with their own loops in every report field, witnesses included."""
    violated = {"tail": 0, "contraction": 0, "ball": 0}
    for trial in range(8):
        curve = _wandering_curve(space, rng, int(rng.integers(3, 12)))
        for T in (curve.times[-1], curve.times[len(curve.times) // 2]):
            rep = tail_monotonicity(space, curve, T)
            assert rep.to_json() == loop_tail_monotonicity(space, curve, T).to_json()
            violated["tail"] += not rep.passed
        f = make_objective(space, "half_sq_dist", target=curve.points[0])
        n = len(curve.points)
        runs = [GradientCurveRun(space, f, (0.5,) * (n - 1),
                                 tuple(_wandering_curve(space, rng, n).points), (0.0,) * n)
                for _ in range(2)]
        rep = contraction_check(space, f, *runs)
        assert rep.to_json() == loop_contraction(space, f, *runs).to_json()
        violated["contraction"] += not rep.passed
        for x in (curve.points[0], curve.points[1], space.random_point(rng, 1.0)):
            for r in (0.05, 0.3, 1.0):
                rep = ball_confinement_check(space, curve, x, r)
                assert rep.to_json() == loop_ball_confinement(space, curve, x, r).to_json()
                violated["ball"] += not rep.passed
    assert all(violated.values()), violated


def loop_self_contracted(space, curve, tol=VIOLATION_TOL):
    """is_self_contracted as a running minimum over t1 < t2 per t3, through
    the public `distance`: the reference."""
    samples = effective_points(space, curve)
    n = len(samples)
    worst, witness = 0.0, None
    for k in range(1, n):
        tk, pk = samples[k]
        run_min, run_min_t = math.inf, None
        for i in range(k):
            ti, pi = samples[i]
            d = space.distance(pi, pk)
            if d - run_min > worst:
                worst = d - run_min
                witness = {"t1": run_min_t, "t2": ti, "t3": tk, "d_t1_t3": run_min,
                           "d_t2_t3": d, "p3": space._point_json(pk.data)}
            if d < run_min:
                run_min, run_min_t = d, ti
    return ViolationReport("self_contracted", worst, n * (n - 1) // 2, tol, witness)


def loop_tail_halving(space, curve, tol=VIOLATION_TOL):
    """tail_halving_check with the minimum over later samples taken afresh
    for every (tau, T): the reference."""
    samples = effective_points(space, curve)
    n = len(samples)
    worst, witness, n_checked = 0.0, None, 0
    for i, (ti, pi) in enumerate(samples):
        dists = [space.distance(pi, p) for _, p in samples]
        for j in range(i + 1, n):
            later = min(dists[j:])
            n_checked += 1
            if dists[j] / 2.0 - later > worst:
                worst = dists[j] / 2.0 - later
                witness = {"tau": ti, "T": samples[j][0], "d_T_tau": dists[j],
                           "min_later": later}
    return ViolationReport("tail_halving", worst, max(n_checked, 1), tol, witness)


@pytest.mark.parametrize("space", KERNEL_SPACES, ids=lambda s: s.describe())
def test_sampled_checks_match_their_loops(space, rng):
    """is_self_contracted and tail_halving_check agree with their own loops
    in every report field on wandering curves, discrete and densified."""
    violated = {"self_contracted": 0, "tail_halving": 0}
    for trial in range(6):
        for mode, n in (("discrete", int(rng.integers(2, 12))),
                        ("geodesic", int(rng.integers(2, 5)))):
            curve = _wandering_curve(space, rng, n, mode)
            rep = is_self_contracted(space, curve)
            assert rep.to_json() == loop_self_contracted(space, curve).to_json()
            violated["self_contracted"] += not rep.passed
            rep = tail_halving_check(space, curve)
            assert rep.to_json() == loop_tail_halving(space, curve).to_json()
            violated["tail_halving"] += not rep.passed
    assert all(violated.values()), violated


def loop_stationarity(space, curve, tol=VIOLATION_TOL):
    """stationarity_check as the cubic loop over every revisit (i, j) and
    every k between them, through the public `distance`: the reference."""
    samples = list(curve.samples)
    n = len(samples)
    worst, witness, n_checked = 0.0, None, 0
    for i in range(n):
        ti, pi = samples[i]
        for j in range(i + 2, n):
            tj, pj = samples[j]
            if space.distance(pi, pj) > space.tolerance:
                continue
            for k in range(i + 1, j):
                tk, pk = samples[k]
                dev = space.distance(pi, pk)
                n_checked += 1
                if dev > worst:
                    worst = dev
                    witness = {"t1": ti, "t2": tk, "t3": tj, "deviation": dev}
    return ViolationReport("stationarity", worst, max(n_checked, 1),
                           max(tol, space.tolerance), witness)


def loop_diameter(points):
    """metric.diameter as the double loop over pairs: the reference."""
    best = 0.0
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            d = points[0].space.distance(points[i], points[j])
            if d > best:
                best = d
    return best


def loop_contains_neighborhood(region, points, margin):
    """NeighborhoodRegion.contains_neighborhood as a loop over the points,
    each taking the minimum over the centres: the reference."""
    for p in points:
        if min(region.space.distance(p, q) for q in region.points) > region.radius - margin + 1e-12:
            return False
    return True


def loop_densified(curve, levels=3):
    """Curve.densified with each midpoint through the public
    `geodesic_point`: the reference."""
    if curve.mode != "geodesic" or levels <= 0 or len(curve.samples) < 2:
        return curve
    samples = list(curve.samples)
    for _ in range(levels):
        out = []
        for (t0, p0), (t1, p1) in zip(samples, samples[1:]):
            out += [(t0, p0), (0.5 * (t0 + t1), curve.space.geodesic_point(p0, p1, 0.5))]
        samples = out + samples[-1:]
    times, points = zip(*samples)
    return sc.make_curve(points, times, mode="geodesic", domain_end=curve.domain_end)


def loop_suffix_tail_halving(space, curve, tol=VIOLATION_TOL):
    """tail_halving_check with its suffix minimum built by one `min()` per
    element, on the `loop_densified` samples, through the public
    `distance`: the reference."""
    samples = effective_points(space, loop_densified(curve), SamplingConfig(densify_levels=0))
    worst, witness, n_checked = 0.0, None, 0
    for i, (ti, pi) in enumerate(samples):
        dists = [space.distance(pi, p) for _, p in samples[i + 1:]]
        suffix_min = list(dists)
        for j in range(len(dists) - 2, -1, -1):
            suffix_min[j] = min(suffix_min[j], suffix_min[j + 1])
        for j, dT in enumerate(dists):
            n_checked += 1
            if dT / 2.0 - suffix_min[j] > worst:
                worst = dT / 2.0 - suffix_min[j]
                witness = {"tau": ti, "T": samples[i + 1 + j][0], "d_T_tau": dT,
                           "min_later": suffix_min[j]}
    return ViolationReport("tail_halving", worst, max(n_checked, 1), tol, witness)


def _bits(value):
    """`value` with every float replaced by its float.hex, so that equal
    means equal bit for bit (signed zeros included)."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {k: _bits(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_bits(v) for v in value]
    return value


ROW_SPACES = [sc.parse_space_spec(spec) for spec in (
    "euclidean:1", "euclidean:2", "euclidean:3", "hyperbolic2", "spider:3", "book:2",
    "book:3", "product:[euclidean:1|spider:3]")] + [sc.random_tree(5, 14, 5)]


def _revisiting_curve(space, rng, mode):
    """Random samples that come back: exact repeats of an earlier sample,
    points within the space's tolerance of one, and runs that stay put."""
    n = int(rng.integers(3, 13))
    pts = [space.random_point(rng, 1.5) for _ in range(n)]
    for _ in range(int(rng.integers(1, 4))):
        i, j = sorted(int(v) for v in rng.choice(n, 2, replace=False))
        kind = int(rng.integers(3))
        if kind == 0:
            pts[j] = pts[i]
        elif kind == 1:
            pts[j] = space.geodesic_point(pts[i], pts[(i + 1) % n], 1e-12)
        else:
            pts[i:j + 1] = [pts[i]] * (j - i + 1)
    return sc.make_curve(pts, mode=mode)


@pytest.mark.parametrize("space", ROW_SPACES, ids=lambda s: s.describe())
def test_row_readers_match_their_loops_bit_for_bit(space, rng):
    """stationarity_check, tail_halving_check, ball_confinement_check,
    diameter and contains_neighborhood read distance rows, and
    Curve.densified takes payload midpoints; each agrees with its scalar
    loop bit for bit on 60 revisiting curves, half discrete and half
    geodesic, the midpoints at levels 0 to 3."""
    seen = {"revisits": 0, "stationarity": 0, "halving": 0, "ball": 0,
            "inside": 0, "outside": 0}
    for trial in range(60):
        curve = _revisiting_curve(space, rng, ("discrete", "geodesic")[trial % 2])
        for levels in range(4):
            want = _bits([(t, p.data) for t, p in loop_densified(curve, levels).samples])
            assert _bits([(t, p.data) for t, p in curve.densified(levels).samples]) == want
        rep = stationarity_check(space, curve)
        assert _bits(rep.to_json()) == _bits(loop_stationarity(space, curve).to_json())
        seen["revisits"] += rep.n_checked > 1
        seen["stationarity"] += not rep.passed
        rep = tail_halving_check(space, curve)
        assert _bits(rep.to_json()) == _bits(loop_suffix_tail_halving(space, curve).to_json())
        seen["halving"] += not rep.passed
        pts = curve.points
        for x in (pts[0], pts[-1], space.random_point(rng, 1.0)):
            for r in (0.05, 0.3, 1.0):
                rep = ball_confinement_check(space, curve, x, r)
                assert _bits(rep.to_json()) == _bits(
                    loop_ball_confinement(space, curve, x, r).to_json())
                seen["ball"] += not rep.passed
        assert sc.diameter(pts).hex() == loop_diameter(pts).hex()
        region = NeighborhoodRegion(tuple(pts[:3]), 1.0)
        reach = max(min(space.distance(p, q) for q in region.points) for p in pts)
        for margin in (0.0, 0.5, region.radius + 1e-12 - reach):
            inside = region.contains_neighborhood(pts, margin)
            assert inside == loop_contains_neighborhood(region, pts, margin)
            seen["inside" if inside else "outside"] += 1
    assert all(seen.values()), seen


def test_row_readers_own_their_points(plane):
    """The row readers work on payloads, but a point from another space is
    still refused."""
    curve, foreign = segment_curve(plane), sc.SpiderSpace(3).point((1, 0.5))
    with pytest.raises(SpaceMismatchError):
        ball_confinement_check(plane, curve, foreign, 1.0)
    with pytest.raises(SpaceMismatchError):
        ball_confinement_check(sc.SpiderSpace(3), curve, foreign, 1.0)
    with pytest.raises(SpaceMismatchError):
        NeighborhoodRegion(tuple(curve.points), 1.0).contains_neighborhood([foreign], 0.0)


def test_stationarity_budget_on_a_701_sample_spider_run():
    """A run that reaches its target at step 4 revisits it at every later
    step, so 56 million (i, j, k) triples count; one distance row per
    sample keeps the check quadratic."""
    spider = sc.SpiderSpace(3)
    f = make_objective(spider, "dist", target=spider.point((1, 1.0)))
    curve = discrete_gradient_curve(f, spider, spider.point((2, 1.0)),
                                    [0.5] * 700).discrete_curve()
    assert len(curve) == 701
    t0 = time.perf_counter()
    rep = stationarity_check(spider, curve)
    dt = time.perf_counter() - t0
    assert rep.passed and rep.n_checked == 56_192_140
    assert dt < 1.0, f"stationarity took {dt:.2f}s"
