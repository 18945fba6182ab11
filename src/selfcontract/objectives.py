"""Objective functions with declared convexity classes, plus probes.

The catalog provides the stock of test objectives used by the gradient
curve machinery and the CLI: squared and plain distances, the cubic
pathology, piecewise-monotone 1-d shapes, distances to convex sets, and
maxima of convex functions.  Every space here is CAT(0), so the squared
and plain distances carry their exact proximal maps: both move x along
the geodesic toward the target (Bacak, Convex Analysis and Optimization
in Hadamard Spaces, 2014).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from .errors import GeometryError, UnsupportedSpaceError
from .spaces.base import Point, Space
from .spaces.book import BookSpace
from .spaces.euclidean import EuclideanSpace
from .spaces.hyperbolic import HyperbolicPlane, mdot
from .spaces.tree import SpiderSpace, TreeSpace

QUASICONVEX = "quasiconvex"
CONVEX = "convex"
LAMBDA_CONVEX = "lambda"


@dataclass(frozen=True)
class BoxDomain:
    """Axis-aligned box restriction for Euclidean objectives."""

    bounds: tuple[tuple[float, float], ...]

    def contains(self, data: tuple) -> bool:
        return all(lo - 1e-12 <= x <= hi + 1e-12 for x, (lo, hi) in zip(data, self.bounds))


@dataclass(frozen=True)
class ObjectiveFn:
    """An evaluatable real function on a space with convexity metadata.

    `prox(x, tau)`, when set, is the exact minimizer of
    f(z) + d(x,z)^2/(2 tau); the resolvent then skips its numeric search.
    `candidates(x, tau)`, when set, lists a few points among which lie all
    the global minimizers of that composite; the resolvent scores them in
    place of the search.
    `decay_order`, when set, is an order r with f falling like -|z|^r along
    some ray; r > 2 outruns every quadratic, so the resolvent is unbounded
    for every tau.
    """

    name: str
    space: Space
    fn: Callable[[Point], float]
    convexity: str = QUASICONVEX
    lam: float | None = None
    domain: BoxDomain | None = None
    params: dict = field(default_factory=dict)
    prox: Callable[[Point, float], Point] | None = None
    candidates: Callable[[Point, float], list[Point]] | None = None
    decay_order: float | None = None

    def __post_init__(self):
        if self.convexity not in (QUASICONVEX, CONVEX, LAMBDA_CONVEX):
            raise GeometryError(f"unknown convexity class {self.convexity!r}")
        if self.convexity == LAMBDA_CONVEX and self.lam is None:
            raise GeometryError("lambda-convex objectives need lam")
        if self.domain is not None and not isinstance(self.space, EuclideanSpace):
            raise UnsupportedSpaceError("box domains only restrict Euclidean spaces")

    def __call__(self, p: Point) -> float:
        self.space.own(p)
        if self.domain is not None and not self.domain.contains(p.data):
            raise GeometryError(f"point {p.data} outside the objective domain")
        return float(self.fn(p))

    def in_domain(self, p: Point) -> bool:
        return self.domain is None or self.domain.contains(p.data)

    @property
    def is_convex(self) -> bool:
        return self.convexity == CONVEX or (
            self.convexity == LAMBDA_CONVEX and (self.lam or 0.0) >= 0.0
        )


def _require_point_param(space: Space, params: dict, key: str) -> Point:
    value = params.get(key)
    if isinstance(value, Point):
        return value
    if value is None:
        raise GeometryError(f"objective needs parameter {key!r}")
    return space.point(tuple(value) if isinstance(value, (list, tuple)) else value)


def _step_toward(space: Space, c: Point, x: Point, tau: float) -> Point:
    """A step of length tau from x toward c, stopping at c: the prox of
    d(., C) when c is the projection of x onto the convex set C."""
    d = space.distance(x, c)
    if d == 0.0:
        return x
    if d <= tau:
        return c
    return space.geodesic_point(x, c, tau / d)


def _midpoint_prox(space: Space, p: Point, q: Point) -> Callable[[Point, float], Point]:
    """max_two_dists' prox on an R-tree, where max(d(z,p), d(z,q)) is
    d(z,m) + d(p,q)/2 for the midpoint m of [p, q]: the dist prox toward m.

    m is the geodesic payload, not its canonical form, which may sit on a
    vertex up to the space tolerance away; only the step is canonicalized."""
    m = Point(space, space._geodesic(p.data, q.data, 0.5))

    def prox(x: Point, tau: float) -> Point:
        return Point(space, space._canonical(_step_toward(space, m, x, tau).data))

    return prox


def _bisector_prox(space: Space, p: Point, q: Point,
                   bisector: Callable) -> Callable[[Point, float], Point]:
    """max_two_dists' prox on R^2 or H^2, whose composite is strongly convex.

    The dist prox toward p is the answer if it is at least as far from p as
    from q, and likewise with p and q swapped; otherwise the minimizer lies
    on the perpendicular bisector.  `bisector(space, m, v, h, x, tau)` gives
    the geodesic line through the midpoint m normal to the unit germ v
    toward p, h = d(m, p), as a map from a signed distance t to a payload,
    and along it the slope F'(t) of F = d(., p) + d(., x)^2/(2 tau), the foot
    t_f of x, and reach(s), the |t| where the slope of d(., p) reaches s.
    m, h and v depend on p and q alone, so they are built once, here.

    F is strictly convex, and its two terms are least at 0 and at t_f, so F'
    rises through 0 between them.  There the other term's slope is smaller
    in size than at 0, where it is F'(0), so the slope of d(., p) is below
    |F'(0)|: the root lies within reach(|F'(0)|) of 0.  That bound keeps the
    bracket of `_rising_root` short when h is tiny beside tau.
    """
    m = space.geodesic_point(p, q, 0.5).data
    h = space._dist(m, p.data)
    v = space._log(m, p.data)[0] if h > 0.0 else None

    def prox(x: Point, tau: float) -> Point:
        for a, b in ((p, q), (q, p)):
            z = _step_toward(space, a, x, tau)
            if space._dist(z.data, a.data) >= space._dist(z.data, b.data):
                return z
        if h == 0.0:
            return z  # p and q a rounding error apart: no bisector to search
        line, slope, foot, reach = bisector(space, m, v, h, x.data, tau)
        g0 = slope(0.0)
        if g0 == 0.0:
            t = 0.0
        else:
            lo, hi = sorted((0.0, math.copysign(min(abs(foot), reach(abs(g0))), -g0)))
            roots = _rising_root(slope, lo, hi)
            # a bracket that rounding leaves empty: its end nearer the root
            t = roots[0] if roots else lo if slope(lo) > 0.0 else hi
        return Point(space, space._canonical(line(t)))

    return prox


def _plane_bisector(space: EuclideanSpace, m: tuple, v: tuple, h: float, x: tuple,
                    tau: float) -> tuple:
    # n is the unit normal: |x - line(t)|^2 = |x - m|^2 - 2 t b + t^2, and
    # d(line(t), p) = hypot(h, t), whose slope t / hypot(h, t) is s < 1 at
    # t = h s / sqrt(1 - s^2)
    n = (-v[1], v[0])
    b = (x[0] - m[0]) * n[0] + (x[1] - m[1]) * n[1]
    return (lambda t: (m[0] + t * n[0], m[1] + t * n[1]),
            lambda t: t / math.hypot(h, t) + (t - b) / tau, b,
            lambda s: h * s / math.sqrt((1.0 - s) * (1.0 + s)) if s < 1.0 else math.inf)


def _hyperbolic_bisector(space: HyperbolicPlane, m: tuple, v: tuple, h: float, x: tuple,
                         tau: float) -> tuple:
    # J(m x v) with J = diag(-1, 1, 1) is Minkowski-orthogonal to m and v, so
    # normalized it is the unit tangent at m normal to v; v is unit only to
    # rounding (1e-12 when p lies far out), and line(t) must run at unit speed.
    # Along line(t) = cosh(t) m + sinh(t) u, cosh d_p = cosh(t) cosh(h), whose
    # slope is s at tanh(t) = s sinh(h) / sqrt(cosh(h)^2 - s^2).  With b =
    # <u, x> and c = <v, x>, the foot of x lies at sinh(t_f) = b / R, where
    # R = sqrt(1 + c^2) = cosh d(x, line), and cosh d_x = R cosh(t - t_f), so
    # the slope of d_x^2/2 is d_x / sinh(d_x) times R sinh(t - t_f): no
    # cancellation, as in -<m, x> sinh(t) - b cosh(t), far from m.
    u = (m[2] * v[1] - m[1] * v[2], m[2] * v[0] - m[0] * v[2], m[0] * v[1] - m[1] * v[0])
    n = math.sqrt(mdot(u, u))
    u = (u[0] / n, u[1] / n, u[2] / n)
    r = math.hypot(1.0, mdot(v, x))
    foot = math.asinh(mdot(u, x) / r)
    ch, sh = math.cosh(h), math.sinh(h)

    def slope(t: float) -> float:
        st, ct = math.sinh(t), math.cosh(t)
        dx = math.acosh(r * math.cosh(t - foot))
        ratio = dx / math.sinh(dx) if dx > 0.0 else 1.0
        # sinh^2 d_p = sinh^2 t + sinh^2 h cosh^2 t, a sum without cancellation
        return (st * ch / math.sqrt(st * st + sh * sh * ct * ct)
                + ratio * r * math.sinh(t - foot) / tau)

    def reach(s: float) -> float:
        q = s * sh / math.sqrt((ch - s) * (ch + s)) if s < 1.0 else 1.0
        return math.atanh(q) if q < 1.0 else math.inf

    return lambda t: space.exp(m, u, t), slope, foot, reach


def _euclidean_max_two_prox(space: EuclideanSpace, p: Point, q: Point):
    if space.dim == 1:
        return _midpoint_prox(space, p, q)
    if space.dim == 2:
        return _bisector_prox(space, p, q, _plane_bisector)
    return None


# space type -> rule(space, p, q) giving max_two_dists' exact prox, or None
_MAX_TWO_DISTS_PROX = {
    EuclideanSpace: _euclidean_max_two_prox,
    HyperbolicPlane: partial(_bisector_prox, bisector=_hyperbolic_bisector),
    SpiderSpace: _midpoint_prox,
    TreeSpace: _midpoint_prox,
}


def _rising_root(g: Callable[[float], float], lo: float, hi: float) -> list[float]:
    """[the point where g, increasing on [lo, hi], rises through 0], found
    until the bracket ends are adjacent floats; [] unless g(lo) <= 0 <= g(hi).

    The steps are Illinois false position (Dowell & Jarratt, BIT 11, 1971):
    the secant root of the bracket ends' weights, their g values, except
    that an end kept by two secant steps in a row enters with half its
    weight.  A secant point that rounds onto an end moves one float inside,
    and one outside the bracket gives way to the midpoint.  The steps run in
    threes, and the third is the midpoint unless the first two halved the
    bracket, so it takes at most about three times as many steps as
    bisection.  Every step moves lo where g < 0 and hi elsewhere, as
    bisection does, so on a g monotone in floats both stop at the same pair.
    """
    glo, ghi = g(lo), g(hi)
    if not glo <= 0.0 <= ghi:
        return []
    wlo, whi, moved = glo, ghi, 0  # secant weights; the end the last secant step moved
    step = 0
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return [lo if -glo <= ghi else hi]
        if step == 0:
            width = hi - lo
        secant = step < 2 or hi - lo <= 0.5 * width
        step = (step + 1) % 3
        t = mid
        if secant and whi > wlo:  # not both 0, and neither NaN
            s = lo - wlo * ((hi - lo) / (whi - wlo))
            if lo <= s <= hi:
                t = min(max(s, math.nextafter(lo, hi)), math.nextafter(hi, lo))
        gt = g(t)
        if gt < 0.0:
            lo, glo, wlo = t, gt, gt
            if secant and moved < 0:
                whi *= 0.5
        else:
            hi, ghi, whi = t, gt, gt
            if secant and moved > 0:
                wlo *= 0.5
        if secant:
            moved = -1 if gt < 0.0 else 1


# Candidate sets of the line's quasi-convex objectives: with F(z) = f(z) +
# (z - x)^2/(2 tau), each lists the box ends or kinks of f and the stationary
# points of F where F' rises through 0, its only interior local minima.

def _neg_cube_unit_candidates(space: EuclideanSpace, x: Point, tau: float) -> list[Point]:
    """F' = -(3 tau z^2 - z + x)/tau rises through 0 at the smaller root,
    2x / (1 + sqrt(1 - 12 tau x)) without cancellation, and falls at the larger."""
    zs = [0.0, 1.0]
    disc = 1.0 - 12.0 * tau * x.data[0]
    if disc >= 0.0:
        z = 2.0 * x.data[0] / (1.0 + math.sqrt(disc))
        if 0.0 <= z <= 1.0:
            zs.append(z)
    return [Point(space, (z,)) for z in zs]


def _sqrt_abs_candidates(space: EuclideanSpace, c: float, x: Point, tau: float
                         ) -> list[Point]:
    """Off the kink z = c, F' has the sign of a = x - c at z = c + a t^2,
    t > 0, exactly where h(t) = 2t(t^2 - 1) + tau/|a|^1.5 is positive.  h is
    positive at 0 and 1 and least at 1/sqrt(3), so F' rises through 0 at
    one t in [1/sqrt(3), 1], where h rises through 0, or nowhere."""
    a = x.data[0] - c
    out = [Point(space, (c,))]
    if a != 0.0:
        k = tau / abs(a) / math.sqrt(abs(a))  # no overflow in a power
        for t in _rising_root(lambda t: 2.0 * t * (t * t - 1.0) + k, 1.0 / math.sqrt(3.0),
                              1.0):
            out.append(Point(space, (c + a * t * t,)))
    return out


def _ripple_vee_candidates(space: EuclideanSpace, x: Point, tau: float) -> list[Point]:
    """At z = s w, s the sign of x and w > 0, F = g(w) + sin(w)/2 for the
    parabola g(w) = w + (w - |x|)^2/(2 tau) with vertex w0 = |x| - tau; on
    the other side of the kink z = 0, F exceeds F(0).  A point w beyond
    max(w0, 0) + 2 pi or below w0 - 2 pi loses to its shift by 2 pi toward
    w0, which keeps sin(w) and lowers g.  F'' = 1/tau - sin(w)/2 changes
    sign only where sin w = 2/tau, never for tau <= 2; between those
    splits F' is monotone and rises through 0 at most once."""
    a, s = abs(x.data[0]), math.copysign(1.0, x.data[0])
    period = 2.0 * math.pi
    lo, hi = max(a - tau - period, 0.0), max(a - tau, 0.0) + period
    cuts = [lo, hi]
    if tau > 2.0:
        theta = math.asin(2.0 / tau)
        for k in range(math.floor(lo / period), math.floor(hi / period) + 1):
            cuts += [w for w in (theta + period * k, math.pi - theta + period * k)
                     if lo < w < hi]
        cuts.sort()

    def slope(w: float) -> float:  # s F'(s w)
        return 1.0 + 0.5 * math.cos(w) + (w - a) / tau

    return [Point(space, (0.0,))] + [Point(space, (s * w,))
                                     for p0, p1 in zip(cuts, cuts[1:])
                                     for w in _rising_root(slope, p0, p1)]


def builtin_objectives(space: Space) -> dict[str, Callable[..., ObjectiveFn]]:
    """Catalog of objective factories available on this space.

    Each factory takes keyword parameters and returns an ObjectiveFn; it
    refuses a parameter that the objective does not read.
    """
    catalog: dict[str, Callable[..., ObjectiveFn]] = {}

    def half_sq_dist(**params) -> ObjectiveFn:
        p = _require_point_param(space, params, "target")
        return ObjectiveFn(
            name="half_sq_dist", space=space,
            fn=lambda z: 0.5 * space.distance(z, p) ** 2,
            convexity=LAMBDA_CONVEX, lam=1.0,
            params={"target": space._point_json(p.data)},
            prox=lambda x, tau: space.geodesic_point(x, p, tau / (1.0 + tau)),
        )

    def dist(**params) -> ObjectiveFn:
        p = _require_point_param(space, params, "target")
        return ObjectiveFn(
            name="dist", space=space,
            fn=lambda z: space.distance(z, p),
            convexity=CONVEX,
            params={"target": space._point_json(p.data)},
            prox=partial(_step_toward, space, p),
        )

    def max_two_dists(**params) -> ObjectiveFn:
        p = _require_point_param(space, params, "target")
        q = _require_point_param(space, params, "other")
        rule = _MAX_TWO_DISTS_PROX.get(type(space))
        return ObjectiveFn(
            name="max_two_dists", space=space,
            fn=lambda z: max(space.distance(z, p), space.distance(z, q)),
            convexity=CONVEX,
            params={"target": space._point_json(p.data),
                    "other": space._point_json(q.data)},
            prox=rule(space, p, q) if rule else None,
        )

    catalog["half_sq_dist"] = half_sq_dist
    catalog["dist"] = dist
    catalog["max_two_dists"] = max_two_dists

    if isinstance(space, EuclideanSpace) and space.dim == 1:

        def neg_cube(**params) -> ObjectiveFn:
            return ObjectiveFn(
                name="neg_cube", space=space,
                fn=lambda z: -z.data[0] ** 3,
                convexity=QUASICONVEX, params={}, decay_order=3.0,
            )

        def neg_cube_unit(**params) -> ObjectiveFn:
            return ObjectiveFn(
                name="neg_cube_unit", space=space,
                fn=lambda z: -z.data[0] ** 3,
                convexity=QUASICONVEX,
                domain=BoxDomain(((0.0, 1.0),)), params={},
                candidates=partial(_neg_cube_unit_candidates, space),
            )

        def sqrt_abs(**params) -> ObjectiveFn:
            c = float(params.get("center", 0.0))
            if not math.isfinite(c):
                raise GeometryError(f"sqrt_abs needs a finite center, got center={c}")
            return ObjectiveFn(
                name="sqrt_abs", space=space,
                fn=lambda z: math.sqrt(abs(z.data[0] - c)),
                convexity=QUASICONVEX, params={"center": c},
                candidates=partial(_sqrt_abs_candidates, space, c),
            )

        def ripple_vee(**params) -> ObjectiveFn:
            # strictly increasing in |z|, so quasi-convex but far from convex
            return ObjectiveFn(
                name="ripple_vee", space=space,
                fn=lambda z: abs(z.data[0]) + 0.5 * math.sin(abs(z.data[0])),
                convexity=QUASICONVEX, params={},
                candidates=partial(_ripple_vee_candidates, space),
            )

        catalog["neg_cube"] = neg_cube
        catalog["neg_cube_unit"] = neg_cube_unit
        catalog["sqrt_abs"] = sqrt_abs
        catalog["ripple_vee"] = ripple_vee

    if isinstance(space, SpiderSpace):
        catalog["dist_to_leg_segment"] = _segment_objective(space, "leg")
    if isinstance(space, TreeSpace):
        catalog["dist_to_edge_segment"] = _segment_objective(space, "edge")

    if isinstance(space, BookSpace):

        def dist_to_spine_segment(**params) -> ObjectiveFn:
            a0 = float(params.get("lo", -1.0))
            a1 = float(params.get("hi", 1.0))
            if not a0 <= a1:  # NaN in either fails
                raise GeometryError(f"need lo <= hi, got lo={a0}, hi={a1}")

            def f(z: Point) -> float:
                _, a, b = z.data
                da = max(a0 - a, 0.0, a - a1)
                return math.hypot(da, b)

            def project(x: Point) -> Point:
                return Point(space, (0, min(max(x.data[1], a0), a1), 0.0))

            return ObjectiveFn(
                name="dist_to_spine_segment", space=space, fn=f,
                convexity=CONVEX,
                params={"lo": a0, "hi": a1},
                prox=lambda x, tau: _step_toward(space, project(x), x, tau),
            )

        catalog["dist_to_spine_segment"] = dist_to_spine_segment

    return {name: _refusing_unread(factory) for name, factory in catalog.items()}


def _refusing_unread(factory: Callable[..., ObjectiveFn]) -> Callable[..., ObjectiveFn]:
    def checked(**params) -> ObjectiveFn:
        objective = factory(**params)
        unread = sorted(set(params) - set(objective.params))
        if unread:
            raise GeometryError(f"objective {objective.name!r} reads no parameter "
                                f"{unread}; it reads {sorted(objective.params)}")
        return objective

    return checked


def _segment_objective(space: TreeSpace | SpiderSpace, key: str
                       ) -> Callable[..., ObjectiveFn]:
    """Factory of the distance to [lo, hi] on one segment, chosen by `key`.

    Points off that segment reach it through one of its two ends.
    """
    segments = {seg[0]: seg for seg in space.segments()}

    def factory(**params) -> ObjectiveFn:
        seg = segments.get(params.get(key, next(iter(segments))))
        if seg is None:
            raise GeometryError(f"no {key} {params[key]!r} on {space.describe()}")
        index, length, rep_u, rep_v = seg
        lo = float(params.get("lo", 0.0))
        hi = float(params.get("hi", length))
        if not 0.0 <= lo <= hi <= length:
            raise GeometryError(f"need 0 <= lo <= hi <= {key} length")

        def f(z: Point) -> float:
            ze, zo = z.data
            if ze == index:
                return max(lo - zo, 0.0, zo - hi)
            dpu = space._dist(z.data, rep_u)
            dpv = space._dist(z.data, rep_v)
            return min(dpu + lo, dpv + (length - hi))

        def project(x: Point) -> Point:
            # the nearest point of [lo, hi], by the same end test as f
            xe, xo = x.data
            if xe == index:
                t = min(max(xo, lo), hi)
            else:
                dpu = space._dist(x.data, rep_u)
                dpv = space._dist(x.data, rep_v)
                t = lo if dpu + lo <= dpv + (length - hi) else hi
            return Point(space, space._canonical((index, t)))

        return ObjectiveFn(
            name=f"dist_to_{key}_segment", space=space, fn=f,
            convexity=CONVEX,
            params={key: index, "lo": lo, "hi": hi},
            prox=lambda x, tau: _step_toward(space, project(x), x, tau),
        )

    return factory


def make_objective(space: Space, name: str, **params) -> ObjectiveFn:
    catalog = builtin_objectives(space)
    if name not in catalog:
        raise GeometryError(
            f"unknown objective {name!r} on {space.describe()}; "
            f"available: {sorted(catalog)}"
        )
    return catalog[name](**params)


@dataclass(frozen=True)
class ConvexityProbeReport:
    n_checked: int
    max_violation: float
    witness: dict | None
    lambda_max_violation: float | None = None


def _domain_sample(objective: ObjectiveFn, rng, scale: float) -> Point:
    space = objective.space
    if objective.domain is not None:
        data = tuple(
            float(rng.uniform(lo, hi)) for lo, hi in objective.domain.bounds
        )
        return space.point(data)
    return space.random_point(rng, scale)


def quasiconvexity_probe(objective: ObjectiveFn, n_samples: int = 1000,
                         seed: int = 0, scale: float = 2.0) -> ConvexityProbeReport:
    """Sample geodesic chords and report the worst quasi-convexity violation.

    Also reports the lambda-convexity violation when that class is
    declared.  Violations beyond 1e-9 mean the declared class is wrong.
    """
    rng = np.random.default_rng(seed)
    space = objective.space
    worst = -math.inf
    witness = None
    worst_lam = -math.inf if objective.convexity == LAMBDA_CONVEX else None
    for _ in range(n_samples):
        x = _domain_sample(objective, rng, scale)
        y = _domain_sample(objective, rng, scale)
        s = float(rng.uniform(0.0, 1.0))
        mid = space.geodesic_point(x, y, s)
        if objective.domain is not None and not objective.domain.contains(mid.data):
            continue
        fx, fy, fm = objective(x), objective(y), objective(mid)
        viol = fm - max(fx, fy)
        if viol > worst:
            worst = viol
            witness = {
                "x": space._point_json(x.data),
                "y": space._point_json(y.data),
                "s": s,
                "violation": viol,
            }
        if worst_lam is not None:
            lam = objective.lam or 0.0
            d = space.distance(x, y)
            bound = (1 - s) * fx + s * fy - 0.5 * lam * (1 - s) * s * d * d
            worst_lam = max(worst_lam, fm - bound)
    return ConvexityProbeReport(
        n_checked=n_samples,
        max_violation=worst if worst > -math.inf else 0.0,
        witness=witness,
        lambda_max_violation=worst_lam if worst_lam not in (None, -math.inf) else None,
    )
