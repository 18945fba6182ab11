"""Space-agnostic metric primitives: curves, lengths, angles, CAT(0) tests, line search.

Everything here is defined against the abstract space interface; the
per-space formulas live in the `spaces` subpackage.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import GeometryError, SpaceMismatchError
from .measures import _height
from .spaces.base import Point, Space

DISCRETE = "discrete"
GEODESIC = "geodesic"


@dataclass(frozen=True)
class Curve:
    """Time-stamped samples of one space, held as its payloads, with an
    interpolation mode.

    `discrete` curves are pure jump curves (the trajectory is the sample
    set); `geodesic` curves stand for the piecewise-geodesic
    interpolation through the samples.  `make_curve` builds a curve from
    Points; `samples`, `points`, `point_at` and `tail_points` build
    Points on each call.
    """

    space: Space
    times: tuple[float, ...]
    payloads: tuple[tuple, ...]
    mode: str = DISCRETE
    domain_end: float = math.inf

    def __post_init__(self):
        object.__setattr__(self, "times", tuple(self.times))
        object.__setattr__(self, "payloads", tuple(self.payloads))
        times = self.times
        if len(times) != len(self.payloads):
            raise GeometryError(
                f"curve has {len(times)} sample times for {len(self.payloads)} points")
        if not times:
            raise GeometryError("curve needs at least one sample")
        if self.mode not in (DISCRETE, GEODESIC):
            raise GeometryError(f"unknown curve mode {self.mode!r}")
        if not all(math.isfinite(t) for t in times):
            raise GeometryError("sample times must be finite")
        if any(not t2 > t1 for t1, t2 in zip(times, times[1:])):
            raise GeometryError("sample times must be strictly increasing")
        if not self.domain_end > times[-1]:
            raise GeometryError("domain end must exceed the last sample time")

    @property
    def samples(self) -> tuple[tuple[float, Point], ...]:
        return tuple(zip(self.times, self.points))

    @property
    def points(self) -> list[Point]:
        return [Point(self.space, p) for p in self.payloads]

    def __len__(self) -> int:
        return len(self.times)

    def tail_points(self, t: float) -> list[Point]:
        """Samples of the tail {xi(s) : s >= t}."""
        return [Point(self.space, p) for s, p in zip(self.times, self.payloads)
                if s >= t - 1e-15]

    def point_at(self, t: float) -> Point:
        """Evaluate the curve at time t (step function or geodesic pieces)."""
        space, times, payloads = self.space, self.times, self.payloads
        if t <= times[0]:
            return Point(space, payloads[0])
        for k in range(1, len(times)):
            if t < times[k]:
                if self.mode == DISCRETE:
                    return Point(space, payloads[k - 1])
                s = (t - times[k - 1]) / (times[k] - times[k - 1])
                return space.geodesic_point(Point(space, payloads[k - 1]),
                                            Point(space, payloads[k]), s)
        return Point(space, payloads[-1])

    def densified(self, levels: int = 3) -> "Curve":
        """The curve with geodesic midpoints inserted `levels` times
        (geodesic mode only; otherwise the curve itself), taken on payloads."""
        if self.mode != GEODESIC or levels <= 0 or len(self) < 2:
            return self
        space, times, payloads = self.space, list(self.times), list(self.payloads)
        for _ in range(levels):
            t_out, p_out = [], []
            for t0, t1, p0, p1 in zip(times, times[1:], payloads, payloads[1:]):
                t_out += (t0, 0.5 * (t0 + t1))
                p_out += (p0, space._canonical(space._geodesic(p0, p1, 0.5)))
            times, payloads = t_out + times[-1:], p_out + payloads[-1:]
        return Curve(space, times, payloads, GEODESIC, self.domain_end)


def make_curve(points: Sequence[Point], times: Sequence[float] | None = None,
               mode: str = DISCRETE, domain_end: float | None = None) -> Curve:
    """The curve through Points of one space, at times 0, 1, 2, ... unless
    given, with domain end one past the last time unless given."""
    pts = list(points)
    space = pts[0].space if pts else None
    times = [float(t) for t in (range(len(pts)) if times is None else times)]
    if domain_end is None:
        domain_end = times[-1] + 1.0 if times else 1.0
    return Curve(space, times, [space.own(p) for p in pts], mode, float(domain_end))


def curve_length(curve: Curve) -> float:
    """Polygonal length over consecutive samples.

    This matches the sup-over-partitions length: jumps of a discrete
    curve are charged their chord distance, and geodesic pieces add
    exactly, so refinement never changes the geodesic-mode value.
    """
    space, payloads = curve.space, curve.payloads
    return math.fsum(space._dist(a, b) for a, b in zip(payloads, payloads[1:]))


def diameter(points: Sequence[Point]) -> float:
    pts = list(points)
    if not pts:
        raise GeometryError("empty point collection")
    space = pts[0].space
    if any(p.space != space for p in pts[1:]):
        raise SpaceMismatchError("points from different spaces")
    payloads = [p.data for p in pts]
    best = 0.0
    for i, a in enumerate(payloads):
        best = max([best, *space._dist_row(a, payloads[i + 1:])])
    return best


def comparison_angle(space: Space, x: Point, y: Point, z: Point) -> float:
    """Angle at the x-vertex of the Euclidean triangle with the same sides.

    Kahan's formula for needle-like triangles keeps its digits near 0 and
    pi, where the arccos of the law of cosines keeps half ("Miscalculating
    Area and Angles of a Needle-like Triangle", 2014).  Sides that break
    the triangle inequality by rounding give 0 or pi.
    """
    dxy = space.distance(x, y)
    dxz = space.distance(x, z)
    if dxy <= space.tolerance or dxz <= space.tolerance:
        raise GeometryError("comparison angle needs y, z distinct from x")
    a, b, c = max(dxy, dxz), min(dxy, dxz), space.distance(y, z)
    mu = c - (a - b) if b >= c else b - (a - c)
    if mu <= 0.0:  # c <= a - b
        return 0.0
    if (a - c) + b <= 0.0:  # c >= a + b
        return math.pi
    return 2.0 * math.atan(math.sqrt(((a - b) + c) * mu / ((a + (b + c)) * ((a - c) + b))))


SHRINK_SCHEDULE = tuple(0.5 ** j for j in range(1, 9))  # decreasing, in (0, 1)
MONOTONE_TOL = 1e-7


def upper_angle(space: Space, x: Point, y: Point, z: Point) -> float:
    """Limit of comparison angles along shrinking geodesic parameters.

    The comparison angle between gamma_xy(s) and gamma_xz(s) is monotone
    non-increasing as s decreases; that monotonicity is asserted at the
    sampled stages and a closed form (the direction angle) is returned
    as the limit.  y == z (within tolerance) gives 0 by convention.
    """
    if space.same_point(y, z):
        return 0.0
    if space.same_point(x, y) or space.same_point(x, z):
        raise GeometryError("upper angle needs y, z distinct from x")
    prev = None
    for s in SHRINK_SCHEDULE:
        ys = space.geodesic_point(x, y, s)
        zs = space.geodesic_point(x, z, s)
        ang = comparison_angle(space, x, ys, zs)
        if prev is not None and ang > prev + MONOTONE_TOL:
            raise GeometryError(
                f"comparison angles not monotone along shrink schedule "
                f"({ang} > {prev} at s={s})"
            )
        prev = ang
    d1, _ = space.log_direction(x, y)
    d2, _ = space.log_direction(x, z)
    limit = space.direction_angle(d1, d2)
    if limit > prev + MONOTONE_TOL:
        raise GeometryError("direction angle exceeds the comparison stages")
    return limit


def cat0_inequality_residual(space: Space, x: Point, y: Point, z: Point,
                             s: float) -> float:
    """Slack of the quadrilateral (2-convexity) comparison inequality.

    Returns (1-s) d^2(x,y) + s d^2(x,z) - (1-s) s d^2(y,z) - d^2(x, m(s))
    with m the geodesic from y to z; nonnegative (within tolerance) iff
    the triangle is no fatter than its Euclidean comparison triangle.
    """
    if not 0.0 <= s <= 1.0:
        raise GeometryError("s must lie in [0, 1]")
    m = space.geodesic_point(y, z, s)
    dxy = space.distance(x, y)
    dxz = space.distance(x, z)
    dyz = space.distance(y, z)
    dxm = space.distance(x, m)
    return (1 - s) * dxy * dxy + s * dxz * dxz - (1 - s) * s * dyz * dyz - dxm * dxm


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_section(fn, a: float, b: float):
    """Golden-section search for a minimum of fn on [a, b].

    Yields (a, b, c, fc, d, fd), the bracket with its two probes, first
    as set up and then after each shrink step; the caller picks when to
    stop and which point to keep.
    """
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = fn(c), fn(d)
    while True:
        yield a, b, c, fc, d, fd
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = fn(d)


def _parabolic_polish(fn, x: float, h: float, lo: float, hi: float
                      ) -> tuple[float, float]:
    """Refine a smooth interior minimum by three successive parabola fits.

    Value-only descent stalls at sqrt(machine eps) in position; fitting
    a parabola through three nearby samples recovers the vertex to near
    full precision when the function is locally quadratic.
    """
    best_x, best_f = x, fn(x)
    for _ in range(3):
        xl, xr = max(best_x - h, lo), min(best_x + h, hi)
        if xr - xl <= 0:
            break
        xm = 0.5 * (xl + xr)
        fl, fm, fr = fn(xl), fn(xm), fn(xr)
        denom = fl - 2.0 * fm + fr
        if denom <= 0:
            h *= 0.25
            continue
        v = xm + 0.5 * (xr - xl) / 2.0 * (fl - fr) / denom
        v = min(max(v, lo), hi)
        fv = fn(v)
        if fv <= best_f:
            best_x, best_f = v, fv
        h *= 0.125
    return best_x, best_f


def _golden_min(fn, a: float, b: float, tol: float) -> tuple[float, float]:
    """Golden-section minimum of fn over [a, b] (assumed unimodal there)."""
    lo0, hi0 = a, b
    for a, b, c, fc, d, fd in golden_section(fn, a, b):
        if not b - a > tol:
            break
    xs = [(fn(a), a), (fc, c), (fd, d), (fn(b), b)]
    fx, x = min(xs, key=lambda t: t[0])
    if lo0 < x < hi0:
        h_fit = max(1e-5 * max(1.0, abs(x)), 2.0 * (b - a))
        px, pf = _parabolic_polish(fn, x, h_fit, lo0, hi0)
        if pf <= fx:
            return px, pf
    return x, fx


@dataclass(frozen=True)
class FourPointResult:
    ok: bool
    witness_diagonal: float | None
    margin: float
    detail: str = ""


def _cevian(m: float, n: float, c: float, b: float) -> float:
    """Stewart's theorem: the distance from A to the point D of segment BC
    with BD = m and DC = n, given AB = c and AC = b."""
    a = m + n
    if a == 0.0:
        return c
    return math.sqrt(max((b * b * m + c * c * n) / a - m * n, 0.0))


def four_point_subembed(d_wx: float, d_xy: float, d_yz: float, d_zw: float,
                        d_wy: float, d_xz: float) -> FourPointResult:
    """Decide the planar sub-embedding property for one metric quadruple.

    Looks for a planar quadrilateral with the four side lengths exact
    and both diagonals at least as long as the given ones (Bridson and
    Haefliger, II.1.11).  The comparison triangles wxy and wyz are hinged
    on opposite sides of the diagonal w~y~ = d_wy.  If that hinge is
    convex (angle sums at w~ and y~ at most pi), lengthening w~y~ only
    shortens x~z~ (Alexandrov's lemma, I.2.16), so the hinge's own x~z~
    is the longest.  Otherwise lengthening w~y~ straightens the reflex
    vertex until x~, w~, z~ (or x~, y~, z~) are collinear, where x~z~
    reaches its triangle-inequality cap.  The witness is the w~y~ length
    that attains the longest x~z~.
    """
    sides = (d_wx, d_xy, d_yz, d_zw, d_wy, d_xz)
    if any(d < 0 or not math.isfinite(d) for d in sides):
        raise GeometryError("distances must be nonnegative and finite")
    tol = max(1e-9 * max(sides), 1e-12)
    for a, b, c, face in (
        (d_wx, d_xy, d_wy, "wxy"),
        (d_zw, d_yz, d_wy, "wyz"),
    ):
        if a + b < c - tol or abs(a - b) > c + tol:
            raise GeometryError(f"triangle inequality violated on face {face}")
    delta = d_wy
    if delta == 0.0:
        # w~ = y~: x~ and z~ sit on opposite rays
        best, witness = d_wx + d_zw, 0.0
    else:
        # w~ = (0,0), y~ = (delta,0); x~ = (px, hx) above, z~ = (pz, -hz) below
        px = (delta * delta + d_wx * d_wx - d_xy * d_xy) / (2 * delta)
        hx = _height(d_wx, d_xy, delta)
        pz = (delta * delta + d_zw * d_zw - d_yz * d_yz) / (2 * delta)
        hz = _height(d_zw, d_yz, delta)
        reflex_w = math.atan2(hx, px) + math.atan2(hz, pz) > math.pi
        reflex_y = math.atan2(hx, delta - px) + math.atan2(hz, delta - pz) > math.pi
        if reflex_w or reflex_y:
            best = min(d_wx + d_zw, d_xy + d_yz)
            root = (_cevian(d_wx, d_zw, d_xy, d_yz) if reflex_w
                    else _cevian(d_xy, d_yz, d_wx, d_zw))
            # rounding can leave the range of hinge diagonals by an ulp
            witness = max(delta, min(root, d_wx + d_xy, d_zw + d_yz))
        else:
            best, witness = math.hypot(px - pz, hx + hz), delta
    margin = best - d_xz
    if margin >= -tol:
        return FourPointResult(True, witness, margin)
    return FourPointResult(False, None, margin,
                           detail="no diagonal admits both long diagonals")
