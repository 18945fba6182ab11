"""Hausdorff measures of neighborhoods and condition-constant estimators.

Neighborhood regions are described by (points, radius): the closed
radius-neighborhood of a finite point set.  Trees carry the
1-dimensional measure via exact interval arithmetic on the segments
their `segments()` lists; spiders list their legs the same way and use
the tree's measure.  Books carry the 2-dimensional measure: per sheet,
the area of a union of disks (the other sheets' disks reflected through
the spine) above the spine, exactly by Green's theorem along the free
boundary arcs; the plane's region volume is the same area unclipped.
`_MEASURES` maps each space type to its dimension and measure.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .cones import RadiusConstants, radius_constants
from .errors import GeometryError, UnsupportedSpaceError
from .metric import _height
from .spaces.base import Point, Space, check_all_same_space
from .spaces.book import BookSpace
from .spaces.euclidean import EuclideanSpace
from .spaces.tree import SpiderSpace, TreeSpace


@dataclass(frozen=True)
class NeighborhoodRegion:
    """Closed radius-neighborhood of finitely many points."""

    points: tuple[Point, ...]
    radius: float

    def __post_init__(self):
        if not self.points:
            raise GeometryError("region needs at least one point")
        if not 0.0 < self.radius < math.inf:
            raise GeometryError("region radius must be positive and finite")
        check_all_same_space(self.points)

    @property
    def space(self) -> Space:
        return self.points[0].space

    def contains_neighborhood(self, points: Sequence[Point], margin: float) -> bool:
        """Is the margin-neighborhood of `points` inside this region?"""
        space, centres = self.space, [q.data for q in self.points]
        bound = self.radius - margin + 1e-12
        return not any(min(space._dist_row(space.own(p), centres)) > bound for p in points)


def _merge_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    last_hi = -math.inf
    for lo, hi in sorted(intervals):
        if hi <= last_hi:
            continue
        total += hi - max(lo, last_hi)
        last_hi = hi
    return total


def _tree_h1(space: TreeSpace | SpiderSpace, payloads: list[tuple],
             radius: float) -> float:
    """Covered length per edge or leg; off-segment points reach in from its ends."""
    per_edge = []
    for ei, length, rep_u, rep_v in space.segments():
        intervals: list[tuple[float, float]] = []
        for p in payloads:
            if p[0] == ei:
                intervals.append((max(p[1] - radius, 0.0), min(p[1] + radius, length)))
                continue
            dpu = space._dist(p, rep_u)
            dpv = space._dist(p, rep_v)
            if radius - dpu > 0:
                intervals.append((0.0, min(radius - dpu, length)))
            if radius - dpv > 0:
                intervals.append((max(length - (radius - dpv), 0.0), length))
        if intervals:
            per_edge.append(_merge_length(intervals))
    return math.fsum(per_edge)


def _disk_union_halfplane_area(disks: list[tuple[float, float, float]],
                               clip: bool = True) -> float:
    """Area of a union of disks, optionally clipped to the half-plane b >= 0.

    Green's theorem: the area is the integral of x dy around the boundary,
    which is made of the arcs of each circle that no other disk covers
    (and, clipped, that lie above the axis, where the axis adds nothing
    since dy = 0 on it).  Abscissae are taken relative to the first disk,
    which leaves the closed-path integral unchanged and its terms small.
    """
    if not disks:
        return 0.0
    a0 = disks[0][0]
    terms = []
    for i, (ac, bc, r) in enumerate(disks):
        if clip and bc <= -r:
            continue
        # (centre, half-width) of the angles below the axis or in another disk
        covered = [(-0.5 * math.pi, math.acos(bc / r))] if clip and bc < r else []
        for j, (aj, bj, rj) in enumerate(disks):
            d = math.hypot(aj - ac, bj - bc)
            if abs(r - rj) + d <= 1e-15 * (r + rj):
                # the same disk to rounding (where Kahan's height would
                # underflow): only the first counts
                if j < i:
                    break
                continue
            if d <= rj - r:
                break  # inside disk j
            if abs(r - rj) < d < r + rj:
                # Kahan's height keeps its digits near tangency, unlike acos
                w = math.atan2(_height(r, rj, d), (r * r + d * d - rj * rj) / (2.0 * d))
                covered.append((math.atan2(bj - bc, aj - ac), w))
        else:
            pieces = sorted((t - w + s, t + w + s) for t, w in covered
                            for s in (-2.0 * math.pi, 0.0, 2.0 * math.pi))
            t0 = -math.pi
            for lo, hi in pieces + [(math.pi, math.pi)]:
                lo = min(lo, math.pi)
                if lo > t0:  # a free arc from t0 to lo
                    terms.append((ac - a0) * r * (math.sin(lo) - math.sin(t0)))
                    terms.append(0.5 * r * r * (lo - t0 + 0.5 * (math.sin(2.0 * lo)
                                                                - math.sin(2.0 * t0))))
                t0 = max(t0, hi)
    return math.fsum(terms)


def _book_h2(space: BookSpace, payloads: list[tuple], radius: float) -> float:
    return math.fsum(
        _disk_union_halfplane_area([(a, b if (i == sheet or i == 0) else -b, radius)
                                    for i, a, b in payloads])
        for sheet in range(1, space.k + 1)
    )


# space type -> (Hausdorff dimension, measure(space, payloads, radius))
_MEASURES = {
    TreeSpace: (1, _tree_h1),
    SpiderSpace: (1, _tree_h1),
    BookSpace: (2, _book_h2),
}


def _measure(space: Space, missing: str):
    entry = _MEASURES.get(type(space))
    if entry is None:
        raise UnsupportedSpaceError(f"{missing} {space.describe()}")
    return entry


def hausdorff_measure_neighborhood(space: Space, points: Sequence[Point],
                                   radius: float, dim: int) -> float:
    """Hausdorff measure of the radius-neighborhood of a finite point set.

    Trees and spiders support dim=1 (total covered edge length); books
    support dim=2 (covered area summed over sheets).
    """
    if not 0.0 < radius < math.inf:
        raise GeometryError("radius must be positive and finite")
    pts = list(points)
    if not pts:
        raise GeometryError("need at least one point")
    for p in pts:
        space.own(p)
    dimension, measure = _measure(space, "no Hausdorff neighborhood measure on")
    if dim != dimension:
        raise UnsupportedSpaceError(
            f"{space.kind}s carry the {dimension}-dimensional measure")
    return measure(space, [p.data for p in pts], radius)


def _euclidean_cap_ratio(n: int, cap_angle: float) -> float:
    """Fraction of the unit (n-1)-sphere inside an angular cap (n <= 3)."""
    if n == 1:
        return 0.5
    if n == 2:
        return cap_angle / math.pi
    return 0.5 * (1.0 - math.cos(cap_angle))


def estimate_condition_constants(space: Space, region: NeighborhoodRegion,
                                 sigma: float = 1.0) -> RadiusConstants:
    """Fill the ratio constants (m, eps, a, b, sigma) for a bounded region.

    Supported: trees/spiders (counting measure on germs + H^1), books
    (H^1 on directions + H^2), Euclidean n <= 3 (sphere-cap and
    ball-sector ratios).
    """
    if not 0.0 < sigma < math.inf:
        raise GeometryError("sigma must be positive and finite")
    payloads = [p.data for p in region.points]

    if isinstance(space, EuclideanSpace):
        n = space.dim
        if n > 3:
            raise UnsupportedSpaceError("Euclidean estimates implemented for n <= 3")
        rc = radius_constants(n)
        cap = 2.0 * math.asin(rc.eps_bold / 2.0)
        a = _euclidean_cap_ratio(n, cap)
        vol = _euclidean_region_volume(space, payloads, region.radius)
        unit_ball = {1: 2.0, 2: math.pi, 3: 4.0 * math.pi / 3.0}[n]
        b = unit_ball * sigma ** n * a / vol
        return RadiusConstants(
            n=n, theta=rc.theta, theta_improved=rc.theta_improved,
            eps=rc.eps, m=rc.m, eps_bold=rc.eps_bold,
            a=a, b=b, sigma=sigma,
        )

    dimension, measure = _measure(space, "no condition-constant estimator for")
    h = measure(space, payloads, region.radius)
    if dimension == 1:  # trees and spiders
        eps = 1.0 / 6.0
        if isinstance(space, TreeSpace):
            names = ",".join(space.vertex_names[w] for w in space.leaf_vertices())
            notes = [f"volume-ratio condition fails at boundary (leaf) vertices: {names}; "
                     "constants assume geodesics extend past them"]
        else:
            notes = ["volume-ratio condition fails at leg tips; constants assume "
                     "geodesics extend past them"]
        return RadiusConstants(
            n=1, theta=math.acos(1.0 / 2.0), theta_improved=None,
            eps=eps, m=1, eps_bold=eps,
            a=1.0 / space.max_degree, b=sigma / h, sigma=sigma, notes=tuple(notes),
        )

    eps = 1.0 / (3.0 * math.sqrt(2.0))  # books: 3*eps = cos(pi/4)
    a = (4.0 / (space.k * math.pi)) * math.asin(eps / 2.0)
    b = 2.0 * math.asin(eps / 2.0) * sigma * sigma / h
    return RadiusConstants(
        n=2, theta=math.pi / 4.0, theta_improved=None,
        eps=eps, m=2 * space.k + 2, eps_bold=eps,
        a=a, b=b, sigma=sigma,
        notes=("eps from the spine covering construction (3*eps = cos(pi/4))",),
    )


def _euclidean_region_volume(space: EuclideanSpace, payloads: list[tuple],
                             radius: float) -> float:
    if space.dim == 1:
        intervals = [(p[0] - radius, p[0] + radius) for p in payloads]
        return _merge_length(intervals)
    if space.dim == 2:
        disks = [(p[0], p[1], radius) for p in payloads]
        return _disk_union_halfplane_area(disks, clip=False)
    # n = 3: deterministic midpoint-grid estimate of the union of balls
    los = [min(p[i] for p in payloads) - radius for i in range(3)]
    his = [max(p[i] for p in payloads) + radius for i in range(3)]
    steps = 60
    hs = [(hi - lo) / steps for lo, hi in zip(los, his)]
    cell = hs[0] * hs[1] * hs[2]
    count = 0
    r2 = radius * radius
    for i in range(steps):
        x = los[0] + (i + 0.5) * hs[0]
        for j in range(steps):
            y = los[1] + (j + 0.5) * hs[1]
            for k in range(steps):
                z = los[2] + (k + 0.5) * hs[2]
                for p in payloads:
                    dx, dy, dz = x - p[0], y - p[1], z - p[2]
                    if dx * dx + dy * dy + dz * dz <= r2:
                        count += 1
                        break
    return count * cell
