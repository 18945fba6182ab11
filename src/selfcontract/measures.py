"""Hausdorff measures of neighborhoods and condition-constant estimators.

Neighborhood regions are described by (points, radius): the closed
radius-neighborhood of a finite point set.  Trees carry the
1-dimensional measure via exact interval arithmetic on the segments
their `segments()` lists; spiders list their legs the same way and use
the tree's measure.  Books carry the 2-dimensional measure via
closed-form integration of slice lengths between structural breakpoints.
`_MEASURES` maps each space type to its dimension and measure.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .cones import RadiusConstants, radius_constants
from .errors import GeometryError, UnsupportedSpaceError
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
        if self.radius <= 0:
            raise GeometryError("region radius must be positive")
        check_all_same_space(self.points)

    @property
    def space(self) -> Space:
        return self.points[0].space

    def contains_neighborhood(self, points: Sequence[Point], margin: float) -> bool:
        """Is the margin-neighborhood of `points` inside this region?"""
        space = self.space
        for p in points:
            if min(space.distance(p, q) for q in self.points) > self.radius - margin + 1e-12:
                return False
        return True


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


def _sqrt_primitive(u: float, r: float) -> float:
    """Antiderivative of sqrt(r^2 - u^2)."""
    u = min(max(u, -r), r)
    return 0.5 * (u * math.sqrt(max(r * r - u * u, 0.0)) + r * r * math.asin(u / r))


def _book_sheet_disks(space: BookSpace, payloads: list[tuple],
                      radius: float, sheet: int) -> list[tuple[float, float, float]]:
    disks = []
    for p in payloads:
        i, a, b = p
        center_b = b if (i == sheet or i == 0) else -b
        disks.append((a, center_b, radius))
    return disks


def _disk_union_halfplane_area(disks: list[tuple[float, float, float]],
                               clip: bool = True) -> float:
    """Area of a union of disks, optionally clipped to the half-plane b >= 0.

    Integrates the slice length between structural breakpoints; within a
    segment the union structure is constant, so each envelope piece has
    a closed-form antiderivative.
    """
    if not disks:
        return 0.0
    cuts: set[float] = set()
    for (ac, bc, r) in disks:
        cuts.add(ac - r)
        cuts.add(ac + r)
        if clip and abs(bc) < r:
            w = math.sqrt(r * r - bc * bc)
            cuts.add(ac - w)
            cuts.add(ac + w)
    n = len(disks)
    for i in range(n):
        a1, b1, r1 = disks[i]
        for j in range(i + 1, n):
            a2, b2, r2 = disks[j]
            dx, dy = a2 - a1, b2 - b1
            d2 = dx * dx + dy * dy
            d = math.sqrt(d2)
            if d >= r1 + r2 or d <= abs(r1 - r2) or d == 0.0:
                continue
            # radical-line intersection points of the two circles
            t = (d2 + r1 * r1 - r2 * r2) / (2.0 * d2)
            h2 = r1 * r1 - t * t * d2
            if h2 <= 0:
                continue
            h = math.sqrt(h2) / d
            mx, my = a1 + t * dx, b1 + t * dy
            cuts.add(mx + h * dy)
            cuts.add(mx - h * dy)
    xs = sorted(cuts)
    total = 0.0
    for a0, a1 in zip(xs, xs[1:]):
        if a1 - a0 <= 1e-14:
            continue
        # probe the (constant) slice structure at an asymmetric interior
        # point: the midpoint can coincide with a tangency of the lower
        # envelope and the axis, which would misclassify the clipping
        am = a0 + 0.37371356 * (a1 - a0)
        active = []
        for di, (ac, bc, r) in enumerate(disks):
            u = am - ac
            if abs(u) >= r:
                continue
            h = math.sqrt(r * r - u * u)
            lo, hi = bc - h, bc + h
            if clip and hi <= 0.0:
                continue
            active.append((lo, hi, di))
        if not active:
            continue
        active.sort()
        # merge into components, remembering which disk provides each envelope
        comps: list[tuple[float, int, float, int]] = []  # lo, lo_disk, hi, hi_disk
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
            upper = bc * (a1 - a0) + (_sqrt_primitive(a1 - ac, r)
                                      - _sqrt_primitive(a0 - ac, r))
            if clip and lo < 0.0:
                lower = 0.0
            else:
                ac2, bc2, r2 = disks[lo_d]
                lower = bc2 * (a1 - a0) - (_sqrt_primitive(a1 - ac2, r2)
                                           - _sqrt_primitive(a0 - ac2, r2))
            total += upper - lower
    return total


def _book_h2(space: BookSpace, payloads: list[tuple], radius: float) -> float:
    return math.fsum(
        _disk_union_halfplane_area(_book_sheet_disks(space, payloads, radius, sheet))
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
    if radius <= 0:
        raise GeometryError("radius must be positive")
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
    if sigma <= 0:
        raise GeometryError("sigma must be positive")
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
            leaves = space.leaf_vertices()
            notes = []
            if leaves:
                names = ",".join(space.vertex_names[w] for w in leaves)
                notes.append(
                    f"volume-ratio condition fails at boundary (leaf) vertices: {names}; "
                    "constants assume geodesics extend past them"
                )
        else:
            notes = [
                "volume-ratio condition fails at leg tips; constants assume "
                "geodesics extend past them"
            ]
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
