"""Hausdorff measures of neighborhoods and condition-constant estimators.

Neighborhood regions are described by (points, radius): the closed
radius-neighborhood of a finite point set.  The paper's local estimates
live on the spaces: `Space._region_measure` gives the dimension of the
measure a space carries and the measure of a region, and
`Space._condition_constants` the ratio constants (m, eps, a, b, sigma).
Trees and spiders measure covered edge length; books the area of a union
of disks per sheet, the other sheets' disks reflected through the spine;
`euclidean:1/2/3` the region's length, area or volume.  The base class
raises `UnsupportedSpaceError`.

This module is a leaf: it imports no space, and the spaces import the
shared pieces from it: the interval merge, the disk-union area by
Green's theorem, Kahan's triangle height and the dimension-driven
`radius_constants`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import GeometryError, SpaceMismatchError, UnsupportedSpaceError


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
        if any(p.space != self.space for p in self.points):
            raise SpaceMismatchError("points from different spaces")

    @property
    def space(self) -> Space:
        return self.points[0].space

    def contains_neighborhood(self, points: Sequence[Point], margin: float) -> bool:
        """Is the margin-neighborhood of `points` inside this region?"""
        space, centres = self.space, [q.data for q in self.points]
        bound = self.radius - margin + 1e-12
        return not any(min(space._dist_row(space.own(p), centres)) > bound for p in points)


def hausdorff_measure_neighborhood(space: Space, points: Sequence[Point],
                                   radius: float, dim: int) -> float:
    """Hausdorff measure of the radius-neighborhood of a finite point set.

    Trees and spiders support dim=1 (total covered edge length); books
    support dim=2 (covered area summed over sheets); `euclidean:n` for
    n <= 3 supports dim=n (the region's volume).
    """
    if not 0.0 < radius < math.inf:
        raise GeometryError("radius must be positive and finite")
    pts = list(points)
    if not pts:
        raise GeometryError("need at least one point")
    payloads = [space.own(p) for p in pts]
    dimension, value = space._region_measure(payloads, radius)
    if dim != dimension:
        raise UnsupportedSpaceError(
            f"{space.kind}s carry the {dimension}-dimensional measure")
    return value


def estimate_condition_constants(space: Space, region: NeighborhoodRegion,
                                 sigma: float = 1.0) -> RadiusConstants:
    """Fill the ratio constants (m, eps, a, b, sigma) for a bounded region.

    Supported: trees/spiders (counting measure on germs + H^1), books
    (H^1 on directions + H^2), Euclidean n <= 3 (sphere-cap and
    ball-sector ratios).
    """
    if not 0.0 < sigma < math.inf:
        raise GeometryError("sigma must be positive and finite")
    space.own(region.points[0])  # the region's points share one space
    try:
        rc = space._condition_constants([p.data for p in region.points], region.radius, sigma)
    except ZeroDivisionError:  # a region that measures 0.0
        rc = None
    if rc is None or not 0.0 < rc.b < math.inf:
        raise GeometryError("no positive finite constant b: the region measures 0 "
                            "or past the largest float")
    return rc


def _merge_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    last_hi = -math.inf
    for lo, hi in sorted(intervals):
        if hi <= last_hi:
            continue
        total += hi - max(lo, last_hi)
        last_hi = hi
    return total


def _height(a: float, b: float, base: float) -> float:
    """Height over `base` of the triangle with sides a, b, base: 2·area/base,
    the area by Kahan's sorted-side Heron formula, which keeps its digits
    when the triangle is flat to rounding."""
    z, y, x = sorted((a, b, base))
    prod = (x + (y + z)) * (z - (x - y)) * (z + (x - y)) * (x + (y - z))
    return math.sqrt(max(prod, 0.0)) / (2 * base)


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
    twins = _twins(disks)
    disks = [disk for i, disk in enumerate(disks) if i not in twins]
    a0 = disks[0][0]
    terms = []
    for i, (ac, bc, r) in enumerate(disks):
        if clip and bc <= -r:
            continue
        # (centre, half-width) of the angles below the axis or in another disk
        covered = [(-0.5 * math.pi, math.acos(bc / r))] if clip and bc < r else []
        for j, (aj, bj, rj) in enumerate(disks):
            if j == i:
                continue
            d = math.hypot(aj - ac, bj - bc)
            if d <= rj - r:
                break  # inside disk j
            if abs(r - rj) < d < r + rj:
                # Kahan's height keeps its digits near tangency, unlike acos;
                # r - rj is exact for close radii, so d^2 survives in the
                # abscissa of nearly coincident disks, where r^2 + d^2 lost it
                w = math.atan2(_height(r, rj, d), ((r - rj) * (r + rj) + d * d) / (2.0 * d))
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


def _twins(disks: list[tuple[float, float, float]]) -> set[int]:
    """The indices of disks that are the same as an earlier disk to rounding,
    where Kahan's height would underflow: the radii's gap plus the centres'
    distance is at most 1e-15 of the radii's sum.  The union drops them
    whole, so that no arc is covered by a disk whose own arcs do not count.
    Such a pair's abscissae lie within 2e-15 of the largest radius, so only
    disks that close in abscissa are compared."""
    reach = 2e-15 * max(r for _, _, r in disks)
    order = sorted(range(len(disks)), key=lambda i: disks[i][0])
    twins = set()
    for k, i in enumerate(order):
        ai, bi, ri = disks[i]
        for m in range(k + 1, len(order)):
            aj, bj, rj = disks[order[m]]
            if aj - ai > reach:
                break
            if abs(ri - rj) + math.hypot(aj - ai, bj - bi) <= 1e-15 * (ri + rj):
                twins.add(max(i, order[m]))
    return twins


@dataclass(frozen=True)
class RadiusConstants:
    """Dimension-driven covering constants and the derived decrease rates.

    `theta` is the general covering-radius bound arccos(1/(2*3^n)) with
    the improved low-dimension values kept alongside; `eps` is the
    projection decrease rate cos(theta)/3 = 1/(2*3^(n+1)); `m` bounds the
    cardinality of pi/3-separated direction sets; `eps_bold` = 1/(6m).
    The ratio fields a, b and the scale sigma are filled by the
    condition-constant estimators where applicable.
    """

    n: int
    theta: float
    theta_improved: float | None
    eps: float
    m: int
    eps_bold: float
    a: float | None = None
    b: float | None = None
    sigma: float | None = None
    notes: tuple[str, ...] = ()


def covering_theta(m: int) -> float:
    """arccos(1/(2m)): the covering radius of the cone barycenter of m
    pi/3-separated directions."""
    return math.acos(1.0 / (2.0 * m))


_IMPROVED_THETA = {1: 0.0, 2: math.pi / 4.0}


def radius_constants(n: int) -> RadiusConstants:
    if n < 1:
        raise GeometryError("dimension must be >= 1")
    m = 3 ** n
    return RadiusConstants(
        n=n,
        theta=covering_theta(m),
        theta_improved=_IMPROVED_THETA.get(n),
        eps=1.0 / (2.0 * 3 ** (n + 1)),
        m=m,
        eps_bold=1.0 / (6.0 * m),
    )
