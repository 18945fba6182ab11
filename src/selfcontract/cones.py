"""Tangent-cone machinery: cone metric, barycenters, covering directions.

The Euclidean cone over the space of directions at a basepoint carries
the metric d((g,s),(h,t)) = sqrt(s^2 + t^2 - 2 s t cos angle(g,h)).
Barycenters in that cone give covering directions for direction sets of
small diameter, with an explicit covering-radius guarantee driven by a
dimension-like counting constant.

`cone_barycenter` checks its directions and radii, and the space
computes the barycenter on payloads with `Space._cone_barycenter`:
Euclidean and hyperbolic spaces take the mean tangent vector, trees and
spiders enumerate their finitely many germs, books fold the other
sheets' germs into each sheet at spine points and take the mean vector's
maximum in closed form, and products recombine the factors'
barycenters.  `direction_cover_center` takes the barycenter of a
separated subset on every space.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import GeometryError
from .measures import covering_theta
from .spaces.base import Direction, Point, Space


def cone_distance(angle: float, s: float, t: float) -> float:
    """Distance in a Euclidean cone between radii s, t at the given angle."""
    if not (0.0 <= s < math.inf and 0.0 <= t < math.inf):
        raise GeometryError(f"cone radii must be finite and nonnegative, got {s!r}, {t!r}")
    if math.isnan(angle):
        raise GeometryError("cone angle must not be NaN")
    a = min(max(angle, 0.0), math.pi)
    q = s * s + t * t - 2.0 * s * t * math.cos(a)
    return math.sqrt(max(q, 0.0))


@dataclass(frozen=True)
class ConePoint:
    """Point of the tangent cone at a basepoint: direction plus radius.

    Radius zero is the cone origin; its direction is irrelevant and may
    be None.
    """

    direction: Direction | None
    radius: float

    def __post_init__(self):
        if not 0.0 <= self.radius < math.inf:
            raise GeometryError(
                f"cone radius must be finite and nonnegative, got {self.radius!r}")


def _dir_payloads(dirs: Sequence[Direction]) -> tuple[Space, Point, list[tuple]]:
    if not dirs:
        raise GeometryError("need at least one direction")
    space = dirs[0].space
    base = dirs[0].base
    for d in dirs:
        if d.space != space or space.distance(d.base, base) > space.tolerance:
            raise GeometryError("directions must share one basepoint")
    return space, base, [d.data for d in dirs]


def cone_barycenter(dirs: Sequence[Direction],
                    radii: Sequence[float] | None = None) -> ConePoint:
    """Minimizer of w -> sum_i d_cone(w, (gamma_i, r_i))^2 in the tangent cone.

    Default radii are 1 (directions identified with unit cone points).
    The space computes it on payloads with `Space._cone_barycenter`.
    """
    space, base, payloads = _dir_payloads(dirs)
    rs = [1.0] * len(payloads) if radii is None else [float(r) for r in radii]
    if len(rs) != len(payloads) or not all(0.0 <= r < math.inf for r in rs):
        raise GeometryError("need one finite nonnegative radius per direction")
    try:
        germ, radius = space._cone_barycenter(base.data, payloads, rs)
    except OverflowError:  # finite radii whose weighted sum is not
        raise GeometryError("cone barycenter overflows at these radii") from None
    return ConePoint(None if germ is None else Direction(space, base, germ), radius)


def greedy_separated_subset(space: Space, dirs: Sequence[Direction]) -> list[Direction]:
    """Maximal subset with pairwise angles >= pi/3, in input order."""
    chosen: list[Direction] = []
    for d in dirs:
        if all(space.direction_angle(d, c) >= math.pi / 3.0 - 1e-12 for c in chosen):
            chosen.append(d)
    return chosen


def direction_cover_center(space: Space, x: Point, dirs: Sequence[Direction]
                           ) -> tuple[Direction, float, int]:
    """Covering direction for a direction set of angular diameter <= pi/2.

    The diameter is the angle sweep's `Space._germ_diameter` at the first
    direction's base, O(m log m) for m directions on the plane, H^2 and
    books.  Greedily extracts a maximal pi/3-separated subset of size m,
    takes its (cone) barycenter direction, and returns (center,
    cover_radius, m) with cover_radius <= arccos(1/(2m)) guaranteed.
    """
    ds = list(dirs)
    if not ds:
        raise GeometryError("need at least one direction")
    for d in ds:
        if space.distance(d.base, x) > space.tolerance:
            raise GeometryError("directions must be based at x")
    if space._germ_diameter(ds[0].base.data, [d.data for d in ds], math.pi / 2.0 + 1e-7)[0] > 0.0:
        raise GeometryError("direction set has angular diameter > pi/2")

    subset = greedy_separated_subset(space, ds)
    m = len(subset)
    cp = cone_barycenter(subset)
    if cp.radius <= 1e-12 or cp.direction is None:
        raise GeometryError("degenerate cone barycenter")
    center = cp.direction
    radius = max(space.direction_angle(center, d) for d in ds)
    bound = covering_theta(m)
    if radius > bound + 1e-7:
        raise GeometryError(
            f"cover radius {radius} exceeds the arccos(1/(2m)) bound {bound}"
        )
    return center, radius, m
