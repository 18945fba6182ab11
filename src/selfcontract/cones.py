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
from .spaces.base import Direction, Point, Space, clamp_cos


def cone_distance(angle: float, s: float, t: float) -> float:
    """Distance in a Euclidean cone between radii s, t at the given angle."""
    if s < 0 or t < 0:
        raise GeometryError("cone radii must be nonnegative")
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
        if self.radius < 0:
            raise GeometryError("cone radius must be nonnegative")


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
    if len(rs) != len(payloads) or any(r < 0 for r in rs):
        raise GeometryError("need one nonnegative radius per direction")
    germ, radius = space._cone_barycenter(base.data, payloads, rs)
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

    Greedily extracts a maximal pi/3-separated subset of size m, takes
    its (cone) barycenter direction, and returns (center, cover_radius,
    m) with cover_radius <= arccos(1/(2m)) guaranteed.
    """
    ds = list(dirs)
    if not ds:
        raise GeometryError("need at least one direction")
    for d in ds:
        if space.distance(d.base, x) > space.tolerance:
            raise GeometryError("directions must be based at x")
    n = len(ds)
    for i in range(n):
        for j in range(i + 1, n):
            if space.direction_angle(ds[i], ds[j]) > math.pi / 2.0 + 1e-7:
                raise GeometryError("direction set has angular diameter > pi/2")

    subset = greedy_separated_subset(space, ds)
    m = len(subset)
    cp = cone_barycenter(subset)
    if cp.radius <= 1e-12 or cp.direction is None:
        raise GeometryError("degenerate cone barycenter")
    center = cp.direction
    radius = max(space.direction_angle(center, d) for d in ds)
    bound = math.acos(clamp_cos(1.0 / (2.0 * m)))
    if radius > bound + 1e-7:
        raise GeometryError(
            f"cover radius {radius} exceeds the arccos(1/(2m)) bound {bound}"
        )
    return center, radius, m


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


_IMPROVED_THETA = {1: 0.0, 2: math.pi / 4.0}


def radius_constants(n: int) -> RadiusConstants:
    if n < 1:
        raise GeometryError("dimension must be >= 1")
    m = 3 ** n
    theta = math.acos(1.0 / (2.0 * m))
    eps = 1.0 / (2.0 * 3 ** (n + 1))
    return RadiusConstants(
        n=n,
        theta=theta,
        theta_improved=_IMPROVED_THETA.get(n),
        eps=eps,
        m=m,
        eps_bold=1.0 / (6.0 * m),
    )
