"""Metric product of two geodesic spaces with the l2 product distance."""
from __future__ import annotations

import math

from ..errors import GeometryError
from .base import DEFAULT_TOLERANCE, Space, clamp_cos


class ProductSpace(Space):
    """Product X x Y; payloads are (payload_x, payload_y) pairs.

    Geodesics run component-wise at constant speed, and directions carry
    a (germ, weight) pair per factor with weights w_x^2 + w_y^2 = 1; a
    factor standing still contributes weight 0 and germ None.
    """

    kind = "product"

    def __init__(self, left: Space, right: Space, tolerance: float = DEFAULT_TOLERANCE):
        super().__init__(tolerance)
        self.left = left
        self.right = right

    def describe(self) -> str:
        return f"product:[{self.left.describe()}|{self.right.describe()}]"

    def _check(self, data: tuple) -> None:
        if len(data) != 2:
            raise GeometryError("product points are (left payload, right payload)")
        self.left._check(tuple(data[0]))
        self.right._check(tuple(data[1]))

    def _canonical(self, data: tuple) -> tuple:
        return (self.left._canonical(tuple(data[0])), self.right._canonical(tuple(data[1])))

    def _dist(self, a: tuple, b: tuple) -> float:
        return math.hypot(self.left._dist(a[0], b[0]), self.right._dist(a[1], b[1]))

    def _dist_row(self, a: tuple, payloads) -> list[float]:
        left = self.left._dist_row(a[0], [b[0] for b in payloads])
        right = self.right._dist_row(a[1], [b[1] for b in payloads])
        return [math.hypot(x, y) for x, y in zip(left, right)]

    def _geodesic(self, a: tuple, b: tuple, s: float) -> tuple:
        return (self.left._geodesic(a[0], b[0], s), self.right._geodesic(a[1], b[1], s))

    def _log(self, a: tuple, b: tuple) -> tuple[tuple, float]:
        dl = self.left._dist(a[0], b[0])
        dr = self.right._dist(a[1], b[1])
        d = math.hypot(dl, dr)
        germ_l = self.left._log(a[0], b[0])[0] if dl > 0 else None
        germ_r = self.right._log(a[1], b[1])[0] if dr > 0 else None
        return ((germ_l, dl / d), (germ_r, dr / d)), d

    def _angle(self, base: tuple, d1: tuple, d2: tuple) -> float:
        (g1l, w1l), (g1r, w1r) = d1
        (g2l, w2l), (g2r, w2r) = d2
        cos = 0.0
        if g1l is not None and g2l is not None:
            cos += w1l * w2l * math.cos(self.left._angle(base[0], g1l, g2l))
        if g1r is not None and g2r is not None:
            cos += w1r * w2r * math.cos(self.right._angle(base[1], g1r, g2r))
        return math.acos(clamp_cos(cos))

    def _cone_barycenter(self, base: tuple, germs, radii) -> tuple[tuple | None, float]:
        """Per-factor barycenters of the weighted factor germs, recombined."""
        pairs = list(zip(germs, radii))
        germ_l, rl = _factor_barycenter(self.left, base[0], [(g[0], r) for g, r in pairs])
        germ_r, rr = _factor_barycenter(self.right, base[1], [(g[1], r) for g, r in pairs])
        radius = math.hypot(rl, rr)
        if radius <= 1e-14:
            return None, 0.0
        return (((germ_l, rl / radius) if rl > 0 else (None, 0.0),
                 (germ_r, rr / radius) if rr > 0 else (None, 0.0)), radius)

    def _random_point(self, rng, scale: float = 1.0) -> tuple:
        return (self.left._random_point(rng, scale), self.right._random_point(rng, scale))

    def _to_json(self) -> dict:
        return {
            "kind": self.kind,
            "left": self.left._to_json(),
            "right": self.right._to_json(),
            "tolerance": self.tolerance,
        }

    def _point_json(self, data: tuple) -> list:
        return [self.left._point_json(data[0]), self.right._point_json(data[1])]


def _factor_barycenter(factor: Space, base: tuple, weighted: list) -> tuple[tuple | None, float]:
    """`factor._cone_barycenter` of the factor germs ((g, w), r) at radius
    r w.  A factor standing still (g None) or at radius 0 adds a constant t^2
    per germ to the sum, which rescales the radius by the live share."""
    live = [(g, r * w) for (g, w), r in weighted if g is not None and r * w > 0]
    if not live:
        return None, 0.0
    germ, radius = factor._cone_barycenter(base, [g for g, _ in live], [r for _, r in live])
    return germ, radius * len(live) / len(weighted)
