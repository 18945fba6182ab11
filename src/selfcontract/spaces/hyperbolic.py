"""Hyperbolic plane in the hyperboloid model.

Points sit on the upper sheet { x : <x,x> = -1, x0 > 0 } of the Minkowski
quadric with signature (-,+,+).  Closed-form geodesics and angles make
this the smooth negatively-curved test bed; no ODE integration anywhere.
"""
from __future__ import annotations

import math
from functools import cached_property

from ..errors import GeometryError
from .base import Point, Space, polar_diameter, polar_gap, tangent_mean


def mdot(a: tuple, b: tuple) -> float:
    """Minkowski inner product, timelike coordinate first."""
    return a[1] * b[1] + a[2] * b[2] - a[0] * b[0]


def _germ(a: tuple, b: tuple, d: float) -> tuple:
    """The unit tangent at a toward b, which lies at distance d > 0."""
    ch, sh = math.cosh(d), math.sinh(d)
    return ((b[0] - ch * a[0]) / sh, (b[1] - ch * a[1]) / sh, (b[2] - ch * a[2]) / sh)


class HyperbolicPlane(Space):
    kind = "hyperbolic2"

    def _check(self, data: tuple) -> None:
        if len(data) != 3:
            raise GeometryError("hyperboloid points have 3 coordinates")
        if not all(math.isfinite(float(x)) for x in data):
            raise GeometryError("non-finite coordinate")
        if data[0] <= 0:
            raise GeometryError("point not on the upper sheet")
        if abs(mdot(data, data) + 1.0) > 1e-6:
            raise GeometryError("point not on the hyperboloid <x,x> = -1")

    def _canonical(self, data: tuple) -> tuple:
        # re-project onto the sheet to stop drift from accumulating
        x = tuple(float(v) for v in data)
        q = -mdot(x, x)
        if q <= 0.0:
            raise GeometryError("point lost the hyperboloid: <x,x> >= 0")
        n = math.sqrt(q)
        return (x[0] / n, x[1] / n, x[2] / n)

    def _dist(self, a: tuple, b: tuple) -> float:
        # 2*asinh(|a-b|_M / 2) is stable for nearby points, unlike acosh(-<a,b>)
        diff = (a[0] - b[0], a[1] - b[1], a[2] - b[2])
        q = mdot(diff, diff)
        if q <= 0.0:
            return 0.0
        return 2.0 * math.asinh(0.5 * math.sqrt(q))

    def _dist_row(self, a: tuple, payloads) -> list[float]:
        a0, a1, a2 = a
        row = []
        for b0, b1, b2 in payloads:
            d0, d1, d2 = a0 - b0, a1 - b1, a2 - b2
            q = d1 * d1 + d2 * d2 - d0 * d0
            row.append(0.0 if q <= 0.0 else 2.0 * math.asinh(0.5 * math.sqrt(q)))
        return row

    def _log(self, a: tuple, b: tuple) -> tuple[tuple, float]:
        d = self._dist(a, b)
        if d == 0.0:
            raise GeometryError("no tangent between coincident points")
        return _germ(a, b, d), d

    def _log_row(self, base: tuple, payloads, dists) -> list[tuple]:
        return [_germ(base, b, d) for b, d in zip(payloads, dists)]

    def _geodesic(self, a: tuple, b: tuple, s: float) -> tuple:
        if s == 0.0:
            return a
        if s == 1.0:
            return b
        d = self._dist(a, b)
        if d == 0.0:
            return a
        return self.exp(a, _germ(a, b, d), s * d)

    def _polars(self, base: tuple, germs) -> list[float]:
        """The germs' polar angles in the frame `tangent_basis(base)`, where
        the Minkowski form is Riemannian."""
        e1, e2 = self.tangent_basis(base)
        return [math.atan2(mdot(g, e2), mdot(g, e1)) for g in germs]

    def _angle(self, base: tuple, d1: tuple, d2: tuple) -> float:
        return polar_gap(*self._polars(base, (d1, d2)))

    def _germ_diameter(self, base: tuple, germs, limit: float) -> tuple[float, int, int]:
        return polar_diameter(self._polars(base, germs), limit)

    def _cone_barycenter(self, base: tuple, germs, radii) -> tuple[tuple | None, float]:
        # tangent vectors at base measured in the Minkowski form
        return tangent_mean(germs, radii, lambda v: math.sqrt(max(mdot(v, v), 0.0)))

    def _search_pieces(self, x: tuple, radius: float, box, start: float):
        # the exp chart at x: a window centred at 0 of the tangent plane
        e1, e2 = self.tangent_basis(x)

        def to_point(coords) -> Point:
            v1, v2 = coords
            r = math.hypot(v1, v2)
            if r == 0.0:
                return Point(self, x)
            u = tuple((v1 * e1[i] + v2 * e2[i]) / r for i in range(3))
            return Point(self, self.exp(x, u, r))

        return radius, [(to_point, [-radius, -radius], [radius, radius], (True,) * 4)]

    def exp(self, p: tuple, v: tuple, t: float) -> tuple:
        """Exponential map: walk distance t from payload p along unit tangent v."""
        ch, sh = math.cosh(t), math.sinh(t)
        return self._canonical(tuple(ch * p[i] + sh * v[i] for i in range(3)))

    def origin(self) -> tuple:
        return (1.0, 0.0, 0.0)

    def tangent_basis(self, p: tuple) -> tuple[tuple, tuple]:
        """Orthonormal tangent basis at p (Minkowski-orthogonal to p).  Both
        projections onto p's tangent plane have square <v,v> + <p,v>^2 >= 1."""
        e1 = self._project_tangent(p, (0.0, 1.0, 0.0))
        n = math.sqrt(max(mdot(e1, e1), 0.0))
        e1 = tuple(x / n for x in e1)
        e2 = self._project_tangent(p, (0.0, -e1[2], e1[1]))
        n2 = math.sqrt(mdot(e2, e2))
        e2 = tuple(x / n2 for x in e2)
        return e1, e2

    @cached_property
    def _origin_basis(self) -> tuple[tuple, tuple]:
        return self.tangent_basis(self.origin())

    def _project_tangent(self, p: tuple, v: tuple) -> tuple:
        c = mdot(p, v)
        return tuple(v[i] + c * p[i] for i in range(3))

    def _random_point(self, rng, scale: float = 1.0) -> tuple:
        """The point at a uniform distance in [0, scale] from the origin in
        a uniform polar direction."""
        theta = float(rng.uniform(0.0, 2.0 * math.pi))
        r = float(rng.uniform(0.0, scale))
        e1, e2 = self._origin_basis
        v = tuple(math.cos(theta) * e1[i] + math.sin(theta) * e2[i] for i in range(3))
        return self.exp(self.origin(), v, r)

    def random_direction(self, rng, base: tuple) -> tuple:
        theta = float(rng.uniform(0.0, 2.0 * math.pi))
        e1, e2 = self.tangent_basis(base)
        return tuple(math.cos(theta) * e1[i] + math.sin(theta) * e2[i] for i in range(3))

    def _to_json(self) -> dict:
        return {"kind": self.kind, "tolerance": self.tolerance}

    def _point_json(self, data: tuple) -> list:
        return list(data)
