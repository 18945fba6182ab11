"""Euclidean space R^n with the standard inner-product geometry."""
from __future__ import annotations

import dataclasses
import math

import numpy as np

from ..errors import GeometryError, UnsupportedSpaceError
from ..measures import RadiusConstants, _disk_union_halfplane_area, _merge_length, radius_constants
from .base import (DEFAULT_TOLERANCE, RANDOM_BLOCK, Point, Space, clamp_cos, first_unlike,
                   integral_index, polar_diameter, polar_gap, sqrt_fsum, tangent_mean, vec_dot,
                   vec_norm, vec_scale, vec_sub)


class EuclideanSpace(Space):
    kind = "euclidean"

    def __init__(self, dim: int, tolerance: float = DEFAULT_TOLERANCE):
        super().__init__(tolerance)
        self.dim = integral_index(dim)
        if self.dim < 1:
            raise GeometryError("dimension must be >= 1")

    def describe(self) -> str:
        return f"euclidean:{self.dim}"

    def _check(self, data: tuple) -> None:
        if len(data) != self.dim:
            raise GeometryError(f"expected {self.dim} coordinates, got {len(data)}")
        if not all(math.isfinite(float(x)) for x in data):
            raise GeometryError("non-finite coordinate")

    def _canonical(self, data: tuple) -> tuple:
        return tuple(map(float, data))

    # In up to two coordinates the fsum in vec_norm and vec_dot is one
    # rounded add, so a plain add reproduces the scalar kernels bit for bit.
    # abs(dx) on the line: sqrt(dx * dx) is the same wherever the square
    # neither underflows nor overflows, and exact where it does.

    def _dist(self, a: tuple, b: tuple) -> float:
        if self.dim == 1:
            return abs(a[0] - b[0])
        if self.dim == 2:
            x, y = a[0] - b[0], a[1] - b[1]
            return math.sqrt(x * x + y * y)
        return vec_norm(vec_sub(a, b))

    def _dist_row(self, a: tuple, payloads) -> list[float]:
        if self.dim > 2:
            # (b - a)^2 is (a - b)^2, and fsum rounds once in any order
            with np.errstate(over="ignore"):
                sq = np.square(np.array(payloads, dtype=float).reshape(-1, self.dim) - a)
            return [sqrt_fsum(squares) for squares in sq.tolist()]
        row = []
        if self.dim == 1:
            (x,) = a
            for (u,) in payloads:
                row.append(abs(x - u))
        else:
            x, y = a
            for u, v in payloads:
                dx, dy = x - u, y - v
                row.append(math.sqrt(dx * dx + dy * dy))
        return row

    def _geodesic(self, a: tuple, b: tuple, s: float) -> tuple:
        # the loop's (1.0 - s) * x + s * y, written out in up to two coordinates
        r = 1.0 - s
        if self.dim == 1:
            return (r * a[0] + s * b[0],)
        if self.dim == 2:
            return (r * a[0] + s * b[0], r * a[1] + s * b[1])
        return tuple(r * x + s * y for x, y in zip(a, b))

    def _log(self, a: tuple, b: tuple) -> tuple[tuple, float]:
        diff = vec_sub(b, a)
        r = abs(diff[0]) if self.dim == 1 else vec_norm(diff)
        return vec_scale(1.0 / r, diff), r

    def _log_row(self, base: tuple, payloads, dists) -> list[tuple]:
        # r from the row is _log's vec_norm: (a - b)^2 is (b - a)^2
        if self.dim == 1:
            return [((1.0 / r) * (b[0] - base[0]),) for b, r in zip(payloads, dists)]
        if self.dim == 2:
            x, y = base
            return [((1.0 / r) * (b[0] - x), (1.0 / r) * (b[1] - y))
                    for b, r in zip(payloads, dists)]
        return super()._log_row(base, payloads, dists)

    def _polar(self, d: tuple) -> float:
        """The polar angle of a germ of R^1 or R^2."""
        return math.atan2(d[1] if self.dim == 2 else 0.0, d[0])

    def _angle(self, base: tuple, d1: tuple, d2: tuple) -> float:
        if self.dim > 2:
            return math.acos(clamp_cos(vec_dot(d1, d2)))
        return polar_gap(self._polar(d1), self._polar(d2))

    def _germ_diameter(self, base: tuple, germs, limit: float) -> tuple[float, int, int]:
        if self.dim > 2:
            return super()._germ_diameter(base, germs, limit)
        if self.dim == 1:
            # polar angles 0 and pi, as the sign of the germ, -0.0 included
            return first_unlike([math.copysign(1.0, g[0]) for g in germs], limit)
        return polar_diameter([self._polar(g) for g in germs], limit)

    def _random_point(self, rng, scale: float = 1.0) -> tuple:
        return tuple(float(x) for x in rng.uniform(-scale, scale, self.dim))

    def _random_points(self, rng, scale: float = 1.0):
        while True:
            yield from map(tuple, rng.uniform(-scale, scale, (RANDOM_BLOCK, self.dim)).tolist())

    def _cone_barycenter(self, base: tuple, germs, radii) -> tuple[tuple | None, float]:
        return tangent_mean(germs, radii, vec_norm)

    def _region_measure(self, payloads, radius: float) -> tuple[int, float]:
        if self.dim == 1:
            return 1, _merge_length([(p[0] - radius, p[0] + radius) for p in payloads])
        if self.dim == 2:
            return 2, _disk_union_halfplane_area([(p[0], p[1], radius) for p in payloads],
                                                 clip=False)
        if self.dim > 3:
            raise UnsupportedSpaceError("Euclidean estimates implemented for n <= 3")
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
        return 3, count * cell

    def _condition_constants(self, payloads, radius: float, sigma: float) -> RadiusConstants:
        # a: the fraction of the unit sphere inside the chordal eps_bold-cap;
        # b: the sigma-ball sector of that cap over the region's volume
        n = self.dim
        if n > 3:
            raise UnsupportedSpaceError("Euclidean estimates implemented for n <= 3")
        rc = radius_constants(n)
        cap = 2.0 * math.asin(rc.eps_bold / 2.0)
        a = 0.5 if n == 1 else cap / math.pi if n == 2 else 0.5 * (1.0 - math.cos(cap))
        unit_ball = (2.0, math.pi, 4.0 * math.pi / 3.0)[n - 1]
        b = unit_ball * sigma ** n * a / self._region_measure(payloads, radius)[1]
        return dataclasses.replace(rc, a=a, b=b, sigma=sigma)

    def _search_pieces(self, x: tuple, radius: float, box, start: float):
        # one box: the window centred at x, or the box domain, which has no
        # window sides
        if self.dim > 2:
            raise UnsupportedSpaceError("resolvent solver covers Euclidean dimensions 1 and 2")

        def to_point(coords) -> Point:
            return Point(self, self._canonical(tuple(coords)))

        if box is not None:
            return radius, [(to_point, [b[0] for b in box.bounds], [b[1] for b in box.bounds],
                             (False,) * (2 * self.dim))]
        return radius, [(to_point, [c - radius for c in x], [c + radius for c in x],
                         (True,) * (2 * self.dim))]

    def _to_json(self) -> dict:
        return {"kind": self.kind, "dim": self.dim, "tolerance": self.tolerance}

    def _point_json(self, data: tuple) -> list:
        return list(data)
