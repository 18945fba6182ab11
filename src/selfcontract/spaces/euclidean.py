"""Euclidean space R^n with the standard inner-product geometry."""
from __future__ import annotations

import math

import numpy as np

from ..errors import GeometryError
from .base import (RANDOM_BLOCK, Space, clamp_cos, first_unlike, integral_index,
                   polar_diameter, polar_gap, sqrt_fsum, vec_dot, vec_norm, vec_scale, vec_sub)


class EuclideanSpace(Space):
    kind = "euclidean"

    def __init__(self, dim: int, tolerance: float = 1e-9):
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
        return tuple(float(x) for x in data)

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
        return tuple((1.0 - s) * x + s * y for x, y in zip(a, b))

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

    def tangent_norm(self, v: tuple) -> float:
        return vec_norm(v)

    def _to_json(self) -> dict:
        return {"kind": self.kind, "dim": self.dim, "tolerance": self.tolerance}

    def _point_json(self, data: tuple) -> list:
        return list(data)
