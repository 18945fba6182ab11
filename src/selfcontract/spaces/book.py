"""Open books: k Euclidean half-planes glued along a shared spine line.

A point is (sheet, a, b) with b >= 0; all (i, a, 0) are identified, and
the canonical spine representation uses sheet 0.  Distances across
sheets come from unfolding the two half-planes into one plane, which
reflects the second point to (a', -b').
"""
from __future__ import annotations

import math

import numpy as np

from ..errors import GeometryError
from .base import (Space, acos_excess, clamp_cos, first_pair, germ_array, integral_index,
                   widest_pair)


class BookSpace(Space):
    kind = "book"

    def __init__(self, k: int, tolerance: float = 1e-9):
        super().__init__(tolerance)
        if k < 2:
            raise GeometryError("a book needs k >= 2 sheets")
        self.k = int(k)

    def describe(self) -> str:
        return f"book:{self.k}"

    def _check(self, data: tuple) -> None:
        if len(data) != 3:
            raise GeometryError("book points are (sheet, a, b)")
        sheet, a, b = integral_index(data[0]), float(data[1]), float(data[2])
        if not (math.isfinite(a) and math.isfinite(b)):
            raise GeometryError("non-finite coordinate")
        if sheet == 0:
            if abs(b) > self.tolerance:
                raise GeometryError("spine representation requires b = 0")
            return
        if not 1 <= sheet <= self.k:
            raise GeometryError(f"sheet {sheet} out of range 1..{self.k}")
        if b < -self.tolerance:
            raise GeometryError("b must be nonnegative")

    def _canonical(self, data: tuple) -> tuple:
        sheet, a, b = int(data[0]), float(data[1]), float(data[2])
        if sheet == 0 or b <= self.tolerance:
            return (0, a, 0.0)
        return (sheet, a, b)

    def _dist(self, a: tuple, b: tuple) -> float:
        if a[0] == b[0] or a[0] == 0 or b[0] == 0:
            return math.hypot(a[1] - b[1], a[2] - b[2])
        return math.hypot(a[1] - b[1], a[2] + b[2])

    def _unfold(self, a: tuple, b: tuple) -> tuple[tuple, tuple, int, int]:
        """Planar coordinates of a and b with a in the upper half-plane.

        Returns (pa, pb, sheet_up, sheet_down): pb has negative second
        coordinate when the segment crosses into a different sheet.
        """
        same = a[0] == b[0] or a[0] == 0 or b[0] == 0
        pa = (a[1], a[2])
        if same:
            pb = (b[1], b[2])
            up = a[0] if a[0] != 0 else b[0]
            return pa, pb, up, up
        return pa, (b[1], -b[2]), a[0], b[0]

    def _geodesic(self, a: tuple, b: tuple, s: float) -> tuple:
        pa, pb, up, down = self._unfold(a, b)
        x = (1 - s) * pa[0] + s * pb[0]
        y = (1 - s) * pa[1] + s * pb[1]
        if y >= 0.0:
            sheet = up if up != 0 else down
            return (sheet if abs(y) > self.tolerance else 0, x, max(y, 0.0))
        return (down, x, -y)

    def _log(self, a: tuple, b: tuple) -> tuple[tuple, float]:
        pa, pb, up, down = self._unfold(a, b)
        dx, dy = pb[0] - pa[0], pb[1] - pa[1]
        r = math.hypot(dx, dy)
        ux, uy = dx / r, dy / r
        if a[0] != 0:
            # interior basepoint: germ lives in a's sheet with its own sign of b
            return (a[0], ux, uy), r
        return _spine_germ(up if uy > 0 else down, ux, uy), r

    def _log_row(self, base: tuple, payloads, dists) -> list[tuple]:
        # _log with r from the row; _dist's hypot is _log's, up to signs
        s0, a1, a2 = base
        if s0 == 0:
            return [_spine_germ(b[0], (b[1] - a1) / r, (b[2] - a2) / r)
                    for b, r in zip(payloads, dists)]
        # _unfold reflects b below the spine when it is in another sheet
        return [(s0, (b[1] - a1) / r, ((b[2] if b[0] in (s0, 0) else -b[2]) - a2) / r)
                for b, r in zip(payloads, dists)]

    def _angle(self, base: tuple, d1: tuple, d2: tuple) -> float:
        s1, x1, y1 = d1
        s2, x2, y2 = d2
        planar = math.acos(clamp_cos(x1 * x2 + y1 * y2))
        if base[0] != 0:
            return planar
        if s1 == 0 or s2 == 0 or s1 == s2:
            return planar
        # different sheets at a spine point: paths run through a spine ray
        a1 = math.atan2(abs(y1), x1)
        a2 = math.atan2(abs(y2), x2)
        return min(a1 + a2, 2.0 * math.pi - a1 - a2)

    def _germ_diameter(self, base: tuple, germs, limit: float) -> tuple[float, int, int]:
        s, x, y = germ_array(germs).T
        cos = x[:, None] * x + y[:, None] * y  # _angle's planar cosine
        if base[0] != 0:
            return widest_pair(cos, limit)
        cross = (s[:, None] != s) & (s[:, None] != 0) & (s != 0)
        if not cross.any():
            return widest_pair(cos, limit)
        # at a spine base, germs in two different sheets meet through a
        # spine ray: _angle's turn, elementwise, on the pairs (a, b > a)
        best, hits = acos_excess(cos, limit, ~cross)
        t = np.array([math.atan2(abs(g[2]), g[1]) for g in germs])
        turn = np.fmin(t[:, None] + t, (2.0 * math.pi - t)[:, None] - t) - limit
        turn = np.where(np.triu(cross), turn, -math.inf)
        top = float(turn.max())
        if top > best:
            best, hits = top, turn == top
        elif top == best:
            hits |= turn == top
        return best, *first_pair(hits)

    def _random_point(self, rng, scale: float = 1.0) -> tuple:
        sheet = int(rng.integers(1, self.k + 1))
        a = float(rng.uniform(-scale, scale))
        b = float(rng.uniform(0.0, scale))
        return (sheet, a, b)

    def random_direction(self, rng, base: tuple) -> tuple:
        if base[0] != 0:
            theta = float(rng.uniform(0.0, 2.0 * math.pi))
            return (base[0], math.cos(theta), math.sin(theta))
        sheet = int(rng.integers(1, self.k + 1))
        theta = float(rng.uniform(0.0, math.pi))
        if theta <= 1e-12 or theta >= math.pi - 1e-12:
            return (0, 1.0 if theta <= 1e-12 else -1.0, 0.0)
        return (sheet, math.cos(theta), math.sin(theta))

    def _to_json(self) -> dict:
        return {"kind": self.kind, "k": self.k, "tolerance": self.tolerance}

    def _point_json(self, data: tuple) -> list:
        return [int(data[0]), float(data[1]), float(data[2])]


def _spine_germ(sheet: int, ux: float, uy: float) -> tuple:
    """The germ at a spine point with unfolded unit tangent (ux, uy): along
    the spine, or into `sheet`."""
    if abs(uy) <= 1e-15:
        return (0, 1.0 if ux > 0 else -1.0, 0.0)
    return (sheet, ux, abs(uy))
