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
from .base import Space, integral_index, polar_diameter, polar_gap


class BookSpace(Space):
    kind = "book"

    def __init__(self, k: int, tolerance: float = 1e-9):
        super().__init__(tolerance)
        self.k = integral_index(k)
        if self.k < 2:
            raise GeometryError("a book needs k >= 2 sheets")

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
        # a spine b2 is 0.0, so a2 + b2 is a2 - b2 up to a sign hypot ignores
        if a[0] == b[0]:
            return math.hypot(a[1] - b[1], a[2] - b[2])
        return math.hypot(a[1] - b[1], a[2] + b[2])

    def _dist_row(self, a: tuple, payloads) -> list[float]:
        s, x, y = a
        return [math.hypot(x - u, y - v if t == s else y + v) for t, u, v in payloads]

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
        d = self._dist(a, b)
        return self._log_row(a, (b,), (d,))[0], d

    def _log_row(self, base: tuple, payloads, dists) -> list[tuple]:
        # the unit tangent toward b unfolded into the plane of the base's
        # sheet; r is _dist's hypot, whose terms differ from these in sign only
        s0, a1, a2 = base
        if s0 == 0:
            return [spine_germ(b[0], (b[1] - a1) / r, (b[2] - a2) / r)
                    for b, r in zip(payloads, dists)]
        # b in another sheet is reflected below the spine (-0.0 - a2 is 0.0 - a2)
        return [(s0, (b[1] - a1) / r, ((b[2] if b[0] == s0 else -b[2]) - a2) / r)
                for b, r in zip(payloads, dists)]

    # A germ's polar angle atan2(y, x) is taken in the base's sheet, with
    # other sheets unfolded below the spine, or at a spine base from the
    # +spine ray, in [0, pi].  There, germs in two different sheets meet
    # through a spine ray, at min(s, 2 pi - s) with s the sum of the two.

    def _angle(self, base: tuple, d1: tuple, d2: tuple) -> float:
        t1, t2 = math.atan2(d1[2], d1[1]), math.atan2(d2[2], d2[1])
        if base[0] == 0 and d1[0] != d2[0] and d1[0] != 0 and d2[0] != 0:
            turn = t1 + t2
            return min(turn, 2.0 * math.pi - turn)
        return polar_gap(t1, t2)

    def _germ_diameter(self, base: tuple, germs, limit: float) -> tuple[float, int, int]:
        polar = [math.atan2(g[2], g[1]) for g in germs]
        if base[0] != 0:
            return polar_diameter(polar, limit)
        s = np.array([g[0] for g in germs])
        return polar_diameter(polar, limit, (s[:, None] != s) & (s[:, None] != 0) & (s != 0))

    def _cone_barycenter(self, base: tuple, germs, radii) -> tuple[tuple | None, float]:
        n = len(germs)
        mx = math.fsum(r * g[1] for g, r in zip(germs, radii)) / n
        if base[0] != 0:
            # interior point: the direction space is a plain circle
            vy = math.fsum(r * g[2] for g, r in zip(germs, radii)) / n
            norm = math.hypot(mx, vy)
            if norm <= 1e-14:
                return None, 0.0
            return (base[0], mx / norm, vy / norm), norm
        # At a spine point the unit direction u at angle alpha in sheet s has
        # mean cosine <u, m_s>: a germ of another sheet lies at min(alpha + a,
        # 2 pi - alpha - a), whose cosine is cos(alpha + a), so its ordinate
        # enters m_s reflected.  Over alpha in [0, pi] the maximum is |m_s| at
        # m_s / |m_s| when m_s points into the sheet, |m_x| on a spine ray if not.
        sheets = sorted({g[0] for g in germs if g[0] != 0}) or [1]
        best = (-math.inf, sheets[0], 0.0)
        for sheet in sheets:
            my = math.fsum(r * (abs(g[2]) if g[0] in (0, sheet) else -abs(g[2]))
                           for g, r in zip(germs, radii)) / n
            if my > 0.0:
                val, alpha = math.hypot(mx, my), math.atan2(my, mx)
            else:
                val, alpha = abs(mx), (0.0 if mx >= 0.0 else math.pi)
            if val > best[0]:
                best = (val, sheet, alpha)
        val, sheet, alpha = best
        t = max(val, 0.0)
        if t <= 1e-14:
            return None, 0.0
        return spine_germ(sheet, math.cos(alpha), math.sin(alpha)), t

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
        return spine_germ(sheet, math.cos(theta), math.sin(theta))

    def _to_json(self) -> dict:
        return {"kind": self.kind, "k": self.k, "tolerance": self.tolerance}

    def _point_json(self, data: tuple) -> list:
        return [int(data[0]), float(data[1]), float(data[2])]


def spine_germ(sheet: int, ux: float, uy: float) -> tuple:
    """The germ at a spine point with unfolded unit tangent (ux, uy): along
    the spine, or into `sheet`."""
    if abs(uy) <= 1e-15:
        return (0, 1.0 if ux > 0 else -1.0, 0.0)
    return (sheet, ux, abs(uy))
