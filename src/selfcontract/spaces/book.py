"""Open books: k Euclidean half-planes glued along a shared spine line.

A point is (sheet, a, b) with b >= 0; all (i, a, 0) are identified, and
the canonical spine representation uses sheet 0.  Distances across
sheets come from unfolding the two half-planes into one plane, which
reflects the second point to (a', -b').
"""
from __future__ import annotations

import math

from ..errors import GeometryError
from ..measures import RadiusConstants, _disk_union_halfplane_area
from .base import DEFAULT_TOLERANCE, Point, Space, integral_index, polar_diameter, polar_gap


class BookSpace(Space):
    kind = "book"

    def __init__(self, k: int, tolerance: float = DEFAULT_TOLERANCE):
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

    def _geodesic(self, a: tuple, b: tuple, s: float) -> tuple:
        # unfold the two sheets into one plane with a above the spine, and b
        # reflected below it when the segment crosses into another sheet
        cross = a[0] != b[0] and a[0] != 0 and b[0] != 0
        yb = -b[2] if cross else b[2]
        x = (1 - s) * a[1] + s * b[1]
        y = (1 - s) * a[2] + s * yb
        if y >= 0.0:
            return ((a[0] or b[0]) if abs(y) > self.tolerance else 0, x, max(y, 0.0))
        return (b[0], x, -y)

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
        # At the spine, germs in two sheets meet at their turn, not at their
        # polar gap, so such a base takes the scalar loop.
        if base[0] == 0 and len({g[0] for g in germs} - {0}) > 1:
            return super()._germ_diameter(base, germs, limit)
        return polar_diameter([math.atan2(g[2], g[1]) for g in germs], limit)

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

    def _region_measure(self, payloads, radius: float) -> tuple[int, float]:
        # per sheet, the disks above the spine with the other sheets' reflected
        return 2, math.fsum(
            _disk_union_halfplane_area([(a, b if (i == sheet or i == 0) else -b, radius)
                                        for i, a, b in payloads])
            for sheet in range(1, self.k + 1)
        )

    def _condition_constants(self, payloads, radius: float, sigma: float) -> RadiusConstants:
        # H^1 on the directions and H^2
        h = self._region_measure(payloads, radius)[1]
        eps = 1.0 / (3.0 * math.sqrt(2.0))  # 3*eps = cos(pi/4)
        return RadiusConstants(
            n=2, theta=math.pi / 4.0, theta_improved=None,
            eps=eps, m=2 * self.k + 2, eps_bold=eps,
            a=(4.0 / (self.k * math.pi)) * math.asin(eps / 2.0),
            b=2.0 * math.asin(eps / 2.0) * sigma * sigma / h,
            sigma=sigma,
            notes=("eps from the spine covering construction (3*eps = cos(pi/4))",),
        )

    def _search_pieces(self, x: tuple, radius: float, box, start: float):
        # the spine, then each sheet as a half-plane whose b = 0 side, the
        # spine, is not a window side; the window reaches x's height
        _, xa, xb = x
        radius = max(radius, start * xb)

        def on_sheet(sheet):
            return lambda coords: Point(self, self._canonical(
                (sheet, coords[0], max(coords[1], 0.0) if sheet else 0.0)))

        lo, hi = xa - radius, xa + radius
        return radius, [(on_sheet(0), [lo], [hi], (True, True))] + [
            (on_sheet(sheet), [lo, 0.0], [hi, radius], (True, True, False, True))
            for sheet in range(1, self.k + 1)]

    def _random_point(self, rng, scale: float = 1.0) -> tuple:
        # rng.uniform(-scale, scale) and rng.uniform(0.0, scale), one double
        # each, by numpy's own lo + (hi - lo) * u (0.0 + x is x for x >= 0)
        # without its per-call cost.  numpy refuses a width that is not
        # finite or has its sign bit set; the width scale is refused only
        # where 2 * scale is, so numpy raises its own error on each refusal.
        # Books keep the base class's one-point stream: the sheet's integer
        # draw falls between the doubles, so no block of doubles holds them.
        sheet = int(rng.integers(1, self.k + 1))
        width = scale - -scale
        if not math.isfinite(width) or math.copysign(1.0, width) < 0.0:
            rng.uniform(-scale, scale)
        return (sheet, -scale + width * rng.random(), scale * rng.random())

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
