"""Tangent-cone machinery: cone metric, barycenters, covering directions.

The Euclidean cone over the space of directions at a basepoint carries
the metric d((g,s),(h,t)) = sqrt(s^2 + t^2 - 2 s t cos angle(g,h)).
Barycenters in that cone give covering directions for direction sets of
small diameter, with an explicit covering-radius guarantee driven by a
dimension-like counting constant.

`cone_barycenter` looks the space's type up in `_BARYCENTERS`: Euclidean
and hyperbolic spaces share the tangent-vector mean (each space supplies
its `tangent_norm`), trees and spiders enumerate their finitely many
germs, books fold the other sheets' germs into each sheet at spine
points and take the mean vector's maximum in closed form, and products
recombine the factors' barycenters.  `direction_cover_center` takes the
barycenter of a separated subset on every space.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import GeometryError, UnsupportedSpaceError
from .spaces.base import Direction, Point, Space, clamp_cos
from .spaces.book import BookSpace, spine_germ
from .spaces.euclidean import EuclideanSpace
from .spaces.hyperbolic import HyperbolicPlane
from .spaces.product import ProductSpace
from .spaces.tree import SpiderSpace, TreeSpace


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
    Linear tangent spaces use the closed-form vector mean; graph-like
    direction spaces enumerate candidate rays; book spine points take the
    best sheet's folded mean vector.
    """
    space, base, payloads = _dir_payloads(dirs)
    rs = [1.0] * len(payloads) if radii is None else [float(r) for r in radii]
    if len(rs) != len(payloads) or any(r < 0 for r in rs):
        raise GeometryError("need one nonnegative radius per direction")

    barycenter = _BARYCENTERS.get(type(space))
    if barycenter is None:
        raise UnsupportedSpaceError(f"no cone barycenter on {space.describe()}")
    return barycenter(space, base, payloads, rs)


def _tangent_mean(space, base, payloads, rs) -> ConePoint:
    """Linear tangent spaces: the weighted mean of the tangent vectors."""
    vec = tuple(
        math.fsum(r * p[i] for p, r in zip(payloads, rs)) / len(rs)
        for i in range(len(payloads[0]))
    )
    norm = space.tangent_norm(vec)
    if norm <= 1e-14:
        return ConePoint(None, 0.0)
    return ConePoint(Direction(space, base, tuple(x / norm for x in vec)), norm)


def _product_barycenter(space: ProductSpace, base, payloads, rs) -> ConePoint:
    """Per-factor barycenters of the weighted factor germs, recombined."""
    left_dirs, left_radii, right_dirs, right_radii = [], [], [], []
    for p, r in zip(payloads, rs):
        (gl, wl), (gr, wr) = p
        left_dirs.append(gl)
        left_radii.append(r * wl if gl is not None else 0.0)
        right_dirs.append(gr)
        right_radii.append(r * wr if gr is not None else 0.0)
    bl = _component_barycenter(space.left, base.data[0], left_dirs, left_radii)
    br = _component_barycenter(space.right, base.data[1], right_dirs, right_radii)
    radius = math.hypot(bl[1], br[1])
    if radius <= 1e-14:
        return ConePoint(None, 0.0)
    germ_l = (bl[0], bl[1] / radius) if bl[1] > 0 else (None, 0.0)
    germ_r = (br[0], br[1] / radius) if br[1] > 0 else (None, 0.0)
    return ConePoint(Direction(space, base, (germ_l, germ_r)), radius)


def _component_barycenter(space: Space, base_payload: tuple,
                          germs: list, radii: list[float]) -> tuple:
    live = [(g, r) for g, r in zip(germs, radii) if g is not None and r > 0]
    if not live:
        return None, 0.0
    base = Point(space, space._canonical(base_payload))
    dirs = [Direction(space, base, g) for g, _ in live]
    rs = [r for _, r in live]
    # zero-radius inputs only add a constant t^2 per item; fold them in by
    # rescaling the effective count
    n_total = len(germs)
    cp = cone_barycenter(dirs, rs)
    if cp.radius == 0.0:
        return None, 0.0
    scaled = cp.radius * len(live) / n_total
    return cp.direction.data, scaled


def _discrete_barycenter(space, base, payloads, rs) -> ConePoint:
    candidates = {p for p in payloads}
    n = len(payloads)
    best = (math.inf, None, 0.0)
    for cand in sorted(candidates):
        num = math.fsum(
            r * math.cos(space._angle(base.data, cand, p))
            for p, r in zip(payloads, rs)
        )
        t = max(num / n, 0.0)
        value = math.fsum(
            t * t + r * r - 2 * t * r * math.cos(space._angle(base.data, cand, p))
            for p, r in zip(payloads, rs)
        )
        if value < best[0] - 1e-15:
            best = (value, cand, t)
    origin_value = math.fsum(r * r for r in rs)
    if origin_value < best[0] - 1e-15 or best[2] <= 1e-14:
        return ConePoint(None, 0.0)
    return ConePoint(Direction(space, base, best[1]), best[2])


def _book_barycenter(space: BookSpace, base, payloads, rs) -> ConePoint:
    n = len(payloads)
    mx = math.fsum(r * p[1] for p, r in zip(payloads, rs)) / n
    if base.data[0] != 0:
        # interior point: the direction space is a plain circle
        vy = math.fsum(r * p[2] for p, r in zip(payloads, rs)) / n
        norm = math.hypot(mx, vy)
        if norm <= 1e-14:
            return ConePoint(None, 0.0)
        return ConePoint(
            Direction(space, base, (base.data[0], mx / norm, vy / norm)), norm
        )
    # At a spine point the unit direction u at angle alpha in sheet s has
    # mean cosine <u, m_s>: a germ of another sheet lies at min(alpha + a,
    # 2 pi - alpha - a), whose cosine is cos(alpha + a), so its ordinate
    # enters m_s reflected.  Over alpha in [0, pi] the maximum is |m_s| at
    # m_s / |m_s| when m_s points into the sheet, |m_x| on a spine ray if not.
    sheets = sorted({p[0] for p in payloads if p[0] != 0}) or [1]
    best = (-math.inf, sheets[0], 0.0)
    for sheet in sheets:
        my = math.fsum(r * (abs(p[2]) if p[0] in (0, sheet) else -abs(p[2]))
                       for p, r in zip(payloads, rs)) / n
        if my > 0.0:
            val, alpha = math.hypot(mx, my), math.atan2(my, mx)
        else:
            val, alpha = abs(mx), (0.0 if mx >= 0.0 else math.pi)
        if val > best[0]:
            best = (val, sheet, alpha)
    val, sheet, alpha = best
    t = max(val, 0.0)
    if t <= 1e-14:
        return ConePoint(None, 0.0)
    germ = spine_germ(sheet, math.cos(alpha), math.sin(alpha))
    return ConePoint(Direction(space, base, germ), t)


# space type -> barycenter(space, base, payloads, radii)
_BARYCENTERS = {
    EuclideanSpace: _tangent_mean,
    HyperbolicPlane: _tangent_mean,
    TreeSpace: _discrete_barycenter,
    SpiderSpace: _discrete_barycenter,
    BookSpace: _book_barycenter,
    ProductSpace: _product_barycenter,
}


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
