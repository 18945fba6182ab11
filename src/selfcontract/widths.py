"""Projections, mean width, directional decrease, and bound audits.

The rectifiability audits measure a curve (length, diameter, mean
width), assemble the advertised constants, and check the length bound
in the only direction that is claimed: L <= constant * size.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .cones import RadiusConstants, direction_cover_center, radius_constants
from .errors import GeometryError, UnsupportedSpaceError
from .measures import (
    NeighborhoodRegion,
    estimate_condition_constants,
    hausdorff_measure_neighborhood,
)
from .metric import Curve, curve_length, diameter, make_curve
from .spaces.base import Direction, Point, Space
from .spaces.book import BookSpace
from .spaces.euclidean import EuclideanSpace
from .spaces.tree import SpiderSpace, TreeSpace
from .verify import is_self_contracted

BOOK_BOUND_CONSTANT = 54.0 * math.sqrt(2.0) * math.pi


def projection_extent(space: Space, basepoint: Point, direction: Direction,
                      points: Sequence[Point], inflate: float = 0.0
                      ) -> tuple[float, float]:
    """[min, max] of r cos(angle(direction, germ-to-p)) over the points.

    The basepoint itself projects to 0.  `inflate` widens the interval
    by that radius on both sides (projection of a neighborhood).
    """
    pts = list(points)
    if not pts:
        raise GeometryError("need at least one point")
    lo = math.inf
    hi = -math.inf
    for p in pts:
        if space.same_point(basepoint, p):
            value = 0.0
        else:
            germ, r = space.log_direction(basepoint, p)
            value = r * math.cos(space.direction_angle(direction, germ))
        lo = min(lo, value)
        hi = max(hi, value)
    return lo - inflate, hi + inflate


@dataclass(frozen=True)
class WidthReport:
    """A mean width.  The plane's exact width (method "quadrature") samples
    no direction: n_directions is 0, seed None and stderr 0."""

    width: float
    n_directions: int
    seed: int | None
    stderr: float
    method: str


def _sampled_width(widths: np.ndarray, seed: int, method: str) -> WidthReport:
    """Monte Carlo mean of sampled widths, with its standard error."""
    n = len(widths)
    return WidthReport(
        width=float(widths.mean()), n_directions=n, seed=seed,
        stderr=float(widths.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0,
        method=method,
    )


def mean_width(space: Space, points: Sequence[Point], n_dirs: int = 4096,
               seed: int = 0, inflate: float = 0.0, method: str = "auto") -> WidthReport:
    """Average projected extent of a point set over directions.

    Euclidean spaces average over directions of the sphere (Monte Carlo,
    or on the plane exactly, by Cauchy's formula).  Other spaces average
    over sampled (basepoint, direction) pairs, with basepoints drawn
    from the unit neighborhood of the points.
    """
    pts = list(points)
    if not pts:
        raise GeometryError("need at least one point")
    if n_dirs < 1:
        raise GeometryError("n_dirs must be >= 1")
    if not 0.0 <= inflate < math.inf:
        raise GeometryError("inflate must be finite and nonnegative")
    if method not in ("auto", "quadrature", "mc"):
        raise GeometryError(f"unknown width method {method!r}; use auto, quadrature or mc")
    euclidean = isinstance(space, EuclideanSpace)
    plane = euclidean and space.dim == 2
    if method == "quadrature" and not plane:
        raise UnsupportedSpaceError("the exact width needs the plane")
    if plane and method != "mc":
        return _plane_quadrature_width(pts, inflate)
    if euclidean:
        rng = np.random.default_rng(seed)
        vecs = rng.normal(size=(n_dirs, space.dim))
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        dots = vecs @ np.array([p.data for p in pts], dtype=float).T
        return _sampled_width(dots.max(axis=1) - dots.min(axis=1) + 2.0 * inflate, seed, "mc")
    region = NeighborhoodRegion(tuple(pts), 1.0)
    rng = np.random.default_rng(seed)
    samples = []
    for _ in range(n_dirs):
        base = _sample_region_point(space, region, rng)
        d = Direction(space, base, space.random_direction(rng, base.data))
        lo, hi = projection_extent(space, base, d, pts, inflate)
        samples.append(hi - lo)
    return _sampled_width(np.array(samples), seed, "mc_basepoints")


def _plane_quadrature_width(pts: list[Point], inflate: float) -> WidthReport:
    """Cauchy's formula: the mean width of a planar set is the perimeter of
    its convex hull over pi, and inflating by r adds 2 r.  The hull comes
    from Andrew's monotone chain, one half-chain per pass."""
    def half(chain):
        out = []
        for p in chain:
            while len(out) >= 2 and ((out[-1][0] - out[-2][0]) * (p[1] - out[-2][1])
                                     - (out[-1][1] - out[-2][1]) * (p[0] - out[-2][0])) <= 0:
                out.pop()
            out.append(p)
        return out[:-1]

    ordered = sorted({p.data for p in pts})
    hull = half(ordered) + half(reversed(ordered))
    perimeter = math.fsum(math.dist(hull[i - 1], hull[i]) for i in range(len(hull)))
    return WidthReport(width=perimeter / math.pi + 2.0 * inflate, n_directions=0,
                       seed=None, stderr=0.0, method="quadrature")


def _sample_region_point(space: Space, region: NeighborhoodRegion, rng) -> Point:
    idx = int(rng.integers(0, len(region.points)))
    anchor = region.points[idx]
    target = space.random_point(rng, scale=max(region.radius * 2.0, 1.0))
    d = space.distance(anchor, target)
    if d == 0.0:
        return anchor
    step = float(rng.uniform(0.0, region.radius))
    return space.geodesic_point(anchor, target, min(1.0, step / d))


def tail_cover_direction(space: Space, curve: Curve, tau: float
                         ) -> tuple[Direction, float, int]:
    """Covering direction of the tail germs at xi(tau)."""
    base = curve.point_at(tau)
    germs = []
    for t, p in curve.densified().samples:
        if t <= tau + 1e-15 or space.same_point(base, p):
            continue
        germs.append(space.log_direction(base, p)[0])
    if not germs:
        raise GeometryError("no tail directions at this time")
    return direction_cover_center(space, base, germs)


def directional_decrease_residual(space: Space, curve: Curve, tau: float,
                                  T: float, direction: Direction,
                                  decrease_rate: float) -> float:
    """Projected-extent decrease residual between the tails at tau and T.

    Returns |Pi(Xi(T))| - |Pi(Xi(tau))| + decrease_rate * d(xi(tau),
    xi(T)), which is <= 0 for self-contracted curves when the direction
    is (a small perturbation of) the tail covering direction and the
    rate matches the space's constants.
    """
    if T <= tau:
        raise GeometryError("need tau < T")
    p_tau = curve.point_at(tau)
    p_T = curve.point_at(T)
    d = space.distance(p_tau, p_T)
    if d <= space.tolerance:
        return 0.0
    work = curve.densified()
    tail_tau = work.tail_points(tau)
    tail_T = work.tail_points(T)
    base = direction.base
    lo1, hi1 = projection_extent(space, base, direction, tail_tau)
    lo2, hi2 = projection_extent(space, base, direction, tail_T)
    return (hi2 - lo2) - (hi1 - lo1) + decrease_rate * d


@dataclass(frozen=True)
class BoundReport:
    bound_name: str
    space_desc: str
    length: float
    diam: float
    width: float | None
    constants: dict
    bound: float
    ratio: float
    seed: int | None = None
    tolerance: float = 1e-9
    notes: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return self.ratio <= 1.0 + self.tolerance

    def to_json(self) -> dict:
        return {
            "bound": self.bound_name,
            "space": self.space_desc,
            "length": self.length,
            "diam": self.diam,
            "width": self.width,
            "constants": self.constants,
            "bound_value": self.bound,
            "ratio": self.ratio,
            "passed": self.passed,
            "seed": self.seed,
            "tolerance": self.tolerance,
            "notes": list(self.notes),
        }


def _length_audit(bound_name: str, space: Space, curve: Curve, pts: list[Point],
                  coef: float, constants: dict, width: float | None = None,
                  **extra) -> BoundReport:
    """Audit L <= coef * size, the size being the width if one is given and
    the diameter of the trajectory points otherwise."""
    L = curve_length(curve)
    diam = diameter(pts)
    bound = coef * (diam if width is None else width)
    ratio = L / bound if bound > 0 else (0.0 if L == 0.0 else math.inf)
    return BoundReport(
        bound_name=bound_name, space_desc=space.describe(), length=L, diam=diam,
        width=width, constants=constants, bound=bound, ratio=ratio, **extra,
    )


def euclidean_constants(n: int) -> dict:
    """Explicit constants of the Euclidean length bound in dimension n.

    eps_n = 1/(2 * 3^(n+1)); a_n is the measure of the chordal eps_n-cap
    on the unit sphere (an angular cap of radius 2 asin(eps_n/2)); and
    C_n = A(S^(n-1)) / (a_n eps_n).
    """
    if n < 1:
        raise GeometryError("dimension must be >= 1")
    rc = radius_constants(n)
    eps = rc.eps
    cap_angle = 2.0 * math.asin(eps / 2.0)
    sphere = 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)
    if n == 1:
        a_n = 1.0  # S^0 carries counting measure; the cap holds one point
    elif n == 2:
        a_n = 4.0 * math.asin(eps / 2.0)
    elif n == 3:
        a_n = 2.0 * math.pi * (1.0 - math.cos(cap_angle))
    else:
        lower_sphere = 2.0 * math.pi ** ((n - 1) / 2.0) / math.gamma((n - 1) / 2.0)
        steps = 2048
        h = cap_angle / steps
        acc = 0.0
        for i in range(steps + 1):
            t = i * h
            w = 1 if i in (0, steps) else (4 if i % 2 else 2)
            acc += w * math.sin(t) ** (n - 2)
        a_n = lower_sphere * acc * h / 3.0
    return {
        "n": n,
        "eps": eps,
        "cap_angle": cap_angle,
        "a_n": a_n,
        "sphere_area": sphere,
        "C_n": sphere / (a_n * eps),
    }


def euclidean_length_bound(curve: Curve, seed: int = 0, method: str = "auto") -> BoundReport:
    """Audit L <= C_n * W(Xi(0)) for a curve in R^n, n <= 4."""
    space = curve.space
    if not isinstance(space, EuclideanSpace):
        raise UnsupportedSpaceError("this bound audits Euclidean curves")
    if space.dim > 4:
        raise UnsupportedSpaceError("constants blow up combinatorially; n <= 4 supported")
    consts = euclidean_constants(space.dim)
    pts = curve.densified().points
    report = mean_width(space, pts, seed=seed, method=method)
    return _length_audit(
        "euclidean", space, curve, pts, consts["C_n"],
        {**consts, "width_method": report.method, "width_stderr": report.stderr},
        width=report.width, seed=seed,
    )


def tree_length_bound(space: Space, curve: Curve) -> BoundReport:
    """Audit L <= 6 * max_degree * H1(Omega) * diam for tree/spider curves.

    Omega is the closed 1-neighborhood of the sampled trajectory.
    """
    if not isinstance(space, (TreeSpace, SpiderSpace)):
        raise UnsupportedSpaceError("this bound audits tree or spider curves")
    if curve.space != space:
        raise GeometryError("curve lives on a different space")
    pts = curve.densified().points
    lam = space.max_degree
    h1 = hausdorff_measure_neighborhood(space, pts, 1.0, 1)
    return _length_audit("tree", space, curve, pts, 6.0 * lam * h1,
                         {"max_degree": lam, "h1_neighborhood": h1, "sigma": 1.0})


def book_length_bound(space: Space, curve: Curve) -> BoundReport:
    """Audit L <= 54*sqrt(2)*pi * k * H2(Omega) * diam for book curves."""
    if not isinstance(space, BookSpace):
        raise UnsupportedSpaceError("this bound audits book curves")
    if curve.space != space:
        raise GeometryError("curve lives on a different space")
    pts = curve.densified().points
    h2 = hausdorff_measure_neighborhood(space, pts, 1.0, 2)
    return _length_audit("book", space, curve, pts, BOOK_BOUND_CONSTANT * space.k * h2,
                         {"C": BOOK_BOUND_CONSTANT, "k": space.k,
                          "h2_neighborhood": h2, "sigma": 1.0})


def generic_cat0_bound(space: Space, curve: Curve, constants: RadiusConstants,
                       region: NeighborhoodRegion) -> BoundReport:
    """Audit the generic bound L <= (2/(a b eps)) * diam(Xi(0)).

    The sigma-neighborhood of the trajectory must sit inside the region
    the constants were estimated on; otherwise no bound is claimed.
    """
    if constants.a is None or constants.b is None or constants.sigma is None:
        raise GeometryError("constants must carry a, b and sigma")
    pts = curve.densified().points
    if not region.contains_neighborhood(pts, constants.sigma):
        raise GeometryError(
            "sigma-neighborhood of the trajectory is not inside the region; "
            "no bound claimed"
        )
    return _generic_audit(space, curve, pts, constants)


def generic_bound_for_curve(space: Space, curve: Curve) -> BoundReport:
    """Estimate condition constants on the unit neighborhood and audit.

    That region is the union of the unit balls about the densified points,
    so it is their neighborhood at margin sigma = 1 and needs no scan."""
    pts = curve.densified().points
    constants = estimate_condition_constants(space, NeighborhoodRegion(tuple(pts), 1.0))
    return _generic_audit(space, curve, pts, constants)


def _generic_audit(space: Space, curve: Curve, pts: list[Point],
                   constants: RadiusConstants) -> BoundReport:
    factor = 2.0 / (constants.a * constants.b * constants.eps_bold)
    return _length_audit(
        "generic_cat0", space, curve, pts, factor,
        {"m": constants.m, "eps": constants.eps_bold, "a": constants.a,
         "b": constants.b, "sigma": constants.sigma, "factor": factor},
        notes=constants.notes,
    )


def unrectifiable_witness(k: int) -> tuple[Curve, BoundReport]:
    """Jump curve through the orthonormal basis of R^k.

    Pairwise distances are all sqrt(2), so the curve is self-contracted
    with length sqrt(2) (k-1) while its diameter stays sqrt(2): the
    length-to-diameter ratio grows linearly in the dimension.
    """
    if k < 2:
        raise GeometryError("need k >= 2")
    space = EuclideanSpace(k)
    pts = [
        space.point(tuple(1.0 if j == i else 0.0 for j in range(k)))
        for i in range(k)
    ]
    curve = make_curve(pts, mode="discrete")
    check = is_self_contracted(space, curve)
    if not check.passed:
        raise GeometryError("witness curve failed its own verification")
    report = _length_audit("orthonormal_witness", space, curve, pts, k - 1, {"k": k})
    report.constants.update(predicted_length=report.bound,
                            ratio_L_diam=report.length / report.diam)
    return curve, report


def spider_jump_curve(k: int) -> Curve:
    """Jump curve visiting the tip of each leg of the unit k-spider."""
    if k < 2:
        raise GeometryError("need k >= 2")
    space = SpiderSpace(k)
    pts = [space.point((leg, 1.0)) for leg in range(1, k + 1)]
    return make_curve(pts, mode="discrete")


def book_spine_jump_curve(k: int) -> Curve:
    """Jump curve visiting (i, 0, 1) in each sheet of the k-book."""
    if k < 2:
        raise GeometryError("need k >= 2")
    space = BookSpace(k)
    pts = [space.point((sheet, 0.0, 1.0)) for sheet in range(1, k + 1)]
    return make_curve(pts, mode="discrete")


def random_tree(seed: int, max_edges: int = 20, max_degree: int = 6) -> TreeSpace:
    """Random tree with bounded degree, edges 0.3 to 2 long (test-input generator)."""
    rng = np.random.default_rng(seed)
    n_edges = int(rng.integers(2, max_edges + 1))
    names = [f"v{i}" for i in range(n_edges + 1)]
    degree = {names[0]: 0}
    edges = []
    for i in range(1, n_edges + 1):
        candidates = [v for v in names[:i] if degree[v] < max_degree]
        parent = candidates[int(rng.integers(0, len(candidates)))]
        length = float(rng.uniform(0.3, 2.0))
        edges.append((parent, names[i], length))
        degree[parent] += 1
        degree[names[i]] = 1
    return TreeSpace(names, edges)


def _distances_fall(dist, payloads: list, q: tuple) -> bool:
    """Whether d(p_i, q) never rises along the payloads: each newer distance
    is at most the older one (False on NaN), walked from the newest payload
    back and stopped at the first rise."""
    newer = dist(payloads[-1], q)
    for i in range(len(payloads) - 2, -1, -1):
        older = dist(payloads[i], q)
        if not newer <= older:
            return False
        newer = older
    return True


def random_self_contracted(space: Space, n_steps: int, seed: int) -> Curve:
    """Generate a curve that is self-contracted at its own samples.

    Proposes shrinking random steps and accepts only moves that keep every
    distance-to-new-point non-increasing.  Generation stalls return the
    (shorter) accepted prefix.  The targets come from `space._random_points`,
    the draws of successive `random_point` calls, and are tested as payloads.
    """
    if n_steps < 1:
        raise GeometryError("n_steps must be >= 1")
    scale = 1.5
    targets = map(space._canonical, space._random_points(np.random.default_rng(seed), scale))
    accepted = [Point(space, next(targets))]
    payloads = [accepted[0].data]
    step = scale * 0.6
    stalls = 0
    while len(accepted) < n_steps and stalls < 400:
        target = next(targets)
        d = space._dist(payloads[-1], target)
        if d <= 0.0:
            stalls += 1
            continue
        q = space.geodesic_point(accepted[-1], Point(space, target), min(1.0, step / d))
        if _distances_fall(space._dist, payloads, q.data):
            accepted.append(q)
            payloads.append(q.data)
            step *= 0.9
            stalls = 0
        else:
            stalls += 1
            if stalls % 40 == 0:
                step *= 0.6
    return make_curve(accepted, mode="discrete")
