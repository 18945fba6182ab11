"""Decision procedures and residual checks for self-contracted curves.

The defining inequality says distances to any later point are
non-increasing in time.  Checking it over all sample triples reduces to
a running minimum per endpoint, so curves up to the exhaustive cap are
checked over *every* triple in quadratic time; longer curves fall back
to stratified subsampling.
"""
from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import GeometryError
from .metric import Curve, make_curve
from .objectives import ObjectiveFn
from .proximal import GradientCurveRun
from .spaces.base import Point, Space

VIOLATION_TOL = 1e-9
ANGLE_TOL = 1e-6  # radians, the angle estimate's own tolerance
CONTRACTION_TOL = 1e-6  # the run-contraction check's tolerance


@dataclass(frozen=True)
class SamplingConfig:
    max_exhaustive: int = 1000
    densify_levels: int = 3
    seed: int = 0
    tolerance: float = VIOLATION_TOL

    def __post_init__(self):
        if not isinstance(self.max_exhaustive, numbers.Integral) or self.max_exhaustive < 2:
            raise GeometryError(
                f"max_exhaustive must be an integer >= 2, got {self.max_exhaustive!r}")
        if self.densify_levels < 0:
            raise GeometryError(f"densify_levels must be >= 0, got {self.densify_levels!r}")
        if not isinstance(self.seed, numbers.Integral) or self.seed < 0:
            raise GeometryError(f"seed must be a non-negative integer, got {self.seed!r}")
        if not (math.isfinite(self.tolerance) and self.tolerance >= 0):
            raise GeometryError(
                f"tolerance must be finite and >= 0, got {self.tolerance!r}")


DEFAULT_SAMPLING = SamplingConfig()


@dataclass(frozen=True)
class ViolationReport:
    check: str
    max_violation: float
    n_checked: int
    tolerance: float
    witness: dict | None = None
    informational: bool = False

    @property
    def passed(self) -> bool:
        return self.max_violation <= self.tolerance

    def to_json(self) -> dict:
        return {**dataclasses.asdict(self), "passed": self.passed}


def _own_curve(space: Space, curve: Curve) -> None:
    """Refuse a curve of another space, as `Space.own` refuses a point."""
    space.own(Point(curve.space, curve.payloads[0]))


def _effective_samples(space: Space, curve: Curve, cfg: SamplingConfig
                       ) -> tuple[tuple[float, ...], tuple[tuple, ...]]:
    """Sample times and payloads, densified along geodesic segments, capped
    for runtime."""
    dense = curve.densified(cfg.densify_levels)
    _own_curve(space, dense)
    times, payloads = dense.times, dense.payloads
    n = len(times)
    if n <= cfg.max_exhaustive:
        return times, payloads
    rng = np.random.default_rng(cfg.seed)
    keep = {0, n - 1}
    strata = np.linspace(0, n - 1, cfg.max_exhaustive - 2)
    jitter = rng.uniform(-0.5, 0.5, len(strata))
    for s, j in zip(strata, jitter):
        keep.add(int(round(min(max(s + j, 0), n - 1))))
    kept = sorted(keep)
    return [times[i] for i in kept], [payloads[i] for i in kept]


def _triangle(space: Space, payloads: list[tuple]) -> Iterator[list[float]]:
    """rows[i] = d(i, i + 1), d(i, i + 2), ... built as the caller reaches them."""
    return (space._dist_row(p, payloads[i + 1:]) for i, p in enumerate(payloads))


def _running_min_violation(dists: Sequence[float]
                            ) -> tuple[float, tuple[int, int] | None]:
    """Largest dists[k] - min(dists[:k]), floored at 0, and the first (j, k)
    that attains it, j the first index of that minimum; None if nothing does."""
    worst, pair = 0.0, None
    run_min, run_j = math.inf, None
    for k, d in enumerate(dists):
        if d - run_min > worst:
            worst, pair = d - run_min, (run_j, k)
        if d < run_min:
            run_min, run_j = d, k
    return worst, pair


def is_self_contracted(space: Space, curve: Curve,
                       cfg: SamplingConfig = DEFAULT_SAMPLING) -> ViolationReport:
    """Check d(xi(t2), xi(t3)) <= d(xi(t1), xi(t3)) over sampled triples.

    The reported violation is the exact maximum over all triples of the
    effective sample set (running-minimum reduction per t3).
    """
    times, payloads = _effective_samples(space, curve, cfg)
    rows = list(_triangle(space, payloads))
    n = len(times)
    worst = 0.0
    witness = None
    for k in range(1, n):
        column = [rows[i][k - i - 1] for i in range(k)]
        viol, pair = _running_min_violation(column)
        if viol > worst:
            j, i = pair
            worst = viol
            witness = {
                "t1": times[j], "t2": times[i], "t3": times[k],
                "d_t1_t3": column[j], "d_t2_t3": column[i],
                "p3": space._point_json(payloads[k]),
            }
    return ViolationReport(
        check="self_contracted", max_violation=worst, n_checked=n * (n - 1) // 2,
        tolerance=cfg.tolerance, witness=witness,
    )


def tail_monotonicity(space: Space, curve: Curve, T: float) -> ViolationReport:
    """t -> d(xi(t), xi(T)) is non-increasing for t <= T, to VIOLATION_TOL."""
    times = curve.times
    if not any(abs(t - T) <= 1e-12 for t in times):
        raise GeometryError(f"T={T} is not a sample time")
    target = curve.point_at(T)
    head = [(t, p) for t, p in curve.samples if t <= T + 1e-12]
    dists = [space.distance(p, target) for _, p in head]
    worst, pair = _running_min_violation(dists)
    witness = None if pair is None else {
        "t1": head[pair[0]][0], "t2": head[pair[1]][0], "T": T,
        "d_t1_T": dists[pair[0]], "d_t2_T": dists[pair[1]]}
    return ViolationReport(
        check="tail_monotonicity", max_violation=worst, n_checked=len(head),
        tolerance=VIOLATION_TOL, witness=witness,
    )


def stationarity_check(space: Space, curve: Curve,
                       cfg: SamplingConfig = DEFAULT_SAMPLING) -> ViolationReport:
    """Revisiting a point forces the curve to have stayed there in between.

    A revisit counts every sample in between but compares only those no
    earlier revisit of the same point compared, which cannot win again."""
    _own_curve(space, curve)
    times, payloads = curve.times, curve.payloads
    worst = 0.0
    witness = None
    n_checked = 0
    for i, row in enumerate(_triangle(space, payloads)):
        scanned = 0
        for m in range(1, len(row)):
            if row[m] > space.tolerance:
                continue
            n_checked += m
            for k in range(scanned, m):
                if row[k] > worst:
                    worst = row[k]
                    witness = {"t1": times[i], "t2": times[i + 1 + k],
                               "t3": times[i + 1 + m], "deviation": row[k]}
            scanned = m
    return ViolationReport(
        check="stationarity", max_violation=worst, n_checked=max(n_checked, 1),
        tolerance=max(cfg.tolerance, space.tolerance), witness=witness,
    )


def reparam_preserves(space: Space, curve: Curve,
                      phi: Callable[[float], float]) -> ViolationReport:
    """`is_self_contracted` of t -> xi(phi(t)) for non-decreasing phi.

    phi need not be continuous or injective, but decreasing anywhere on
    the 64-point probe grid is an error.
    """
    t0, t1 = curve.times[0], curve.times[-1]
    grid = [t0 + (t1 - t0) * i / 63 for i in range(64)]
    values = [float(phi(t)) for t in grid]
    if any(b < a - 1e-12 for a, b in zip(values, values[1:])):
        raise GeometryError("phi must be non-decreasing")
    pts = [curve.point_at(min(max(v, t0), t1)) for v in values]
    reparam = make_curve(pts, grid, mode="discrete")
    inner = is_self_contracted(space, reparam)
    return dataclasses.replace(inner, check="reparam_preserves")


def angle_estimate_check(space: Space, curve: Curve, tau: float,
                         t1: float, t2: float) -> float:
    """Angle at xi(tau) between the germs toward xi(t1) and xi(t2), read
    from the sweep's kernels at xi(tau)'s payload, so a sweep witness's
    angle.  For self-contracted curves it is < pi/2.  Triples whose later
    points coincide with xi(tau) have no angle and raise."""
    if not (t1 > tau and t2 > tau):
        raise GeometryError("need t1, t2 > tau")
    base = space.own(curve.point_at(tau))
    later = [space.own(curve.point_at(t)) for t in (t1, t2)]
    dists = space._dist_row(base, later)
    if any(d <= space.tolerance for d in dists):
        raise GeometryError("degenerate triple: later point equals xi(tau)")
    return space._angle(base, *space._log_row(base, later, dists))


def angle_estimate_sweep(space: Space, curve: Curve,
                         cfg: SamplingConfig = DEFAULT_SAMPLING) -> ViolationReport:
    """Max angle-estimate excess over all admissible sampled triples.

    At each base xi(tau) one `Space._log_row` call builds the germs toward
    the later samples that are not the same point, from their distances in
    the row, and one `Space._germ_diameter` call returns the first pair
    (a, b >= a) of the scalar double loop that attains the largest excess,
    so the witness is the one that loop would record.  On the plane, H^2
    and books that call sorts the germs' polar angles once
    (`polar_diameter`), so a base with m germs costs O(m log m) and the
    sweep of n samples O(n^2 log n).  A book's spine base whose germs lie
    in two or more sheets, and every base on `euclidean:n >= 3` and
    products, takes the scalar loop, O(m^2), which makes a sweep of such
    bases O(n^3).  The report's tolerance is ANGLE_TOL.
    """
    times, payloads = _effective_samples(space, curve, cfg)
    worst = -math.inf
    witness = None
    n_checked = 0
    for i, (base, row) in enumerate(zip(payloads, _triangle(space, payloads))):
        later = [j for j, d in enumerate(row, start=i + 1) if d > space.tolerance]
        if not later:
            continue
        germs = space._log_row(base, [payloads[j] for j in later],
                               [row[j - i - 1] for j in later])
        n_checked += len(germs) * (len(germs) + 1) // 2
        excess, a, b = space._germ_diameter(base, germs, math.pi / 2.0)
        if excess > worst:
            worst = excess
            witness = {"tau": times[i], "t1": times[later[a]],
                       "t2": times[later[b]],
                       "angle": space._angle(base, germs[a], germs[b])}
    return ViolationReport(
        check="angle_estimate", max_violation=worst if n_checked else 0.0,
        n_checked=max(n_checked, 1), tolerance=ANGLE_TOL, witness=witness,
    )


def ball_confinement_check(space: Space, curve: Curve, x: Point, r: float
                           ) -> ViolationReport:
    """Between two visits to B(x, r) the curve stays in B(x, 3r), to VIOLATION_TOL."""
    if r <= 0:
        raise GeometryError("radius must be positive")
    _own_curve(space, curve)
    dists = space._dist_row(space.own(x), curve.payloads)
    visits = [i for i, d in enumerate(dists) if d <= r]
    between = range(visits[0] + 1, visits[-1]) if visits else range(0)
    worst = 0.0
    witness = None
    for i in between:
        excess = dists[i] - 3.0 * r
        if excess > worst:
            worst = excess
            witness = {"t": curve.times[i], "d_to_center": dists[i],
                       "allowed": 3.0 * r}
    return ViolationReport(
        check="ball_confinement", max_violation=worst,
        n_checked=max(len(between), 1), tolerance=VIOLATION_TOL, witness=witness,
    )


def tail_halving_check(space: Space, curve: Curve,
                       cfg: SamplingConfig = DEFAULT_SAMPLING) -> ViolationReport:
    """d(xi(t), xi(tau)) >= d(xi(T), xi(tau)) / 2 for tau < T <= t.

    A consequence of self-contractedness used by the projection
    decrease arguments.
    """
    times, payloads = _effective_samples(space, curve, cfg)
    worst = 0.0
    witness = None
    n_checked = 0
    for i, dists in enumerate(_triangle(space, payloads)):
        # min(d, low) keeps d unless low < d
        suffix_min, low = list(dists), math.inf
        for j in range(len(dists) - 1, -1, -1):
            if low < suffix_min[j]:
                suffix_min[j] = low
            else:
                low = suffix_min[j]
        for j, dT in enumerate(dists):
            n_checked += 1
            viol = dT / 2.0 - suffix_min[j]
            if viol > worst:
                worst = viol
                witness = {"tau": times[i], "T": times[i + 1 + j],
                           "d_T_tau": dT, "min_later": suffix_min[j]}
    return ViolationReport(
        check="tail_halving", max_violation=worst, n_checked=max(n_checked, 1),
        tolerance=cfg.tolerance, witness=witness,
    )


def evi_residual(space: Space, objective: ObjectiveFn, curve: Curve,
                 t: float, y: Point, h: float) -> float:
    """Forward-difference residual of the evolution variational inequality.

    [d^2(xi(t+h), y) - d^2(xi(t), y)] / (2h) + f(xi(t)) - f(y); for
    gradient curves of convex f this is <= 0 as h shrinks.  Refused for
    objectives not declared convex, where the inequality has no content.
    """
    if h <= 0:
        raise GeometryError("h must be positive")
    if not objective.is_convex:
        raise GeometryError("EVI residuals apply to convex objectives only")
    p0 = curve.point_at(t)
    p1 = curve.point_at(t + h)
    d1 = space.distance(p1, y)
    d0 = space.distance(p0, y)
    return (d1 * d1 - d0 * d0) / (2.0 * h) + objective(p0) - objective(y)


def contraction_check(space: Space, objective: ObjectiveFn,
                      run1: GradientCurveRun, run2: GradientCurveRun) -> ViolationReport:
    """Inter-run distances at matched steps are non-increasing, to CONTRACTION_TOL.

    Asserted for convex objectives; for merely quasi-convex ones the
    report is informational (the property can genuinely fail).
    """
    if run1.tau_schedule != run2.tau_schedule:
        raise GeometryError("runs must share the step schedule")
    dists = [space.distance(p, q) for p, q in zip(run1.points, run2.points)]
    worst, pair = _running_min_violation(dists)
    witness = None if pair is None else {
        "k_earlier": pair[0], "k": pair[1],
        "d_earlier": dists[pair[0]], "d": dists[pair[1]]}
    return ViolationReport(
        check="contraction", max_violation=worst, n_checked=len(dists),
        tolerance=CONTRACTION_TOL, witness=witness,
        informational=not objective.is_convex,
    )


CHECKS: dict[str, Callable] = {
    "self_contracted": is_self_contracted,
    "stationarity": stationarity_check,
    "tail_halving": tail_halving_check,
    "angle_estimate": angle_estimate_sweep,
}


def run_checks(space: Space, curve: Curve, names: Sequence[str],
               cfg: SamplingConfig = DEFAULT_SAMPLING) -> list[ViolationReport]:
    unknown = [name for name in names if name not in CHECKS]
    if unknown:
        raise GeometryError(f"unknown checks {unknown}; available: {sorted(CHECKS)}")
    return [CHECKS[name](space, curve, cfg) for name in names]
