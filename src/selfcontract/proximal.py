"""Moreau-Yosida approximation, resolvent steps, and gradient curves.

The resolvent minimizes f(z) + d(x,z)^2 / (2 tau) globally.  An
objective with an exact prox (the squared and plain distances, the
distances to a segment or spine interval, and max_two_dists on trees,
spiders, the line, the plane and H^2) is solved in closed form: its
composite is strongly convex, so the one minimizer is the answer.  An
objective that declares a decay order above 2 is unbounded for every
step, with no search.  The line's quasi-convex objectives (neg_cube_unit,
sqrt_abs, ripple_vee) list candidate points that hold every global
minimizer: box ends, kinks and the stationary points where the composite
turns upward.  The resolvent scores those and applies the same tie rule
as to a search (Bacak, Convex Analysis and Optimization in Hadamard
Spaces, 2014).  Every other objective goes to the numeric solver, which
also serves as the closed forms' and candidate sets' test oracle.  It is
the only resolvent of user-built objectives and of max_two_dists on books.
Because f is only quasi-convex, the composite may have several basins.
Each space therefore lists its own search pieces, `Space._search_pieces`:
a window or box of R^1 or R^2, the exp chart of H^2 at x, every segment
of a tree or spider, and a book's spine and sheets; other spaces refuse
with UnsupportedSpaceError.  One loop searches them all: every grid basin
of a 1-D piece is refined by golden section, the best four grid points of
a 2-D piece by compass search, and a window grows until its best
candidate lies inside it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

from .errors import GeometryError, SolverError
from .metric import Curve, GEODESIC, _golden_min, _parabolic_polish, make_curve
from .objectives import LAMBDA_CONVEX, ObjectiveFn
from .spaces.base import Point, Space

UNIQUE = "unique"
MULTIPLE_TIES = "multiple_ties"
EMPTY = "empty"
UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class SolverConfig:
    """The numeric solver's constants; `DEFAULT_SOLVER` is the one instance."""

    grid_1d: int = 128
    grid_2d: int = 24
    refine_tol: float = 1e-13
    tie_value: float = 1e-6
    dedupe_dist: float = 1e-6
    start_radius: float = 2.0
    max_radius: float = 1e6
    unbounded_value: float = -1e12


DEFAULT_SOLVER = SolverConfig()


@dataclass(frozen=True)
class ResolventResult:
    minimizers: tuple[Point, ...]
    value: float
    status: str
    evals: int = 0  # composite evaluations: searched or candidates; 0 when exact

    @property
    def point(self) -> Point:
        if not self.minimizers:
            raise SolverError(f"resolvent has no minimizer (status {self.status})")
        return self.minimizers[0]


def _line_minima(fn, lo: float, hi: float) -> list[tuple[float, float]]:
    """All local-basin minima of fn over [lo, hi] found on a grid + refine."""
    if hi <= lo:
        return [(lo, fn(lo))]
    grid = DEFAULT_SOLVER.grid_1d
    xs = [lo + (hi - lo) * i / grid for i in range(grid + 1)]
    vs = [fn(x) for x in xs]
    out: list[tuple[float, float]] = []
    for i in range(grid + 1):
        left = vs[i - 1] if i > 0 else math.inf
        right = vs[i + 1] if i < grid else math.inf
        if vs[i] <= left and vs[i] <= right:
            a = xs[max(i - 1, 0)]
            b = xs[min(i + 1, grid)]
            out.append(_golden_min(fn, a, b, DEFAULT_SOLVER.refine_tol * max(1.0, hi - lo)))
    return out


def _pattern_refine(fn, start: list[float], step: float, lo: list[float],
                    hi: list[float]) -> tuple[list[float], float]:
    """Deterministic compass search; coordinates clipped to the [lo, hi] box.

    Finishes with coordinate-wise parabola fits, which sharpen smooth
    interior minima past the sqrt(eps) stall of pure value descent.
    """
    x = list(start)
    fx = fn(x)
    n = len(x)
    h = step
    floor = max(DEFAULT_SOLVER.refine_tol * max(1.0, step), 1e-9)
    while h > floor:
        improved = False
        for i in range(n):
            for sgn in (1.0, -1.0):
                cand = list(x)
                cand[i] = min(max(cand[i] + sgn * h, lo[i]), hi[i])
                fc = fn(cand)
                if fc < fx - 1e-18:
                    x, fx = cand, fc
                    improved = True
        if not improved:
            h *= 0.5
    for _sweep in range(2):
        for i in range(n):
            li, hi_i = lo[i], hi[i]
            if not li < x[i] < hi_i:
                continue

            def axis_fn(t, i=i):
                cand = list(x)
                cand[i] = t
                return fn(cand)

            h_fit = 1e-5 * max(1.0, abs(x[i]))
            t, ft = _parabolic_polish(axis_fn, x[i], h_fit, li, hi_i)
            if ft <= fx:
                x[i], fx = t, ft
    return x, fx


def _piece_minima(fn, los: list[float], his: list[float]
                  ) -> list[tuple[list[float], float]]:
    """Local minima of fn over the box [los, his]: on a line every grid
    basin, on a plane the best four grid points after compass search."""
    if len(los) == 1:
        return [([t], v) for t, v in _line_minima(lambda t: fn([t]), los[0], his[0])]
    cells = DEFAULT_SOLVER.grid_2d
    axes = [[lo + (hi - lo) * i / cells for i in range(cells + 1)]
            for lo, hi in zip(los, his)]
    scored = sorted(((fn(list(c)), c) for c in product(*axes)), key=lambda t: t[0])
    cell = max((hi - lo) / cells for lo, hi in zip(los, his))
    return [_pattern_refine(fn, list(c), cell, los, his) for _, c in scored[:4]]


class _Composite:
    """f(z) + d(x,z)^2/(2 tau) with an evaluation counter.

    The solver builds every point it evaluates, so the composite trusts
    it: it skips the space and domain checks of `Space.distance` and
    `ObjectiveFn.__call__`, and makes one `fn` call per evaluation.
    """

    def __init__(self, objective: ObjectiveFn, space: Space, x: Point, tau: float):
        self.objective = objective
        self.space = space
        self.x = x
        self.tau = tau
        self.evals = 0

    def at_point(self, p: Point) -> float:
        self.evals += 1
        d = self.space._dist(self.x.data, p.data)
        return float(self.objective.fn(p)) + d * d / (2.0 * self.tau)


def _solve(objective: ObjectiveFn, space: Space, x: Point, tau: float
           ) -> tuple[str, list[tuple[Point, float]], int]:
    """Search every piece that the space lists; the candidates come back
    sorted by value, ties in the order the pieces list them.  While the
    best lies within 1e-9 radius of a window side the window grows x4;
    only a windowed search can be unbounded."""
    comp = _Composite(objective, space, x, tau)
    start = DEFAULT_SOLVER.start_radius
    radius = start * max(1.0, math.sqrt(tau))
    while True:
        radius, pieces = space._search_pieces(x.data, radius, objective.domain, start)
        found = []
        for to_point, los, his, window in pieces:
            for coords, v in _piece_minima(lambda c: comp.at_point(to_point(c)), los, his):
                found.append((v, coords, to_point, los, his, window))
        found.sort(key=lambda t: t[0])
        best, coords, _, los, his, window = found[0]
        if any(window) and best < DEFAULT_SOLVER.unbounded_value:
            return UNBOUNDED, [], comp.evals
        gaps = [g for c, lo, hi in zip(coords, los, his) for g in (c - lo, hi - c)]
        if not any(w and g <= 1e-9 * radius for w, g in zip(window, gaps)):
            return "ok", [(to_point(c), v) for v, c, to_point, *_ in found], comp.evals
        if radius > DEFAULT_SOLVER.max_radius:
            return UNBOUNDED, [], comp.evals
        radius *= 4.0


def _check_inputs(objective: ObjectiveFn, space: Space, x: Point, tau: float):
    if tau <= 0:
        raise GeometryError("tau must be positive")
    space.own(x)
    if objective.space != space:
        raise GeometryError("objective lives on a different space")
    if (objective.convexity == LAMBDA_CONVEX and objective.lam is not None
            and objective.lam < 0 and tau >= 1.0 / (-objective.lam)):
        raise GeometryError(
            f"step {tau} too large for {objective.lam}-convex objective; "
            f"need tau < {1.0 / (-objective.lam)}"
        )
    if not objective.in_domain(x):
        raise GeometryError("base point outside the objective domain")


def moreau_yosida(objective: ObjectiveFn, space: Space, x: Point, tau: float) -> float:
    """inf_z f(z) + d(x,z)^2/(2 tau); -inf when divergence is detected."""
    return resolvent(objective, space, x, tau).value


def resolvent(objective: ObjectiveFn, space: Space, x: Point, tau: float
              ) -> ResolventResult:
    """All global minimizers of the proximal subproblem, deduplicated.

    Ties within DEFAULT_SOLVER.tie_value of the optimum are all reported; the
    minimizer list is sorted nearest-to-x first (then by coordinates) so
    that downstream tie-breaking is deterministic.  An objective with an
    exact prox skips the search and reports 0 evaluations, and so does one
    whose declared decay order outruns the quadratic, which is unbounded.
    One with a candidate set reports one evaluation per candidate.
    """
    _check_inputs(objective, space, x, tau)
    if (objective.decay_order or 0.0) > 2.0:
        return ResolventResult((), -math.inf, UNBOUNDED)
    if objective.prox is not None:
        z = objective.prox(x, tau)
        d = space.distance(x, z)
        return ResolventResult((z,), objective(z) + d * d / (2.0 * tau), UNIQUE)
    if objective.candidates is None:
        status, cands, evals = _solve(objective, space, x, tau)
    else:
        comp = _Composite(objective, space, x, tau)
        cands = sorted(((p, comp.at_point(p)) for p in objective.candidates(x, tau)),
                       key=lambda t: t[1])
        status, evals = "ok", comp.evals
    if status == UNBOUNDED:
        return ResolventResult((), -math.inf, UNBOUNDED, evals)
    if not cands:
        return ResolventResult((), math.inf, EMPTY, evals)
    best = cands[0][1]
    kept: list[Point] = []
    for p, v in cands:
        if v > best + DEFAULT_SOLVER.tie_value:
            break
        if all(space.distance(p, q) > DEFAULT_SOLVER.dedupe_dist for q in kept):
            kept.append(p)
    kept.sort(key=lambda p: (space.distance(x, p), space._point_json(p.data)))
    status = UNIQUE if len(kept) == 1 else MULTIPLE_TIES
    return ResolventResult(tuple(kept), best, status, evals)


@dataclass(frozen=True)
class GradientCurveRun:
    """A discrete proximal trajectory plus bookkeeping.

    Times are cumulative step sizes: t_0 = 0 and t_k = tau_1 + ... +
    tau_k, which is also the reparametrization used by the geodesic
    interpolation.
    """

    space: Space
    objective: ObjectiveFn
    tau_schedule: tuple[float, ...]
    points: tuple[Point, ...]
    values: tuple[float, ...]
    diagnostic: str | None = None

    @property
    def times(self) -> list[float]:
        ts = [0.0]
        for tau in self.tau_schedule[: len(self.points) - 1]:
            ts.append(ts[-1] + tau)
        return ts

    def discrete_curve(self) -> Curve:
        return make_curve(self.points, self.times, mode="discrete")

    def interpolated_curve(self) -> Curve:
        return make_curve(self.points, self.times, mode=GEODESIC)


def discrete_gradient_curve(objective: ObjectiveFn, space: Space, x0: Point,
                            tau_schedule) -> GradientCurveRun:
    """Iterate the resolvent along the step schedule.

    The 'arbitrary choice' in the recursion is pinned to the minimizer
    nearest the previous point (coordinates break remaining ties).  An
    empty or unbounded resolvent aborts with the prefix and a diagnostic.
    """
    taus = tuple(float(t) for t in tau_schedule)
    if any(t <= 0 for t in taus):
        raise GeometryError("step sizes must be positive")
    points = [x0]
    values = [objective(x0)]
    diagnostic = None
    for k, tau in enumerate(taus):
        res = resolvent(objective, space, points[-1], tau)
        if not res.minimizers:
            diagnostic = (
                f"resolvent {res.status} at step {k + 1}; returning prefix"
            )
            break
        nxt = res.point
        points.append(nxt)
        values.append(objective(nxt))
        if values[-1] > values[-2] + 1e-9:
            raise SolverError(
                f"objective increased along the run at step {k + 1}: "
                f"{values[-2]} -> {values[-1]}"
            )
    return GradientCurveRun(
        space=space, objective=objective, tau_schedule=taus,
        points=tuple(points), values=tuple(values), diagnostic=diagnostic,
    )


def geodesic_interpolation(space: Space, run: GradientCurveRun) -> Curve:
    """Piecewise-geodesic extension of a discrete run (its continuous curve)."""
    if run.space != space:
        raise GeometryError("run belongs to a different space")
    return run.interpolated_curve()
