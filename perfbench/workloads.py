"""The four benchmark workloads.

A workload builds every input from its seed when constructed (that is
the timed set-up).  Its items run in a closed loop, one after another:
`call(i)` does the program work of item i, and `check(i, out)` checks
the output afterwards and returns None or the reason it failed.  The
items of the pool are laid out round-robin over the strata (space,
objective, step count), so any stretch of items sees the same mix; the
timed run cycles through the pool, the traced run takes its first
`trace_items`.  A screened workload (the two prox workloads, whose
inputs include documented defects) has its pool run once untimed before
timing, each item under an objective-evaluation budget; `keep` then
narrows the pool to the items that passed.

Program functions are looked up as module attributes at call time
(`proximal.discrete_gradient_curve`, `verify.CHECKS[...]`,
`widths.tree_length_bound`, ...), so that the traced run can wrap them.
README.md says why each workload exists and what it should move.
"""
from __future__ import annotations

import dataclasses
import json
import math

import numpy as np

import selfcontract as sc
from selfcontract import proximal, serialize, verify, widths
from selfcontract.objectives import make_objective

SPACE_TAGS = ("euclidean1", "euclidean2", "hyperbolic2", "spider", "tree", "book")
TAUS = (0.3, 0.5, 0.8)

STEP_TOL = 1e-6           # closed-form resolvent reference (prox_distance)
CONTRACTION_TOL = 1e-9    # discrete self-contraction (acceptance criterion 5)
TIE_TOL = 1e-9            # neg_cube_unit tie at {0, 1} (acceptance criterion 1)
CAT0_TOL = -1e-7          # quadrilateral residual floor (acceptance criterion 7)
INEXACT_STEP = "inexact step"
EVAL_BUDGET = 200_000     # objective evaluations per item while screening


class EvalBudgetExceeded(Exception):
    pass


def budgeted(objective, budget: int):
    """`objective` that raises EvalBudgetExceeded after `budget` evaluations."""
    fn, left = objective.fn, [budget]

    def counted(z):
        left[0] -= 1
        if left[0] < 0:
            raise EvalBudgetExceeded(f"more than {budget} objective evaluations")
        return fn(z)
    return dataclasses.replace(objective, fn=counted)


def space_tag(space) -> str:
    if isinstance(space, sc.EuclideanSpace):
        return f"euclidean{space.dim}"
    if isinstance(space, sc.HyperbolicPlane):
        return "hyperbolic2"
    if isinstance(space, sc.SpiderSpace):
        return "spider"
    if isinstance(space, sc.TreeSpace):
        return "tree"
    if isinstance(space, sc.BookSpace):
        return "book"
    raise ValueError(f"no tag for {space.describe()}")


def _seed(rng) -> int:
    return int(rng.integers(1 << 31))


def require_branching(trees) -> None:
    if not any(t.max_degree >= 3 for t in trees):
        raise RuntimeError("tree mix has no vertex of degree >= 3")


def branching_trees(rng, count: int, n_edges: int = 8) -> list:
    """`count` random trees with `n_edges` edges and a vertex of degree >= 3.

    A path is isometric to an interval and misses the tree-specific
    code; a fixed edge count keeps the per-edge solve cost alike across
    seeds.
    """
    trees = []
    for _ in range(100 * count):
        tree = widths.random_tree(seed=_seed(rng), max_edges=n_edges, max_degree=4)
        if len(tree.edges) == n_edges and tree.max_degree >= 3:
            trees.append(tree)
            if len(trees) == count:
                return trees
    raise RuntimeError(f"no {count} branching trees with {n_edges} edges")


def discrete_violation(space, points) -> float:
    """Largest d(x_k, x_m) - min_{j<k} d(x_j, x_m) over k <= m."""
    worst = 0.0
    for m in range(len(points)):
        best = math.inf
        for k in range(m + 1):
            d = space.distance(points[k], points[m])
            worst = max(worst, d - best)
            best = min(best, d)
    return worst


def points_by_tag(points, min_gap: float = 1e-6) -> dict[str, list]:
    """Group points by space tag, keeping the first space seen per tag.

    A point closer than `min_gap` to the previous kept one is skipped:
    converged run tails repeat a point up to rounding, and kernels such
    as log_direction need distinct points.
    """
    first: dict[str, object] = {}
    out: dict[str, list] = {}
    for p in points:
        tag = space_tag(p.space)
        if first.setdefault(tag, p.space) is not p.space:
            continue
        kept = out.setdefault(tag, [])
        if not kept or p.space.distance(kept[-1], p) > min_gap:
            kept.append(p)
    return out


class Workload:
    name = ""
    pool = 0            # distinct items built at set-up
    tour_pool = None    # pool size when another workload's trace tours this one
    trace_items = 0     # items per pass of the traced run
    screened = False    # whether the pool is screened before timing
    eval_budget = None  # objective evaluations per item, set while screening
    order = None        # pool indices left after screening
    items: list

    def item(self, i: int):
        if self.order is not None:
            i = self.order[i % len(self.order)]
        return self.items[i % len(self.items)]

    def keep(self, indices: list[int]) -> None:
        """Cycle through only these pool items from now on."""
        self.order = list(indices)

    def call(self, i: int):
        raise NotImplementedError

    def check(self, i: int, out) -> str | None:
        raise NotImplementedError

    def known_defect(self, i: int, reason: str) -> bool:
        """Whether a failure of item i is one of the documented defects."""
        return False

    def kernel_points(self) -> dict[str, list]:
        """Points of one space per tag, for the batch-timed kernel phase."""
        raise NotImplementedError


class _ProxItem:
    __slots__ = ("space", "objective", "start", "taus", "target", "kind", "far")

    def __init__(self, space, objective, start, taus, target=None, kind="", far=False):
        self.space, self.objective, self.start = space, objective, start
        self.taus, self.target, self.kind, self.far = taus, target, kind, far


class _ProxWorkload(Workload):
    trace_items = 100
    screened = True
    steps = (2, 3, 4, 5)    # gradient steps per item, cycled so item times spread

    def objective(self, it):
        """The item's objective, under the evaluation budget while screening."""
        if self.eval_budget is None:
            return it.objective
        return budgeted(it.objective, self.eval_budget)

    def call(self, i):
        it = self.item(i)
        return proximal.discrete_gradient_curve(self.objective(it), it.space, it.start,
                                                it.taus)

    def _check_run(self, it, run) -> str | None:
        if run.diagnostic is not None or len(run.points) != len(it.taus) + 1:
            return f"run stopped early: {run.diagnostic}"
        viol = discrete_violation(it.space, run.points)
        if viol > CONTRACTION_TOL:
            return f"discrete self-contraction violated by {viol:.3g}"
        return None

    def kernel_points(self):
        return points_by_tag(p for it in self.items if not it.far
                             for p in (it.start, it.target) if p is not None)


def _far_hyperbolic_point(space, rng, radius: float):
    theta = float(rng.uniform(0.0, 2.0 * math.pi))
    o = space.origin()
    e1, e2 = space.tangent_basis(o)
    v = tuple(math.cos(theta) * e1[j] + math.sin(theta) * e2[j] for j in range(3))
    return space.point(space.exp(o, v, radius))


class ProxDistance(_ProxWorkload):
    """Gradient runs of half_sq_dist and dist, which have closed-form proxes."""

    name = "prox_distance"
    pool = 216            # each (space, step count) pair three times
    # long enough that the book items' times overlap, so p90 does not sit
    # in the gap between two step counts
    steps = (2, 3, 4, 5, 6, 7, 8, 9)
    far_every = 25        # every 25th item starts far out in the hyperbolic plane

    def __init__(self, seed, pool=None):
        rng = np.random.default_rng([seed, 1])
        trees = branching_trees(rng, 2)
        hyperbolic = sc.HyperbolicPlane()
        spaces = [sc.EuclideanSpace(1), sc.EuclideanSpace(2), sc.SpiderSpace(3),
                  sc.SpiderSpace(5), None, sc.BookSpace(2), sc.BookSpace(3),
                  sc.BookSpace(5), hyperbolic]
        self.items = []
        for i in range(pool or self.pool):
            name = ("half_sq_dist", "dist")[(i // len(spaces)) % 2]
            steps = self.steps[i % len(self.steps)]
            far = i % self.far_every == self.far_every - 1
            if far:
                space = hyperbolic
                start = _far_hyperbolic_point(space, rng, float(rng.uniform(6.0, 10.0)))
                tau = float(rng.choice([0.5, 1.0, 2.0, 4.0]))
            else:
                space = spaces[i % len(spaces)] or trees[(i // len(spaces)) % len(trees)]
                start = space.random_point(rng, 1.2)
                tau = TAUS[(i // (2 * len(spaces))) % len(TAUS)]
            target = space.random_point(rng, 1.0)
            self.items.append(_ProxItem(
                space, make_objective(space, name, target=target), start,
                (tau,) * steps, target=target, kind=name, far=far))

    def known_defect(self, i, reason):
        # Far from the origin the hyperboloid coordinates lose precision and
        # the solver's widening window walks into that zone: it raises or
        # drifts.  An inexact step is one the solver accepts because its
        # composite value is within tie_value of the optimum, though it lies
        # more than STEP_TOL from the exact prox: a near-tie between two
        # candidates (a step landing just past a vertex or the spine), or a
        # flat composite at a kink (a dist step that reaches its target).
        return self.item(i).far or reason.startswith(INEXACT_STEP)

    def check(self, i, run):
        it = self.item(i)
        space, p, f = it.space, it.target, it.objective
        if run.diagnostic is not None or len(run.points) != len(it.taus) + 1:
            return f"run stopped early: {run.diagnostic}"
        for k, (x, got, tau) in enumerate(zip(run.points, run.points[1:], it.taus)):
            d = space.distance(x, p)
            if it.kind == "half_sq_dist":
                s = tau / (1.0 + tau)
            else:
                s = min(tau, d) / d if d > 0.0 else 0.0
            ref = space.geodesic_point(x, p, s)
            dev = space.distance(ref, got)
            if dev > STEP_TOL:
                excess = (f(got) + space.distance(x, got) ** 2 / (2.0 * tau)
                          - f(ref) - space.distance(x, ref) ** 2 / (2.0 * tau))
                if excess <= proximal.DEFAULT_SOLVER.tie_value:
                    return (f"{INEXACT_STEP} {k + 1}: {dev:.3g} from the exact prox, "
                            f"composite {excess:.2g} above it")
                return f"step {k + 1} deviates {dev:.3g} from the closed-form prox"
        return self._check_run(it, run)


class ProxQuasiconvex(_ProxWorkload):
    """Gradient runs of objectives only the numeric solver handles."""

    name = "prox_quasiconvex"
    pool = 120            # each (stratum, step count, tau) once

    def __init__(self, seed, pool=None):
        rng = np.random.default_rng([seed, 2])
        line, plane = sc.EuclideanSpace(1), sc.EuclideanSpace(2)
        hyper, spider, book = sc.HyperbolicPlane(), sc.SpiderSpace(3), sc.BookSpace(3)
        trees = branching_trees(rng, 2)

        def tie(i):
            return line, make_objective(line, "neg_cube_unit"), line.point((0.0,))

        def unit(i):
            f = make_objective(line, "neg_cube_unit")
            return line, f, line.point((float(rng.uniform(0.1, 1.0)),))

        def cube(i):
            # every other start is left of 0, so the share of the known
            # defect below is the same for every seed
            x = float(rng.uniform(0.0, 1.2)) * (-1.0 if (i // len(strata)) % 2 else 1.0)
            return line, make_objective(line, "neg_cube"), line.point((x,))

        def sqrt_abs(i):
            f = make_objective(line, "sqrt_abs", center=float(rng.uniform(-1.0, 1.0)))
            return line, f, line.random_point(rng, 1.2)

        def ripple(i):
            return line, make_objective(line, "ripple_vee"), line.random_point(rng, 1.2)

        def max_two(space):
            def build(i):
                f = make_objective(space, "max_two_dists",
                                   target=space.random_point(rng, 1.0),
                                   other=space.random_point(rng, 1.0))
                return space, f, space.random_point(rng, 1.2)
            return build

        def leg_segment(i):
            lo, hi = sorted(float(x) for x in rng.uniform(0.0, 1.0, 2))
            f = make_objective(spider, "dist_to_leg_segment",
                               leg=int(rng.integers(1, 4)), lo=lo, hi=hi)
            return spider, f, spider.random_point(rng, 1.0)

        def spine_segment(i):
            lo, hi = sorted(float(x) for x in rng.uniform(-1.0, 1.0, 2))
            f = make_objective(book, "dist_to_spine_segment", lo=lo, hi=hi)
            return book, f, book.random_point(rng, 1.2)

        def edge_segment(i):
            tree = trees[(i // len(strata)) % len(trees)]
            edge = int(rng.integers(0, len(tree.edges)))
            lo, hi = sorted(float(x) for x in rng.uniform(0.0, tree.edges[edge][2], 2))
            f = make_objective(tree, "dist_to_edge_segment", edge=edge, lo=lo, hi=hi)
            return tree, f, tree.random_point(rng, 1.0)

        strata = [tie, unit, cube, sqrt_abs, ripple, max_two(plane), max_two(hyper),
                  leg_segment, spine_segment, edge_segment]
        self.items = []
        for i in range(pool or self.pool):
            stratum = strata[i % len(strata)]
            space, f, start = stratum(i)
            tau = 0.5 if stratum is tie else TAUS[(i // len(strata)) % len(TAUS)]
            steps = self.steps[(i // len(strata)) % len(self.steps)]
            self.items.append(_ProxItem(space, f, start, (tau,) * steps,
                                        kind="tie" if stratum is tie else f.name))

    def known_defect(self, i, reason):
        # Left of 0 the solver's first window holds a local minimum of
        # -z^3 + (z-x)^2/(2 tau), so it never widens far enough to see the
        # cubic fall away and reports a finite step instead of unbounded.
        # Near a kink ridge of the objective (where max_two_dists' two
        # distances are equal, or where dist_to_spine_segment bends) the
        # compass search can crawl along the ridge for 1e5-1e6 evaluations
        # in one solve, and the item runs out of its evaluation budget.
        it = self.item(i)
        return ((it.kind == "neg_cube" and it.start.data[0] < 0.0)
                or (EvalBudgetExceeded.__name__ in reason
                    and it.kind in ("max_two_dists", "dist_to_spine_segment")))

    def call(self, i):
        it = self.item(i)
        f = self.objective(it)
        run = proximal.discrete_gradient_curve(f, it.space, it.start, it.taus)
        if it.kind == "tie":
            return run, proximal.resolvent(f, it.space, it.start, it.taus[0])
        return run, None

    def check(self, i, out):
        it = self.item(i)
        run, res = out
        if it.kind == "neg_cube":
            if len(run.points) != 1 or "unbounded" not in (run.diagnostic or ""):
                return f"neg_cube not reported unbounded: {run.diagnostic}"
            return None
        if it.kind == "tie":
            locs = sorted(p.data[0] for p in res.minimizers)
            if (res.status != proximal.MULTIPLE_TIES or len(locs) != 2
                    or abs(locs[0]) > TIE_TOL or abs(locs[1] - 1.0) > TIE_TOL):
                return f"neg_cube_unit tie not at {{0, 1}}: {res.status} {locs}"
        return self._check_run(it, run)


class _Curve:
    __slots__ = ("space", "curve", "expected")

    def __init__(self, space, curve, expected):
        self.space, self.curve, self.expected = space, curve, expected


def expected_n_checked(space, curve) -> dict[str, int]:
    """n_checked of each verify check, counted here from the samples."""
    cfg = verify.DEFAULT_SAMPLING
    dense = curve.densified(cfg.densify_levels).points
    n = len(dense)
    if n > cfg.max_exhaustive:
        raise RuntimeError("verify curves must stay under the exhaustive cap")
    pairs = n * (n - 1) // 2
    angle = 0
    for i in range(n):
        g = sum(not space.same_point(dense[i], q) for q in dense[i + 1:])
        angle += g * (g + 1) // 2
    raw = curve.points
    stationary = 0
    for i in range(len(raw)):
        for j in range(i + 2, len(raw)):
            if space.distance(raw[i], raw[j]) <= space.tolerance:
                stationary += j - i - 1
    return {"self_contracted": pairs, "stationarity": max(stationary, 1),
            "tail_halving": max(pairs, 1), "angle_estimate": max(angle, 1)}


class VerifySweep(Workload):
    """All four verify checks on interpolated gradient runs, two lengths."""

    name = "verify_sweep"
    pool, tour_pool = 36, 12
    trace_items = 72
    # steps per curve: two short curves to one long one with about twice
    # the samples, so the median item is a short one and p90 a long one
    lengths = (3, 3, 6)
    # half_sq_dist runs never reach their target, so every curve of one
    # length has the same number of distinct samples and angle checks

    def __init__(self, seed, pool=None):
        rng = np.random.default_rng([seed, 3])
        spaces = [sc.EuclideanSpace(1), sc.EuclideanSpace(2), sc.HyperbolicPlane(),
                  sc.SpiderSpace(4), branching_trees(rng, 1)[0], sc.BookSpace(3)]
        self.items = []
        for i in range(pool or self.pool):
            space = spaces[i % len(spaces)]
            steps = self.lengths[(i // len(spaces)) % len(self.lengths)]
            f = make_objective(space, "half_sq_dist", target=space.random_point(rng, 1.0))
            tau = float(rng.choice(TAUS))
            run = proximal.discrete_gradient_curve(
                f, space, space.random_point(rng, 1.2), (tau,) * steps)
            curve = proximal.geodesic_interpolation(space, run)
            self.items.append(_Curve(space, curve, expected_n_checked(space, curve)))

    def call(self, i):
        it = self.item(i)
        return {name: fn(it.space, it.curve) for name, fn in verify.CHECKS.items()}

    def check(self, i, reports):
        it = self.item(i)
        for name, rep in reports.items():
            if not rep.passed:
                return f"{name} failed: {rep.max_violation:.3g} > {rep.tolerance:.3g}"
            if rep.n_checked != it.expected[name]:
                return f"{name} checked {rep.n_checked}, expected {it.expected[name]}"
        return None

    def kernel_points(self):
        return points_by_tag(p for it in self.items for p in it.curve.points)


class _AuditSpec:
    __slots__ = ("kind", "generic", "tree_args", "book_k", "curve_seed", "cert_seed")

    def __init__(self, kind, generic, tree_args, book_k, curve_seed, cert_seed):
        self.kind, self.generic, self.tree_args = kind, generic, tree_args
        self.book_k, self.curve_seed, self.cert_seed = book_k, curve_seed, cert_seed


class BoundAudit(Workload):
    """Fresh space, random self-contracted curve, round trip, bound audits."""

    name = "bound_audit"
    pool = 1200
    trace_items = 240
    kinds = ("tree", "book", "plane")
    rsc_steps = {"tree": 10, "book": 10, "plane": 14}
    certifications = 16   # four-point and CAT(0) checks per item

    def __init__(self, seed, pool=None):
        rng = np.random.default_rng([seed, 4])
        self.items = []
        for i in range(pool or self.pool):
            kind = self.kinds[i % len(self.kinds)]
            tree_args = {"seed": _seed(rng), "max_edges": int(rng.integers(6, 17)),
                         "max_degree": int(rng.integers(3, 7))}
            self.items.append(_AuditSpec(
                kind, i % 4 == 3, tree_args, (2, 3, 5)[(i // 3) % 3],
                _seed(rng), _seed(rng)))
        require_branching([widths.random_tree(**s.tree_args)
                           for s in self.items[:60] if s.kind == "tree"])

    @staticmethod
    def _space(spec):
        if spec.kind == "tree":
            return widths.random_tree(**spec.tree_args)
        if spec.kind == "book":
            return sc.BookSpace(spec.book_k)
        return sc.EuclideanSpace(2)

    def call(self, i):
        spec = self.item(i)
        space = self._space(spec)
        curve = widths.random_self_contracted(space, self.rsc_steps[spec.kind],
                                              seed=spec.curve_seed)
        text = serialize.dumps(serialize.curve_to_json(curve))
        back = serialize.curve_from_json(json.loads(text))
        stored = back.space
        if spec.kind == "tree":
            audits = [widths.tree_length_bound(stored, back)]
        elif spec.kind == "book":
            audits = [widths.book_length_bound(stored, back)]
        else:
            audits = [widths.euclidean_length_bound(back, method="quadrature"),
                      widths.euclidean_length_bound(back, method="mc")]
        if spec.generic:
            audits.append(widths.generic_bound_for_curve(stored, back))
        pts = self._cert_points(space, spec)
        d = space.distance
        four_point, residuals = [], []
        for w, x, y, z in zip(pts[0::4], pts[1::4], pts[2::4], pts[3::4]):
            four_point.append(sc.four_point_subembed(
                d(w, x), d(x, y), d(y, z), d(z, w), d(w, y), d(x, z)))
            residuals.append(sc.cat0_inequality_residual(space, x, y, z, 0.5))
        return curve, back, audits, four_point, residuals

    def _cert_points(self, space, spec) -> list:
        rng = np.random.default_rng(spec.cert_seed)
        return [space.random_point(rng, 1.5) for _ in range(4 * self.certifications)]

    def check(self, i, out):
        curve, back, audits, four_point, residuals = out
        if (back.space != curve.space or back.mode != curve.mode
                or back.times != curve.times
                or [p.data for p in back.points] != [p.data for p in curve.points]):
            return "curve changed in the JSON round trip"
        for rep in audits:
            if not rep.passed:
                return f"{rep.bound_name} audit failed: ratio {rep.ratio:.6g}"
        if not all(r.ok for r in four_point):
            return "four-point sub-embedding failed"
        if min(residuals) < CAT0_TOL:
            return f"CAT(0) residual {min(residuals):.3g} below {CAT0_TOL}"
        return None

    def kernel_points(self):
        out = {}
        for spec in self.items[:len(self.kinds)]:
            out.update(points_by_tag(self._cert_points(self._space(spec), spec)))
        return out


WORKLOADS = {w.name: w for w in (ProxDistance, ProxQuasiconvex, VerifySweep, BoundAudit)}
