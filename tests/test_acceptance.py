"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Tolerances are pinned here, not configurable.
"""
import json
import math
import subprocess
import sys
import time
import zlib
from contextlib import contextmanager

import numpy as np
import pytest

import selfcontract as sc
from selfcontract.cones import ConePoint, cone_barycenter, direction_cover_center
from selfcontract.measures import radius_constants
from selfcontract.objectives import make_objective
from selfcontract.proximal import MULTIPLE_TIES, UNBOUNDED, EMPTY
from selfcontract.spaces.base import Direction
from selfcontract.verify import angle_estimate_sweep, contraction_check, is_self_contracted
from selfcontract.widths import (
    book_length_bound,
    euclidean_constants,
    euclidean_length_bound,
    mean_width,
    directional_decrease_residual,
    random_self_contracted,
    random_tree,
    spider_jump_curve,
    tail_cover_direction,
    tree_length_bound,
    unrectifiable_witness,
)

from test_cones import variance_gap


@contextmanager
def criterion(n: int, desc: str, budget_s: float):
    t0 = time.time()
    try:
        yield
    except BaseException:
        print(f"criterion {n:2d} [{desc}]: FAIL ({time.time() - t0:.2f}s)")
        raise
    dt = time.time() - t0
    print(f"criterion {n:2d} [{desc}]: PASS ({dt:.2f}s, budget {budget_s:.0f}s)")
    assert dt <= budget_s, f"runtime {dt:.2f}s exceeds the {budget_s}s budget"


def test_criterion_01_resolvent_pathology():
    with criterion(1, "resolvent ties {0,1}", 1.0):
        space = sc.EuclideanSpace(1)
        f = make_objective(space, "neg_cube_unit")
        res = sc.resolvent(f, space, space.point((0.0,)), 0.5)
        assert res.status == MULTIPLE_TIES
        locs = sorted(p.data[0] for p in res.minimizers)
        assert len(locs) == 2
        assert abs(locs[0] - 0.0) <= 1e-9
        assert abs(locs[1] - 1.0) <= 1e-9
        g = lambda z: -z ** 3 + z ** 2
        assert abs(g(locs[0]) - g(locs[1])) <= 1e-9


def test_criterion_02_resolvent_unbounded():
    with criterion(2, "resolvent unbounded", 1.0):
        space = sc.EuclideanSpace(1)
        f = make_objective(space, "neg_cube")
        res = sc.resolvent(f, space, space.point((0.0,)), 0.5)
        assert res.status in (UNBOUNDED, EMPTY)
        assert not res.minimizers
        assert sc.moreau_yosida(f, space, space.point((0.0,)), 0.5) == -math.inf


def test_criterion_03_spider_jump_family():
    with criterion(3, "k-spider jump curves", 5.0):
        for k in range(2, 11):
            curve = spider_jump_curve(k)
            assert sc.curve_length(curve) == 2.0 * (k - 1)  # exact
            rep = is_self_contracted(curve.space, curve)
            assert rep.max_violation == 0.0
            audit = tree_length_bound(curve.space, curve)
            assert audit.passed
            h1 = audit.constants["h1_neighborhood"]
            assert audit.bound == pytest.approx(6.0 * k * h1 * audit.diam)


def test_criterion_04_orthonormal_truncations():
    with criterion(4, "orthonormal jump truncations", 5.0):
        ratios = []
        for k in range(2, 13):
            curve, report = unrectifiable_witness(k)
            rep = is_self_contracted(curve.space, curve)
            assert rep.max_violation == 0.0
            ratio = report.constants["ratio_L_diam"]
            # exact identity at double precision (<= 4 ulp; see ledger)
            assert abs(ratio - (k - 1)) <= 4.0 * math.ulp(float(k - 1))
            ratios.append(ratio)
        slopes = [b - a for a, b in zip(ratios, ratios[1:])]
        assert all(abs(s - 1.0) <= 1e-12 for s in slopes)


def _criterion5_runs():
    """100 deterministic (objective, space, seed) gradient runs."""
    line = sc.EuclideanSpace(1)
    plane = sc.EuclideanSpace(2)
    spaces = [
        (line, ["half_sq_dist", "dist", "sqrt_abs", "ripple_vee", "neg_cube_unit"]),
        (plane, ["half_sq_dist", "dist", "max_two_dists"]),
        (sc.SpiderSpace(3), ["half_sq_dist", "dist", "dist_to_leg_segment"]),
        (sc.SpiderSpace(5), ["half_sq_dist", "dist"]),
        (sc.BookSpace(2), ["half_sq_dist", "dist", "dist_to_spine_segment"]),
        (sc.BookSpace(3), ["half_sq_dist", "dist"]),
        (random_tree(seed=424, max_edges=9, max_degree=4), ["half_sq_dist", "dist"]),
        (sc.HyperbolicPlane(), ["half_sq_dist", "dist"]),
    ]
    runs = []
    idx = 0
    while len(runs) < 100:
        space, names = spaces[idx % len(spaces)]
        name = names[(idx // len(spaces)) % len(names)]
        rng = np.random.default_rng(10_000 + idx)
        params = {}
        if name in ("half_sq_dist", "dist", "max_two_dists"):
            params["target"] = space.random_point(rng, 1.0)
        if name == "max_two_dists":
            params["other"] = space.random_point(rng, 1.0)
        objective = make_objective(space, name, **params)
        if objective.domain is not None:
            start = space.point((float(rng.uniform(0.1, 1.0)),))
        else:
            start = space.random_point(rng, 1.2)
        tau = [float(rng.choice([0.3, 0.5, 0.8]))] * 8
        run = sc.discrete_gradient_curve(objective, space, start, tau)
        runs.append(run)
        idx += 1
    return runs


def test_criteria_05_06_gradient_run_suite():
    with criterion(5, "gradient-run self-contraction suite", 6.0):
        runs = _criterion5_runs()
        worst_discrete = 0.0
        worst_angle = -math.inf
        for run in runs:
            space = run.space
            pts = run.points
            # exhaustive discrete triple check via running minima
            for m in range(len(pts)):
                best = math.inf
                for k in range(m + 1):
                    d = space.distance(pts[k], pts[m])
                    worst_discrete = max(worst_discrete, d - best)
                    best = min(best, d)
            interp = run.interpolated_curve()
            rep = is_self_contracted(space, interp)
            assert rep.passed, rep.witness
            ang = angle_estimate_sweep(space, interp, tol=1e-6)
            worst_angle = max(worst_angle, ang.max_violation)
        assert worst_discrete <= 1e-9, worst_discrete
    with criterion(6, "angle estimate < pi/2 + 1e-6", 1.0):
        assert worst_angle <= 1e-6, worst_angle


def _random_quadruple(space, rng, scale=1.5):
    pts = [space.random_point(rng, scale) for _ in range(4)]
    w, x, y, z = pts
    return (
        space.distance(w, x), space.distance(x, y), space.distance(y, z),
        space.distance(z, w), space.distance(w, y), space.distance(x, z),
    )


def test_criterion_07_cat0_certification():
    with criterion(7, "four-point + quadrilateral residuals", 30.0):
        branching = random_tree(seed=78, max_edges=10, max_degree=5)
        assert branching.max_degree >= 3
        spaces = [
            random_tree(seed=77, max_edges=10, max_degree=5),
            branching,
            sc.SpiderSpace(5),
            sc.BookSpace(3),
            sc.EuclideanSpace(3),
            sc.HyperbolicPlane(),
        ]
        for space in spaces:
            rng = np.random.default_rng(zlib.crc32(space.describe().encode()))
            for _ in range(10_000):
                quad = _random_quadruple(space, rng)
                assert sc.four_point_subembed(*quad).ok, (space.describe(), quad)
            worst = 0.0
            for _ in range(10_000):
                x = space.random_point(rng, 1.5)
                y = space.random_point(rng, 1.5)
                z = space.random_point(rng, 1.5)
                s = float(rng.choice([0.25, 0.5, 0.75]))
                worst = min(worst, sc.cat0_inequality_residual(space, x, y, z, s))
            assert worst >= -1e-7, (space.describe(), worst)
        sphere = sc.four_point_subembed(
            math.pi / 2, math.pi / 2, math.pi / 2, math.pi / 2, math.pi, math.pi
        )
        assert not sphere.ok


def test_criterion_08_euclidean_bound():
    with criterion(8, "Euclidean length bound, 200 curves", 20.0):
        c2 = euclidean_constants(2)
        assert c2["eps"] == 1.0 / 54.0
        assert c2["a_n"] == pytest.approx(4.0 * math.asin(1.0 / 108.0), abs=0.0)
        assert c2["C_n"] == pytest.approx(
            2.0 * math.pi / (c2["a_n"] * c2["eps"]), abs=0.0
        )
        plane = sc.EuclideanSpace(2)
        for trial in range(200):
            curve = random_self_contracted(plane, 14, seed=20_000 + trial)
            report = euclidean_length_bound(curve, method="quadrature")
            assert report.constants["width_method"] == "quadrature"
            assert report.length <= c2["C_n"] * report.width
            assert report.passed


def test_criterion_09_tree_and_book_bounds():
    with criterion(9, "tree + book bound audits", 60.0):
        n_each = 1000
        for trial in range(n_each):
            tree = random_tree(seed=30_000 + trial, max_edges=14, max_degree=6)
            curve = random_self_contracted(tree, 10, seed=31_000 + trial)
            assert tree_length_bound(tree, curve).passed
        books = [sc.BookSpace(k) for k in (2, 3, 5)]
        for trial in range(n_each):
            book = books[trial % 3]
            curve = random_self_contracted(book, 10, seed=32_000 + trial)
            report = book_length_bound(book, curve)
            assert report.constants["C"] == pytest.approx(54.0 * math.sqrt(2.0) * math.pi)
            assert report.passed


def test_criterion_10_mean_width_sanity():
    with criterion(10, "mean width of balls and segments", 10.0):
        plane = sc.EuclideanSpace(2)
        origin = plane.point((0.0, 0.0))
        for r in (0.5, 1.0, 2.0):
            rep = mean_width(plane, [origin], n_dirs=2048, seed=7, inflate=r,
                             method="mc")
            assert abs(rep.width - 2.0 * r) <= 3.0 * rep.stderr + 1e-12
            exact = mean_width(plane, [origin], inflate=r, method="quadrature")
            assert exact.width == pytest.approx(2.0 * r, rel=1e-12)
        for L in (1.0, 3.0):
            seg = [origin, plane.point((L, 0.0))]
            rep = mean_width(plane, seg, n_dirs=4096, seed=8, method="mc")
            assert abs(rep.width - 2.0 * L / math.pi) <= 3.0 * rep.stderr
            exact = mean_width(plane, seg, method="quadrature")
            assert exact.width == pytest.approx(2.0 * L / math.pi, rel=1e-12)


def test_criterion_11_directional_decrease():
    with criterion(11, "projected-width decrease", 60.0):
        plane = sc.EuclideanSpace(2)
        eps2 = radius_constants(2).eps
        max_angle = 2.0 * math.asin(eps2 / 2.0)
        rng = np.random.default_rng(40_000)
        worst = -math.inf
        n_curves = 0
        trial = 0
        while n_curves < 100:
            curve = random_self_contracted(plane, 12, seed=41_000 + trial)
            trial += 1
            times = curve.times
            if len(times) < 5:
                continue
            n_curves += 1
            for _ in range(10):
                i = int(rng.integers(0, len(times) - 2))
                j = int(rng.integers(i + 1, len(times)))
                center, _, _ = tail_cover_direction(plane, curve, times[i])
                for _ in range(10):
                    psi = float(rng.uniform(-1.0, 1.0)) * max_angle
                    c, s = math.cos(psi), math.sin(psi)
                    vx, vy = center.data
                    v = Direction(plane, center.base,
                                  (c * vx - s * vy, s * vx + c * vy))
                    assert math.dist(v.data, center.data) <= eps2 + 1e-12
                    res = directional_decrease_residual(
                        plane, curve, times[i], times[j], v, eps2)
                    worst = max(worst, res)
        assert worst <= 1e-9, worst


def test_criterion_12_cone_barycenter_and_cover():
    with criterion(12, "variance inequality + cover radii", 60.0):
        rng = np.random.default_rng(50_000)
        for dim in (2, 3):
            space = sc.EuclideanSpace(dim)
            base = space.point(tuple([0.0] * dim))
            worst_gap = 0.0
            for _ in range(1000):
                k = int(rng.integers(2, 7))
                vecs = rng.normal(size=(k, dim))
                vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
                dirs = [Direction(space, base, tuple(map(float, v))) for v in vecs]
                center = cone_barycenter(dirs)
                cvec = (np.zeros(dim) if center.direction is None
                        else np.array(center.direction.data) * center.radius)
                probes = rng.normal(size=(1000, dim))
                probes /= np.linalg.norm(probes, axis=1, keepdims=True)
                probes *= rng.uniform(0.0, 2.0, size=(1000, 1))
                # variance-inequality residual, vectorized over the probe batch
                mean_probe = ((probes[:, None, :] - vecs[None, :, :]) ** 2
                              ).sum(axis=2).mean(axis=1)
                d_pc = ((probes - cvec) ** 2).sum(axis=1)
                mean_center = ((cvec - vecs) ** 2).sum(axis=1).mean()
                gaps = mean_probe - d_pc - mean_center
                worst_gap = min(worst_gap, float(gaps.min()))
            assert worst_gap >= -1e-9, (dim, worst_gap)
            # spot checks through the scalar API
            for _ in range(5):
                k = int(rng.integers(2, 6))
                vecs = rng.normal(size=(k, dim))
                vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
                dirs = [Direction(space, base, tuple(map(float, v))) for v in vecs]
                center = cone_barycenter(dirs)
                for _ in range(10):
                    v = rng.normal(size=dim)
                    v /= np.linalg.norm(v)
                    probe = ConePoint(Direction(space, base, tuple(map(float, v))),
                                      float(rng.uniform(0.0, 2.0)))
                    assert variance_gap(dirs, center, probe) >= -1e-9
            bound = math.acos(1.0 / (2.0 * 3 ** dim))
            for _ in range(1000):
                axis = rng.normal(size=dim)
                axis /= np.linalg.norm(axis)
                dirs = []
                while len(dirs) < 8:
                    v = rng.normal(size=dim)
                    v /= np.linalg.norm(v)
                    if math.acos(min(max(float(v @ axis), -1.0), 1.0)) <= math.pi / 4:
                        dirs.append(Direction(space, base, tuple(map(float, v))))
                _, radius, _ = direction_cover_center(space, base, dirs)
                assert radius <= bound + 1e-9


def test_criterion_13_contraction():
    with criterion(13, "contraction of paired runs", 5.0):
        spaces = [sc.EuclideanSpace(2), sc.SpiderSpace(4), sc.BookSpace(3)]
        rng = np.random.default_rng(60_000)
        worst = 0.0
        for space in spaces:
            for pair in range(50):
                target = space.random_point(rng, 1.0)
                f = make_objective(space, "half_sq_dist", target=target)
                s1 = space.random_point(rng, 1.2)
                s2 = space.random_point(rng, 1.2)
                taus = [0.5] * 6
                r1 = sc.discrete_gradient_curve(f, space, s1, taus)
                r2 = sc.discrete_gradient_curve(f, space, s2, taus)
                rep = contraction_check(space, f, r1, r2, tol=1e-6)
                worst = max(worst, rep.max_violation)
                assert rep.passed, (space.describe(), rep.witness)
        assert worst <= 1e-6, worst


def test_criterion_14_byte_determinism(tmp_path):
    with criterion(14, "byte-identical reruns", 60.0):
        cli = [sys.executable, "-m", "selfcontract.cli"]

        def run(*args):
            r = subprocess.run(cli + list(args), capture_output=True,
                               text=True, cwd=tmp_path)
            assert r.returncode == 0, f"{args[0]}: {r.stderr}"
            return r

        cfg = tmp_path / "sim.cfg"
        cfg.write_text(
            "space = spider:3\nobjective = dist\nobjective.target = 1,1.0\n"
            "start = 2,1.0\ntau = 0.5\nsteps = 6\nseed = 99\nout = run\n"
        )
        outputs = [
            "run.curve.json", "run.interp.json", "run.values.csv",
            "run.log.json", "ver.json", "aud.json", "aud.csv",
            "cex.growth.csv", "rep.aggregate.csv", "rep.plotdata.csv",
        ]

        def do_all():
            run("simulate", "--config", "sim.cfg")
            run("verify", "run.curve.json", "--check",
                "self_contracted,stationarity,angle_estimate",
                "--seed", "99", "--out", "ver.json")
            run("audit", "run.curve.json", "--bound", "tree",
                "--seed", "99", "--out", "aud")
            run("counterexample", "--k", "8", "--out", "cex")
            run("report", "aud.csv", "cex.growth.csv", "--out", "rep")
            return {name: (tmp_path / name).read_bytes() for name in outputs}

        first = do_all()
        second = do_all()
        for name in outputs:
            assert first[name] == second[name], f"{name} differs between runs"
