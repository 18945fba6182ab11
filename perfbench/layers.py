"""Per-layer measurement: instrumentation, the kernel phase, and metrics.

The traced run wraps the calls the benchmark makes into each layer, and
the calls one layer makes into the next where the callee is looked up
at call time (`proximal.resolvent` from `discrete_gradient_curve`,
`widths.hausdorff_measure_neighborhood` from the tree and book audits,
`Curve.densified` from the checks).  Space kernels and the metric and
serialize primitives take microseconds, so they are counted in the
traced run and timed in batches by the kernel phase instead.

A layer metric uses the spans of the workload's own traced items when
they reach that layer, and otherwise the spans of the workload's set-up
and of the tour, which runs the first items of the other workloads so
that every layer is measured on every workload.
"""
from __future__ import annotations

import dataclasses
import json
import statistics

import selfcontract as sc
from selfcontract import metric, proximal, serialize, verify, widths
from selfcontract.spaces.base import Space

from tracing import self_times
from workloads import SPACE_TAGS, space_tag

KERNEL_POINTS = 48      # points per space tag in the kernel phase
KERNEL_CALLS = 64       # calls per batch span (inputs repeat if fewer)
KERNEL_BATCHES = 9
RSC_TAGS = ("tree", "book", "euclidean2")


def instrument(tracer) -> list:
    """Replacements that span or count every layer boundary the benchmark uses."""
    T = tracer
    solve = proximal.resolvent

    def resolvent(objective, space, x, tau, *args, **kwargs):
        counted = dataclasses.replace(objective, fn=T.counting(objective.fn, "evals"))
        with T.span("proximal.resolvent", tag=space_tag(space)) as sp:
            try:
                res = solve(counted, space, x, tau, *args, **kwargs)
            except Exception as exc:
                sp.attrs["error"] = type(exc).__name__
                raise
            sp.attrs["status"] = res.status
            return res

    def tagged(sp, args, kwargs, result):
        sp.attrs["tag"] = space_tag(args[0])

    def check_attrs(sp, args, kwargs, report):
        sp.attrs.update(tag=space_tag(args[0]), n_checked=report.n_checked)

    def rsc_attrs(sp, args, kwargs, curve):
        sp.attrs.update(tag=space_tag(args[0]), accepted=len(curve) - 1)

    def width_method(sp, args, kwargs, report):
        sp.attrs["method"] = report.constants["width_method"]

    replacements = [(proximal, "resolvent", resolvent)]
    for name, fn in verify.CHECKS.items():
        replacements.append((verify.CHECKS, name, T.wrap(fn, f"verify.{name}", check_attrs)))
    replacements += [
        (metric.Curve, "densified", T.wrap(
            metric.Curve.densified, "metric.densified",
            lambda sp, args, kwargs, curve: sp.attrs.update(n=len(curve)))),
        (widths, "random_tree", T.wrap(widths.random_tree, "widths.random_tree")),
        (widths, "random_self_contracted", T.wrap(
            widths.random_self_contracted, "widths.random_self_contracted", rsc_attrs)),
        (widths, "tree_length_bound", T.wrap(widths.tree_length_bound, "widths.tree_bound")),
        (widths, "book_length_bound", T.wrap(widths.book_length_bound, "widths.book_bound")),
        (widths, "euclidean_length_bound", T.wrap(
            widths.euclidean_length_bound, "widths.euclidean_bound", width_method)),
        (widths, "generic_bound_for_curve", T.wrap(
            widths.generic_bound_for_curve, "widths.generic_bound")),
        (widths, "hausdorff_measure_neighborhood", T.wrap(
            widths.hausdorff_measure_neighborhood, "measures.hausdorff", tagged)),
        (widths, "estimate_condition_constants", T.wrap(
            widths.estimate_condition_constants, "measures.condition_constants")),
    ]
    for key in ("distance", "direction_angle", "geodesic_point"):
        replacements.append((Space, key, T.counting(Space.__dict__[key], key)))
    return replacements


def _batches(tracer, name: str, calls: list, fn) -> None:
    calls = (calls * -(-KERNEL_CALLS // len(calls)))[:max(KERNEL_CALLS, len(calls))]
    for _ in range(KERNEL_BATCHES):
        with tracer.span(name, item="kernel", calls=len(calls)):
            for args in calls:
                fn(*args)


def _roundtrip(curve):
    return serialize.curve_from_json(json.loads(serialize.dumps(serialize.curve_to_json(curve))))


def kernel_phase(tracer, points: dict[str, list]) -> None:
    """Batch-time the microsecond calls on each tag's points (untraced code)."""
    for tag in SPACE_TAGS:
        pts = points[tag][:KERNEL_POINTS]
        space = pts[0].space
        triples = [(p, q, r) for p, q, r in zip(pts, pts[1:], pts[2:])
                   if not (space.same_point(p, q) or space.same_point(p, r))]
        pairs = [(p, q) for p, q, _ in triples]
        dirs = [(space.log_direction(p, q)[0], space.log_direction(p, r)[0])
                for p, q, r in triples]
        d = space.distance
        quads = [(d(w, x), d(x, y), d(y, z), d(z, w), d(w, y), d(x, z))
                 for w, x, y, z in zip(pts, pts[1:], pts[2:], pts[3:])]
        curve = metric.make_curve(pts[:16])
        _batches(tracer, f"spaces.distance.{tag}", pairs, space.distance)
        _batches(tracer, f"spaces.geodesic_point.{tag}",
                 [(p, q, 0.5) for p, q in pairs], space.geodesic_point)
        _batches(tracer, f"spaces.log_direction.{tag}", pairs, space.log_direction)
        _batches(tracer, f"spaces.direction_angle.{tag}", dirs, space.direction_angle)
        _batches(tracer, "metric.four_point", quads, sc.four_point_subembed)
        _batches(tracer, "metric.cat0_residual", [(space, *t, 0.5) for t in triples],
                 sc.cat0_inequality_residual)
        _batches(tracer, "metric.curve_length", [(curve,)], sc.curve_length)
        _batches(tracer, "serialize.curve_roundtrip", [(curve,)], _roundtrip)


def layer_metrics(spans, overhead_frac: float) -> dict[str, float]:
    own = [sp for sp in spans if isinstance(sp.item, int)]
    other = [sp for sp in spans if not isinstance(sp.item, int)]
    items = [sp for sp in own if sp.name == "item"]
    n_items = len(items)
    selft = self_times(spans)

    def pick(name, **attrs):
        def match(sp):
            return sp.name == name and all(sp.attrs.get(k) == v for k, v in attrs.items())
        return [sp for sp in own if match(sp)] or [sp for sp in other if match(sp)]

    def ms_p50(name, **attrs):
        return 1e3 * statistics.median(sp.dur for sp in pick(name, **attrs))

    def us_per_call(name):
        return 1e6 * statistics.median(sp.dur / sp.attrs["calls"] for sp in pick(name))

    def per_item(name, value):
        return sum(value(sp) for sp in own if sp.name == name) / n_items

    m: dict[str, float] = {}
    for tag in SPACE_TAGS:
        for kernel in ("distance", "geodesic_point", "log_direction", "direction_angle"):
            m[f"spaces.{kernel}_us.{tag}"] = us_per_call(f"spaces.{kernel}.{tag}")
    for key in ("distance", "direction_angle"):
        m[f"spaces.{key}_calls_per_item"] = per_item("item", lambda sp: sp.deltas.get(key, 0))

    solves = pick("proximal.resolvent")
    for tag in SPACE_TAGS:
        m[f"proximal.resolvent_ms_p50.{tag}"] = ms_p50("proximal.resolvent", tag=tag)
        tagged = pick("proximal.resolvent", tag=tag)
        m[f"proximal.evals_per_solve.{tag}"] = (
            sum(sp.deltas.get("evals", 0) for sp in tagged) / len(tagged))
    m["proximal.eval_us"] = 1e6 * sum(sp.dur for sp in solves) / max(
        sum(sp.deltas.get("evals", 0) for sp in solves), 1)
    m["proximal.self_share"] = sum(
        selft[sp.id] for sp in own if sp.name == "proximal.resolvent"
    ) / sum(sp.dur for sp in items)
    m["proximal.tie_solves"] = sum(sp.attrs.get("status") == proximal.MULTIPLE_TIES
                                   for sp in solves)
    m["proximal.unbounded_solves"] = sum(sp.attrs.get("status") == proximal.UNBOUNDED
                                         for sp in solves)
    m["proximal.failed_solves"] = sum("error" in sp.attrs for sp in solves)

    for check in verify.CHECKS:
        m[f"verify.{check}_ms"] = ms_p50(f"verify.{check}")
    for tag in SPACE_TAGS:
        m[f"verify.angle_estimate_ms.{tag}"] = ms_p50("verify.angle_estimate", tag=tag)
    angle_ids = {sp.id for sp in own if sp.name == "verify.angle_estimate"}
    m["verify.angle_n_checked_per_item"] = per_item(
        "verify.angle_estimate", lambda sp: sp.attrs["n_checked"])
    m["verify.self_contracted_n_checked_per_item"] = per_item(
        "verify.self_contracted", lambda sp: sp.attrs["n_checked"])
    m["verify.effective_samples_per_item"] = per_item(
        "metric.densified", lambda sp: sp.attrs["n"] if sp.parent in angle_ids else 0)
    m["verify.angle_share"] = sum(sp.dur for sp in pick("verify.angle_estimate")) / sum(
        sp.dur for check in verify.CHECKS for sp in pick(f"verify.{check}"))

    m["metric.four_point_us"] = us_per_call("metric.four_point")
    m["metric.cat0_residual_us"] = us_per_call("metric.cat0_residual")
    m["metric.curve_length_us"] = us_per_call("metric.curve_length")
    m["metric.densified_ms"] = ms_p50("metric.densified")

    m["measures.hausdorff_ms.tree"] = ms_p50("measures.hausdorff", tag="tree")
    m["measures.hausdorff_ms.book"] = ms_p50("measures.hausdorff", tag="book")
    m["measures.condition_constants_ms"] = ms_p50("measures.condition_constants")

    m["widths.random_tree_ms"] = ms_p50("widths.random_tree")
    for tag in RSC_TAGS:
        runs = pick("widths.random_self_contracted", tag=tag)
        m[f"widths.random_self_contracted_ms.{tag}"] = ms_p50(
            "widths.random_self_contracted", tag=tag)
        m[f"widths.rsc_accept_ratio.{tag}"] = sum(sp.attrs["accepted"] for sp in runs) / sum(
            sp.deltas.get("geodesic_point", 0) for sp in runs)
    m["widths.tree_bound_ms"] = ms_p50("widths.tree_bound")
    m["widths.book_bound_ms"] = ms_p50("widths.book_bound")
    for method in ("quadrature", "mc"):
        m[f"widths.euclidean_bound_ms.{method}"] = ms_p50("widths.euclidean_bound",
                                                          method=method)
    m["widths.generic_bound_ms"] = ms_p50("widths.generic_bound")

    m["serialize.curve_roundtrip_us"] = us_per_call("serialize.curve_roundtrip")
    m["trace.overhead_frac"] = overhead_frac
    return m

