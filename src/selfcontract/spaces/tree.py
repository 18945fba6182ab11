"""Metric trees and spiders (k segments glued at a common center).

Tree points live on edges as (edge index, offset); offsets at 0 or the
edge length are snapped to a canonical per-vertex representation so that
equality tests and direction dispatch are well defined.  All angles
between distinct germs are pi, which is what makes these spaces the
sharpest test cases for the direction machinery.
"""
from __future__ import annotations

import math
from typing import Sequence

from ..errors import GeometryError
from ..measures import RadiusConstants, _merge_length, covering_theta
from .base import (
    DEFAULT_TOLERANCE,
    RANDOM_BLOCK,
    Point,
    Space,
    finite_fsum,
    first_unlike,
    integral_index,
)


def _on_segments(r: float, lengths: Sequence[float]) -> tuple[int, float]:
    """(index, offset) of the point r along segments of these lengths laid
    end to end; the last segment takes any overshoot."""
    for i, length in enumerate(lengths):
        if r <= length or i == len(lengths) - 1:
            return (i, min(r, length))
        r -= length


class TreeSpace(Space):
    kind = "tree"

    def __init__(
        self,
        vertices: Sequence[str],
        edges: Sequence[tuple[str, str, float]],
        tolerance: float = DEFAULT_TOLERANCE,
    ):
        super().__init__(tolerance)
        self.vertex_names = [str(v) for v in vertices]
        index = {name: i for i, name in enumerate(self.vertex_names)}
        if len(index) != len(self.vertex_names):
            raise GeometryError("duplicate vertex names")
        self.edges: list[tuple[int, int, float]] = []
        for u, v, length in edges:
            if u not in index or v not in index:
                raise GeometryError(f"edge endpoint {u!r}/{v!r} not declared")
            if float(length) <= 0 or not math.isfinite(float(length)):
                raise GeometryError("edge lengths must be positive and finite")
            if u == v:
                raise GeometryError("self-loop edge")
            self.edges.append((index[u], index[v], float(length)))
        self._edge_lengths = [length for _, _, length in self.edges]
        self._total_length = finite_fsum(self._edge_lengths, "the segment lengths")
        n = len(self.vertex_names)
        if len(self.edges) != n - 1:
            raise GeometryError("a tree on n vertices has exactly n-1 edges")
        self._adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]  # (edge, other)
        for ei, (u, v, _) in enumerate(self.edges):
            self._adj[u].append((ei, v))
            self._adj[v].append((ei, u))
        self._build_paths()
        # interior edge points always carry two germs, so the direction
        # count never drops below 2
        self.max_degree = max(2, max(len(a) for a in self._adj))
        # canonical vertex representative: smallest incident edge index
        self._vertex_rep: list[tuple[int, float]] = []
        for w in range(n):
            if not self._adj[w]:
                raise GeometryError("isolated vertex: tree must be connected")
            ei = min(e for e, _ in self._adj[w])
            u, v, length = self.edges[ei]
            self._vertex_rep.append((ei, 0.0 if u == w else length))

    def _build_paths(self) -> None:
        n = len(self.vertex_names)
        parent = [-1] * n
        parent_edge = [-1] * n
        depth = [0] * n
        dist = [0.0] * n
        order = [0]
        seen = [False] * n
        seen[0] = True
        i = 0
        while i < len(order):
            w = order[i]
            i += 1
            for ei, other in self._adj[w]:
                if not seen[other]:
                    seen[other] = True
                    parent[other] = w
                    parent_edge[other] = ei
                    depth[other] = depth[w] + 1
                    dist[other] = dist[w] + self.edges[ei][2]
                    order.append(other)
        if not all(seen):
            raise GeometryError("tree must be connected")
        self._parent, self._parent_edge = parent, parent_edge
        self._depth, self._root_dist = depth, dist
        self._order = order
        # vertex-distance rows, built on first use: O(V) per vertex used
        self._rows: list[list[float] | None] = [None] * n

    def describe(self) -> str:
        return f"tree:{len(self.vertex_names)}v"

    # -- vertex-level helpers ------------------------------------------------

    def _row(self, a: int) -> list[float]:
        """d(a, b) for every vertex b, built once in one pass over the BFS
        order: lca(a, b) is b on a's root path, else lca(a, parent(b))."""
        row = self._rows[a]
        if row is None:
            lca = [-1] * len(self._parent)
            w = a
            while w != -1:
                lca[w] = w
                w = self._parent[w]
            for b in self._order:
                if lca[b] == -1:
                    lca[b] = lca[self._parent[b]]
            rd = self._root_dist
            row = self._rows[a] = [rd[a] + rd[b] - 2.0 * rd[c] for b, c in enumerate(lca)]
        return row

    def _edge_path(self, a: int, b: int) -> list[tuple[int, int]]:
        """(edge, vertex it is entered from) along the path from vertex a to b."""
        up, down = [], []
        while a != b:
            if self._depth[a] >= self._depth[b]:
                up.append((self._parent_edge[a], a))
                a = self._parent[a]
            else:
                down.append((self._parent_edge[b], self._parent[b]))
                b = self._parent[b]
        return up + down[::-1]

    # -- payload interface -----------------------------------------------------

    def _check(self, data: tuple) -> None:
        if len(data) != 2:
            raise GeometryError("tree points are (edge index, offset)")
        ei, off = integral_index(data[0]), float(data[1])
        if not 0 <= ei < len(self.edges):
            raise GeometryError(f"edge index {ei} out of range")
        if not -self.tolerance <= off <= self.edges[ei][2] + self.tolerance:
            raise GeometryError(f"offset {off} outside edge of length {self.edges[ei][2]}")

    def _canonical(self, data: tuple) -> tuple:
        ei, off = int(data[0]), float(data[1])
        w = self._vertex_of((ei, off))
        return (ei, off) if w is None else self._vertex_rep[w]

    def _vertex_of(self, data: tuple) -> int | None:
        ei, off = data
        u, v, length = self.edges[ei]
        if off <= self.tolerance:
            return u
        if off >= length - self.tolerance:
            return v
        return None

    def _route(self, a: tuple, b: tuple) -> tuple[float, int, float, int, float]:
        """(length, w1, d1, w2, d2) of the geodesic between points on different
        edges: it leaves a's edge at vertex w1, d1 from a, and enters b's edge
        at vertex w2, d2 from b.  The first shortest of the four end pairs."""
        (e1, o1), (e2, o2) = a, b
        u1, v1, L1 = self.edges[e1]
        u2, v2, L2 = self.edges[e2]
        best = None
        for w1, d1 in ((u1, o1), (v1, L1 - o1)):
            row = self._row(w1)
            for w2, d2 in ((u2, o2), (v2, L2 - o2)):
                tot = d1 + row[w2] + d2
                if best is None or tot < best[0]:
                    best = (tot, w1, d1, w2, d2)
        return best

    def _dist(self, a: tuple, b: tuple) -> float:
        if a[0] == b[0]:
            return abs(a[1] - b[1])
        return self._dist_row(a, (b,))[0]

    def _dist_row(self, a: tuple, payloads) -> list[float]:
        # _route's four end-pair sums, in its order and association
        e1, o1 = a
        u1, v1, L1 = self.edges[e1]
        ru, rv, r1 = self._row(u1), self._row(v1), L1 - o1
        row = []
        for e2, o2 in payloads:
            if e2 == e1:
                row.append(abs(o1 - o2))
                continue
            u2, v2, L2 = self.edges[e2]
            r2 = L2 - o2
            row.append(min(o1 + ru[u2] + o2, o1 + ru[v2] + r2,
                           r1 + rv[u2] + o2, r1 + rv[v2] + r2))
        return row

    def _geodesic(self, a: tuple, b: tuple, s: float) -> tuple:
        (e1, o1), (e2, o2) = a, b
        if e1 == e2:
            arc = s * abs(o1 - o2)
            return (e1, o1 + (arc if o2 >= o1 else -arc))
        d, w1, d1, w2, d2 = self._route(a, b)
        arc = s * d
        if arc <= d1 and d1 > 0:
            target = 0.0 if w1 == self.edges[e1][0] else self.edges[e1][2]
            return (e1, o1 + arc / d1 * (target - o1))
        arc -= d1
        for ei, x in self._edge_path(w1, w2):
            u, _, length = self.edges[ei]
            if arc <= length:
                return (ei, arc) if x == u else (ei, length - arc)
            arc -= length
        u2, _, L2 = self.edges[e2]
        target = 0.0 if w2 == u2 else L2
        frac = min(1.0, arc / d2) if d2 > 0 else 1.0
        return (e2, target + frac * (o2 - target))

    def _log_row(self, base: tuple, payloads, dists) -> list[tuple]:
        # _route's four end-pair sums, in its order and association; the
        # first least one names the ends w1 and w2 that _log reads
        e1, o1 = base
        u1, v1, L1 = self.edges[e1]
        ru, rv, r1 = self._row(u1), self._row(v1), L1 - o1
        germs = []
        for e2, o2 in payloads:
            if e2 == e1:
                germs.append((e1, 1 if o2 > o1 else -1))
                continue
            u2, v2, L2 = self.edges[e2]
            r2 = L2 - o2
            sums = [o1 + ru[u2] + o2, o1 + ru[v2] + r2, r1 + rv[u2] + o2, r1 + rv[v2] + r2]
            k = sums.index(min(sums))
            w1, d1 = (u1, o1) if k < 2 else (v1, r1)
            if d1 > 0:
                germs.append((e1, 1 if w1 == v1 else -1))
                continue
            w2 = u2 if k % 2 == 0 else v2
            path = self._edge_path(w1, w2)
            ei, x = path[0] if path else (e2, w2)
            germs.append((ei, 1 if self.edges[ei][0] == x else -1))
        return germs

    def _angle(self, base: tuple, d1: tuple, d2: tuple) -> float:
        return 0.0 if d1 == d2 else math.pi

    def _germ_diameter(self, base: tuple, germs, limit: float) -> tuple[float, int, int]:
        return first_unlike(germs, limit)

    def _cone_barycenter(self, base: tuple, germs, radii) -> tuple[tuple | None, float]:
        # finitely many germs: the best ray through one of the given germs
        n = len(germs)
        best = (math.inf, None, 0.0)
        for cand in sorted(set(germs)):
            num = math.fsum(r * math.cos(self._angle(base, cand, g)) for g, r in zip(germs, radii))
            t = max(num / n, 0.0)
            value = math.fsum(
                t * t + r * r - 2 * t * r * math.cos(self._angle(base, cand, g))
                for g, r in zip(germs, radii)
            )
            if value < best[0] - 1e-15:
                best = (value, cand, t)
        origin_value = math.fsum(r * r for r in radii)
        if origin_value < best[0] - 1e-15 or best[2] <= 1e-14:
            return None, 0.0
        return best[1], best[2]

    def segments(self) -> list[tuple[int, float, tuple, tuple]]:
        """(edge index, length, start vertex payload, end vertex payload) per edge."""
        return [(ei, length, self._vertex_rep[u], self._vertex_rep[v])
                for ei, (u, v, length) in enumerate(self.edges)]

    def _search_pieces(self, x: tuple, radius: float, box, start: float):
        # every edge or leg that `segments()` lists, whole
        def along(seg):
            return lambda coords: Point(self, self._canonical((seg, coords[0])))

        return radius, [(along(seg), [0.0], [length], (False, False))
                        for seg, length, _, _ in self.segments()]

    def directions_at(self, data: tuple) -> list[tuple]:
        w = self._vertex_of(data)
        if w is None:
            return [(data[0], 1), (data[0], -1)]
        germs = []
        for ei, _ in sorted(self._adj[w]):
            u, v, _ = self.edges[ei]
            germs.append((ei, 1 if u == w else -1))
        return germs

    def _region_measure(self, payloads, radius: float) -> tuple[int, float]:
        # covered length per edge or leg; off-segment points reach in from its ends
        per_edge = []
        for ei, length, rep_u, rep_v in self.segments():
            intervals: list[tuple[float, float]] = []
            for p in payloads:
                if p[0] == ei:
                    intervals.append((max(p[1] - radius, 0.0), min(p[1] + radius, length)))
                    continue
                dpu = self._dist(p, rep_u)
                dpv = self._dist(p, rep_v)
                if radius - dpu > 0:
                    intervals.append((0.0, min(radius - dpu, length)))
                if radius - dpv > 0:
                    intervals.append((max(length - (radius - dpv), 0.0), length))
            if intervals:
                per_edge.append(_merge_length(intervals))
        return 1, math.fsum(per_edge)

    def _condition_constants(self, payloads, radius: float, sigma: float) -> RadiusConstants:
        # the counting measure on germs and H^1
        eps = 1.0 / 6.0
        return RadiusConstants(
            n=1, theta=covering_theta(1), theta_improved=None,
            eps=eps, m=1, eps_bold=eps, a=1.0 / self.max_degree,
            b=sigma / self._region_measure(payloads, radius)[1], sigma=sigma,
            notes=(self._boundary_note(),),
        )

    def _boundary_note(self) -> str:
        leaves = ",".join(name for name, adj in zip(self.vertex_names, self._adj) if len(adj) == 1)
        return (f"volume-ratio condition fails at boundary (leaf) vertices: {leaves}; "
                "constants assume geodesics extend past them")

    def _random_point(self, rng, scale: float = 1.0) -> tuple:
        return _on_segments(float(rng.uniform(0.0, self._total_length)), self._edge_lengths)

    def _random_points(self, rng, scale: float = 1.0):
        while True:
            for r in rng.uniform(0.0, self._total_length, RANDOM_BLOCK).tolist():
                yield _on_segments(r, self._edge_lengths)

    def _to_json(self) -> dict:
        return {
            "kind": self.kind,
            "vertices": list(self.vertex_names),
            "edges": [
                [self.vertex_names[u], self.vertex_names[v], length]
                for u, v, length in self.edges
            ],
            "tolerance": self.tolerance,
        }

    def _point_json(self, data: tuple) -> list:
        return [int(data[0]), float(data[1])]


class SpiderSpace(Space):
    """k segments of given lengths glued at a common center point."""

    kind = "spider"

    def __init__(self, k: int, leg_lengths: Sequence[float] | float = 1.0,
                 tolerance: float = DEFAULT_TOLERANCE):
        super().__init__(tolerance)
        self.k = integral_index(k)
        if self.k < 2:
            raise GeometryError("a spider needs k >= 2 legs")
        if isinstance(leg_lengths, (int, float)):
            lengths = [float(leg_lengths)] * self.k
        else:
            lengths = [float(x) for x in leg_lengths]
        if len(lengths) != self.k or not all(0 < x < math.inf for x in lengths):
            raise GeometryError("need one positive finite length per leg")
        self.leg_lengths = tuple(lengths)
        self._total_length = finite_fsum(self.leg_lengths, "the segment lengths")

    def describe(self) -> str:
        return f"spider:{self.k}"

    def _check(self, data: tuple) -> None:
        if len(data) != 2:
            raise GeometryError("spider points are (leg, radius)")
        leg, r = integral_index(data[0]), float(data[1])
        if leg == 0:
            if not abs(r) <= self.tolerance:
                raise GeometryError("center representation is (0, 0.0)")
            return
        if not 1 <= leg <= self.k:
            raise GeometryError(f"leg {leg} out of range 1..{self.k}")
        if not -self.tolerance <= r <= self.leg_lengths[leg - 1] + self.tolerance:
            raise GeometryError(f"radius {r} outside leg of length {self.leg_lengths[leg - 1]}")

    def _canonical(self, data: tuple) -> tuple:
        leg, r = int(data[0]), float(data[1])
        if leg == 0 or r <= self.tolerance:
            return (0, 0.0)
        return (leg, min(r, self.leg_lengths[leg - 1]))

    def center(self) -> Point:
        return Point(self, self._canonical((0, 0.0)))

    def _dist(self, a: tuple, b: tuple) -> float:
        if a[0] == b[0]:
            return abs(a[1] - b[1])
        return a[1] + b[1]  # the centre is offset 0.0 on every leg

    def _dist_row(self, a: tuple, payloads) -> list[float]:
        leg, r = a
        return [abs(r - u) if k == leg else r + u for k, u in payloads]

    def _geodesic(self, a: tuple, b: tuple, s: float) -> tuple:
        if a[0] == b[0]:
            return (a[0], a[1] + (b[1] - a[1]) * s)
        arc = s * self._dist(a, b)
        # a zero step from the centre still leaves it along b's leg
        if arc <= a[1] and a[0] != 0:
            return (a[0], a[1] - arc)
        return (b[0], arc - a[1])

    def _log_row(self, base: tuple, payloads, dists) -> list[tuple]:
        leg, r = base
        if leg == 0:
            return [(k, 1) for k, _ in payloads]
        return [(leg, 1 if k == leg and u > r else -1) for k, u in payloads]

    _angle = TreeSpace._angle
    _germ_diameter = TreeSpace._germ_diameter
    _cone_barycenter = TreeSpace._cone_barycenter
    _region_measure = TreeSpace._region_measure
    _condition_constants = TreeSpace._condition_constants
    _search_pieces = TreeSpace._search_pieces

    def _boundary_note(self) -> str:
        return ("volume-ratio condition fails at leg tips; constants assume "
                "geodesics extend past them")

    def segments(self) -> list[tuple[int, float, tuple, tuple]]:
        """(leg, length, centre payload, tip payload) per leg, legs counted from 1."""
        return [(leg, length, (0, 0.0), (leg, length))
                for leg, length in enumerate(self.leg_lengths, start=1)]

    def directions_at(self, data: tuple) -> list[tuple]:
        if data[0] == 0:
            return [(leg, 1) for leg in range(1, self.k + 1)]
        return [(data[0], 1), (data[0], -1)]

    @property
    def max_degree(self) -> int:
        return self.k

    def _random_point(self, rng, scale: float = 1.0) -> tuple:
        leg, r = _on_segments(float(rng.uniform(0.0, self._total_length)), self.leg_lengths)
        return (leg + 1, r)

    def _to_json(self) -> dict:
        return {
            "kind": self.kind,
            "k": self.k,
            "leg_lengths": list(self.leg_lengths),
            "tolerance": self.tolerance,
        }

    _point_json = TreeSpace._point_json


def load_tree_file(text: str) -> TreeSpace:
    """Parse the plain-text tree grammar: `vertex NAME` and `edge U V LENGTH`.

    Lines starting with '#' and blank lines are ignored.  Vertices first
    appearing inside an edge line are registered implicitly.
    """
    vertices: list[str] = []
    seen: set[str] = set()
    edges: list[tuple[str, str, float]] = []

    def add_vertex(name: str) -> None:
        if name not in seen:
            seen.add(name)
            vertices.append(name)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "vertex" and len(parts) == 2:
            add_vertex(parts[1])
        elif parts[0] == "edge" and len(parts) == 4:
            u, v, length = parts[1], parts[2], float(parts[3])
            add_vertex(u)
            add_vertex(v)
            edges.append((u, v, length))
        else:
            raise GeometryError(f"line {lineno}: cannot parse {line!r}")
    return TreeSpace(vertices, edges)
