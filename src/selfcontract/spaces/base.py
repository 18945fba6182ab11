"""Abstract geodesic-space interface plus the Point/Direction containers.

Every concrete space works on small immutable payloads (tuples); the
space object owns the coordinate conventions, canonicalization, distance
and geodesic formulas, and the direction (geodesic germ) calculus.
"""
from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Sequence

from ..errors import GeometryError, SpaceMismatchError, UnsupportedSpaceError

DEFAULT_TOLERANCE = 1e-9
RANDOM_BLOCK = 64  # points per draw in the `_random_points` overrides
TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class Point:
    """A position tagged with the space it lives in."""

    space: "Space"
    data: tuple

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Point({self.space.describe()}, {self.data!r})"


@dataclass(frozen=True)
class Direction:
    """A geodesic germ at a basepoint (unit speed where that makes sense)."""

    space: "Space"
    base: Point
    data: tuple

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Direction(base={self.base.data!r}, {self.data!r})"


class Space(ABC):
    """A geodesic metric space with an angle calculus on geodesic germs.

    Concrete subclasses implement the underscored payload-level methods;
    the public methods validate ownership and wrap payloads in Point /
    Direction containers.
    """

    kind: str = "abstract"

    def __init__(self, tolerance: float = DEFAULT_TOLERANCE):
        self.tolerance = float(tolerance)
        if not 0.0 < self.tolerance < math.inf:
            raise GeometryError("tolerance must be positive and finite")

    # -- payload-level interface ------------------------------------------

    @abstractmethod
    def _check(self, data: tuple) -> None:
        """Raise GeometryError if the payload violates coordinate constraints."""

    @abstractmethod
    def _canonical(self, data: tuple) -> tuple:
        """Return the unique representative of the payload."""

    @abstractmethod
    def _dist(self, a: tuple, b: tuple) -> float:
        ...

    @abstractmethod
    def _geodesic(self, a: tuple, b: tuple, s: float) -> tuple:
        ...

    def _log(self, a: tuple, b: tuple) -> tuple[tuple, float]:
        """Direction payload of the germ of the geodesic a -> b, plus d(a,b):
        by default the one-payload `_log_row`, so a concrete space defines
        `_log` or `_log_row` or both."""
        d = self._dist(a, b)
        return self._log_row(a, (b,), (d,))[0], d

    @abstractmethod
    def _angle(self, base: tuple, d1: tuple, d2: tuple) -> float:
        """Angle in [0, pi] between two direction payloads at `base`."""

    @abstractmethod
    def _random_point(self, rng, scale: float = 1.0) -> tuple:
        ...

    def _random_points(self, rng, scale: float = 1.0) -> Iterator[tuple]:
        """Endless `_random_point(rng, scale)` payloads, bit for bit and from
        the same draws.  Euclidean spaces and trees override this to draw
        RANDOM_BLOCK points at a time, so the stream may have drawn ahead:
        the caller draws nothing else from `rng`.  This loop, which draws
        nothing ahead, is the overrides' oracle."""
        while True:
            yield self._random_point(rng, scale)

    def _dist_row(self, a: tuple, payloads: Sequence[tuple]) -> list[float]:
        """[_dist(a, b) for b in payloads].  Every concrete space overrides
        this with a kernel that must agree with the loop bit for bit; the
        loop is their oracle."""
        return [self._dist(a, b) for b in payloads]

    def _log_row(self, base: tuple, payloads: Sequence[tuple],
                 dists: Sequence[float]) -> list[tuple]:
        """[_log(base, b)[0] for b in payloads], bit for bit, where `dists`
        is `_dist_row(base, payloads)` and no payload is base itself."""
        return [self._log(base, b)[0] for b in payloads]

    def _germ_diameter(self, base: tuple, germs: Sequence[tuple],
                       limit: float) -> tuple[float, int, int]:
        """(excess, a, b): the largest `_angle(base, germs[a], germs[b]) - limit`
        over the pairs (a, b >= a) of at least one germ, and the first pair
        in that loop order that attains it.

        Overrides must agree with this loop bit for bit; it is their oracle.
        """
        best, pair = -math.inf, None
        for a, ga in enumerate(germs):
            for b in range(a, len(germs)):
                excess = self._angle(base, ga, germs[b]) - limit
                if excess > best:
                    best, pair = excess, (a, b)
        return best, *pair

    def _cone_barycenter(self, base: tuple, germs: Sequence[tuple],
                         radii: Sequence[float]) -> tuple[tuple | None, float]:
        """(germ, radius) of the minimizer of w -> sum_i d_cone(w, (germs[i],
        radii[i]))^2 in the tangent cone at `base`, or (None, 0.0) when it
        is the cone's origin, for at least one germ and nonnegative radii."""
        raise UnsupportedSpaceError(f"no cone barycenter on {self.describe()}")

    def _region_measure(self, payloads: Sequence[tuple], radius: float) -> tuple[int, float]:
        """(dim, value): the dimension of the Hausdorff measure this space
        carries, and that measure of the closed radius-neighborhood of the
        payloads, for at least one payload and a positive finite radius."""
        raise UnsupportedSpaceError(f"no Hausdorff neighborhood measure on {self.describe()}")

    def _condition_constants(self, payloads: Sequence[tuple], radius: float,
                             sigma: float) -> RadiusConstants:
        """The ratio constants (m, eps, a, b, sigma) of the region that
        `_region_measure` measures, at the scale sigma."""
        raise UnsupportedSpaceError(f"no condition-constant estimator for {self.describe()}")

    def _search_pieces(self, x: tuple, radius: float, box, start: float
                       ) -> tuple[float, list[tuple]]:
        """(radius, pieces): the regions that the numeric resolvent at the
        payload x searches, for a window of this radius, or inside the
        objective's box domain `box` when one is given.  `start` is the
        solver's start radius per unit of scale; a book widens the window
        to `start` times x's height.

        A piece is (coordinates -> Point, lower corner, upper corner, one
        flag per side, lower then upper for each axis, set on a window
        side) with one or two coordinates."""
        raise UnsupportedSpaceError(f"no resolvent solver for {self.describe()}")

    @abstractmethod
    def _to_json(self) -> dict:
        ...

    @abstractmethod
    def _point_json(self, data: tuple) -> list:
        ...

    # -- public API ---------------------------------------------------------

    def point(self, *data: Any) -> Point:
        """The one payload parser: check, then canonicalize, outside input."""
        payload = tuple(data) if len(data) != 1 else _as_payload(data[0])
        self._check(payload)
        return Point(self, self._canonical(payload))

    def own(self, p: Point) -> tuple:
        if p.space is not self and p.space != self:
            raise SpaceMismatchError(
                f"point from {p.space.describe()} used in {self.describe()}"
            )
        return p.data

    def distance(self, p: Point, q: Point) -> float:
        return self._dist(self.own(p), self.own(q))

    def geodesic_point(self, p: Point, q: Point, s: float) -> Point:
        if not 0.0 <= s <= 1.0:
            raise GeometryError(f"geodesic parameter {s} outside [0, 1]")
        return Point(self, self._canonical(self._geodesic(self.own(p), self.own(q), s)))

    def log_direction(self, p: Point, q: Point) -> tuple[Direction, float]:
        a, b = self.own(p), self.own(q)
        if self._dist(a, b) <= self.tolerance:
            raise GeometryError("log_direction undefined for coincident points")
        d, r = self._log(a, b)
        return Direction(self, Point(self, self._canonical(a)), d), r

    def direction_angle(self, d1: Direction, d2: Direction) -> float:
        if d1.space != self or d2.space != self:
            raise SpaceMismatchError("direction from another space")
        b1, b2 = d1.base, d2.base
        # one base object, or equal payloads, are at distance 0
        if (b1 is not b2 and b1.data != b2.data
                and self._dist(b1.data, b2.data) > self.tolerance):
            raise SpaceMismatchError("directions based at different points")
        return self._angle(d1.base.data, d1.data, d2.data)

    def same_point(self, p: Point, q: Point) -> bool:
        return self.distance(p, q) <= self.tolerance

    def random_point(self, rng, scale: float = 1.0) -> Point:
        return Point(self, self._canonical(self._random_point(rng, scale)))

    def directions_at(self, data: tuple) -> list[tuple]:
        """Every germ at the payload, for spaces with finitely many."""
        raise UnsupportedSpaceError(f"no direction sampler on {self.describe()}")

    def random_direction(self, rng, base: tuple) -> tuple:
        """A germ at `base`: by default uniform over `directions_at(base)`."""
        germs = self.directions_at(base)
        return germs[int(rng.integers(0, len(germs)))]

    def describe(self) -> str:
        return self.kind

    # Spaces compare by descriptor so deserialized handles interoperate.
    # Spaces are immutable, so the descriptor is frozen once, on first use.
    def _descriptor_key(self) -> tuple:
        key = self.__dict__.get("_key")
        if key is None:
            key = self._key = _frozen(self._to_json())
        return key

    def __eq__(self, other: object) -> bool:
        if other is self:
            return True
        return isinstance(other, Space) and self._descriptor_key() == other._descriptor_key()

    def __hash__(self) -> int:
        return hash(self._descriptor_key())


def _frozen(value: Any) -> Any:
    """A JSON value as nested tuples, dict items sorted by key."""
    if isinstance(value, dict):
        return tuple(sorted((k, _frozen(v)) for k, v in value.items()))
    if isinstance(value, list):
        return tuple(_frozen(v) for v in value)
    return value


def _as_payload(value: Any) -> tuple:
    if isinstance(value, tuple):
        return value
    if isinstance(value, (list,)):
        return tuple(value)
    return (value,)


def integral_index(value: Any) -> int:
    """An edge, leg or sheet index as an int; GeometryError unless integral."""
    index = float(value)
    if not index.is_integer():
        raise GeometryError(f"index {value!r} is not an integer")
    return int(index)


def clamp_cos(c: float) -> float:
    """Clamp an arccos argument into [-1, 1] against float noise."""
    return max(-1.0, min(1.0, c))


def polar_gap(t1: float, t2: float) -> float:
    """The angle in [0, pi] between two germs with polar angles t1, t2 in
    [-pi, pi] of one frame: exact in the rounded inputs and symmetric."""
    gap = abs(t1 - t2)
    return min(gap, 2.0 * math.pi - gap)


def first_unlike(keys: Sequence, limit: float) -> tuple[float, int, int]:
    """`Space._germ_diameter` where two germs meet at angle 0 if their keys
    are equal and at pi otherwise: pi at the first germ unlike the first."""
    for b, key in enumerate(keys):
        if key != keys[0]:
            return math.pi - limit, 0, b
    return 0.0 - limit, 0, 0


def polar_diameter(polar: Sequence[float], limit: float) -> tuple[float, int, int]:
    """`Space._germ_diameter` from the germs' polar angles, where the angle
    of a pair is `polar_gap`, in O(m log m) for m germs: one sort, then a
    test of the two ends for angles within a half-turn, and one pass of two
    pointers for wider ones.

    The first pair (a, b >= a) whose excess equals the largest is the
    diagonal (0, 0) if that excess is 0.0 - limit.  Otherwise a is the
    first germ with a tying partner and b its first such partner, found
    from the set of tied angles.  No partner of an angle lies farther than
    its own widest gap, so the tied angles are those whose widest gap
    ties.  Gaps tie when they round to the same excess, as in the loop,
    and equal angles are interchangeable.
    """
    s = sorted(polar)
    # within a half-turn the ends are the widest pair, and the tied angles
    # are runs at the ends
    half = (x := s[-1] - s[0]) <= TWO_PI - x
    widest = [x] if half else _widest_each(s)
    excess = max(widest) - limit
    if excess == 0.0 - limit:  # the loop's diagonal; at limit 0, excess may be -0.0
        return 0.0 - limit, 0, 0
    tied = (_end_runs(s, limit, excess) if half
            else {t for t, w in zip(s, widest) if w - limit == excess})
    if len(tied) == 2:  # each germ of one angle pairs with each of the other
        return excess, *sorted(map(polar.index, tied))
    a = min(map(polar.index, tied))
    w = polar[a]
    b = min(polar.index(t) for t in tied
            if min(g := abs(w - t), TWO_PI - g) - limit == excess)
    return excess, a, b


def _widest_each(s: list[float]) -> list[float]:
    """Each sorted angle's largest polar gap to the angles s.

    Let q be s between the sentinels -inf and inf.  From t = q[i], a gap
    x = u - t to a later u is the polar gap up to the last position j
    whose x passes x <= 2 pi - x, rounded, and 2 pi - x after it, so the
    widest gaps ahead are to q[j] and q[j + 1]; behind, they are to q[k]
    and q[k - 1] for the first position k whose t - q[k] passes.  Neither
    j nor k moves down as i grows, j reaches i since gaps up to t are <= 0
    and pass, and a sentinel never passes and scores 2 pi - inf."""
    q = [-math.inf, *s, math.inf]
    out, j, k = [], 1, 0
    for t in s:
        while (x := q[j + 1] - t) <= TWO_PI - x:
            j += 1
        while (x := t - q[k]) > TWO_PI - x:
            k += 1
        out.append(max(q[j] - t, t - q[k], TWO_PI - (q[j + 1] - t), TWO_PI - (t - q[k - 1])))
    return out


def _end_runs(s: Sequence[float], limit: float, excess: float) -> set[float]:
    """The tied angles of sorted angles s within a half-turn, where each
    gap is the later angle less the earlier: the angles from the first up
    whose gap to the last ties, and those down from the last whose gap to
    the first ties."""
    p, q = 0, len(s) - 1
    while s[q] - s[0] - limit == excess:
        q -= 1
    while s[-1] - s[p] - limit == excess:
        p += 1
    return {*s[:p], *s[q + 1:]}


def tangent_mean(germs: Sequence[tuple], radii: Sequence[float],
                 norm) -> tuple[tuple | None, float]:
    """`Space._cone_barycenter` of a linear tangent space: the mean of the
    vectors r_i g_i, whose length under `norm` is the radius."""
    vec = tuple(math.fsum(r * g[i] for g, r in zip(germs, radii)) / len(radii)
                for i in range(len(germs[0])))
    length = norm(vec)
    if length <= 1e-14:
        return None, 0.0
    return tuple(x / length for x in vec), length


def finite_fsum(values: Iterable[float], what: str) -> float:
    """The exactly rounded sum of the values, refused where it overflows."""
    try:
        return math.fsum(values)
    except OverflowError:  # finite values whose sum is not
        raise GeometryError(f"{what} sum past the largest float") from None


def sqrt_fsum(squares: Iterable[float]) -> float:
    """The square root of the exactly rounded sum of the squares."""
    try:
        return math.sqrt(math.fsum(squares))
    except OverflowError:  # finite squares whose sum is not
        return math.inf


def vec_norm(v: tuple) -> float:
    return sqrt_fsum(x * x for x in v)


def vec_sub(a: tuple, b: tuple) -> tuple:
    return tuple(x - y for x, y in zip(a, b))


def vec_scale(c: float, v: tuple) -> tuple:
    return tuple(c * x for x in v)


def vec_dot(a: tuple, b: tuple) -> float:
    return math.fsum(x * y for x, y in zip(a, b))
