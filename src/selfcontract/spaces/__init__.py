"""Concrete geodesic spaces plus descriptor (de)serialization and parsing."""
from __future__ import annotations

from pathlib import Path

from ..errors import GeometryError
from .base import DEFAULT_TOLERANCE, Direction, Point, Space
from .book import BookSpace
from .euclidean import EuclideanSpace
from .hyperbolic import HyperbolicPlane
from .product import ProductSpace
from .tree import SpiderSpace, TreeSpace, load_tree_file

__all__ = [
    "Space",
    "Point",
    "Direction",
    "EuclideanSpace",
    "HyperbolicPlane",
    "TreeSpace",
    "SpiderSpace",
    "BookSpace",
    "ProductSpace",
    "load_tree_file",
    "space_from_json",
    "parse_space_spec",
]


def space_from_json(obj: dict) -> Space:
    kind = obj.get("kind")
    tol = obj.get("tolerance", DEFAULT_TOLERANCE)
    if kind == "euclidean":
        return EuclideanSpace(obj["dim"], tolerance=tol)
    if kind == "hyperbolic2":
        return HyperbolicPlane(tolerance=tol)
    if kind == "spider":
        return SpiderSpace(obj["k"], obj.get("leg_lengths", 1.0), tolerance=tol)
    if kind == "book":
        return BookSpace(obj["k"], tolerance=tol)
    if kind == "tree":
        return TreeSpace(obj["vertices"], obj["edges"], tolerance=tol)
    if kind == "product":
        return ProductSpace(
            space_from_json(obj["left"]), space_from_json(obj["right"]), tolerance=tol
        )
    raise GeometryError(f"unknown space kind {kind!r}")


def parse_space_spec(spec: str) -> Space:
    """Parse compact CLI space descriptors.

    Examples: ``euclidean:2``, ``hyperbolic2``, ``spider:5``,
    ``spider:3:2.0`` (leg length), ``book:3``, ``tree:PATH`` (tree file),
    ``product:[euclidean:1|spider:3]``.
    """
    spec = spec.strip()
    if spec.startswith("product:"):
        inner = spec[len("product:"):].strip()
        if not (inner.startswith("[") and inner.endswith("]")):
            raise GeometryError("product spec must be product:[LEFT|RIGHT]")
        left, right = _split_product(inner[1:-1])
        return ProductSpace(parse_space_spec(left), parse_space_spec(right))
    parts = spec.split(":")
    head = parts[0]
    if head in ("euclidean", "spider", "book", "tree") and len(parts) < 2:
        raise GeometryError(f"space spec {spec!r} needs {head}:<parameter>")
    # the most `:` fields each kind reads; a tree path may hold `:` itself
    if len(parts) > {"euclidean": 2, "hyperbolic2": 1, "hyperbolic": 1, "spider": 3,
                     "book": 2}.get(head, len(parts)):
        raise GeometryError(f"space spec {spec!r} has more fields than {head} reads")
    if head == "euclidean":
        return EuclideanSpace(int(parts[1]))
    if head in ("hyperbolic2", "hyperbolic"):
        return HyperbolicPlane()
    if head == "spider":
        k = int(parts[1])
        length = float(parts[2]) if len(parts) > 2 else 1.0
        return SpiderSpace(k, length)
    if head == "book":
        return BookSpace(int(parts[1]))
    if head == "tree":
        path = spec[len("tree:"):]
        return load_tree_file(Path(path).read_text())
    raise GeometryError(f"cannot parse space spec {spec!r}")


def _split_product(inner: str) -> tuple[str, str]:
    depth = 0
    for i, ch in enumerate(inner):
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        elif ch == "|" and depth == 0:
            return inner[:i], inner[i + 1:]
    raise GeometryError("product spec needs a top-level '|' separator")
