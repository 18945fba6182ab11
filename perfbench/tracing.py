"""In-memory spans and call counters for the traced benchmark run.

A span records name, start, end, parent span, item id and a few
attributes; spans stay in memory until the run ends.  Counters count
calls too short to span (space kernels, objective evaluations); every
span stores how much each counter advanced while it was open, so a
layer's counts are measured where its work happens.

Nothing under `src/` is edited: `patched` swaps module attributes,
class attributes or mapping entries for wrappers and restores them.
"""
from __future__ import annotations

import json
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

COUNTERS = ("distance", "direction_angle", "geodesic_point", "evals")


class Span:
    __slots__ = ("id", "name", "item", "parent", "start", "end", "attrs", "deltas")

    def __init__(self, sid, name, item, parent, start):
        self.id, self.name, self.item, self.parent = sid, name, item, parent
        self.start, self.end = start, start
        self.attrs: dict = {}
        self.deltas: dict = {}

    @property
    def dur(self) -> float:
        return self.end - self.start

    def to_json(self) -> dict:
        return {"id": self.id, "name": self.name, "item": self.item,
                "parent": self.parent, "start": self.start, "end": self.end,
                **self.attrs, **{f"n_{k}": v for k, v in self.deltas.items()}}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.item = None
        self._stack: list[Span] = []

    @contextmanager
    def span(self, name: str, item=None, **attrs):
        """Open a span; `item` starts a new item id for it and its children."""
        outer_item = self.item
        if item is not None:
            self.item = item
        parent = self._stack[-1].id if self._stack else None
        sp = Span(len(self.spans), name, self.item, parent, 0.0)
        sp.attrs.update(attrs)
        self.spans.append(sp)
        self._stack.append(sp)
        before = [self.counts[k] for k in COUNTERS]
        sp.start = time.perf_counter()
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()
            self.item = outer_item
            sp.deltas = {k: self.counts[k] - b for k, b in zip(COUNTERS, before)
                         if self.counts[k] != b}

    def wrap(self, fn, name: str, on_result=None):
        """`fn` inside a span; `on_result(span, args, kwargs, result)` adds attributes."""
        def traced(*args, **kwargs):
            with self.span(name) as sp:
                result = fn(*args, **kwargs)
                if on_result is not None:
                    on_result(sp, args, kwargs, result)
                return result
        traced.__wrapped__ = fn
        return traced

    def counting(self, fn, key: str):
        """`fn` that adds one to counter `key` per call made inside a span."""
        counts, stack = self.counts, self._stack

        def counted(*args, **kwargs):
            if stack:
                counts[key] += 1
            return fn(*args, **kwargs)
        counted.__wrapped__ = fn
        return counted

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for sp in self.spans:
                fh.write(json.dumps(sp.to_json()) + "\n")


@contextmanager
def patched(replacements):
    """Apply (target, key, new) replacements; restore them on exit.

    A dict target gets an item replaced, anything else an attribute.
    """
    saved = []
    try:
        for target, key, new in replacements:
            if isinstance(target, dict):
                saved.append((target, key, target[key]))
                target[key] = new
            else:
                saved.append((target, key, target.__dict__[key]))
                setattr(target, key, new)
        yield
    finally:
        for target, key, old in reversed(saved):
            if isinstance(target, dict):
                target[key] = old
            else:
                setattr(target, key, old)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the time its direct children cover."""
    covered: Counter = Counter()
    for sp in spans:
        if sp.parent is not None:
            covered[sp.parent] += sp.dur
    return {sp.id: sp.dur - covered[sp.id] for sp in spans}
