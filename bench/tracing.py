"""In-memory spans around calls into the library's layers.

A span records its name, the layer it is charged to, start, end, the
span that caused it and the item it belongs to.  Spans are kept in a
list and written out when the run ends.  Nothing here reaches inside
the library: a span times one call of a public function, or one batch
of calls of a single public function.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Callable

LAYERS = ("ratpoly", "poset", "orderpoly", "graph", "chrompoly", "cli")


class Tracer:
    """Span and count recorder for one group of traced items."""

    def __init__(self) -> None:
        # (name, layer, start, end, parent, item); parent is an index
        self.spans: list[tuple | None] = []
        self.counts: Counter = Counter()
        self.items = 0
        self._stack: list[int] = []
        self._item: str | None = None
        self._deferred: list[Callable[[], None]] = []

    def call(self, name: str, fn: Callable, *args, layer: str | None = None):
        """Run fn(*args) inside a span; the layer defaults to the name's
        first component."""
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (
                name, layer or name.split(".")[0], start, end, parent, self._item,
            )

    def count(self, name: str, value: int) -> None:
        self.counts[name] += value

    def defer(self, fn: Callable[[], None]) -> None:
        """Run fn after the current item's span closes, so bookkeeping
        stays out of the traced time."""
        self._deferred.append(fn)

    @contextmanager
    def item(self, item_id: str, name: str):
        """Root span of one traced item; its layer is None, so its self
        time is the untimed remainder between stages."""
        self._item = item_id
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, None, start, end, None, item_id)
            self._item = None
            self.items += 1
            deferred, self._deferred = self._deferred, []
            for fn in deferred:
                fn()

    def totals(self) -> dict:
        """Inclusive seconds by span name, self seconds by layer, and the
        item time they account for."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            _, _, start, end, parent, _ = span
            if parent is not None:
                child_time[parent] += end - start
        by_name: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        self_time = {layer: 0.0 for layer in LAYERS}
        item_s = remainder_s = 0.0
        for span, inner in zip(self.spans, child_time):
            name, layer, start, end, parent, _ = span
            by_name[name] += end - start
            calls[name] += 1
            if layer is None:
                item_s += end - start
                remainder_s += end - start - inner
            else:
                self_time[layer] += end - start - inner
        return {
            "seconds": dict(by_name),
            "calls": dict(calls),
            "self": self_time,
            "item_s": item_s,
            "remainder_s": remainder_s,
        }

    def span_records(self, group: str) -> list[dict]:
        return [
            {
                "id": i, "name": name, "layer": layer, "start": start, "end": end,
                "parent": parent, "item": item, "group": group,
            }
            for i, (name, layer, start, end, parent, item) in enumerate(self.spans)
        ]
