"""In-memory spans around calls into the program's layers.

A span records its name, start, end, parent span and item id, plus a
snapshot of the process's kernel-memo counters at both boundaries.  The
spans stay in memory while the run is timed and are written out as
JSON lines when it ends.  A layer's self time is its spans' duration
minus the part of it their child spans cover; its counts are the memo
traffic between its boundaries minus its children's.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

Counters = Tuple[int, ...]

#: span fields: name, start, end, parent index, item id, counters at
#: start, counters at end
_NAME, _START, _END, _PARENT, _ITEM, _C0, _C1 = range(7)


class Tracer:
    """Collects spans; ``counters`` snapshots memo counts at a boundary."""

    def __init__(self, counters: Callable[[], Counters]) -> None:
        self.spans: List[List[Any]] = []
        self.tallies: Dict[str, int] = {}
        self._stack: List[int] = []
        self._item: Optional[int] = None
        self._counters = counters

    @contextmanager
    def span(self, name: str, item: Optional[int] = None) -> Iterator[None]:
        """Record one span; ``item`` starts a new top-level item."""
        outer_item = self._item
        if item is not None:
            self._item = item
        index = len(self.spans)
        record: List[Any] = [
            name,
            0.0,
            0.0,
            self._stack[-1] if self._stack else -1,
            self._item,
            self._counters(),
            None,
        ]
        self.spans.append(record)
        self._stack.append(index)
        record[_START] = time.perf_counter()
        try:
            yield
        finally:
            record[_END] = time.perf_counter()
            record[_C1] = self._counters()
            self._stack.pop()
            self._item = outer_item

    def tally(self, name: str, amount: int) -> None:
        """Add to a work count (lines rendered, chunks sent, ...)."""
        self.tallies[name] = self.tallies.get(name, 0) + amount

    def duration(self, name: str) -> float:
        """Total wall time of the spans called ``name``."""
        return sum(r[_END] - r[_START] for r in self.spans if r[_NAME] == name)

    def layers(self) -> Dict[str, Dict[str, Any]]:
        """Per span name: calls, self seconds and self counter deltas."""
        width = len(self.spans[0][_C0]) if self.spans else 0
        covered = [0.0] * len(self.spans)
        child_counts = [[0] * width for _ in self.spans]
        for record in self.spans:
            parent = record[_PARENT]
            if parent >= 0:
                covered[parent] += record[_END] - record[_START]
                for k in range(width):
                    child_counts[parent][k] += record[_C1][k] - record[_C0][k]
        layers: Dict[str, Dict[str, Any]] = {}
        for index, record in enumerate(self.spans):
            layer = layers.setdefault(
                record[_NAME], {"calls": 0, "self_s": 0.0, "counts": [0] * width}
            )
            layer["calls"] += 1
            layer["self_s"] += record[_END] - record[_START] - covered[index]
            for k in range(width):
                layer["counts"][k] += (
                    record[_C1][k] - record[_C0][k] - child_counts[index][k]
                )
        return layers

    def write_jsonl(self, path: str) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "name": record[_NAME],
                            "start": record[_START],
                            "end": record[_END],
                            "parent": record[_PARENT],
                            "item": record[_ITEM],
                            "counters": [
                                b - a for a, b in zip(record[_C0], record[_C1])
                            ],
                        }
                    )
                    + "\n"
                )


@contextmanager
def interposed(tracer: Tracer, owner: Any, attribute: str, name: str) -> Iterator[None]:
    """Span every call to ``owner.attribute`` while the block runs.

    For public entry points that another public call invokes from
    inside the program (``CompiledWrapper.serve_index`` calls
    ``apply_to_index`` and ``health_from_applications``), so their time
    can be split out without calling any private code.
    """
    original = getattr(owner, attribute)

    def traced(*args: Any, **kwargs: Any) -> Any:
        with tracer.span(name):
            return original(*args, **kwargs)

    setattr(owner, attribute, traced)
    try:
        yield
    finally:
        setattr(owner, attribute, original)
