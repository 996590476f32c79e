"""Metrics primitives: counters, gauges and timing histograms.

The registry is deliberately tiny and dependency-free.  Counters are
monotonically increasing integers/floats (``cache.hits``), gauges are
last-write-wins values (``record_distance_cache.hit_rate``), and timings
are streaming summaries (count / total / min / max / mean) of observed
durations.  The whole registry snapshots to plain JSON-able dicts so the
CLI, the evaluation harness and the benchmarks can all persist the same
schema (see ``docs: Observability`` in README.md).
"""

from __future__ import annotations

from typing import Dict, Union

Number = Union[int, float]


class TimingStats:
    """Streaming summary of observed durations (seconds)."""

    __slots__ = ("count", "total", "min", "max")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = 0.0

    def observe(self, seconds: float) -> None:
        self.count += 1
        self.total += seconds
        if seconds < self.min:
            self.min = seconds
        if seconds > self.max:
            self.max = seconds

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def snapshot(self) -> Dict[str, Number]:
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min if self.count else 0.0,
            "max": self.max,
            "mean": self.mean,
        }

    def __repr__(self) -> str:
        return f"TimingStats(count={self.count}, total={self.total:.4f}s)"


class MetricsRegistry:
    """Named counters, gauges and timing summaries for one run."""

    __slots__ = ("counters", "gauges", "timings")

    def __init__(self) -> None:
        self.counters: Dict[str, Number] = {}
        self.gauges: Dict[str, Number] = {}
        self.timings: Dict[str, TimingStats] = {}

    def count(self, name: str, amount: Number = 1) -> None:
        """Increment the counter ``name`` by ``amount``."""
        self.counters[name] = self.counters.get(name, 0) + amount

    def gauge(self, name: str, value: Number) -> None:
        """Set the gauge ``name`` to ``value`` (last write wins)."""
        self.gauges[name] = value

    def observe(self, name: str, seconds: float) -> None:
        """Record one duration sample into the timing ``name``."""
        timing = self.timings.get(name)
        if timing is None:
            timing = self.timings[name] = TimingStats()
        timing.observe(seconds)

    def merge_snapshot(self, snapshot: Dict[str, Dict]) -> None:
        """Fold a :meth:`snapshot` document into this registry.

        The plain-dict counterpart of :meth:`merge`, used to combine
        metrics that crossed a process boundary (parallel evaluation
        workers return ``Observer.stats()`` documents, not live
        registries).  Counters add, gauges overwrite, timings combine.
        """
        for name, amount in snapshot.get("counters", {}).items():
            self.count(name, amount)
        self.gauges.update(snapshot.get("gauges", {}))
        for name, doc in snapshot.get("timings", {}).items():
            mine = self.timings.get(name)
            if mine is None:
                mine = self.timings[name] = TimingStats()
            count = doc.get("count", 0)
            mine.count += count
            mine.total += doc.get("total", 0.0)
            if count:
                mine.min = min(mine.min, doc.get("min", float("inf")))
            mine.max = max(mine.max, doc.get("max", 0.0))

    def snapshot(self) -> Dict[str, Dict]:
        """A plain-dict view of everything, stable key order."""
        return {
            "counters": dict(sorted(self.counters.items())),
            "gauges": dict(sorted(self.gauges.items())),
            "timings": {
                name: timing.snapshot()
                for name, timing in sorted(self.timings.items())
            },
        }
