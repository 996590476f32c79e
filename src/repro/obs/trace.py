"""The pipeline tracer: nestable spans plus a metrics registry.

Usage pattern (an explicit context object, never a global)::

    obs = Observer()
    with obs.span("dse"):
        ...
        obs.count("dse.csbms", len(csbms))
    obs.write_jsonl("trace.jsonl")

Spans with the same name under the same parent *aggregate*: the tracer
records call counts and total wall time per span path, so a stage that
runs once per sample page still shows up as one node (``refine  5x
0.213s``).  ``Observer.count`` increments both the run-wide metrics
registry and the innermost open span's own counter dict, which is how
JSONL span lines carry stage-specific counters.

Every pipeline entry point accepts an observer and defaults to
:data:`NULL_OBSERVER`, whose methods are no-ops — with tracing disabled
the cost is one attribute lookup and an empty method call per stage,
well under the 5 % overhead budget.
"""

from __future__ import annotations

import json
import time
from typing import (
    Any,
    Callable,
    ContextManager,
    Dict,
    IO,
    Iterator,
    List,
    Optional,
    Protocol,
    Union,
)

from repro.obs.metrics import MetricsRegistry, Number

TRACE_FORMAT = "repro-obs-trace"
TRACE_VERSION = 1


class ObserverLike(Protocol):
    """The structural type every ``obs=`` parameter accepts.

    Both :class:`Observer` and :class:`NullObserver` satisfy it, as does
    any test double exposing the same four methods plus ``enabled``.
    """

    enabled: bool

    def span(self, name: str) -> ContextManager[Any]:
        ...

    def count(self, name: str, amount: Number = 1) -> None:
        ...

    def gauge(self, name: str, value: Number) -> None:
        ...

    def observe(self, name: str, seconds: float) -> None:
        ...


class _NullSpan:
    """Reusable no-op context manager returned by the null observer."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullObserver:
    """The disabled observer: every operation is a no-op.

    Pipeline code holds an observer unconditionally and calls it without
    ``if`` guards; only work whose *preparation* is itself expensive
    (e.g. classifying refine cases) should check :attr:`enabled` first.
    """

    enabled = False
    __slots__ = ()

    def span(self, name: str) -> _NullSpan:
        return _NULL_SPAN

    def count(self, name: str, amount: Number = 1) -> None:
        return None

    def gauge(self, name: str, value: Number) -> None:
        return None

    def observe(self, name: str, seconds: float) -> None:
        return None


#: The shared disabled observer; safe to use from anywhere (stateless).
NULL_OBSERVER = NullObserver()


class SpanNode:
    """One node of the span tree: aggregated calls to ``span(name)``
    under a given parent."""

    __slots__ = ("name", "path", "calls", "seconds", "counters", "children")

    def __init__(self, name: str, path: str) -> None:
        self.name = name
        self.path = path
        self.calls = 0
        self.seconds = 0.0
        self.counters: Dict[str, Number] = {}
        self.children: Dict[str, "SpanNode"] = {}

    def child(self, name: str) -> "SpanNode":
        node = self.children.get(name)
        if node is None:
            path = f"{self.path}/{name}" if self.path else name
            node = self.children[name] = SpanNode(name, path)
        return node

    def count(self, name: str, amount: Number = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def walk(self) -> Iterator["SpanNode"]:
        """Pre-order traversal of this node's subtree (self included)."""
        yield self
        for node in self.children.values():
            yield from node.walk()

    def to_dict(self) -> Dict[str, Any]:
        parent, _, _ = self.path.rpartition("/")
        return {
            "name": self.name,
            "path": self.path,
            "parent": parent,
            "calls": self.calls,
            "seconds": self.seconds,
            "counters": dict(sorted(self.counters.items())),
        }

    def __repr__(self) -> str:
        return (
            f"SpanNode({self.path!r}, calls={self.calls}, "
            f"seconds={self.seconds:.4f})"
        )


class _ActiveSpan:
    """Context manager for one open span; re-enterable (each ``with``
    resolves its node against the tracer's current stack)."""

    __slots__ = ("_observer", "_name", "_node", "_started")

    def __init__(self, observer: "Observer", name: str) -> None:
        self._observer = observer
        self._name = name
        self._node: Optional[SpanNode] = None
        self._started = 0.0

    def __enter__(self) -> SpanNode:
        observer = self._observer
        self._node = observer._stack[-1].child(self._name)
        observer._stack.append(self._node)
        self._started = observer._clock()
        return self._node

    def __exit__(self, *exc: object) -> bool:
        observer = self._observer
        elapsed = observer._clock() - self._started
        node = self._node
        assert node is not None
        node.calls += 1
        node.seconds += elapsed
        observer.metrics.observe(f"span.{node.path}", elapsed)
        observer._stack.pop()
        return False


class Observer:
    """The enabled observer: span tree + metrics registry for one run.

    ``clock`` is injectable for deterministic tests; it must be a
    monotonic seconds source (default :func:`time.perf_counter`).
    """

    enabled = True

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.metrics = MetricsRegistry()
        self.root = SpanNode("", "")
        self._stack: List[SpanNode] = [self.root]
        self._clock = clock

    # -- recording ------------------------------------------------------
    def span(self, name: str) -> _ActiveSpan:
        """Open a nestable span; use as a context manager."""
        return _ActiveSpan(self, name)

    def count(self, name: str, amount: Number = 1) -> None:
        """Increment a counter, attributed to the innermost open span."""
        self.metrics.count(name, amount)
        node = self._stack[-1]
        if node is not self.root:
            node.count(name, amount)

    def gauge(self, name: str, value: Number) -> None:
        self.metrics.gauge(name, value)

    def observe(self, name: str, seconds: float) -> None:
        self.metrics.observe(name, seconds)

    # -- reading --------------------------------------------------------
    def spans(self) -> List[SpanNode]:
        """All recorded spans, pre-order, excluding the synthetic root."""
        return [node for node in self.root.walk() if node is not self.root]

    def stats(self) -> Dict[str, Any]:
        """The machine-readable per-stage stats document.

        Schema: ``{"format", "version", "spans": [span dicts],
        "metrics": {"counters", "gauges", "timings"}}`` — what
        ``--trace`` writes (as JSONL) and what benchmarks persist into
        ``BENCH_*.json`` trajectories.
        """
        return {
            "format": TRACE_FORMAT,
            "version": TRACE_VERSION,
            "spans": [node.to_dict() for node in self.spans()],
            "metrics": self.metrics.snapshot(),
        }

    def merge_stats(self, stats: Dict[str, Any]) -> None:
        """Fold a :meth:`stats` document into this observer.

        Span dicts graft onto this observer's tree under their
        ``parent`` path (calls and seconds add, counters add); metrics
        merge via :meth:`MetricsRegistry.merge_snapshot`.  This is how
        the process pools — the evaluation harness and the serving
        ``Server`` — combine per-worker observers into one
        aggregate trace: a caller may rewrite ``parent`` before merging
        to nest a worker's top-level spans under a host span.

        A doc's ``parent`` names a path *in the worker's tree*; once a
        rewritten ancestor has moved, that path no longer matches this
        tree.  Grafted nodes are therefore remembered under their
        original document paths, and each doc's parent resolves against
        those first — so whole subtrees follow their relocated root
        instead of splitting off at this tree's root.  Spans are
        pre-order in the document, so a parent is always grafted before
        its children; documents from before the ``parent`` field fall
        back to grafting by ``path``.
        """
        grafted: Dict[str, SpanNode] = {}
        for doc in stats.get("spans", []):
            path = doc.get("path", "")
            parent = doc.get("parent")
            if parent is None:
                parent, _, _ = path.rpartition("/")
            node = grafted.get(parent)
            if node is None:
                node = self.root
                if parent:
                    for name in parent.split("/"):
                        node = node.child(name)
            node = node.child(doc.get("name") or path.rpartition("/")[2])
            node.calls += doc.get("calls", 0)
            node.seconds += doc.get("seconds", 0.0)
            for name, amount in doc.get("counters", {}).items():
                node.count(name, amount)
            if path:
                grafted[path] = node
        self.metrics.merge_snapshot(stats.get("metrics", {}))

    # -- persistence ----------------------------------------------------
    def write_jsonl(self, target: Union[str, IO[str]]) -> None:
        """Emit the trace as JSON Lines.

        One ``meta`` line, one ``span`` line per aggregated span
        (pre-order, so parents precede children), one final ``metrics``
        line.  :func:`read_jsonl` round-trips the document.
        """
        if isinstance(target, str):
            with open(target, "w", encoding="utf-8") as handle:
                self.write_jsonl(handle)
            return
        meta = {"event": "meta", "format": TRACE_FORMAT, "version": TRACE_VERSION}
        target.write(json.dumps(meta) + "\n")
        for node in self.spans():
            target.write(json.dumps({"event": "span", **node.to_dict()}) + "\n")
        target.write(
            json.dumps({"event": "metrics", **self.metrics.snapshot()}) + "\n"
        )


def read_jsonl(source: Union[str, IO[str]]) -> Dict[str, Any]:
    """Load a trace written by :meth:`Observer.write_jsonl`.

    Returns the same document shape as :meth:`Observer.stats`.
    """
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as handle:
            return read_jsonl(handle)
    meta: Dict[str, Any] = {}
    spans: List[Dict[str, Any]] = []
    metrics: Dict[str, Any] = {"counters": {}, "gauges": {}, "timings": {}}
    for line in source:
        line = line.strip()
        if not line:
            continue
        record = json.loads(line)
        event = record.pop("event", None)
        if event == "meta":
            meta = record
        elif event == "span":
            spans.append(record)
        elif event == "metrics":
            metrics = record
    if meta.get("format") != TRACE_FORMAT:
        raise ValueError(f"not a {TRACE_FORMAT} trace")
    return {
        "format": meta.get("format"),
        "version": meta.get("version"),
        "spans": spans,
        "metrics": metrics,
    }
