"""Wrapper-health telemetry primitives: windows, change detection, events.

:mod:`repro.core.verify` scores one page at a point in time; this module
turns a *stream* of those scores into production telemetry.  Each
monitored metric stream (the keys of
:attr:`repro.core.verify.WrapperHealth.metrics`) gets three estimators:

- a :class:`RollingWindow` — the plain mean of the last *n* checks;
- an :class:`Ewma` — an exponentially weighted moving average that
  reacts faster than the window but still smooths single-page noise;
- a :class:`PageHinkley` change detector — the cumulative test of Page
  (1954) / Hinkley (1971) for a *downward* shift of the stream mean,
  which is what template drift looks like (scores are "higher is
  healthier" throughout).

:class:`HealthTracker` bundles one :class:`StreamState` per monitored
metric and confirms drift only when a stream's Page–Hinkley statistic
crosses its alarm threshold *and* that stream's EWMA sits below the
health threshold — a raw PH alarm on a still-healthy average is noise
(e.g. a run of legitimately absent sections), not drift.

Events are plain dicts serialized as JSON Lines by
:class:`HealthEventLog` (``meta`` / ``check`` / ``drift`` / ``reinduce``
/ ``heal`` records; see the README schema table), mirroring the trace
format of :mod:`repro.obs.trace`.  Nothing here touches wall clocks or
randomness: events are ordered by the monitor's page ordinal, so runs
are deterministic and replayable.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, IO, List, Optional, Sequence, Tuple, Union

HEALTH_FORMAT = "repro-health-events"
HEALTH_VERSION = 1

#: metric streams monitored by default (keys of ``WrapperHealth.metrics``)
DEFAULT_STREAMS: Tuple[str, ...] = (
    "score",
    "marker_hit_found_rate",
    "homogeneous_rate",
)


class RollingWindow:
    """Mean over the last ``size`` observations."""

    __slots__ = ("size", "_values", "_total")

    def __init__(self, size: int) -> None:
        if size < 1:
            raise ValueError("window size must be >= 1")
        self.size = size
        self._values: Deque[float] = deque(maxlen=size)
        self._total = 0.0

    def update(self, value: float) -> None:
        if len(self._values) == self.size:
            self._total -= self._values[0]
        self._values.append(value)
        self._total += value

    @property
    def count(self) -> int:
        return len(self._values)

    @property
    def mean(self) -> float:
        return self._total / len(self._values) if self._values else 0.0

    def reset(self) -> None:
        self._values.clear()
        self._total = 0.0


class Ewma:
    """Exponentially weighted moving average (seeded by the first value)."""

    __slots__ = ("alpha", "_value")

    def __init__(self, alpha: float = 0.3) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        self.alpha = alpha
        self._value: Optional[float] = None

    def update(self, value: float) -> float:
        if self._value is None:
            self._value = value
        else:
            self._value += self.alpha * (value - self._value)
        return self._value

    @property
    def value(self) -> float:
        return self._value if self._value is not None else 0.0

    def reset(self) -> None:
        self._value = None


class PageHinkley:
    """Page–Hinkley test for a downward shift of a stream's mean.

    Maintains the running mean ``x̄_t`` and the cumulative statistic
    ``g_t = max(0, g_{t-1} + (x̄_t - x_t - delta))``: pages scoring more
    than ``delta`` below the historical mean grow ``g``, healthier pages
    shrink it back toward zero.  ``g_t > lambda_`` raises the alarm.
    ``pages_since_change`` — the updates since ``g`` last touched zero —
    estimates how long ago the shift began, which the self-healing
    monitor uses to pick how many buffered pages are post-drift.
    """

    __slots__ = ("delta", "lambda_", "_count", "_mean", "_g", "_since_zero")

    def __init__(self, delta: float = 0.05, lambda_: float = 1.0) -> None:
        self.delta = delta
        self.lambda_ = lambda_
        self._count = 0
        self._mean = 0.0
        self._g = 0.0
        self._since_zero = 0

    def update(self, value: float) -> bool:
        """Feed one observation; True when the alarm is raised."""
        self._count += 1
        self._mean += (value - self._mean) / self._count
        self._g = max(0.0, self._g + (self._mean - value - self.delta))
        if self._g == 0.0:
            self._since_zero = 0
        else:
            self._since_zero += 1
        return self.alarm

    @property
    def alarm(self) -> bool:
        return self._g > self.lambda_

    @property
    def statistic(self) -> float:
        return self._g

    @property
    def pages_since_change(self) -> int:
        """Updates since the statistic last sat at zero (shift-age estimate)."""
        return self._since_zero

    def reset(self) -> None:
        self._count = 0
        self._mean = 0.0
        self._g = 0.0
        self._since_zero = 0


@dataclass(frozen=True)
class DriftAlarm:
    """One confirmed drift signal raised by a stream."""

    stream: str
    window_mean: float
    ewma: float
    statistic: float
    pages_since_change: int


class StreamState:
    """The three estimators of one monitored metric stream."""

    __slots__ = ("name", "window", "ewma", "detector")

    def __init__(
        self,
        name: str,
        window: int,
        alpha: float,
        delta: float,
        lambda_: float,
    ) -> None:
        self.name = name
        self.window = RollingWindow(window)
        self.ewma = Ewma(alpha)
        self.detector = PageHinkley(delta, lambda_)

    def update(self, value: float) -> bool:
        """Feed one observation; True when the PH alarm is up."""
        self.window.update(value)
        self.ewma.update(value)
        return self.detector.update(value)

    def snapshot(self) -> Dict[str, float]:
        return {
            "mean": self.window.mean,
            "ewma": self.ewma.value,
            "ph": self.detector.statistic,
        }

    def reset(self) -> None:
        self.window.reset()
        self.ewma.reset()
        self.detector.reset()


class HealthTracker:
    """Per-engine sliding-window health over several metric streams.

    ``update`` takes one page's metric dict (missing streams are
    skipped for that page) and returns the :class:`DriftAlarm` of the
    worst confirmed stream, or None.  Confirmation requires both the
    Page–Hinkley alarm and an EWMA below ``threshold``; ``warmup``
    checks must pass before any alarm can confirm, so a monitor started
    against an already-broken wrapper reports unhealthy scores without
    claiming to have *detected a change*.
    """

    def __init__(
        self,
        streams: Sequence[str] = DEFAULT_STREAMS,
        window: int = 8,
        threshold: float = 0.6,
        alpha: float = 0.3,
        delta: float = 0.05,
        lambda_: float = 1.0,
        warmup: int = 2,
    ) -> None:
        self.threshold = threshold
        self.warmup = warmup
        self.checks = 0
        self.streams: Dict[str, StreamState] = {
            name: StreamState(name, window, alpha, delta, lambda_)
            for name in streams
        }

    def update(self, metrics: Dict[str, float]) -> Optional[DriftAlarm]:
        """Feed one page's health metrics; a confirmed alarm, or None."""
        self.checks += 1
        confirmed: List[DriftAlarm] = []
        for name, state in self.streams.items():
            if name not in metrics:
                continue
            alarmed = state.update(float(metrics[name]))
            if (
                alarmed
                and self.checks > self.warmup
                and state.ewma.value < self.threshold
            ):
                confirmed.append(
                    DriftAlarm(
                        stream=name,
                        window_mean=state.window.mean,
                        ewma=state.ewma.value,
                        statistic=state.detector.statistic,
                        pages_since_change=state.detector.pages_since_change,
                    )
                )
        if not confirmed:
            return None
        # The stream with the largest PH excursion carries the signal.
        confirmed.sort(key=lambda alarm: (-alarm.statistic, alarm.stream))
        return confirmed[0]

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """Per-stream ``{mean, ewma, ph}`` — what ``check`` events embed."""
        return {
            name: self.streams[name].snapshot()
            for name in sorted(self.streams)
        }

    def reset(self) -> None:
        """Forget all history (called after a wrapper hot-swap)."""
        self.checks = 0
        for state in self.streams.values():
            state.reset()


@dataclass
class HealthEventLog:
    """An append-only list of health events with a JSONL persistence form.

    One ``meta`` record leads the file; every following line is one
    event dict with an ``event`` key (``check`` / ``drift`` /
    ``reinduce`` / ``heal``).  :func:`read_health_events` round-trips
    the document and rejects foreign files.
    """

    meta: Dict[str, Any] = field(default_factory=dict)
    events: List[Dict[str, Any]] = field(default_factory=list)

    def append(self, kind: str, **payload: Any) -> Dict[str, Any]:
        event: Dict[str, Any] = {"event": kind}
        event.update(payload)
        self.events.append(event)
        return event

    def of_kind(self, kind: str) -> List[Dict[str, Any]]:
        return [event for event in self.events if event["event"] == kind]

    def write_jsonl(self, target: Union[str, IO[str]]) -> None:
        if isinstance(target, str):
            with open(target, "w", encoding="utf-8") as handle:
                self.write_jsonl(handle)
            return
        header = {
            "event": "meta",
            "format": HEALTH_FORMAT,
            "version": HEALTH_VERSION,
        }
        header.update(self.meta)
        target.write(json.dumps(header) + "\n")
        for event in self.events:
            target.write(json.dumps(event) + "\n")


def read_health_events(source: Union[str, IO[str]]) -> HealthEventLog:
    """Load a health-event log written by :meth:`HealthEventLog.write_jsonl`."""
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as handle:
            return read_health_events(handle)
    meta: Optional[Dict[str, Any]] = None
    events: List[Dict[str, Any]] = []
    for line in source:
        line = line.strip()
        if not line:
            continue
        record = json.loads(line)
        if record.get("event") == "meta":
            meta = {
                key: value for key, value in record.items() if key != "event"
            }
        else:
            events.append(record)
    if meta is None or meta.get("format") != HEALTH_FORMAT:
        raise ValueError(f"not a {HEALTH_FORMAT} log")
    return HealthEventLog(meta=meta, events=events)
