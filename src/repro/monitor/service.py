"""The wrapper monitor: score, detect, re-induce, hot-swap.

:class:`WrapperMonitor` is a deterministic state machine over a stream
of served pages:

``healthy`` — every page is scored through the engine's *compiled*
wrapper (:func:`repro.perf.serve.compile_wrapper`): one shared render
yields the page's extraction and a health document bit-identical to
``check_wrapper``'s, and the health's metric dict feeds the
:class:`~repro.obs.health.HealthTracker`.  Callers who also want the
extracted records use :meth:`WrapperMonitor.serve_page` — serving and
monitoring cost a single render+apply pass per page.  A confirmed
:class:`~repro.obs.health.DriftAlarm` (Page–Hinkley alarm *and* EWMA
below the health threshold) transitions to

``drifted`` — extraction quality is degraded.  With healing enabled the
monitor immediately attempts recovery: it estimates how many recently
buffered pages are post-change (the detector's ``pages_since_change``),
re-induces a wrapper from those pages via :func:`repro.core.mse
.build_wrapper` and health-checks the candidate on the current page.
A candidate scoring at or above the threshold is hot-swapped in (back
to ``healthy``, detector state reset); otherwise
the old wrapper stays and the monitor retries every
:data:`RETRY_EVERY` pages with fresher samples.

Every step appends to a :class:`~repro.obs.health.HealthEventLog`
(``check`` / ``drift`` / ``reinduce`` / ``heal`` events keyed by the
page ordinal — never the wall clock, so runs replay bit-identically)
and counts into the run's ``Observer``/``MetricsRegistry`` under the
``monitor.*`` namespace.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Optional, Tuple

from repro.core.mse import build_wrapper
from repro.core.verify import WrapperHealth
from repro.core.wrapper import EngineWrapper
from repro.obs import NULL_OBSERVER, ObserverLike
from repro.perf.serve import CompiledWrapper, ServedPage, compile_wrapper
from repro.obs.health import (
    DEFAULT_STREAMS,
    DriftAlarm,
    HealthEventLog,
    HealthTracker,
)

#: monitor states
HEALTHY = "healthy"
DRIFTED = "drifted"

#: EWMA smoothing factor of every monitored stream
EWMA_ALPHA = 0.3
#: checks before any alarm may confirm (a monitor attached to an
#: already-broken wrapper must not claim it *detected a change*)
WARMUP = 2
#: recently served pages retained as re-induction candidates
BUFFER_PAGES = 8
#: sample-count band for one re-induction attempt
MIN_SAMPLES = 2
MAX_SAMPLES = 5
#: pages between heal attempts while drifted
RETRY_EVERY = 4


@dataclass
class MonitorConfig:
    """Tuning knobs of one :class:`WrapperMonitor`."""

    #: sliding-window length (pages) for the rolling means
    window: int = 8
    #: health threshold: EWMA below this confirms an alarm, and a healed
    #: wrapper must score at least this to be swapped in
    threshold: float = 0.6
    #: Page–Hinkley tolerated deviation below the running mean
    ph_delta: float = 0.05
    #: Page–Hinkley alarm threshold on the cumulative statistic
    ph_lambda: float = 1.0
    #: attempt self-healing re-induction once drift is confirmed
    heal: bool = False


@dataclass
class MonitorSummary:
    """End-of-run totals (the CLI's ``--json`` document)."""

    pages: int
    state: str
    drifts: int
    reinductions: int
    heals: int
    mean_score: float
    windows: Dict[str, Dict[str, float]]
    drift_pages: Tuple[int, ...]
    heal_pages: Tuple[int, ...]

    def to_obj(self) -> Dict[str, object]:
        return {
            "pages": self.pages,
            "state": self.state,
            "drifts": self.drifts,
            "reinductions": self.reinductions,
            "heals": self.heals,
            "mean_score": self.mean_score,
            "windows": self.windows,
            "drift_pages": list(self.drift_pages),
            "heal_pages": list(self.heal_pages),
        }


@dataclass
class _MonitorState:
    """Mutable run state, split out to keep the monitor surveyable."""

    page: int = 0
    state: str = HEALTHY
    drifts: int = 0
    reinductions: int = 0
    heals: int = 0
    score_total: float = 0.0
    last_heal_attempt: int = -1
    drift_pages: Tuple[int, ...] = ()
    heal_pages: Tuple[int, ...] = ()
    pending_alarm: Optional[DriftAlarm] = None


class WrapperMonitor:
    """Sliding-window health telemetry for one engine's wrapper."""

    def __init__(
        self,
        wrapper: EngineWrapper,
        config: Optional[MonitorConfig] = None,
        obs: ObserverLike = NULL_OBSERVER,
    ) -> None:
        self.wrapper = wrapper
        self.compiled: CompiledWrapper = compile_wrapper(wrapper)
        self.config = config or MonitorConfig()
        self.obs = obs
        cfg = self.config
        self.tracker = HealthTracker(
            streams=DEFAULT_STREAMS,
            window=cfg.window,
            threshold=cfg.threshold,
            alpha=EWMA_ALPHA,
            delta=cfg.ph_delta,
            lambda_=cfg.ph_lambda,
            warmup=WARMUP,
        )
        self.log = HealthEventLog()
        self.log.meta.update(
            {
                "window": cfg.window,
                "threshold": cfg.threshold,
                "streams": list(DEFAULT_STREAMS),
                "heal": cfg.heal,
            }
        )
        self._buffer: Deque[Tuple[str, str]] = deque(maxlen=BUFFER_PAGES)
        self._run = _MonitorState()

    # -- read-only views ------------------------------------------------
    @property
    def state(self) -> str:
        """``healthy`` or ``drifted``."""
        return self._run.state

    @property
    def pages_seen(self) -> int:
        return self._run.page

    def summary(self) -> MonitorSummary:
        run = self._run
        return MonitorSummary(
            pages=run.page,
            state=run.state,
            drifts=run.drifts,
            reinductions=run.reinductions,
            heals=run.heals,
            mean_score=run.score_total / run.page if run.page else 0.0,
            windows=self.tracker.snapshot(),
            drift_pages=run.drift_pages,
            heal_pages=run.heal_pages,
        )

    # -- the monitoring loop --------------------------------------------
    def observe_page(self, markup: str, query: str = "") -> WrapperHealth:
        """Score one served page; detect drift; heal when enabled.

        Returns the page's :class:`WrapperHealth` (scored against the
        wrapper that served it, i.e. before any hot swap this call may
        perform).
        """
        return self.serve_page(markup, query).health

    def serve_page(self, markup: str, query: str = "") -> ServedPage:
        """Serve one page: extraction plus monitored health, one render.

        The compiled wrapper applies every schema once and assembles both
        the page's :class:`~repro.core.model.PageExtraction` and its
        health from the shared results, so a monitored serving loop pays
        one render+apply pass per page instead of the two an
        ``extract`` + ``check_wrapper`` pair costs.  The health feeds the
        same drift state machine as :meth:`observe_page`.
        """
        obs = self.obs
        with obs.span("monitor"):
            self._buffer.append((markup, query))
            served = self.compiled.serve(markup, query, obs=obs)
            self._record_served(markup, query, served)
        return served

    def _record_served(self, markup: str, query: str, served: ServedPage) -> None:
        """Feed one served page through the drift state machine."""
        run = self._run
        obs = self.obs
        health = served.health
        metrics = health.metrics
        alarm = self.tracker.update(metrics)
        obs.count("monitor.pages")
        run.score_total += health.score

        self.log.append(
            "check",
            page=run.page,
            score=health.score,
            state=run.state,
            metrics=metrics,
            windows=self.tracker.snapshot(),
        )

        if run.state == HEALTHY and alarm is not None:
            self._confirm_drift(alarm)
        if run.state == DRIFTED and self.config.heal:
            if self._heal_due():
                self._attempt_heal(markup, query)

        for name, snap in self.tracker.snapshot().items():
            obs.gauge(f"monitor.{name}.ewma", snap["ewma"])
            obs.gauge(f"monitor.{name}.mean", snap["mean"])
        run.page += 1

    # -- drift ----------------------------------------------------------
    def _confirm_drift(self, alarm: DriftAlarm) -> None:
        run = self._run
        run.state = DRIFTED
        run.drifts += 1
        run.drift_pages += (run.page,)
        run.pending_alarm = alarm
        self.obs.count("monitor.drifts")
        self.log.append(
            "drift",
            page=run.page,
            stream=alarm.stream,
            window_mean=alarm.window_mean,
            ewma=alarm.ewma,
            ph=alarm.statistic,
            pages_since_change=alarm.pages_since_change,
        )

    # -- healing --------------------------------------------------------
    def _heal_due(self) -> bool:
        run = self._run
        if len(self._buffer) < MIN_SAMPLES:
            return False
        if run.last_heal_attempt < 0:
            return True
        return run.page - run.last_heal_attempt >= RETRY_EVERY

    def _post_change_samples(self) -> Tuple[Tuple[str, str], ...]:
        """The most recent buffered pages judged to be post-change.

        The Page–Hinkley ``pages_since_change`` of the alarming stream
        estimates how long the template has been drifting; at least
        :data:`MIN_SAMPLES` and at most :data:`MAX_SAMPLES` pages are used.
        """
        run = self._run
        since_change = (
            run.pending_alarm.pages_since_change
            if run.pending_alarm is not None
            else MAX_SAMPLES
        )
        count = max(MIN_SAMPLES, min(MAX_SAMPLES, since_change))
        count = min(count, len(self._buffer))
        return tuple(self._buffer)[-count:] if count else ()

    def _attempt_heal(self, markup: str, query: str) -> bool:
        """One re-induction attempt; True when the wrapper was swapped."""
        run = self._run
        cfg = self.config
        run.last_heal_attempt = run.page
        samples = self._post_change_samples()
        if len(samples) < MIN_SAMPLES:
            return False

        with self.obs.span("reinduce"):
            candidate = build_wrapper(list(samples), obs=self.obs)
        run.reinductions += 1
        self.obs.count("monitor.reinductions")
        self.log.append(
            "reinduce",
            page=run.page,
            samples=len(samples),
            schemas=len(candidate.wrappers),
        )

        # The candidate is compiled up front: its health check runs on
        # the compiled path, and a successful swap reuses the compilation.
        compiled_candidate = compile_wrapper(candidate)
        post = compiled_candidate.serve(markup, query, obs=self.obs).health
        recovered = post.score >= cfg.threshold
        self.log.append(
            "heal",
            page=run.page,
            recovered=recovered,
            score=post.score,
        )
        if not recovered:
            # Keep serving the old wrapper; fresher samples next retry.
            return False
        self.wrapper = candidate
        self.compiled = compiled_candidate
        self.tracker.reset()
        run.state = HEALTHY
        run.heals += 1
        run.heal_pages += (run.page,)
        run.pending_alarm = None
        self.obs.count("monitor.heals")
        return True
