"""The evaluation harness: regenerates the paper's Tables 1-3.

Per engine: build the wrapper from the 5 sample pages, extract from all
10 pages, grade against ground truth, and accumulate the "S pgs" /
"T pgs" / "Total" rows exactly as the paper reports them.

Run from the command line::

    python -m repro eval --table 1          # all 119 engines
    python -m repro eval --table 2          # the 38 multi-section
    python -m repro eval --table 3          # record extraction
    python -m repro eval --table all --limit 20   # quick pass
    python -m repro eval --jobs 4           # 4 worker processes

Engines are independent workloads, so ``--jobs N`` maps the corpus over
a :class:`~concurrent.futures.ProcessPoolExecutor`; the map yields in
engine-id order, so results merge exactly as a serial run merges them
and every table stays bit-identical.  Within an engine, induction runs
in one process.
"""

from __future__ import annotations

import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.core.model import PageExtraction
from repro.core.mse import MSE, MSEConfig
from repro.evalkit.matching import grade_page
from repro.evalkit.metrics import EvalRows
from repro.obs import NULL_OBSERVER, Observer, ObserverLike
from repro.testbed.corpus import (
    SAMPLE_PAGES,
    EnginePages,
    engine_ids,
    iter_corpus,
    load_engine_pages,
)

#: a per-page extractor: ``(markup, query) -> PageExtraction``
Extractor = Callable[[str, str], PageExtraction]


@dataclass
class EngineResult:
    """Per-engine evaluation outcome (kept for diagnostics/benches)."""

    engine_id: int
    rows: EvalRows
    build_seconds: float
    extract_seconds: float
    failed: bool = False
    error: str = ""
    #: generator metadata, for breakdown reporting
    template: str = ""
    styles: Tuple[str, ...] = ()
    section_count: int = 0
    has_junk: bool = False
    shared_table: bool = False


def _engine_metadata(engine_pages: EnginePages) -> dict:
    engine = engine_pages.engine
    return dict(
        template=engine.template.name,
        styles=tuple(s.style.name for s in engine.sections),
        section_count=len(engine.sections),
        has_junk=engine.dynamic_junk,
        shared_table=engine.shared_table,
    )


def evaluate_engine(
    engine_pages: EnginePages,
    config: Optional[MSEConfig] = None,
    obs: ObserverLike = NULL_OBSERVER,
) -> EngineResult:
    """Build a wrapper from the sample pages and grade all ten pages.

    Induction runs in this process (:class:`MSE`); the engine-level
    ``jobs`` of :func:`run_evaluation` is what parallelizes a corpus run.

    ``obs`` is an optional :class:`repro.obs.Observer`; spans aggregate
    across engines, so one observer threaded through a whole run yields
    per-stage wall time and counters for the corpus ("which stage
    regressed?" attribution for benchmark trajectories).
    """
    mse = MSE(config, obs=obs)
    metadata = _engine_metadata(engine_pages)

    start = time.perf_counter()
    try:
        wrapper = mse.build_wrapper(engine_pages.sample_set)
    except Exception as exc:  # a failed induction counts as zero recall
        return EngineResult(
            engine_id=engine_pages.engine.engine_id,
            rows=_rows_for_total_miss(engine_pages),
            build_seconds=time.perf_counter() - start,
            extract_seconds=0.0,
            failed=True,
            error=f"{type(exc).__name__}: {exc}",
            **metadata,
        )
    build_seconds = time.perf_counter() - start

    start = time.perf_counter()
    rows = _grade_pages(
        engine_pages, lambda markup, query: wrapper.extract(markup, query, obs=obs)
    )
    extract_seconds = time.perf_counter() - start

    return EngineResult(
        engine_id=engine_pages.engine.engine_id,
        rows=rows,
        build_seconds=build_seconds,
        extract_seconds=extract_seconds,
        **metadata,
    )


def breakdown(
    run: "EvaluationRun", dimension: str
) -> List[Tuple[str, EvalRows]]:
    """Aggregate a run's rows by an engine property.

    ``dimension`` is one of ``template`` (page chrome family), ``style``
    (record rendering style; multi-style engines count under each of
    their styles), ``sections`` (single / multi / shared-table), or
    ``junk`` (dynamic-junk engines vs clean ones).  Returns sorted
    (label, rows) pairs — the analysis behind §6's failure discussion.
    """
    groups: Dict[str, EvalRows] = {}

    def add(label: str, result: EngineResult) -> None:
        groups.setdefault(label, EvalRows()).merge(result.rows)

    for result in run.engines:
        if dimension == "template":
            add(result.template or "?", result)
        elif dimension == "style":
            for style in set(result.styles) or {"?"}:
                add(style, result)
        elif dimension == "sections":
            if result.shared_table:
                add("shared-table", result)
            elif result.section_count > 1:
                add("multi", result)
            else:
                add("single", result)
        elif dimension == "junk":
            add("with-junk" if result.has_junk else "clean", result)
        else:
            raise ValueError(f"unknown breakdown dimension {dimension!r}")
    return sorted(groups.items())


def write_engine_csv(run: "EvaluationRun", path: str) -> None:
    """Write per-engine results as CSV (one row per engine).

    Columns: engine id, generator metadata, section counters and the four
    derived rates — the raw material for custom analyses beyond the
    built-in breakdowns.
    """
    import csv

    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            [
                "engine_id", "template", "styles", "section_count",
                "has_junk", "shared_table", "failed",
                "actual", "extracted", "perfect", "partial",
                "recall_perfect", "recall_total",
                "precision_perfect", "precision_total",
                "build_seconds",
            ]
        )
        for result in run.engines:
            total = result.rows.total_sections
            writer.writerow(
                [
                    result.engine_id,
                    result.template,
                    "|".join(result.styles),
                    result.section_count,
                    int(result.has_junk),
                    int(result.shared_table),
                    int(result.failed),
                    total.actual,
                    total.extracted,
                    total.perfect,
                    total.partial,
                    f"{total.recall_perfect:.4f}",
                    f"{total.recall_total:.4f}",
                    f"{total.precision_perfect:.4f}",
                    f"{total.precision_total:.4f}",
                    f"{result.build_seconds:.3f}",
                ]
            )


def evaluate_extractor(
    engine_pages: EnginePages, extract_fn: Extractor
) -> EngineResult:
    """Grade an arbitrary per-page extractor (used by baseline benches).

    ``extract_fn(markup, query) -> PageExtraction``; no wrapper induction
    happens (the function may close over a pre-built wrapper).
    """
    start = time.perf_counter()
    rows = _grade_pages(engine_pages, extract_fn)
    return EngineResult(
        engine_id=engine_pages.engine.engine_id,
        rows=rows,
        build_seconds=0.0,
        extract_seconds=time.perf_counter() - start,
    )


def _grade_pages(engine_pages: EnginePages, extract_fn: Extractor) -> EvalRows:
    """Grade ``extract_fn`` on all ten pages into the S/T-pgs rows."""
    rows = EvalRows()
    for index, (markup, query) in enumerate(
        zip(engine_pages.pages, engine_pages.queries)
    ):
        truth = engine_pages.truths[index]
        grade = grade_page(extract_fn(markup, query), truth)
        is_sample = index < SAMPLE_PAGES
        sections = rows.sample_sections if is_sample else rows.test_sections
        records = rows.sample_records if is_sample else rows.test_records
        sections.add_grade(grade, len(truth.sections))
        records.add_grade(grade)
    return rows


def _rows_for_total_miss(engine_pages: EnginePages) -> EvalRows:
    rows = EvalRows()
    for index, truth in enumerate(engine_pages.truths):
        counts = (
            rows.sample_sections if index < SAMPLE_PAGES else rows.test_sections
        )
        counts.actual += len(truth.sections)
    return rows


@dataclass
class EvaluationRun:
    """Aggregate outcome over a set of engines."""

    rows: EvalRows = field(default_factory=EvalRows)
    engines: List[EngineResult] = field(default_factory=list)

    @property
    def build_seconds(self) -> List[float]:
        return [e.build_seconds for e in self.engines if not e.failed]

    @property
    def failures(self) -> List[EngineResult]:
        return [e for e in self.engines if e.failed]


def _print_progress(result: EngineResult) -> None:
    total = result.rows.total_sections
    print(
        f"engine {result.engine_id:3d}: actual={total.actual:3d} "
        f"perfect={total.perfect:3d} partial={total.partial:3d} "
        f"extracted={total.extracted:3d} "
        f"build={result.build_seconds:.2f}s"
        + (f"  FAILED: {result.error}" if result.failed else ""),
        file=sys.stderr,
    )


def _parallel_worker(
    task: Tuple[int, Optional[MSEConfig], bool]
) -> Tuple[EngineResult, Optional[Dict[str, Any]]]:
    """Evaluate one engine inside a pool worker.

    Must be a top-level function (pickled by the executor).  Each
    worker builds its own page set and, when the parent observes, its
    own :class:`Observer`; the observer's :meth:`~Observer.stats`
    document travels back for :meth:`Observer.merge_stats`.
    """
    engine_id, config, observed = task
    engine_pages = load_engine_pages(engine_id)
    obs = Observer() if observed else NULL_OBSERVER
    result = evaluate_engine(engine_pages, config, obs=obs)
    return result, (obs.stats() if observed else None)


def _evaluated(
    subset: str,
    limit: Optional[int],
    config: Optional[MSEConfig],
    obs: ObserverLike,
    jobs: int,
) -> Iterator[Tuple[EngineResult, Optional[Dict[str, Any]]]]:
    """``(result, worker stats)`` per engine, in engine-id order.

    Serially the engine records into ``obs`` itself and the stats are
    None; with ``jobs > 1`` a process pool maps the engines and each
    worker's observer document comes back for merging.
    """
    if jobs <= 1:
        for engine_pages in iter_corpus(subset, limit=limit):
            yield evaluate_engine(engine_pages, config, obs=obs), None
        return
    ids = engine_ids(subset)[:limit]
    tasks = [(engine_id, config, obs.enabled) for engine_id in ids]
    with ProcessPoolExecutor(min(jobs, max(1, len(tasks)))) as pool:
        yield from pool.map(_parallel_worker, tasks)


def run_evaluation(
    subset: str = "all",
    limit: Optional[int] = None,
    config: Optional[MSEConfig] = None,
    progress: bool = False,
    obs: ObserverLike = NULL_OBSERVER,
    jobs: int = 1,
) -> EvaluationRun:
    """Evaluate MSE over (a subset of) the corpus.

    With ``jobs > 1`` the engines are mapped over a process pool.  The
    map yields in engine-id order, so the aggregate rows — and hence
    Tables 1–3 — merge exactly as a serial run's do; per-worker observer
    stats are folded into ``obs`` in the same order.
    """
    run = EvaluationRun()
    for result, stats in _evaluated(subset, limit, config, obs, jobs):
        run.engines.append(result)
        run.rows.merge(result.rows)
        if stats is not None:
            obs.merge_stats(stats)
        if progress:
            _print_progress(result)
    return run
