"""The 119-engine test bed (paper §6).

The paper's evaluation uses 100 engines from the ViNTs test bed dataset 2
(19 of which return multiple dynamic sections) plus 19 additional
multi-section engines: 81 single-section and 38 multi-section engines,
10 result pages each (5 sample/training + 5 test).

This module materializes the equivalent synthetic corpus: engines 0..80
are single-section, engines 81..118 are multi-section; each provides 10
deterministic query/page pairs split 5/5.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Tuple

from repro.testbed.engine import SyntheticEngine
from repro.testbed.groundtruth import PageTruth, compute_truth

SINGLE_SECTION_ENGINES = 81
MULTI_SECTION_ENGINES = 38
TOTAL_ENGINES = SINGLE_SECTION_ENGINES + MULTI_SECTION_ENGINES  # 119

PAGES_PER_ENGINE = 10
SAMPLE_PAGES = 5  # wrapper induction / tuning

#: global seed offset so the corpus can be re-rolled wholesale if needed
CORPUS_SEED = 20060912  # VLDB'06 opening day


@dataclass
class EnginePages:
    """One engine's workload: queries, pages and ground truth."""

    engine: SyntheticEngine
    queries: List[str]
    pages: List[str]  # HTML, aligned with queries
    truths: List[PageTruth]

    @property
    def sample_set(self) -> List[Tuple[str, str]]:
        """(html, query) pairs of the sample/training pages."""
        return list(zip(self.pages[:SAMPLE_PAGES], self.queries[:SAMPLE_PAGES]))

    @property
    def test_set(self) -> List[Tuple[str, str]]:
        """(html, query) pairs of the held-out test pages."""
        return list(zip(self.pages[SAMPLE_PAGES:], self.queries[SAMPLE_PAGES:]))


def make_engine(engine_id: int) -> SyntheticEngine:
    """Engine ``engine_id`` of the corpus (0..118)."""
    if not 0 <= engine_id < TOTAL_ENGINES:
        raise ValueError(f"engine_id must be in [0, {TOTAL_ENGINES})")
    multi = engine_id >= SINGLE_SECTION_ENGINES
    return SyntheticEngine.generate(
        engine_id=engine_id, seed=CORPUS_SEED + engine_id, multi_section=multi
    )


def load_engine_pages(
    engine_id: int, pages_per_engine: int = PAGES_PER_ENGINE
) -> EnginePages:
    """Generate one engine's full workload with ground truth."""
    engine = make_engine(engine_id)
    queries = engine.queries(pages_per_engine)
    pages = [engine.result_page(query) for query in queries]
    truths = [compute_truth(markup) for markup in pages]
    return EnginePages(engine=engine, queries=queries, pages=pages, truths=truths)


def engine_ids(subset: str = "all") -> List[int]:
    """Engine id lists: 'all' (119), 'single' (81), 'multi' (38)."""
    if subset == "all":
        return list(range(TOTAL_ENGINES))
    if subset == "single":
        return list(range(SINGLE_SECTION_ENGINES))
    if subset == "multi":
        return list(range(SINGLE_SECTION_ENGINES, TOTAL_ENGINES))
    raise ValueError(f"unknown subset {subset!r}")


def iter_corpus(
    subset: str = "all", limit: Optional[int] = None
) -> Iterator[EnginePages]:
    """Iterate engine workloads, optionally capped at ``limit`` engines."""
    ids = engine_ids(subset)
    if limit is not None:
        ids = ids[:limit]
    for engine_id in ids:
        yield load_engine_pages(engine_id)


def boundary_marker_rate(subset: str = "all") -> float:
    """Fraction of sections with an explicit header marker (§2 statistic)."""
    with_marker = 0
    total = 0
    for engine_id in engine_ids(subset):
        engine = make_engine(engine_id)
        for spec in engine.sections:
            total += 1
            if spec.has_header or engine.shared_table:
                with_marker += 1
    return with_marker / total if total else 0.0
