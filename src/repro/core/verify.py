"""Wrapper verification and drift detection.

The paper's applications (metasearch, deep-web crawling) apply a wrapper
for a long time after induction; when the engine redesigns its result
pages, extraction silently degrades.  This module scores how healthy a
wrapper's output looks on a page, so callers can trigger re-induction —
the "automatic maintenance of metasearch engines" loop of §1.

Checks, each contributing to a [0, 1] health score:

- **coverage** — the wrapper extracted at least one section, and a
  plausible fraction of the page's content lines belongs to records;
- **count plausibility** — per-schema record counts near the induction-
  time typical counts (within a generous band; result counts genuinely
  vary by query);
- **record homogeneity** — records inside each section still look like
  one another (mean inter-record distance under a threshold);
- **marker agreement** — boundary markers found where the wrapper
  expects them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.model import SectionInstance
from repro.core.wrapper import EngineWrapper, render_result_page
from repro.features.cohesion import inter_record_distance
from repro.features.record_distance import RecordDistanceCache
from repro.htmlmod.dom import Document, Element
from repro.obs import NULL_OBSERVER, ObserverLike
from repro.perf.fingerprints import ATTR_INTERNER
from repro.perf.kernels import DINR_MEMO

#: mean Drec above which a section's records no longer cohere
HOMOGENEITY_LIMIT = 0.45

#: acceptable ratio band of extracted records vs induction-time typical
COUNT_BAND = (0.2, 5.0)


@dataclass(frozen=True)
class SectionHealth:
    """Per-schema health outcome for one page."""

    schema_id: str
    found: bool
    record_count: int = 0
    typical_records: int = 0
    homogeneity: float = 0.0  # mean inter-record distance (0 = identical)
    marker_hit: bool = False

    @property
    def count_plausible(self) -> bool:
        """Record count within the acceptable band of the typical count."""
        if not self.typical_records:
            return True
        ratio = self.record_count / self.typical_records
        return COUNT_BAND[0] <= ratio <= COUNT_BAND[1]

    @property
    def homogeneous(self) -> bool:
        """Records still cohere (mean Drec under the drift limit)."""
        return self.homogeneity <= HOMOGENEITY_LIMIT

    @property
    def checks(self) -> Dict[str, bool]:
        """Per-check breakdown: which individual checks passed.

        The keys mirror the module docstring's check list; health reports
        embed this dict so a drifted wrapper shows *which* check failed.
        """
        return {
            "found": self.found,
            "homogeneous": self.homogeneous,
            "count_plausible": self.count_plausible,
            "marker_hit": self.marker_hit,
        }

    @property
    def healthy(self) -> bool:
        if not self.found:
            return False
        if not self.homogeneous:
            return False
        return self.count_plausible


@dataclass(frozen=True)
class WrapperHealth:
    """Aggregate wrapper health on one page."""

    sections: Tuple[SectionHealth, ...]
    score: float

    @property
    def drifted(self) -> bool:
        """True when re-induction is advisable."""
        return self.score < 0.5

    @property
    def metrics(self) -> Dict[str, float]:
        """Machine-readable per-check metric breakdown for this page.

        The fractions aggregate the per-section :attr:`SectionHealth.checks`
        over all schemas, so a trajectory of these dicts attributes a
        health regression to the check that started failing.
        """
        n = len(self.sections)
        if n == 0:
            return {
                "score": self.score,
                "sections": 0,
                "found_rate": 0.0,
                "healthy_rate": 0.0,
                "homogeneous_rate": 0.0,
                "count_plausible_rate": 0.0,
                "marker_hit_rate": 0.0,
                "marker_hit_found_rate": 0.0,
                "mean_homogeneity": 0.0,
            }
        found = [s for s in self.sections if s.found]
        return {
            "score": self.score,
            "sections": n,
            "found_rate": len(found) / n,
            "healthy_rate": sum(s.healthy for s in self.sections) / n,
            "homogeneous_rate": sum(s.homogeneous for s in self.sections) / n,
            "count_plausible_rate": sum(s.count_plausible for s in self.sections) / n,
            "marker_hit_rate": sum(s.marker_hit for s in self.sections) / n,
            # Marker agreement among the sections that *were* found: a
            # legitimately absent section cannot hit its markers, so the
            # all-sections rate above dips on every sparse query; this
            # rate only moves when located sections lose their markers —
            # the cleanest template-drift signal the monitor watches.
            "marker_hit_found_rate": (
                sum(s.marker_hit for s in found) / len(found) if found else 0.0
            ),
            "mean_homogeneity": (
                sum(s.homogeneity for s in found) / len(found) if found else 0.0
            ),
        }

    def to_obj(self) -> Dict[str, Any]:
        """The machine-readable health document (``check --json``, events).

        Schema: ``{"score", "drifted", "metrics", "sections": [{"schema",
        "status", "record_count", "typical_records", "homogeneity",
        "checks"}]}`` — everything the human-readable ``check`` output
        prints, as JSON for monitors and CI to consume.
        """
        sections = []
        for section in self.sections:
            status = (
                "ok"
                if section.healthy
                else ("absent" if not section.found else "suspect")
            )
            sections.append(
                {
                    "schema": section.schema_id,
                    "status": status,
                    "record_count": section.record_count,
                    "typical_records": section.typical_records,
                    "homogeneity": section.homogeneity,
                    "checks": section.checks,
                }
            )
        return {
            "score": self.score,
            "drifted": self.drifted,
            "metrics": self.metrics,
            "sections": sections,
        }


def check_wrapper(
    engine: EngineWrapper,
    markup_or_document: Union[str, Document],
    query: str = "",
    obs: ObserverLike = NULL_OBSERVER,
) -> WrapperHealth:
    """Assess wrapper health against one result page.

    Sections legitimately absent for a query lower the score only
    mildly; structural mismatches (found-but-incoherent sections, wild
    record counts) lower it hard.
    """
    with obs.span("check"):
        page = render_result_page(markup_or_document, query, obs=obs)
        applications = engine.apply(page, obs=obs)
        return health_from_applications(
            engine, applications.wrapper_instances, obs=obs
        )


def _section_dinr_key(
    config: Any, instance: SectionInstance
) -> Optional[Tuple[Any, ...]]:
    """A process-wide memo key determining a section's Dinr exactly.

    Every record fingerprint — and hence every pairwise Drec and their
    mean — is a deterministic function of (a) the per-line visual
    features over the section's line span, (b) the section subtree's
    tag structure together with where each rendered leaf falls among
    those lines, and (c) the records' line boundaries within the span.
    Capturing exactly those three (plus the config) lets the serving
    loop skip re-deriving per-record tag forests and fingerprints when
    it has met the same section line-up before.  Unrenderable children
    are omitted: they influence neither the forests (``span_forest``
    filters to elements, and element children are always captured) nor
    the line features.

    Returns None when the section has no locatable subtree (the caller
    then computes Dinr directly).
    """
    records = instance.records
    page = records[0].page
    start = records[0].start
    end = records[-1].end
    root = page.span_subtree(start, end)
    if root is None:
        return None
    leaf_line = page.leaf_line_map()

    def node_key(node: Element) -> Tuple[Any, ...]:
        children: List[Any] = []
        for child in node.children:
            if isinstance(child, Element):
                children.append(node_key(child))
            else:
                line = leaf_line.get(id(child))
                if line is not None:
                    children.append(line - start)
        own = leaf_line.get(id(node))
        return (
            node.tag,
            -1 if own is None else own - start,
            tuple(children),
        )

    mask = ATTR_INTERNER.mask
    line_features = tuple(
        (line.line_type, line.position, mask(line.attrs))
        for line in page.lines[start : end + 1]
    )
    boundaries = tuple((r.start - start, r.end - start) for r in records)
    return (config, node_key(root), line_features, boundaries)


def health_from_applications(
    engine: EngineWrapper,
    instances: Sequence[Optional[SectionInstance]],
    obs: ObserverLike = NULL_OBSERVER,
) -> WrapperHealth:
    """Score per-wrapper application results into a :class:`WrapperHealth`.

    ``instances`` is aligned with ``engine.wrappers`` — one (possibly
    None) :class:`SectionInstance` per section wrapper, the
    ``wrapper_instances`` of :meth:`EngineWrapper.apply`.
    :func:`check_wrapper` is exactly render + apply + this function; the
    serving path reuses the same applications for extraction *and*
    health, so both stay bit-identical by construction.
    """
    cache = RecordDistanceCache(engine.config)
    outcomes: List[SectionHealth] = []
    for wrapper, instance in zip(engine.wrappers, instances):
        if instance is None:
            outcomes.append(
                SectionHealth(schema_id=wrapper.schema_id, found=False)
            )
            continue
        memo_key = (
            _section_dinr_key(engine.config, instance)
            if len(instance.records) >= 2
            else None
        )
        memoized = DINR_MEMO.get(memo_key) if memo_key is not None else None
        if memoized is not None:
            homogeneity = memoized
        else:
            homogeneity = inter_record_distance(
                instance.records, engine.config, cache
            )
            if memo_key is not None:
                DINR_MEMO.store(memo_key, homogeneity)
        outcomes.append(
            SectionHealth(
                schema_id=wrapper.schema_id,
                found=True,
                record_count=len(instance.records),
                typical_records=wrapper.typical_records,
                homogeneity=homogeneity,
                marker_hit=instance.score >= 1.0,
            )
        )

    obs.count("check.cache.hits", cache.hits)
    obs.count("check.cache.misses", cache.misses)
    if not outcomes:
        obs.count("check.pages_drifted")
        return WrapperHealth(sections=(), score=0.0)

    score = 0.0
    for health in outcomes:
        obs.count("check.sections")
        if health.healthy:
            score += 1.0
            obs.count("check.sections_healthy")
        elif not health.found:
            score += 0.4  # absence can be legitimate (query dependence)
            obs.count("check.sections_absent")
        else:
            obs.count("check.sections_suspect")
    score /= len(outcomes)
    health = WrapperHealth(sections=tuple(outcomes), score=score)
    if health.drifted:
        obs.count("check.pages_drifted")
    return health


def check_wrapper_on_pages(
    engine: EngineWrapper, pages: List[Tuple[str, str]]
) -> float:
    """Mean health score over several (markup, query) pages."""
    if not pages:
        return 0.0
    total = sum(check_wrapper(engine, markup, query).score for markup, query in pages)
    return total / len(pages)
