"""Section wrappers and the engine-level wrapper (paper §5.7).

A section wrapper is the quaternion ⟨pref, seps, LBMs, RBMs⟩:

- ``pref`` — a merged compact tag path locating the minimum subtree that
  holds the section's records; levels whose S counts varied across the
  sample instances are flexible;
- ``seps`` — the record separator rule partitioning the subtree into
  records (``child-start:<tag>``, ``per-child`` or ``whole``);
- ``LBMs`` / ``RBMs`` — the observed (cleaned) boundary-marker texts plus
  their line text attributes (attributes feed section families, §5.8).

:class:`EngineWrapper` holds the ordered wrapper list (and section
families once built) for one search engine and applies them to new
result pages.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from bisect import bisect_left, bisect_right
from typing import (
    TYPE_CHECKING,
    Dict,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.core.dse import clean_page_lines
from repro.core.grouping import InstanceGroup
from repro.core.mining import separator_tag_of
from repro.core.model import (
    ExtractedRecord,
    ExtractedSection,
    PageExtraction,
    SectionInstance,
    section_to_extracted,
)
from repro.features.blocks import Block
from repro.features.config import DEFAULT_CONFIG, FeatureConfig
from repro.htmlmod.dom import Document, Element
from repro.htmlmod.parser import parse_html
from repro.obs import NULL_OBSERVER, ObserverLike
from repro.render.layout import render_page
from repro.render.lines import ContentLine, RenderedPage
from repro.render.styles import TextAttr
from repro.tagpath.paths import MergedTagPath, TagPath

if TYPE_CHECKING:
    from repro.core.family import SectionFamily

#: How far a fixed pref level may drift on an unseen page (S steps).
POSITION_SLACK = 2


@dataclass(frozen=True)
class SeparatorRule:
    """How a section subtree's lines partition into records."""

    kind: str  # 'child-start' | 'per-child' | 'whole'
    tag: str = ""

    def __str__(self) -> str:
        return f"{self.kind}:{self.tag}" if self.tag else self.kind


@dataclass
class SectionWrapper:
    """Extraction rules for one section schema."""

    schema_id: str
    pref: MergedTagPath
    separator: SeparatorRule
    lbm_texts: Set[str] = field(default_factory=set)
    rbm_texts: Set[str] = field(default_factory=set)
    lbm_attrs: FrozenSet[TextAttr] = frozenset()
    rbm_attrs: FrozenSet[TextAttr] = frozenset()
    record_attrs: FrozenSet[TextAttr] = frozenset()
    #: typical records seen at induction time (sanity range at extraction)
    typical_records: int = 0
    #: whether the boundary markers lie *inside* the pref subtree (the
    #: shared-container structure of Figure 10) — a Type 1 family
    #: precondition (§5.8)
    markers_inside: bool = False

    def __repr__(self) -> str:
        return (
            f"SectionWrapper({self.schema_id}, pref={self.pref}, "
            f"sep={self.separator}, lbm={sorted(self.lbm_texts)!r})"
        )


def _majority(values: Sequence[str]) -> Optional[str]:
    filtered = [v for v in values if v]
    if not filtered:
        return None
    return Counter(filtered).most_common(1)[0][0]


def _marker_features(
    instances: Sequence[SectionInstance], side: str
) -> Tuple[Set[str], FrozenSet[TextAttr]]:
    """Majority-vote boundary-marker texts and their attribute set."""
    texts: List[str] = []
    attrs: List[FrozenSet[TextAttr]] = []
    for instance in instances:
        line = instance.lbm_line if side == "left" else instance.rbm_line
        if line is None:
            continue
        text = line.cleaned or line.text.lower().strip()
        if not text:
            continue  # an HR or image marker has no usable text
        texts.append(text)
        attrs.append(line.attrs)
    if not texts:
        return set(), frozenset()
    winner = Counter(texts).most_common(1)[0][0]
    winner_attrs = [a for t, a in zip(texts, attrs) if t == winner]
    return set(texts), winner_attrs[0] if winner_attrs else frozenset()


def build_section_wrapper(
    group: InstanceGroup,
    schema_id: str,
    config: FeatureConfig = DEFAULT_CONFIG,
    obs: ObserverLike = NULL_OBSERVER,
) -> Optional[SectionWrapper]:
    """Build a wrapper from one section instance group (§5.7).

    Returns None when no two instances have compatible subtree paths (no
    reliable pref can be merged — the paper's problematic-DOM case).
    """
    paths: List[TagPath] = []
    instances: List[SectionInstance] = []
    for instance in group.instances:
        subtree = instance.page.span_subtree(instance.start, instance.end)
        if subtree is None:
            continue
        paths.append(TagPath.to_node(subtree))
        instances.append(instance)
    if not paths:
        obs.count("wrapper.no_pref")
        return None

    # Merge the largest compatible subset of paths.
    buckets: Dict[Tuple[str, ...], List[int]] = {}
    for index, path in enumerate(paths):
        buckets.setdefault(path.c_tags, []).append(index)
    best_indexes = max(buckets.values(), key=len)
    if len(best_indexes) < 2:
        obs.count("wrapper.no_pref")
        return None
    merged = MergedTagPath.merge([paths[i] for i in best_indexes])
    kept = [instances[i] for i in best_indexes]

    separator = _derive_separator(kept)
    lbm_texts, lbm_attrs = _marker_features(kept, "left")
    rbm_texts, rbm_attrs = _marker_features(kept, "right")
    record_attrs = frozenset(
        attr
        for instance in kept
        for record in instance.records
        for line in record.lines
        for attr in line.attrs
    )
    typical = round(
        sum(len(instance.records) for instance in kept) / len(kept)
    )

    inside_votes = 0
    for instance in kept:
        subtree = instance.page.span_subtree(instance.start, instance.end)
        if subtree is None or instance.lbm is None:
            continue
        subtree_span = instance.page.line_range_of_element(subtree)
        if subtree_span and subtree_span[0] <= instance.lbm <= subtree_span[1]:
            inside_votes += 1

    return SectionWrapper(
        schema_id=schema_id,
        pref=merged,
        separator=separator,
        lbm_texts=lbm_texts,
        rbm_texts=rbm_texts,
        lbm_attrs=lbm_attrs,
        rbm_attrs=rbm_attrs,
        record_attrs=record_attrs,
        typical_records=typical,
        markers_inside=inside_votes > len(kept) / 2,
    )


def _derive_separator(instances: Sequence[SectionInstance]) -> SeparatorRule:
    tags = [separator_tag_of(instance.records) for instance in instances]
    winner = _majority([t for t in tags if t])
    if winner:
        return SeparatorRule("child-start", winner)
    if all(len(instance.records) == 1 for instance in instances):
        return SeparatorRule("whole")
    return SeparatorRule("per-child")


# ---------------------------------------------------------------------------
# Wrapper application
# ---------------------------------------------------------------------------


def render_result_page(
    markup_or_document: Union[str, Document],
    query: str = "",
    obs: ObserverLike = NULL_OBSERVER,
) -> RenderedPage:
    """Parse, render and clean one result page for wrapper application.

    ``markup_or_document`` may be an HTML string or a parsed
    :class:`Document`; ``query`` is the query string that produced the
    page (its terms are cleaned out of semi-dynamic boundary markers).
    Raises :class:`repro.htmlmod.NestingDepthError` on markup nested
    past the parser's budget.  The ``render`` span holds one child span
    per layer: ``parse`` (markup only), ``layout`` and ``clean``.
    """
    with obs.span("render"):
        if isinstance(markup_or_document, Document):
            document = markup_or_document
        else:
            with obs.span("parse"):
                document = parse_html(markup_or_document)
        with obs.span("layout"):
            page = render_page(document)
        with obs.span("clean"):
            clean_page_lines(page, query.split())
        obs.count("render.lines", len(page.lines))
    return page


def partition_subtree_records(
    page: RenderedPage, subtree: Element, separator: SeparatorRule
) -> List[Block]:
    """Partition a located section subtree into record blocks."""
    span = page.line_range_of_element(subtree)
    if span is None:
        return []
    start, end = span
    if separator.kind == "whole":
        return [Block(page, start, end)]

    boundaries: List[int] = []
    for child in subtree.children:
        if not isinstance(child, Element):
            continue
        child_span = page.line_range_of_element(child)
        if child_span is None:
            continue
        if separator.kind == "per-child" or child.tag == separator.tag:
            boundaries.append(child_span[0])

    usable = sorted({b for b in boundaries if start < b <= end})
    blocks: List[Block] = []
    current = start
    for boundary in usable:
        blocks.append(Block(page, current, boundary - 1))
        current = boundary
    blocks.append(Block(page, current, end))

    # With a child-start separator, a leading stub before the first
    # separator child is template residue, not a record.
    if separator.kind == "child-start" and boundaries:
        first_sep = min(boundaries)
        blocks = [b for b in blocks if b.end >= first_sep]
        if blocks and blocks[0].start < first_sep:
            blocks[0] = Block(page, first_sep, blocks[0].end)
    return blocks


def _candidate_score(
    wrapper: SectionWrapper, page: RenderedPage, subtree: Element
) -> float:
    """Rank pref candidates by boundary-marker agreement."""
    span = page.line_range_of_element(subtree)
    if span is None:
        return float("-inf")
    start, end = span
    score = 0.0
    before = page.lines[start - 1] if start - 1 >= 0 else None
    after = page.lines[end + 1] if end + 1 < len(page.lines) else None
    if before is not None and wrapper.lbm_texts:
        if (before.cleaned or before.text.lower()) in wrapper.lbm_texts:
            score += 1.0
        elif before.attrs == wrapper.lbm_attrs and wrapper.lbm_attrs:
            score += 0.5
    if after is not None and wrapper.rbm_texts:
        if (after.cleaned or after.text.lower()) in wrapper.rbm_texts:
            score += 1.0
        elif after.attrs == wrapper.rbm_attrs and wrapper.rbm_attrs:
            score += 0.5
    return score


def apply_section_wrapper(
    wrapper: SectionWrapper, page: RenderedPage
) -> Optional[SectionInstance]:
    """Apply one section wrapper to a rendered page.

    Returns the best-scoring candidate section, or None when the schema
    has no instance on this page.
    """
    # One traversal finds both the exact and the slack-relaxed candidate
    # sets; exact matches win when any exist (identical to running the
    # exact pass first and falling back to a second slack pass).
    exact, slacked = wrapper.pref.find_with_slack(
        page.document.root, POSITION_SLACK
    )
    candidates = exact if exact else slacked
    if not candidates:
        return None

    scored = [
        (_candidate_score(wrapper, page, subtree), -index, subtree)
        for index, subtree in enumerate(candidates)
    ]
    scored.sort()
    best_score, _, best = scored[-1]
    if len(candidates) > 1 and best_score <= 0.0:
        # Multiple positions fit the path but none shows the schema's
        # boundary markers: extracting would be guessing.
        return None

    records = partition_subtree_records(page, best, wrapper.separator)
    span = page.line_range_of_element(best)
    if span is None:
        return None
    records, lbm, rbm, marker_hits = _bound_by_markers(wrapper, page, records, span)
    if not records:
        return None
    return SectionInstance(
        page=page,
        block=Block(page, records[0].start, records[-1].end),
        records=records,
        lbm=lbm,
        rbm=rbm,
        origin=f"wrapper:{wrapper.schema_id}",
        # Verified marker hits dominate the pre-bounding candidate score:
        # they reflect the *final* section boundaries.
        score=float(marker_hits) if marker_hits else max(best_score, 0.0) * 0.5,
    )


def _bound_by_markers(
    wrapper: SectionWrapper,
    page: RenderedPage,
    records: List[Block],
    span: Tuple[int, int],
) -> Tuple[List[Block], Optional[int], Optional[int], int]:
    """Clip the record list to the wrapper's boundary markers (§5.7).

    The pref subtree can contain more than the section (its minimum
    subtree may be shared with neighbours); the LBMs/RBMs bound the
    section within it: records at or before the LBM line and at or after
    the RBM line are outside the section.
    """
    start, end = span
    lbm: Optional[int] = start - 1 if start - 1 >= 0 else None
    rbm: Optional[int] = end + 1 if end + 1 < len(page.lines) else None
    hits = 0

    def text_key(line: ContentLine) -> str:
        return line.cleaned or line.text.lower()

    if wrapper.lbm_texts:
        for number in range(max(0, start - 1), end + 1):
            if text_key(page.lines[number]) in wrapper.lbm_texts:
                lbm = number
                records = [r for r in records if r.start > number]
                hits += 1
                break
    if wrapper.rbm_texts and records:
        # The first marker occurrence after the section's first record
        # bounds it on the right (later occurrences belong to later
        # sections sharing the same marker text, e.g. "more" footers).
        for number in range(records[0].start + 1, min(len(page.lines), end + 2)):
            if text_key(page.lines[number]) in wrapper.rbm_texts:
                rbm = number
                records = [r for r in records if r.end < number]
                hits += 1
                break
    return records, lbm, rbm, hits


@dataclass
class PageApplications:
    """One page's per-schema application results.

    ``family_sections`` holds every section the families located;
    ``wrapper_instances`` is aligned with ``EngineWrapper.wrappers`` —
    every section wrapper applied on its own, the shape
    :func:`repro.core.verify.health_from_applications` scores.  A page's
    extraction and its health are both built from this one object, so
    serving with monitoring renders and applies once.
    """

    family_sections: List[Tuple[str, SectionInstance]]
    wrapper_instances: List[Optional[SectionInstance]]


class EngineWrapper:
    """The full wrapper of one search engine: ordered section wrappers
    plus section families (§5.8), applied to new result pages."""

    def __init__(
        self,
        wrappers: Sequence[SectionWrapper],
        families: Sequence["SectionFamily"] = (),
        config: FeatureConfig = DEFAULT_CONFIG,
    ) -> None:
        self.wrappers: List[SectionWrapper] = list(wrappers)
        self.families: List["SectionFamily"] = list(families)
        self.config = config

    def __repr__(self) -> str:
        return (
            f"EngineWrapper(schemas={len(self.wrappers)}, "
            f"families={len(self.families)})"
        )

    # -- application ------------------------------------------------------
    def apply(
        self, page: RenderedPage, obs: ObserverLike = NULL_OBSERVER
    ) -> PageApplications:
        """Apply every family, then every section wrapper, to one page."""
        with obs.span("families"):
            family_sections = [
                found for family in self.families for found in family.apply(page)
            ]
            obs.count("extract.family_sections", len(family_sections))
        with obs.span("wrappers"):
            wrapper_instances = [
                apply_section_wrapper(wrapper, page) for wrapper in self.wrappers
            ]
        return PageApplications(family_sections, wrapper_instances)

    def assemble(
        self, applications: PageApplications, obs: ObserverLike = NULL_OBSERVER
    ) -> PageExtraction:
        """One page's extraction from its applications.

        Family sections come first; a schema a family already located is
        not taken again from its own wrapper.  Overlapping claims are
        then resolved by :func:`_dedup_instances`.
        """
        instances = list(applications.family_sections)
        found_by_family = {schema_id for schema_id, _ in instances}
        for wrapper, found in zip(self.wrappers, applications.wrapper_instances):
            if found is not None and wrapper.schema_id not in found_by_family:
                instances.append((wrapper.schema_id, found))
        deduped = _dedup_instances(instances)
        obs.count("extract.dedup_dropped", len(instances) - len(deduped))
        deduped.sort(key=lambda item: item[1].start)
        obs.count("extract.sections", len(deduped))
        obs.count(
            "extract.records",
            sum(len(instance.records) for _, instance in deduped),
        )
        return PageExtraction(
            sections=tuple(
                section_to_extracted(instance, schema_id)
                for schema_id, instance in deduped
            )
        )

    def extract(
        self,
        markup_or_document: Union[str, Document],
        query: str = "",
        obs: ObserverLike = NULL_OBSERVER,
    ) -> PageExtraction:
        """Extract all dynamic sections and their records from a page.

        ``markup_or_document`` and ``query`` are as for
        :func:`render_result_page`.  ``obs`` is an optional
        :class:`repro.obs.Observer`: extraction runs under the spans
        ``render``, ``families`` and ``wrappers``.
        """
        page = render_result_page(markup_or_document, query, obs=obs)
        return self.assemble(self.apply(page, obs=obs), obs=obs)


def _dedup_instances(
    instances: List[Tuple[str, SectionInstance]]
) -> List[Tuple[str, SectionInstance]]:
    """Resolve overlapping claims.

    Boundary-marker-confirmed instances win over unconfirmed ones (a huge
    unconfirmed instance must not shadow a confirmed section inside it);
    among equals, instances with more records win (a coarse claim that
    sees whole sections as "records" loses to the fine reading), then
    larger sections, then earlier ones.
    """
    ordered = sorted(
        instances,
        key=lambda item: (
            -item[1].score,
            -len(item[1].records),
            -(item[1].end - item[1].start),
            item[1].start,
        ),
    )
    # Kept instances are pairwise disjoint by construction, so sorted by
    # start their ends are sorted too, and a candidate [s, e] can only
    # overlap the kept interval with the greatest start <= e: one bisect
    # replaces the all-pairs scan (winner set and order are unchanged).
    kept: List[Tuple[str, SectionInstance]] = []
    starts: List[int] = []
    ends: List[int] = []
    for schema_id, instance in ordered:
        pos = bisect_right(starts, instance.end)
        if pos > 0 and ends[pos - 1] >= instance.start:
            continue
        kept.append((schema_id, instance))
        at = bisect_left(starts, instance.start)
        starts.insert(at, instance.start)
        ends.insert(at, instance.end)
    return kept
