"""Matching extracted sections against ground truth.

Implements the paper's §6 grading: an extracted section is **perfect**
when its record set equals the ground-truth record set exactly (all
records extracted, none incorrect); **partially correct** when it matches
a ground-truth section and more than 60% of that section's records are
extracted; anything else is a false extraction.  Matching is one-to-one,
greedy by line-span overlap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Set, Tuple

from repro.core.model import ExtractedSection, PageExtraction
from repro.testbed.groundtruth import PageTruth, TruthSection

#: Minimum span Jaccard for an extracted section to match a truth section.
MATCH_OVERLAP = 0.5

#: The paper's partial-correctness record-recall threshold.
PARTIAL_RECORD_FRACTION = 0.6

Span = Tuple[int, int]


def span_overlap(a: Span, b: Span) -> int:
    """Number of shared lines between two inclusive spans."""
    return max(0, min(a[1], b[1]) - max(a[0], b[0]) + 1)


def span_jaccard(a: Span, b: Span) -> float:
    """Line-level Jaccard similarity of two inclusive spans."""
    intersection = span_overlap(a, b)
    union = (a[1] - a[0] + 1) + (b[1] - b[0] + 1) - intersection
    return intersection / union if union else 0.0


@dataclass(frozen=True)
class SectionMatch:
    """One extracted section graded against its matched truth section."""

    extracted: ExtractedSection
    truth: Optional[TruthSection]
    correct_records: int

    @property
    def perfect(self) -> bool:
        """All truth records extracted, no incorrect records."""
        if self.truth is None:
            return False
        return (
            self.correct_records == self.truth.record_count
            and len(self.extracted.records) == self.truth.record_count
        )

    @property
    def partial(self) -> bool:
        """Matched, >60% of records extracted, but not perfect."""
        if self.truth is None or self.perfect:
            return False
        if self.truth.record_count == 0:
            return False
        return self.correct_records / self.truth.record_count > PARTIAL_RECORD_FRACTION


@dataclass
class PageGrade:
    """All matches for one page, plus the unmatched truth sections."""

    matches: List[SectionMatch]
    missed_truth: List[TruthSection]

    @property
    def perfect_count(self) -> int:
        return sum(1 for m in self.matches if m.perfect)

    @property
    def partial_count(self) -> int:
        return sum(1 for m in self.matches if m.partial)


def _count_correct_records(extracted: ExtractedSection, truth: TruthSection) -> int:
    truth_spans: Set[Span] = set(truth.record_spans)
    return sum(1 for record in extracted.records if record.line_span in truth_spans)


def grade_page(extraction: PageExtraction, truth: PageTruth) -> PageGrade:
    """Greedy one-to-one matching of extracted sections to truth sections."""
    candidates: List[Tuple[float, int, int]] = []
    for e_index, extracted in enumerate(extraction.sections):
        for t_index, truth_section in enumerate(truth.sections):
            similarity = span_jaccard(extracted.line_span, truth_section.span)
            if similarity >= MATCH_OVERLAP:
                candidates.append((similarity, e_index, t_index))
    candidates.sort(reverse=True)

    matched_e: Set[int] = set()
    matched_t: Set[int] = set()
    assignment: dict = {}
    for similarity, e_index, t_index in candidates:
        if e_index in matched_e or t_index in matched_t:
            continue
        matched_e.add(e_index)
        matched_t.add(t_index)
        assignment[e_index] = t_index

    matches: List[SectionMatch] = []
    for e_index, extracted in enumerate(extraction.sections):
        t_index = assignment.get(e_index)
        if t_index is None:
            matches.append(SectionMatch(extracted, None, 0))
        else:
            truth_section = truth.sections[t_index]
            matches.append(
                SectionMatch(
                    extracted,
                    truth_section,
                    _count_correct_records(extracted, truth_section),
                )
            )

    missed = [
        truth_section
        for t_index, truth_section in enumerate(truth.sections)
        if t_index not in matched_t
    ]
    return PageGrade(matches=matches, missed_truth=missed)
