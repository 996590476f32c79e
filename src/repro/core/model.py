"""Shared data model of the MSE pipeline.

Internal pipeline objects (:class:`SectionInstance`) are line-span views
over rendered pages; the user-facing extraction results
(:class:`ExtractedSection` etc.) are plain data detached from the
pipeline's internals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.features.blocks import Block
from repro.render.lines import ContentLine, RenderedPage


@dataclass
class SectionInstance:
    """One section on one rendered page, as seen by the pipeline.

    ``block`` is the section's full line span; ``records`` partition that
    span (once mining has run).  ``lbm``/``rbm`` are the line numbers of
    the boundary-marker content lines (which are *outside* the block).
    ``origin`` records which stage produced the instance — useful in tests
    and ablations.
    """

    page: RenderedPage
    block: Block
    records: List[Block] = field(default_factory=list)
    lbm: Optional[int] = None
    rbm: Optional[int] = None
    origin: str = ""
    #: extraction confidence (boundary-marker agreement); used to resolve
    #: overlapping claims between wrappers at extraction time
    score: float = 0.0

    @property
    def start(self) -> int:
        return self.block.start

    @property
    def end(self) -> int:
        return self.block.end

    @property
    def lbm_line(self) -> Optional[ContentLine]:
        """The left boundary marker content line, if identified."""
        return self.page.lines[self.lbm] if self.lbm is not None else None

    @property
    def rbm_line(self) -> Optional[ContentLine]:
        """The right boundary marker content line, if identified."""
        return self.page.lines[self.rbm] if self.rbm is not None else None

    def record_spans(self) -> List[Tuple[int, int]]:
        """The (start, end) line spans of the records."""
        return [(r.start, r.end) for r in self.records]

    def __repr__(self) -> str:
        return (
            f"SectionInstance[{self.start}..{self.end}] "
            f"records={len(self.records)} origin={self.origin!r}"
        )


@dataclass(frozen=True)
class ExtractedRecord:
    """One extracted search result record."""

    #: whitespace-collapsed text of each member content line
    lines: Tuple[str, ...]
    #: (first, last) content-line numbers on the source page
    line_span: Tuple[int, int]

    @property
    def text(self) -> str:
        """The record's full text."""
        return " / ".join(line for line in self.lines if line)


@dataclass(frozen=True)
class ExtractedSection:
    """One extracted dynamic section with its records, in page order."""

    records: Tuple[ExtractedRecord, ...]
    #: (first, last) content-line numbers of the section body
    line_span: Tuple[int, int]
    #: text of the left / right boundary markers ('' when absent)
    lbm_text: str = ""
    rbm_text: str = ""
    #: identifier of the section schema the wrapper attributed this to;
    #: family-extracted hidden sections get family ids
    schema_id: str = ""

    def __len__(self) -> int:
        return len(self.records)


@dataclass(frozen=True)
class PageExtraction:
    """All dynamic sections extracted from one result page, in page order.

    The section-record relationship the paper insists on is preserved:
    records are grouped under their sections rather than flattened.
    """

    sections: Tuple[ExtractedSection, ...]

    def __len__(self) -> int:
        return len(self.sections)

    @property
    def record_count(self) -> int:
        """Total records across all sections."""
        return sum(len(section) for section in self.sections)


def section_to_extracted(instance: SectionInstance, schema_id: str = "") -> ExtractedSection:
    """Convert a pipeline section instance to the user-facing form."""
    records = tuple(
        ExtractedRecord(
            lines=tuple(line.text for line in record.lines),
            line_span=(record.start, record.end),
        )
        for record in instance.records
    )
    lbm = instance.lbm_line
    rbm = instance.rbm_line
    return ExtractedSection(
        records=records,
        line_span=(instance.start, instance.end),
        lbm_text=lbm.text if lbm is not None else "",
        rbm_text=rbm.text if rbm is not None else "",
        schema_id=schema_id,
    )
