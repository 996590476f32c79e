"""Data annotation — labelling the units inside extracted records.

§1 of the paper decomposes complete extraction into section extraction,
record extraction, and *data annotation*; the paper covers the first two
and cites DeLa [24] for the third.  This module provides the third step
as a practical extension: given an extracted record (its content lines
on the rendered page), label each line with a role:

- **title** — the record's leading link/title line;
- **snippet** — descriptive plain-text lines;
- **url** — a displayed URL line (by pattern or the classic green/small
  styling);
- **date** / **price** — lines dominated by a date or price token;
- **meta** — remaining short auxiliary lines.

Roles are heuristic but deterministic, and they only consume the same
visual/line features the rest of the pipeline uses.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.model import ExtractedRecord
from repro.render.lines import ContentLine, RenderedPage
from repro.render.linetypes import LineType

_URL_RE = re.compile(r"(?:https?://|www\.)\S+", re.IGNORECASE)
_DATE_RE = re.compile(
    r"\b(?:\d{1,2}[/-]\d{1,2}[/-]\d{2,4}|\d{4}-\d{2}-\d{2})\b"
)
_PRICE_RE = re.compile(r"\$\s?\d+(?:[.,]\d{2})?")

_TITLE_TYPES = frozenset(
    {LineType.LINK, LineType.LINK_TEXT, LineType.IMAGE_TEXT, LineType.HEADING}
)


@dataclass(frozen=True)
class AnnotatedRecord:
    """An extracted record with per-line roles and extracted fields."""

    record: ExtractedRecord
    #: role of each member line, aligned with ``record.lines``
    roles: Tuple[str, ...]
    #: best-effort field values pulled out of the lines
    fields: Dict[str, str] = field(default_factory=dict)

    @property
    def title(self) -> str:
        return self.fields.get("title", "")

    @property
    def snippet(self) -> str:
        return self.fields.get("snippet", "")

    @property
    def url(self) -> str:
        return self.fields.get("url", "")


def _classify_line(line_text: str, line: Optional[ContentLine], index: int) -> str:
    if line is not None and line.line_type == LineType.HR:
        return "meta"
    stripped = line_text.strip()
    if not stripped:
        return "meta"
    url_match = _URL_RE.search(stripped)
    if url_match is not None and len(stripped) <= 120:
        # A line that is mostly a URL is a displayed-URL line.
        url = url_match.group(0)
        if len(url) >= 0.6 * len(stripped):
            return "url"
    without_date = _DATE_RE.sub("", stripped)
    if len(without_date.strip()) <= 0.4 * len(stripped):
        return "date"
    without_price = _PRICE_RE.sub("", stripped)
    if len(without_price.strip()) <= 0.4 * len(stripped):
        return "price"
    if index == 0 and line is not None and line.line_type in _TITLE_TYPES:
        return "title"
    if index == 0 and line is None:
        return "title"  # no visual info: lead line is the best title guess
    if line is not None and line.line_type == LineType.TEXT and len(stripped) >= 20:
        return "snippet"
    if line is None and len(stripped) >= 20:
        return "snippet"
    return "meta"


def annotate_record(
    record: ExtractedRecord, page: Optional[RenderedPage] = None
) -> AnnotatedRecord:
    """Label one record's lines.

    When the source ``page`` is supplied, the line type codes sharpen the
    classification; without it, annotation falls back to text patterns.
    """
    roles: List[str] = []
    for offset, text in enumerate(record.lines):
        line = None
        if page is not None:
            number = record.line_span[0] + offset
            if 0 <= number < len(page.lines):
                line = page.lines[number]
        roles.append(_classify_line(text, line, offset))

    fields: Dict[str, str] = {}
    for role, text in zip(roles, record.lines):
        if not text:
            continue
        if role == "title" and "title" not in fields:
            fields["title"] = text
        elif role == "snippet":
            fields["snippet"] = (
                (fields.get("snippet", "") + " " + text).strip()
            )
        elif role == "url" and "url" not in fields:
            match = _URL_RE.search(text)
            fields["url"] = match.group(0) if match else text
        elif role == "date" and "date" not in fields:
            match = _DATE_RE.search(text)
            fields["date"] = match.group(0) if match else text
        elif role == "price" and "price" not in fields:
            match = _PRICE_RE.search(text)
            fields["price"] = match.group(0) if match else text
    if "title" not in fields and record.lines:
        fields["title"] = record.lines[0]

    # Inline dates/prices inside the title are worth surfacing too.
    if "date" not in fields:
        match = _DATE_RE.search(record.text)
        if match:
            fields["date"] = match.group(0)
    if "price" not in fields:
        match = _PRICE_RE.search(record.text)
        if match:
            fields["price"] = match.group(0)

    return AnnotatedRecord(record=record, roles=tuple(roles), fields=fields)
