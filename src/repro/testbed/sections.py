"""Section rendering styles for the synthetic corpus.

Each style turns a list of :class:`RecordData` into DOM, mimicking a
family of 2006-era result page layouts.  Ground-truth markers are written
as ``data-gt-*`` attributes:

- ``data-gt-sec="<sid>"`` on the element that contains exactly the
  section's records (most styles);
- ``data-gt-rec="<sid>:<i>"`` on each record's first element;
- ``data-gt-header="<sid>"`` / ``data-gt-bound="<sid>"`` on header /
  footer elements (used as span stoppers by the shared-table style,
  which has no per-section container);
- ``data-gt-shared="1"`` on a container shared by several sections.

The markers are invisible to the extractor: no pipeline stage reads
``data-*`` attributes, and they do not affect rendering, tag signatures,
or any distance measure (asserted by the test suite).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.htmlmod.dom import Element
from repro.testbed.documents import RecordData


@dataclass
class StyleOptions:
    """Per-engine knobs shared by all styles of that engine.

    ``inline_link_rate`` puts an anchor inside some snippets, which breaks
    anchor-based separators (a realistic record-level error source);
    ``broken_nesting_rate`` wraps a middle run of records in an extra
    ``<div>``, producing the paper's "records are not siblings" hard case.
    """

    header_tag: str = "h2"
    show_footer: bool = True
    inline_link_rate: float = 0.0
    broken_nesting_rate: float = 0.0
    record_class: str = "res"


def _header_element(text: str, sid: str, options: StyleOptions) -> Element:
    """A section header styled per the engine's convention."""
    tag = options.header_tag
    attrs = {"data-gt-header": sid}
    if tag in ("h2", "h3", "h4"):
        header = Element(tag, attrs)
        header.append_text(text)
    elif tag == "b":
        header = Element("p", attrs)
        bold = Element("b")
        bold.append_text(text)
        header.append(bold)
    elif tag == "font":
        header = Element("p", attrs)
        font = Element("font", {"size": "4", "color": "#003366"})
        bold = Element("b")
        bold.append_text(text)
        font.append(bold)
        header.append(font)
    else:
        header = Element("div", {**attrs, "class": "sechead"})
        strong = Element("strong")
        strong.append_text(text)
        header.append(strong)
    return header


def _footer_element(sid: str) -> Element:
    footer = Element("p", {"data-gt-bound": sid})
    more = Element("a", {"href": f"/more/{sid}"})
    more.append_text("Click Here for More")
    footer.append(more)
    return footer


def _title_anchor(record: RecordData) -> Element:
    anchor = Element("a", {"href": record.url})
    anchor.append_text(record.title)
    return anchor


def _snippet_nodes(
    record: RecordData, rng: random.Random, options: StyleOptions
) -> List[Element]:
    """Snippet content; sometimes contains an inline link (error source)."""
    holder = Element("span", {"class": "snip"})
    snippet = record.snippet or ""
    if options.inline_link_rate and rng.random() < options.inline_link_rate:
        words = snippet.split()
        middle = len(words) // 2
        holder.append_text(" ".join(words[:middle]) + " ")
        inline = Element("a", {"href": record.url + "#ref"})
        inline.append_text("cached")
        holder.append(inline)
        holder.append_text(" " + " ".join(words[middle:]))
    else:
        holder.append_text(snippet)
    return [holder]


class SectionStyle:
    """Base class: renders one section's records into a parent element."""

    name = "base"

    def render(
        self,
        parent: Element,
        sid: str,
        header_text: Optional[str],
        records: Sequence[RecordData],
        rng: random.Random,
        options: StyleOptions,
    ) -> None:
        """Append header (optional), record container, footer (optional)."""
        if header_text is not None:
            parent.append(_header_element(header_text, sid, options))
        self.render_records(parent, sid, records, rng, options)
        if options.show_footer and len(records) >= 3:
            parent.append(_footer_element(sid))

    def render_records(
        self,
        parent: Element,
        sid: str,
        records: Sequence[RecordData],
        rng: random.Random,
        options: StyleOptions,
    ) -> None:
        raise NotImplementedError


class UlLiStyle(SectionStyle):
    """``<ul><li>`` records: title link, meta, ``<br>``, snippet."""

    name = "ul-li"

    def render_records(self, parent, sid, records, rng, options) -> None:
        container = Element("ul", {"data-gt-sec": sid})
        wrap_from, wrap_to, wrapped = _nesting_glitch(records, rng, options, "ul")
        for i, record in enumerate(records):
            item = Element("li", {"data-gt-rec": f"{sid}:{i}"})
            item.append(_title_anchor(record))
            if record.date:
                item.append_text(f" ({record.date})")
            if record.snippet:
                item.append(Element("br"))
                for node in _snippet_nodes(record, rng, options):
                    item.append(node)
            if wrapped is not None and wrap_from <= i <= wrap_to:
                wrapped.append(item)
                if i == wrap_to:
                    container.append(wrapped)
            else:
                container.append(item)
        parent.append(container)


class TableRowStyle(SectionStyle):
    """One ``<tr>`` per record, cells for title / snippet / meta."""

    name = "table-row"

    def render_records(self, parent, sid, records, rng, options) -> None:
        table = Element("table", {"width": "90%"})
        body = Element("tbody", {"data-gt-sec": sid})
        table.append(body)
        for i, record in enumerate(records):
            row = Element("tr", {"data-gt-rec": f"{sid}:{i}"})
            cell_title = Element("td", {"width": "45%"})
            cell_title.append(_title_anchor(record))
            row.append(cell_title)
            cell_info = Element("td")
            if record.snippet:
                for node in _snippet_nodes(record, rng, options):
                    cell_info.append(node)
            elif record.source:
                cell_info.append_text(record.source)
            row.append(cell_info)
            cell_meta = Element("td", {"width": "12%"})
            meta = record.price or record.date or ""
            if meta:
                font = Element("font", {"color": "#666666", "size": "2"})
                font.append_text(meta)
                cell_meta.append(font)
            row.append(cell_meta)
            body.append(row)
        parent.append(table)


def _nesting_glitch(records, rng, options: StyleOptions, tag: str):
    """Decide whether a middle run of records nests one level deeper.

    Returns ``(first, last, wrapper)``; wrapper is None when no glitch is
    applied.  This produces the paper's "records whose tag structures are
    not siblings" hard case — the wrapped records cannot be separated by a
    top-level child separator.
    """
    if (
        options.broken_nesting_rate
        and len(records) >= 6
        and rng.random() < options.broken_nesting_rate
    ):
        return 1, 2, Element(tag, {"class": "grouped"})
    return -1, -1, None


class DivStyle(SectionStyle):
    """``<div class=res>`` records: title, snippet, green URL line."""

    name = "div"

    def render_records(self, parent, sid, records, rng, options) -> None:
        container = Element("div", {"data-gt-sec": sid, "class": "results"})
        wrap_from, wrap_to, wrapped = _nesting_glitch(records, rng, options, "div")

        for i, record in enumerate(records):
            block = Element(
                "div", {"data-gt-rec": f"{sid}:{i}", "class": options.record_class}
            )
            block.append(_title_anchor(record))
            if record.snippet:
                block.append(Element("br"))
                for node in _snippet_nodes(record, rng, options):
                    block.append(node)
            url_line = Element("font", {"color": "green", "size": "2"})
            url_line.append_text(record.url)
            block.append(Element("br"))
            block.append(url_line)
            if wrapped is not None and wrap_from <= i <= wrap_to:
                wrapped.append(block)
                if i == wrap_to:
                    container.append(wrapped)
            else:
                container.append(block)
        parent.append(container)


class DlStyle(SectionStyle):
    """``<dl>``: ``<dt>`` title + ``<dd>`` snippet per record."""

    name = "dl"

    def render_records(self, parent, sid, records, rng, options) -> None:
        container = Element("dl", {"data-gt-sec": sid})
        for i, record in enumerate(records):
            term = Element("dt", {"data-gt-rec": f"{sid}:{i}"})
            term.append(_title_anchor(record))
            if record.date:
                term.append_text(f" - {record.date}")
            container.append(term)
            if record.snippet:
                detail = Element("dd")
                for node in _snippet_nodes(record, rng, options):
                    detail.append(node)
                container.append(detail)
        parent.append(container)


class FlatBrStyle(SectionStyle):
    """Flat ``<a>...<br>...`` records with no per-record wrapper element."""

    name = "flat-br"

    def render_records(self, parent, sid, records, rng, options) -> None:
        container = Element("div", {"data-gt-sec": sid})
        for i, record in enumerate(records):
            anchor = _title_anchor(record)
            anchor.attrs["data-gt-rec"] = f"{sid}:{i}"
            container.append(anchor)
            if record.date:
                container.append_text(f" ({record.date})")
            container.append(Element("br"))
            if record.snippet:
                container.append_text(record.snippet)
                container.append(Element("br"))
            url_line = Element("font", {"color": "green", "size": "2"})
            url_line.append_text(record.url)
            container.append(url_line)
            container.append(Element("br"))
        parent.append(container)


class ParagraphStyle(SectionStyle):
    """One ``<p>`` per record."""

    name = "paragraph"

    def render_records(self, parent, sid, records, rng, options) -> None:
        container = Element("div", {"data-gt-sec": sid})
        wrap_from, wrap_to, wrapped = _nesting_glitch(records, rng, options, "div")
        for i, record in enumerate(records):
            block = Element("p", {"data-gt-rec": f"{sid}:{i}"})
            block.append(_title_anchor(record))
            if record.snippet:
                block.append(Element("br"))
                for node in _snippet_nodes(record, rng, options):
                    block.append(node)
            if record.date:
                small = Element("small")
                small.append_text(f" [{record.date}]")
                block.append(small)
            if wrapped is not None and wrap_from <= i <= wrap_to:
                wrapped.append(block)
                if i == wrap_to:
                    container.append(wrapped)
            else:
                container.append(block)
        parent.append(container)


class NestedTableStyle(SectionStyle):
    """Each record is its own small ``<table>`` (rich tag forests)."""

    name = "nested-table"

    def render_records(self, parent, sid, records, rng, options) -> None:
        container = Element("div", {"data-gt-sec": sid})
        for i, record in enumerate(records):
            table = Element(
                "table", {"data-gt-rec": f"{sid}:{i}", "width": "80%"}
            )
            body = Element("tbody")
            table.append(body)
            row_title = Element("tr")
            cell_title = Element("td")
            bold = Element("b")
            bold.append(_title_anchor(record))
            cell_title.append(bold)
            row_title.append(cell_title)
            body.append(row_title)
            if record.snippet:
                row_snip = Element("tr")
                cell_snip = Element("td")
                for node in _snippet_nodes(record, rng, options):
                    cell_snip.append(node)
                row_snip.append(cell_snip)
                body.append(row_snip)
            container.append(table)
        parent.append(container)


#: All concrete styles, in a stable order for seeded selection.
ALL_STYLES: List[SectionStyle] = [
    UlLiStyle(),
    TableRowStyle(),
    DivStyle(),
    DlStyle(),
    FlatBrStyle(),
    ParagraphStyle(),
    NestedTableStyle(),
]
