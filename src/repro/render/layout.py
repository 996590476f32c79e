"""A deterministic layout engine: DOM -> content lines.

Approximates the browser rendering step of the paper (step 1 of MSE): a
pre-order walk of the DOM in which block-level boundaries and ``<br>``
delimit content lines.  Each line receives the visual features §4.2
defines — type code, position code (left x coordinate) and the set of
text attributes of its runs.

The model:

- the viewport is 800 px wide; the body has an 8 px margin;
- block elements (``div``, ``p``, ``li``, ``td``, headings, ...) start a
  new line; inline elements continue the current one;
- lists, ``blockquote`` and ``dd`` indent by 40 px; table cells are offset
  by the widths of their preceding cells (``width`` attributes, with a
  default column width when unspecified); ``margin-left``/``padding-left``
  inline CSS also indents;
- ``<hr>`` emits an HR line; images and form controls are inline items
  that determine the line's type code;
- ``display:none`` subtrees, ``<head>``, ``<script>`` and ``<style>`` are
  not rendered.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.htmlmod.dom import Comment, Document, Element, Node, Text, collapse_whitespace
from repro.render.fonts import text_width
from repro.render.linetypes import LineType
from repro.render.lines import ContentLine, RenderedPage
from repro.render.styles import TextAttr, apply_element_style, default_attr, parse_inline_style

VIEWPORT_WIDTH = 800
BODY_MARGIN = 8
LIST_INDENT = 40
DEFAULT_COLUMN_WIDTH = 120

#: Elements that establish a new line before and after their content.
BLOCK_ELEMENTS = frozenset(
    {
        "address", "blockquote", "center", "dd", "div", "dl", "dt",
        "fieldset", "form", "h1", "h2", "h3", "h4", "h5", "h6", "li",
        "ol", "p", "pre", "table", "tbody", "td", "tfoot", "th", "thead",
        "tr", "ul", "caption",
    }
)

#: Elements never rendered.
INVISIBLE_ELEMENTS = frozenset(
    {"head", "script", "style", "title", "meta", "link", "base", "noscript", "map"}
)

_HEADINGS = frozenset({"h1", "h2", "h3", "h4", "h5", "h6"})
_FORM_CONTROLS = frozenset({"input", "select", "textarea", "button"})


class _InlineItem:
    """One inline contribution to the current line."""

    __slots__ = ("kind", "text", "attr", "leaf", "in_link")

    def __init__(
        self, kind: str, text: str, attr: TextAttr, leaf: Node, in_link: bool
    ) -> None:
        self.kind = kind  # 'text' | 'image' | 'form'
        self.text = text
        self.attr = attr
        self.leaf = leaf
        self.in_link = in_link


class _Renderer:
    def __init__(self) -> None:
        self.lines: List[ContentLine] = []
        self._items: List[_InlineItem] = []
        self._line_x: Optional[int] = None
        self._heading_depth = 0
        self._link_depth = 0

    # -- line assembly ----------------------------------------------------
    def _flush(self) -> None:
        items = self._items
        if not items:
            self._line_x = None
            return
        self._items = []
        line_x = self._line_x if self._line_x is not None else BODY_MARGIN
        self._line_x = None

        text = collapse_whitespace(" ".join(i.text for i in items if i.text))
        has_image = any(i.kind == "image" for i in items)
        has_form = any(i.kind == "form" for i in items)
        if not text and not has_image and not has_form:
            return

        line_type = self._classify(items, text, has_image, has_form)
        attrs = frozenset(i.attr for i in items if i.kind == "text" and i.text.strip())
        if not attrs:
            attrs = frozenset({items[0].attr})
        width = int(
            sum(
                text_width(i.text, i.attr) if i.kind == "text" else 80
                for i in items
            )
        )
        leaves = tuple(i.leaf for i in items)
        self.lines.append(
            ContentLine(
                number=len(self.lines),
                text=text,
                line_type=line_type,
                position=line_x,
                attrs=attrs,
                width=width,
                leaves=leaves,
            )
        )

    def _classify(
        self, items: List[_InlineItem], text: str, has_image: bool, has_form: bool
    ) -> LineType:
        text_items = [i for i in items if i.kind == "text" and i.text.strip()]
        has_link_text = any(i.in_link for i in text_items)
        has_plain_text = any(not i.in_link for i in text_items)
        in_heading = any(i.attr.size >= 14 and i.attr.bold for i in text_items)

        if has_form:
            return LineType.FORM
        if has_image and not text:
            return LineType.IMAGE
        if has_image:
            return LineType.IMAGE_TEXT
        if self._heading_flag and text:
            return LineType.HEADING
        if has_link_text and has_plain_text:
            return LineType.LINK_TEXT
        if has_link_text:
            return LineType.LINK
        if in_heading:
            return LineType.HEADING
        return LineType.TEXT

    def _add_item(self, item: _InlineItem, x: int) -> None:
        if self._line_x is None:
            self._line_x = x
        self._items.append(item)

    # -- traversal ------------------------------------------------------------
    def walk(self, element: Element, attr: TextAttr, x: int) -> None:
        self._heading_flag = False
        self._walk_children(element, attr, x)
        self._flush()

    def _walk_children(self, element: Element, attr: TextAttr, x: int) -> None:
        for child in element.children:
            if isinstance(child, Text):
                if child.data:
                    self._add_item(
                        _InlineItem("text", child.data, attr, child, self._link_depth > 0),
                        x,
                    )
            elif isinstance(child, Element):
                self._walk_element(child, attr, x)
            # Comments are skipped.

    def _walk_element(self, element: Element, attr: TextAttr, x: int) -> None:
        tag = element.tag
        if tag in INVISIBLE_ELEMENTS:
            return
        css = parse_inline_style(element.get("style")) if element.get("style") else {}
        if css.get("display") == "none":
            return

        if tag == "br":
            self._flush()
            return
        if tag == "hr":
            self._flush()
            self.lines.append(
                ContentLine(
                    number=len(self.lines),
                    text="",
                    line_type=LineType.HR,
                    position=x,
                    attrs=frozenset({attr}),
                    width=VIEWPORT_WIDTH - 2 * x,
                    leaves=(element,),
                )
            )
            return
        if tag == "img":
            self._add_item(_InlineItem("image", "", attr, element, self._link_depth > 0), x)
            return
        if tag in _FORM_CONTROLS:
            if tag == "select":
                # Options are collapsed into the control; not walked.
                label = element.get("name", "")
            else:
                label = element.get("value", "")
            self._add_item(_InlineItem("form", label, attr, element, False), x)
            return

        child_attr = apply_element_style(attr, tag, element.attrs)
        child_x = x + _indent_delta(element, css)

        is_block = tag in BLOCK_ELEMENTS
        if is_block:
            self._flush()
        if tag in _HEADINGS:
            self._heading_flag = True
        if tag == "a" and "href" in element.attrs:
            self._link_depth += 1

        if tag == "tr":
            self._walk_table_row(element, child_attr, child_x)
        else:
            self._walk_children(element, child_attr, child_x)

        if tag == "a" and "href" in element.attrs:
            self._link_depth -= 1
        if is_block:
            self._flush()
        if tag in _HEADINGS:
            self._heading_flag = False

    def _walk_table_row(self, row: Element, attr: TextAttr, x: int) -> None:
        offset = 0
        for child in row.children:
            if isinstance(child, Element) and child.tag in ("td", "th"):
                self._flush()
                cell_css = (
                    parse_inline_style(child.get("style")) if child.get("style") else {}
                )
                cell_attr = apply_element_style(attr, child.tag, child.attrs)
                cell_x = x + offset + _indent_delta(child, cell_css)
                self._walk_children(child, cell_attr, cell_x)
                self._flush()
                offset += _cell_width(child)
            elif isinstance(child, Element):
                self._walk_element(child, attr, x)
            elif isinstance(child, Text) and child.data.strip():
                self._add_item(_InlineItem("text", child.data, attr, child, False), x)


def _cell_width(cell: Element) -> int:
    raw = cell.get("width").strip()
    if raw.endswith("%"):
        try:
            return int(VIEWPORT_WIDTH * float(raw[:-1]) / 100.0)
        except ValueError:
            return DEFAULT_COLUMN_WIDTH
    try:
        return int(float(raw))
    except ValueError:
        return DEFAULT_COLUMN_WIDTH


def _indent_delta(element: Element, css: dict) -> int:
    delta = 0
    tag = element.tag
    if tag in ("ul", "ol", "blockquote", "dd"):
        delta += LIST_INDENT
    for prop in ("margin-left", "padding-left"):
        value = css.get(prop)
        if value and value.endswith("px"):
            try:
                delta += int(float(value[:-2]))
            except ValueError:
                pass
    return delta


def render_page(document: Document) -> RenderedPage:
    """Render a document into content lines (MSE step 1)."""
    renderer = _Renderer()
    renderer.walk(document.body, default_attr(), BODY_MARGIN)
    return RenderedPage(document, renderer.lines)
