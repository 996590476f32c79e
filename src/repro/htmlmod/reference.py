"""The reference HTML parser: the standard library's ``html.parser``
driving :class:`repro.htmlmod.parser.TreeBuilder`.

A test oracle only, as the reference kernels are: the tests and
``benchmarks/bench_kernels.py`` compare :func:`parse_html_reference`
with :func:`repro.htmlmod.parser.parse_html`, whose scanner follows
``html.parser`` as of CPython 3.11.7, by :func:`dom_outline`.  Nothing
in the program imports this module.  Later patch releases of
``html.parser`` read some malformed markup differently, and on an
unknown ``<![`` section it raises ``AssertionError`` where
:func:`parse_html` recovers.
"""

from __future__ import annotations

from html.parser import HTMLParser
from typing import List, Optional, Tuple

from repro.htmlmod.dom import Comment, Document, Element, Node, Text
from repro.htmlmod.parser import TreeBuilder


def _attributes(attrs: List[Tuple[str, Optional[str]]]) -> List[Tuple[str, str]]:
    return [(name.lower(), "" if value is None else value) for name, value in attrs]


class ReferenceParser(HTMLParser):
    """Forwards every ``html.parser`` callback to one :class:`TreeBuilder`."""

    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self.builder = TreeBuilder()

    def handle_starttag(self, tag: str, attrs: List[Tuple[str, Optional[str]]]) -> None:
        self.builder.start_tag(tag.lower(), _attributes(attrs), False)

    def handle_startendtag(self, tag: str, attrs: List[Tuple[str, Optional[str]]]) -> None:
        self.builder.start_tag(tag.lower(), _attributes(attrs), True)

    def handle_endtag(self, tag: str) -> None:
        self.builder.end_tag(tag.lower())

    def handle_data(self, data: str) -> None:
        self.builder.text(data)

    def handle_comment(self, data: str) -> None:
        self.builder.comment(data)

    def handle_decl(self, decl: str) -> None:
        self.builder.doctype = decl


def parse_html_reference(markup: str) -> Document:
    """Parse ``markup`` with ``html.parser`` into a :class:`Document`."""
    parser = ReferenceParser()
    parser.feed(markup)
    parser.close()
    return parser.builder.finish()


def dom_outline(document: Document) -> List[str]:
    """A document's structure, one line per node in pre-order.

    The first line is the doctype.  Each node's line is indented two
    spaces per level: an element as ``<tag name='value' ...>`` with its
    attributes in order, a text node as the ``repr`` of its data, a
    comment as ``#comment`` and the ``repr`` of its data.  Unlike
    ``serialize()`` this shows text-node boundaries: ``a < b`` is three
    text nodes, and the builder's whitespace rule depends on them.
    Raises ``AssertionError`` if a node's ``parent`` link does not name
    the element whose children hold it.
    """
    lines = [f"#doctype {document.doctype!r}"]
    stack: List[Tuple[Node, Optional[Element], int]] = [(document.root, None, 0)]
    while stack:
        node, parent, depth = stack.pop()
        if node.parent is not parent:
            raise AssertionError(f"{node!r} has a broken parent link")
        pad = "  " * depth
        if isinstance(node, Element):
            attrs = "".join(f" {name}={value!r}" for name, value in node.attrs.items())
            lines.append(f"{pad}<{node.tag}{attrs}>")
            stack.extend((child, node, depth + 1) for child in reversed(node.children))
        elif isinstance(node, Text):
            lines.append(f"{pad}{node.data!r}")
        elif isinstance(node, Comment):
            lines.append(f"{pad}#comment {node.data!r}")
    return lines
