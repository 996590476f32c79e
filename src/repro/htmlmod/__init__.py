"""HTML substrate: scanner and tree builder, DOM, serializer.

This package replaces lxml / BeautifulSoup (not available offline) with a
purpose-built parser whose output is exactly the tree structure the MSE
pipeline consumes.  :func:`parse_html` is one scanning loop that reads
markup as the standard library's ``html.parser`` 3.11.7 does (save
where :mod:`repro.htmlmod.parser` says) and drives the tree builder
directly; ``html.parser`` itself appears only in
:mod:`repro.htmlmod.reference`, the test oracle, which this package does
not import.
"""

from repro.htmlmod.dom import Comment, Document, Element, Node, Text, collapse_whitespace
from repro.htmlmod.parser import (
    MAX_NESTING_DEPTH,
    VOID_ELEMENTS,
    NestingDepthError,
    parse_html,
)
from repro.htmlmod.serializer import serialize, serialize_node

__all__ = [
    "Comment",
    "Document",
    "Element",
    "MAX_NESTING_DEPTH",
    "NestingDepthError",
    "Node",
    "Text",
    "collapse_whitespace",
    "parse_html",
    "serialize",
    "serialize_node",
    "VOID_ELEMENTS",
]
