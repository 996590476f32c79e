"""HTML substrate: tokenizer, DOM, tree builder, serializer.

This package replaces lxml / BeautifulSoup (not available offline) with a
purpose-built parser whose output is exactly the tree structure the MSE
pipeline consumes.
"""

from repro.htmlmod.dom import Comment, Document, Element, Node, Text, collapse_whitespace
from repro.htmlmod.parser import (
    MAX_NESTING_DEPTH,
    VOID_ELEMENTS,
    NestingDepthError,
    parse_html,
)
from repro.htmlmod.serializer import serialize, serialize_node
from repro.htmlmod.tokens import tokenize

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
    "tokenize",
    "VOID_ELEMENTS",
]
