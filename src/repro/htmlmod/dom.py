"""A small DOM for HTML documents.

Only the features the extraction pipeline needs are implemented: an
ordered, labelled tree of elements / text / comments with parent links,
pre-order traversal, attribute access, and structural utilities (subtree
size, index paths).  The tree is deliberately mutable so the test-bed
generators can assemble pages programmatically.
"""

from __future__ import annotations

import re
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Tuple, Union

_WHITESPACE_RE = re.compile(r"\s+")


def collapse_whitespace(text: str) -> str:
    """Collapse runs of whitespace to single spaces and strip the ends.

    This mirrors how browsers render HTML text outside ``<pre>``.
    """
    return _WHITESPACE_RE.sub(" ", text).strip()


class Node:
    """Base class for all DOM nodes."""

    __slots__ = ("parent",)

    def __init__(self) -> None:
        self.parent: Optional[Element] = None

    # -- tree geometry ---------------------------------------------------
    def ancestors(self) -> Iterator["Element"]:
        """Yield ancestors from the immediate parent up to the root."""
        node = self.parent
        while node is not None:
            yield node
            node = node.parent

    def root(self) -> "Node":
        """Return the root node of the tree containing this node."""
        node: Node = self
        while node.parent is not None:
            node = node.parent
        return node

    # -- content ----------------------------------------------------------
    def text_content(self) -> str:
        """All descendant text, whitespace-collapsed."""
        return ""

    def subtree_size(self) -> int:
        """Number of nodes in the subtree rooted here (including self)."""
        return 1


class Text(Node):
    """A text node."""

    __slots__ = ("data",)

    def __init__(self, data: str) -> None:
        super().__init__()
        self.data = data

    def text_content(self) -> str:
        return collapse_whitespace(self.data)

    def __repr__(self) -> str:
        preview = collapse_whitespace(self.data)
        if len(preview) > 30:
            preview = preview[:27] + "..."
        return f"Text({preview!r})"


class Comment(Node):
    """An HTML comment node (ignored by rendering)."""

    __slots__ = ("data",)

    def __init__(self, data: str) -> None:
        super().__init__()
        self.data = data

    def __repr__(self) -> str:
        return f"Comment({self.data[:30]!r})"


class Element(Node):
    """An element node with a tag name, attributes, and ordered children."""

    __slots__ = ("tag", "attrs", "children")

    def __init__(
        self,
        tag: str,
        attrs: Optional[Union[Mapping[str, str], Iterable[Tuple[str, str]]]] = None,
        children: Optional[Iterable[Node]] = None,
    ) -> None:
        super().__init__()
        self.tag = tag.lower()
        self.attrs: Dict[str, str] = dict(attrs) if attrs else {}
        self.children: List[Node] = []
        if children:
            for child in children:
                self.append(child)

    # -- mutation ---------------------------------------------------------
    def append(self, child: Node) -> Node:
        """Append ``child`` and set its parent pointer.  Returns the child."""
        if child.parent is not None:
            child.parent.remove(child)
        child.parent = self
        self.children.append(child)
        return child

    def insert(self, index: int, child: Node) -> Node:
        """Insert ``child`` at ``index``.  Returns the child."""
        if child.parent is not None:
            child.parent.remove(child)
        child.parent = self
        self.children.insert(index, child)
        return child

    def remove(self, child: Node) -> None:
        """Detach ``child`` from this element."""
        self.children.remove(child)
        child.parent = None

    def append_text(self, data: str) -> Text:
        """Convenience: append a text node."""
        text = Text(data)
        self.append(text)
        return text

    # -- attribute access --------------------------------------------------
    def get(self, name: str, default: str = "") -> str:
        """Return attribute ``name`` (lowercase key), or ``default``."""
        return self.attrs.get(name, default)

    @property
    def classes(self) -> Tuple[str, ...]:
        """The element's class list."""
        return tuple(self.attrs.get("class", "").split())

    # -- traversal ----------------------------------------------------------
    def iter(self) -> Iterator[Node]:
        """Pre-order traversal of the subtree rooted here (including self)."""
        stack: List[Node] = [self]
        while stack:
            node = stack.pop()
            yield node
            if isinstance(node, Element):
                stack.extend(reversed(node.children))

    def iter_elements(self) -> Iterator["Element"]:
        """Pre-order traversal yielding only elements."""
        for node in self.iter():
            if isinstance(node, Element):
                yield node

    def iter_texts(self) -> Iterator[Text]:
        """Pre-order traversal yielding only text nodes."""
        for node in self.iter():
            if isinstance(node, Text):
                yield node

    def find(self, tag: str) -> Optional["Element"]:
        """First descendant element (or self) with the given tag name."""
        for element in self.iter_elements():
            if element.tag == tag:
                return element
        return None

    def find_all(self, tag: str) -> List["Element"]:
        """All descendant elements (or self) with the given tag name."""
        return [e for e in self.iter_elements() if e.tag == tag]

    def child_elements(self) -> List["Element"]:
        """Direct children that are elements."""
        return [c for c in self.children if isinstance(c, Element)]

    # -- content --------------------------------------------------------------
    def text_content(self) -> str:
        parts: List[str] = []
        for text in self.iter_texts():
            cleaned = text.text_content()
            if cleaned:
                parts.append(cleaned)
        return " ".join(parts)

    def subtree_size(self) -> int:
        return 1 + sum(child.subtree_size() for child in self.children)

    def tag_signature(self) -> Tuple:
        """A nested-tuple encoding of the subtree's tag structure.

        Text and comments are ignored; the signature captures only element
        tags and their nesting, which is what tag-structure comparisons in
        the paper operate on.
        """
        return (self.tag,) + tuple(
            child.tag_signature() for child in self.children if isinstance(child, Element)
        )

    def __repr__(self) -> str:
        attrs = "".join(f" {k}={v!r}" for k, v in self.attrs.items())
        return f"<{self.tag}{attrs} children={len(self.children)}>"


class Document:
    """A parsed HTML document: a root ``<html>`` element plus metadata."""

    __slots__ = ("root", "doctype")

    def __init__(self, root: Element, doctype: str = "") -> None:
        self.root = root
        self.doctype = doctype

    @property
    def body(self) -> Element:
        """The document body (created on demand if missing)."""
        body = self.root.find("body")
        if body is None:
            body = Element("body")
            self.root.append(body)
        return body

    @property
    def head(self) -> Optional[Element]:
        """The document head, if present."""
        return self.root.find("head")

    @property
    def title(self) -> str:
        """The document title, whitespace-collapsed ('' if absent)."""
        head = self.head
        if head is not None:
            title = head.find("title")
            if title is not None:
                return title.text_content()
        return ""

    def iter(self) -> Iterator[Node]:
        """Pre-order traversal of the whole document."""
        return self.root.iter()

    def __repr__(self) -> str:
        return f"Document(title={self.title!r}, nodes={self.root.subtree_size()})"
