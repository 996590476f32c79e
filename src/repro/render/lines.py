"""Content lines and rendered pages (paper §4.2).

A *content line* is a group of characters that visually form one
horizontal line on the rendered page.  Each carries the visual features
the paper's measures consume — type code, position code (left x), and the
set of text attributes — plus links back into the DOM so tag-structure
features (tag paths, tag forests) can be computed for any span of lines.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.htmlmod.dom import Document, Element, Node, Text
from repro.render.linetypes import LineType
from repro.render.styles import TextAttr
from repro.tagpath.paths import TagPath

#: span-cache sentinel distinguishing "not computed" from "no lines"
_UNKNOWN_SPAN: Any = object()


@dataclass
class ContentLine:
    """One rendered horizontal line of content."""

    number: int
    text: str
    line_type: LineType
    position: int
    attrs: FrozenSet[TextAttr]
    width: int
    leaves: Tuple[Node, ...]
    #: text with dynamic components removed; filled in by DSE cleaning
    cleaned: str = ""

    _tag_path: Optional[TagPath] = field(default=None, repr=False, compare=False)

    @property
    def tag_path(self) -> TagPath:
        """Compact tag path to the line's first leaf (cached)."""
        if self._tag_path is None:
            self._tag_path = TagPath.to_node(self.leaves[0])
        return self._tag_path

    def __str__(self) -> str:
        preview = self.text if len(self.text) <= 50 else self.text[:47] + "..."
        return (
            f"[{self.number:3d}] x={self.position:<4d} "
            f"{self.line_type.name:<10s} {preview!r}"
        )


class RenderedPage:
    """A document plus its content lines, with DOM <-> line mapping."""

    def __init__(self, document: Document, lines: Sequence[ContentLine]) -> None:
        self.document = document
        self.lines: List[ContentLine] = list(lines)
        self._leaf_to_line: Dict[int, int] = {}
        for line in self.lines:  # lint: allow PERF01 -- one-pass leaf->line map build, linear in page leaves; element spans then resolve by early-exit leaf searches instead of subtree walks
            for leaf in line.leaves:
                self._leaf_to_line[id(leaf)] = line.number
        #: element id -> its line span (see line_range_of_element)
        self._spans: Dict[int, Optional[Tuple[int, int]]] = {}

    def __len__(self) -> int:
        return len(self.lines)

    def __getitem__(self, index: int) -> ContentLine:
        return self.lines[index]

    def leaf_line_map(self) -> Dict[int, int]:
        """The ``id(leaf) -> line number`` map backing the DOM<->line links.

        Exposed (read-only by convention) for callers that key whole
        subtrees by where their rendered leaves fall, such as the
        section-homogeneity memo key of :mod:`repro.core.verify`.
        """
        return self._leaf_to_line

    def line_range_of_element(self, element: Element) -> Optional[Tuple[int, int]]:
        """The [first, last] line numbers covered by an element, if any.

        Computed once per element and cached on the page: wrapper
        application asks for the same candidate and child spans many
        times per page.  The element must belong to this page's
        document, which is never mutated after rendering.
        """
        spans = self._spans
        key = id(element)
        found = spans.get(key, _UNKNOWN_SPAN)
        if found is _UNKNOWN_SPAN:
            found = spans[key] = _dom_span(element, self._leaf_to_line)
        return found

    # -- tag-structure helpers -----------------------------------------------
    def span_forest(self, start: int, end: int) -> List[Element]:
        """The tag forest of lines ``start..end`` inclusive.

        Finds the deepest element containing every leaf of the span and
        returns the consecutive run of its children that covers the span.
        This is the "tag forest underneath a record/section" of §4.1.
        """
        span_lines = self.lines[start : end + 1]
        first_leaf: Optional[Node] = None
        last_leaf: Optional[Node] = None
        for line in span_lines:
            if line.leaves:
                if first_leaf is None:
                    first_leaf = line.leaves[0]
                last_leaf = line.leaves[-1]
        if first_leaf is None or last_leaf is None:
            return []
        # Rendering walks the DOM pre-order, so the span's leaves are in
        # document order, and every subtree covers a contiguous run of
        # them.  The deepest element containing all span leaves therefore
        # equals the deepest common ancestor of the *first and last* leaf
        # alone, and those two leaves' holders (the direct child of the
        # ancestor on each one's path) bound the child run — no per-leaf
        # collection or per-sibling subtree scans needed.
        first_chain = _ancestor_chain(first_leaf)
        if last_leaf is first_leaf:
            last_chain = first_chain
        else:
            last_chain = _ancestor_chain(last_leaf)
        shortest = min(len(first_chain), len(last_chain))
        depth_found = -1
        for depth in range(shortest):
            if first_chain[depth] is last_chain[depth]:
                depth_found = depth
            else:
                break
        if depth_found < 0:
            return []
        ancestor = first_chain[depth_found]

        def holder_of(leaf: Node, chain: List[Element]) -> Node:
            return (
                chain[depth_found + 1]
                if len(chain) > depth_found + 1
                else leaf
            )

        first_holder = holder_of(first_leaf, first_chain)
        last_holder = holder_of(last_leaf, last_chain)
        first_index = last_index = None
        for i, child in enumerate(ancestor.children):
            if first_index is None and child is first_holder:
                first_index = i
            if child is last_holder:
                last_index = i
        if first_index is None or last_index is None or first_index > last_index:
            # Degenerate span (a holder is the ancestor itself, e.g. an
            # element leaf acting as its own container): fall back to
            # bounding the run over every leaf's holder.
            leaves: List[Node] = []
            for line in span_lines:
                leaves.extend(line.leaves)
            first_index = last_index = None
            for leaf in leaves:
                chain = _ancestor_chain(leaf)
                holder = holder_of(leaf, chain)
                for i, child in enumerate(ancestor.children):
                    if child is holder:
                        if first_index is None or i < first_index:
                            first_index = i
                        if last_index is None or i > last_index:
                            last_index = i
                        break
        if first_index is None or last_index is None:
            return []
        forest = [
            child
            for child in ancestor.children[first_index : last_index + 1]
            if isinstance(child, Element)
        ]
        if not forest:
            # All leaves are direct text children of the ancestor (e.g. a
            # bare title line inside an <a>): the forest degenerates to
            # the ancestor element itself.
            return [ancestor]
        return forest

    def span_subtree(self, start: int, end: int) -> Optional[Element]:
        """The minimum subtree containing lines ``start..end`` inclusive.

        By the document-order invariant (rendering walks the DOM
        pre-order, so subtrees cover contiguous leaf runs) the deepest
        common ancestor of *all* span leaves equals that of the first
        and last alone — two ancestor chains instead of one per leaf.
        """
        first_leaf: Optional[Node] = None
        last_leaf: Optional[Node] = None
        for line in self.lines[start : end + 1]:
            if line.leaves:
                if first_leaf is None:
                    first_leaf = line.leaves[0]
                last_leaf = line.leaves[-1]
        if first_leaf is None or last_leaf is None:
            return None
        return deepest_common_ancestor((first_leaf, last_leaf))

    def dump(self) -> str:
        """A human-readable rendering of the content lines (for examples)."""
        return "\n".join(str(line) for line in self.lines)


def _dom_span(
    root: Element, leaf_line: Dict[int, int]
) -> Optional[Tuple[int, int]]:
    """An element's line span in two early-exit leaf searches.

    Rendering walks the DOM pre-order, so rendered-leaf line numbers are
    non-decreasing in document order: the element's span is the line of
    its *first* rendered leaf and the line of its *last* one — found by
    a forward and a backward pre-order scan that each stop at the first
    mapped node — instead of a min/max over the whole subtree.  An
    element that is itself a rendered leaf precedes its descendants in
    document order, so it bounds ``lo`` but never ``hi``.
    """
    lo: Optional[int] = None
    stack: List[Node] = [root]
    while stack:
        node = stack.pop()
        found = leaf_line.get(id(node))
        if found is not None:
            lo = found
            break
        if isinstance(node, Element):
            stack.extend(reversed(node.children))
    if lo is None:
        return None
    hi: Optional[int] = None
    back: List[Tuple[Node, bool]] = [(root, False)]
    while back:
        node, expanded = back.pop()
        if not expanded and isinstance(node, Element) and node.children:
            back.append((node, True))  # the element itself, after its subtree
            back.extend((child, False) for child in node.children)
            continue
        found = leaf_line.get(id(node))
        if found is not None:
            hi = found
            break
    assert hi is not None  # the forward scan found a rendered leaf
    return (lo, hi)


def _ancestor_chain(node: Node) -> List[Element]:
    """The node's element ancestry, root first (itself included if one)."""
    out: List[Element] = []
    if isinstance(node, Element):
        out.append(node)
    out.extend(node.ancestors())
    out.reverse()  # root first
    return out


def deepest_common_ancestor(nodes: Sequence[Node]) -> Optional[Element]:
    """The deepest element that is an ancestor of every node in ``nodes``.

    A node that is itself an element counts as its own ancestor.
    """
    if not nodes:
        return None

    chains = [_ancestor_chain(node) for node in nodes]
    shortest = min(len(c) for c in chains)
    ancestor: Optional[Element] = None
    for depth in range(shortest):
        candidate = chains[0][depth]
        if all(c[depth] is candidate for c in chains):
            ancestor = candidate
        else:
            break
    return ancestor
