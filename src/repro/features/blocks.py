"""Blocks: consecutive content-line spans (paper §4.2).

"One or more consecutive content lines form a block"; any search result
record on a rendered page is a block.  A :class:`Block` is a view over a
``RenderedPage`` line span carrying the derived visual features (block
type code, block shape, block text attributes) and, lazily, the tag
forest underneath it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, FrozenSet, List, Optional, Sequence, Tuple

from repro.algorithms.tree_edit import OrderedTree
from repro.render.lines import ContentLine, RenderedPage
from repro.render.linetypes import LineType
from repro.render.styles import TextAttr

if TYPE_CHECKING:
    from repro.htmlmod.dom import Element
    from repro.perf.fingerprints import BlockFingerprint


class Block:
    """A consecutive span of content lines ``start..end`` (inclusive)."""

    __slots__ = ("page", "start", "end", "_elements", "_forest", "_fp")

    def __init__(self, page: RenderedPage, start: int, end: int) -> None:
        if start > end:
            raise ValueError(f"empty block: start={start} > end={end}")
        if start < 0 or end >= len(page.lines):
            raise ValueError(f"block [{start}, {end}] outside page of {len(page.lines)} lines")
        self.page = page
        self.start = start
        self.end = end
        self._elements: Optional[List["Element"]] = None
        self._forest: Optional[List[OrderedTree]] = None
        #: lazily filled by repro.perf.fingerprints.block_fingerprint
        self._fp: Optional["BlockFingerprint"] = None

    # -- identity -----------------------------------------------------------
    def __len__(self) -> int:
        return self.end - self.start + 1

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Block)
            and other.page is self.page
            and other.start == self.start
            and other.end == self.end
        )

    def __hash__(self) -> int:
        return hash((id(self.page), self.start, self.end))

    def __repr__(self) -> str:
        return f"Block[{self.start}..{self.end}]"

    # -- features --------------------------------------------------------------
    @property
    def lines(self) -> List[ContentLine]:
        """The member content lines."""
        return self.page.lines[self.start : self.end + 1]

    @property
    def type_codes(self) -> Tuple[LineType, ...]:
        """Block type code: the sequence of member line types."""
        return tuple(line.line_type for line in self.lines)

    @property
    def shape(self) -> Tuple[int, ...]:
        """Block shape: the left contour, relative to the first line.

        Relative offsets make the shape translation-invariant so that two
        records at different absolute x (e.g. in different sections)
        compare by their internal silhouette.
        """
        lines = self.lines
        base = lines[0].position
        return tuple(line.position - base for line in lines)

    @property
    def position(self) -> int:
        """The block's own position code: the left x of its first line."""
        return self.page.lines[self.start].position

    @property
    def text_attrs(self) -> Tuple[FrozenSet[TextAttr], ...]:
        """Block text attribute: the list of member line attribute sets."""
        return tuple(line.attrs for line in self.lines)

    @property
    def text(self) -> str:
        """Concatenated member text (debug/reporting)."""
        return " / ".join(line.text for line in self.lines if line.text)

    def span_elements(self) -> List["Element"]:
        """The forest's root elements (``page.span_forest``, cached)."""
        if self._elements is None:
            self._elements = self.page.span_forest(self.start, self.end)
        return self._elements

    def tag_forest(self) -> List[OrderedTree]:
        """The tag forest underneath this block (cached).

        Fingerprinting reads the forest *signatures* straight off
        :meth:`span_elements`; the :class:`OrderedTree` forms built here
        are only needed when a tree-edit dynamic program actually runs
        (a miss in every distance memo), so they stay lazy.
        """
        if self._forest is None:
            self._forest = [
                OrderedTree.from_tuple(element.tag_signature())
                for element in self.span_elements()
            ]
        return self._forest


def partition_block(block: Block, boundaries: Sequence[int]) -> List[Block]:
    """Split ``block`` at the given first-line numbers.

    ``boundaries`` are absolute line numbers that start new sub-blocks;
    the block's own start is implied.  Returns the sub-blocks in order.
    """
    starts = sorted({block.start, *boundaries})
    if starts[0] < block.start or starts[-1] > block.end:
        raise ValueError("boundaries outside the block")
    out: List[Block] = []
    for i, begin in enumerate(starts):
        finish = starts[i + 1] - 1 if i + 1 < len(starts) else block.end
        out.append(Block(block.page, begin, finish))
    return out
