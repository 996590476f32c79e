"""Tag paths with C/S direction nodes (paper §4.1).

A *tag path* locates a node in a DOM tree as a sequence of path nodes,
each a tag name plus a direction: ``C`` (the next node on the path is the
first child) or ``S`` (the next node is the next sibling).  The example in
the paper::

    {HTML}C{HEAD}S{BODY}C{TABLE}S{TABLE}S{TABLE}C{TBODY}C...

descends from HTML to its first child HEAD, steps sideways to BODY,
descends to the first TABLE, steps sideways twice to the third TABLE, and
so on.

The *compact tag path* keeps only the C nodes (the actual ancestor chain)
together with the number of S steps taken before each descent.  Two
compact paths are **compatible** iff their C-node tag sequences are equal,
and the distance between compatible paths is Formula 1::

    Dtp = sum_i |sn1_i - sn2_i| / max(total_S_1, total_S_2)

where ``sn_i`` is the S count before the i-th C node.

Only *element* siblings count as S steps — text nodes are not tag nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Set, Tuple

from repro.htmlmod.dom import Element, Node, Text


@dataclass(frozen=True)
class PathStep:
    """One compact-path level: descend into ``tag`` after ``s_count`` S steps.

    ``s_count`` is the element-index of the target among its parent's
    element children (0 = first element child).
    """

    tag: str
    s_count: int

    def __str__(self) -> str:
        return f"{{{self.tag}}}@{self.s_count}"


class TagPath:
    """A compact tag path: the C-node chain from the root to a node."""

    __slots__ = ("steps",)

    def __init__(self, steps: Iterable[PathStep]) -> None:
        self.steps: Tuple[PathStep, ...] = tuple(steps)

    # -- construction ------------------------------------------------------
    @classmethod
    def to_node(cls, node: Node) -> "TagPath":
        """The compact tag path from the tree root down to ``node``.

        For a text node the path ends at its parent element (the paper's
        paths always terminate in a tag node).
        """
        target: Optional[Element]
        if isinstance(node, Text):
            target = node.parent
        elif isinstance(node, Element):
            target = node
        else:
            target = node.parent
        if target is None:
            raise ValueError("cannot compute a tag path for a detached node")

        chain: List[Element] = [target]
        chain.extend(a for a in target.ancestors())
        chain.reverse()  # root ... target

        steps: List[PathStep] = [PathStep(chain[0].tag, 0)]
        for parent, child in zip(chain, chain[1:]):
            s_count = 0
            for sibling in parent.children:
                if sibling is child:
                    break
                if isinstance(sibling, Element):
                    s_count += 1
            steps.append(PathStep(child.tag, s_count))
        return cls(steps)

    # -- basic accessors -------------------------------------------------------
    @property
    def c_tags(self) -> Tuple[str, ...]:
        """The C-node tag sequence (determines compatibility)."""
        return tuple(step.tag for step in self.steps)

    @property
    def total_s(self) -> int:
        """Total number of S steps along the whole path."""
        return sum(step.s_count for step in self.steps)

    def __len__(self) -> int:
        return len(self.steps)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, TagPath) and self.steps == other.steps

    def __hash__(self) -> int:
        return hash(self.steps)

    def __str__(self) -> str:
        return "/".join(str(step) for step in self.steps)

    def __repr__(self) -> str:
        return f"TagPath({self})"

    # -- comparisons ------------------------------------------------------------
    def compatible(self, other: "TagPath") -> bool:
        """True iff both paths have the same C-node tag sequence."""
        return self.c_tags == other.c_tags

    def distance(self, other: "TagPath") -> float:
        """Formula 1 distance between two *compatible* paths.

        Raises :class:`ValueError` for incompatible paths.  Two identical
        paths have distance 0; paths with no S steps at all also have
        distance 0 (the denominator degenerates).
        """
        if not self.compatible(other):
            raise ValueError("tag paths are not compatible")
        numerator = sum(
            abs(a.s_count - b.s_count) for a, b in zip(self.steps, other.steps)
        )
        denominator = max(self.total_s, other.total_s)
        if denominator == 0:
            return 0.0
        return numerator / denominator

    # -- navigation ---------------------------------------------------------------
    def resolve(self, root: Element) -> Optional[Element]:
        """Follow this path exactly from ``root``; None if it does not exist."""
        if not self.steps or root.tag != self.steps[0].tag or self.steps[0].s_count:
            return None
        node = root
        for step in self.steps[1:]:
            node = _nth_element_child(node, step.tag, step.s_count)
            if node is None:
                return None
        return node


def _nth_element_child(parent: Element, tag: str, s_count: int) -> Optional[Element]:
    """The element child at element-index ``s_count``, if it has ``tag``."""
    index = 0
    for child in parent.children:
        if isinstance(child, Element):
            if index == s_count:
                return child if child.tag == tag else None
            index += 1
    return None


class MergedTagPath:
    """A wrapper path merged from the compatible paths of section instances.

    §5.7: the ``pref`` of a section wrapper is built by merging the compact
    tag paths of the matching instances.  Levels where every instance used
    the same S count stay fixed; levels that varied become *flexible* and
    match any element child with the right tag.  Flexible levels are what
    let a wrapper find a section whose absolute position shifted because a
    preceding section grew or vanished.
    """

    __slots__ = ("tags", "fixed_counts", "observed_counts")

    def __init__(
        self,
        tags: Sequence[str],
        fixed_counts: Sequence[Optional[int]],
        observed_counts: Sequence[Set[int]],
    ) -> None:
        if not (len(tags) == len(fixed_counts) == len(observed_counts)):
            raise ValueError("merged path components must have equal length")
        self.tags: Tuple[str, ...] = tuple(tags)
        self.fixed_counts: Tuple[Optional[int], ...] = tuple(fixed_counts)
        self.observed_counts: Tuple[Set[int], ...] = tuple(set(s) for s in observed_counts)

    @classmethod
    def merge(cls, paths: Sequence[TagPath]) -> "MergedTagPath":
        """Merge compatible tag paths into one flexible wrapper path."""
        if not paths:
            raise ValueError("cannot merge an empty list of paths")
        first = paths[0]
        for other in paths[1:]:
            if not first.compatible(other):
                raise ValueError("cannot merge incompatible tag paths")
        tags = first.c_tags
        fixed: List[Optional[int]] = []
        observed: List[Set[int]] = []
        for level in range(len(tags)):
            counts = {path.steps[level].s_count for path in paths}
            observed.append(counts)
            fixed.append(counts.pop() if len(counts) == 1 else None)
            if fixed[-1] is not None:
                observed[-1] = {fixed[-1]}
        return cls(tags, fixed, observed)

    def __len__(self) -> int:
        return len(self.tags)

    def __str__(self) -> str:
        parts = []
        for tag, count in zip(self.tags, self.fixed_counts):
            parts.append(f"{{{tag}}}@{'*' if count is None else count}")
        return "/".join(parts)

    def __repr__(self) -> str:
        return f"MergedTagPath({self})"

    def matches(self, path: TagPath, slack: int = 0) -> bool:
        """Whether a concrete path conforms to this merged pattern.

        ``slack`` relaxes fixed levels by +-slack S steps, which tolerates
        small template drift on unseen pages.
        """
        if path.c_tags != self.tags:
            return False
        for step, fixed in zip(path.steps, self.fixed_counts):
            if fixed is not None and abs(step.s_count - fixed) > slack:
                return False
        return True

    def find(self, root: Element, slack: int = 0) -> List[Element]:
        """All elements under ``root`` matching this pattern.

        Fixed levels follow their S count (within ``slack``); flexible
        levels try every element child with the expected tag.  Results are
        in document order.
        """
        if not self.tags or root.tag != self.tags[0]:
            return []
        frontier: List[Element] = [root]
        for level in range(1, len(self.tags)):
            tag = self.tags[level]
            fixed = self.fixed_counts[level]
            next_frontier: List[Element] = []
            for node in frontier:
                index = 0
                for child in node.children:
                    if not isinstance(child, Element):
                        continue
                    if child.tag == tag:
                        if fixed is None or abs(index - fixed) <= slack:
                            next_frontier.append(child)
                    index += 1
            frontier = next_frontier
            if not frontier:
                break
        return frontier

    def find_with_slack(
        self, root: Element, slack: int
    ) -> Tuple[List[Element], List[Element]]:
        """``(find(root, 0), find(root, slack))`` in a single traversal.

        The slack walk subsumes the exact walk (every exact match is a
        slack match), so one BFS carrying an is-exact flag per frontier
        entry replaces the two traversals callers used to run back to
        back.  Both result lists are in document order and element-wise
        identical to the corresponding :meth:`find` calls.
        """
        if not self.tags or root.tag != self.tags[0]:
            return [], []
        # (node, matched exactly so far) — exact matches stay a prefix-
        # closed subset of the slack frontier.
        frontier: List[Tuple[Element, bool]] = [(root, True)]
        for level in range(1, len(self.tags)):
            tag = self.tags[level]
            fixed = self.fixed_counts[level]
            next_frontier: List[Tuple[Element, bool]] = []
            for node, exact in frontier:
                index = 0
                for child in node.children:
                    if not isinstance(child, Element):
                        continue
                    if child.tag == tag:
                        if fixed is None:
                            next_frontier.append((child, exact))
                        elif abs(index - fixed) <= slack:
                            next_frontier.append(
                                (child, exact and index == fixed)
                            )
                    index += 1
            frontier = next_frontier
            if not frontier:
                break
        return (
            [node for node, exact in frontier if exact],
            [node for node, _ in frontier],
        )
