"""Compact per-block feature fingerprints (the perf layer's data side).

The distance kernels of §4 compare the same block features over and over
— type-code sequences, left contours, per-line text-attribute sets and
tag forests.  A :class:`BlockFingerprint` computes each feature *once*
per block and reduces it to small interned immutable values:

- per-line **attribute sets** become integer bitmasks (one bit per
  distinct :class:`~repro.render.styles.TextAttr` seen in the process),
  so ``Dtal`` (Formula 2) is an AND + popcount instead of frozenset
  intersection — with arithmetic identical to the reference;
- **type-code and shape tuples** are interned, so equality checks hit
  the ``is`` fast path and equal blocks share one object;
- **tag forests** become flattened post-order signatures
  (:func:`repro.algorithms.tree_edit.tree_signature`), the keys of the
  tree/forest memos in :mod:`repro.perf.kernels`.

Fingerprints are cached on the block (``Block._fp``), and the interners
are process-wide: the distinct-value populations (text attributes, type
codes, tag structures) are tiny compared to the number of comparisons.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.algorithms.tree_edit import OrderedTree, TreeSignature, tree_signature
from repro.htmlmod.dom import Element
from repro.render.styles import TextAttr

if TYPE_CHECKING:
    from repro.features.blocks import Block

#: an interned immutable value (type codes, shapes, forest signatures)
Interned = Tuple[Any, ...]

try:  # Python >= 3.10
    _popcount = int.bit_count
except AttributeError:  # pragma: no cover - 3.9 fallback
    def _popcount(value: int) -> int:
        return bin(value).count("1")


#: (bitmask, set size) — the compact form of one line's attribute set
AttrMask = Tuple[int, int]


class AttrInterner:
    """Process-wide ``TextAttr -> bit`` registry with a frozenset memo.

    ``mask(attrs)`` maps an attribute frozenset to its ``(bitmask,
    size)`` pair; each distinct frozenset is converted exactly once.
    """

    __slots__ = ("_bits", "_masks", "hits", "misses")

    def __init__(self) -> None:
        self._bits: Dict[TextAttr, int] = {}
        self._masks: Dict[FrozenSet[TextAttr], AttrMask] = {}
        self.hits = 0
        self.misses = 0

    def mask(self, attrs: FrozenSet[TextAttr]) -> AttrMask:
        found = self._masks.get(attrs)
        if found is None:
            self.misses += 1
            bits = self._bits
            mask = 0
            for attr in attrs:
                bit = bits.get(attr)
                if bit is None:
                    bit = bits[attr] = len(bits)
                mask |= 1 << bit
            found = self._masks[attrs] = (mask, len(attrs))
        else:
            self.hits += 1
        return found

    def stats(self) -> Dict[str, float]:
        total = self.hits + self.misses
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hits / total if total else 0.0,
            "entries": len(self._masks),
            "bits": len(self._bits),
        }

    def clear(self) -> None:
        self._bits.clear()
        self._masks.clear()
        self.hits = 0
        self.misses = 0


class TupleInterner:
    """Canonicalize equal tuples to one shared object.

    Interned values make equality checks identity checks (``is``), and
    let the pair memos key on object identity-stable tuples.
    """

    __slots__ = ("_seen",)

    def __init__(self) -> None:
        self._seen: Dict[Interned, Interned] = {}

    def intern(self, value: Interned) -> Interned:
        return self._seen.setdefault(value, value)

    def __len__(self) -> int:
        return len(self._seen)

    def clear(self) -> None:
        self._seen.clear()


#: process-wide interners; cleared by repro.perf.clear_kernel_caches()
ATTR_INTERNER = AttrInterner()
TUPLE_INTERNER = TupleInterner()


def masked_attr_distance(mask1: AttrMask, mask2: AttrMask) -> float:
    """Dtal (Formula 2) over bitmasks — exact, popcount-based.

    ``1 - |la1 & la2| / max(|la1|, |la2|)`` with the intersection size
    computed as ``popcount(m1 & m2)``; both operands are the same
    integers the frozenset reference uses, so the float result is
    bit-identical to :func:`repro.features.line_distance.text_attr_distance`.
    """
    size1 = mask1[1]
    size2 = mask2[1]
    larger = size1 if size1 >= size2 else size2
    if larger == 0:
        return 0.0
    return 1.0 - _popcount(mask1[0] & mask2[0]) / larger


class BlockFingerprint:
    """Immutable compact signature of one block's §4.2 features."""

    __slots__ = (
        "type_codes", "shape", "position", "attr_masks", "forest_sig", "_hash"
    )

    def __init__(
        self,
        type_codes: Interned,
        shape: Interned,
        position: int,
        attr_masks: Tuple[AttrMask, ...],
        forest_sig: Interned,
    ) -> None:
        self.type_codes = type_codes
        self.shape = shape
        self.position = position
        self.attr_masks = attr_masks
        self.forest_sig = forest_sig
        self._hash: Optional[int] = None

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, BlockFingerprint):
            return NotImplemented
        # Interned fields compare by identity first (tuple __eq__ already
        # short-circuits on identical objects).
        return (
            self.position == other.position
            and self.type_codes == other.type_codes
            and self.shape == other.shape
            and self.attr_masks == other.attr_masks
            and self.forest_sig == other.forest_sig
        )

    def __hash__(self) -> int:
        # Cached: fingerprints key the process-wide record-distance memo,
        # where re-hashing the (potentially large) forest signature on
        # every lookup would eat the memoization win.
        found = self._hash
        if found is None:
            found = self._hash = hash(
                (self.type_codes, self.shape, self.position, self.attr_masks,
                 self.forest_sig)
            )
        return found

    def __repr__(self) -> str:
        return (
            f"BlockFingerprint(lines={len(self.type_codes)}, "
            f"trees={len(self.forest_sig)}, position={self.position})"
        )


def interned_forest_signature(forest: Iterable[OrderedTree]) -> Interned:
    """Forest signature with every level interned (identity-stable)."""
    intern = TUPLE_INTERNER.intern
    return intern(tuple(intern(tree_signature(tree)) for tree in forest))


def element_tree_signature(element: Element) -> TreeSignature:
    """The :func:`~repro.algorithms.tree_edit.tree_signature` of an
    element's tag tree, computed directly off the DOM.

    Equal to ``tree_signature(OrderedTree.from_tuple(element.tag_signature()))``
    but in a single subtree walk instead of three (signature-tuple build,
    tree build, post-order annotation) — the fingerprint hot path only
    needs the signature; the :class:`OrderedTree` form stays lazy on the
    block for the rare distance-memo miss.
    """
    for child in element.children:
        if isinstance(child, Element):
            break
    else:
        # The common case on record forests: a childless tag is its own
        # post-order, leftmost leaf 0.
        return ((element.tag, 0),)
    labels: List[str] = []
    lml: List[int] = []

    def visit(node: Element) -> int:
        my_lml = -1
        for child in node.children:
            if isinstance(child, Element):
                child_lml = visit(child)
                if my_lml < 0:
                    my_lml = child_lml  # parent shares the first child's lml
        if my_lml < 0:
            my_lml = len(labels)  # a leaf is its own leftmost leaf
        labels.append(node.tag)
        lml.append(my_lml)
        return my_lml

    visit(element)
    return tuple(zip(labels, lml))


def interned_element_forest_signature(forest: Iterable[Element]) -> Interned:
    """Like :func:`interned_forest_signature`, straight off the DOM forest."""
    intern = TUPLE_INTERNER.intern
    return intern(
        tuple(intern(element_tree_signature(element)) for element in forest)
    )


def block_fingerprint(block: "Block") -> BlockFingerprint:
    """The (cached) fingerprint of a :class:`repro.features.blocks.Block`.

    The three line-feature tuples are read in one pass over one slice of
    the page's lines — value-identical to the block's ``type_codes`` /
    ``shape`` / ``text_attrs`` properties, which each re-slice.
    """
    fp = block._fp
    if fp is None:
        lines = block.page.lines[block.start : block.end + 1]
        base = lines[0].position
        mask = ATTR_INTERNER.mask
        intern = TUPLE_INTERNER.intern
        fp = block._fp = BlockFingerprint(  # lint: allow PUR01 -- idempotent fill of the block's own cache slot
            type_codes=intern(tuple(line.line_type for line in lines)),
            shape=intern(tuple(line.position - base for line in lines)),
            position=base,
            attr_masks=intern(tuple(mask(line.attrs) for line in lines)),
            forest_sig=interned_element_forest_signature(block.span_elements()),
        )
    return fp
