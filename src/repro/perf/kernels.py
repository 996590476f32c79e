"""Memoized distance kernels (the perf layer's compute side).

Tag forests repeat massively across records, pages and engines — every
record of a section shares one tag structure, and the corpus reuses a
small population of record styles.  The kernels here memoize the two
tree-edit-shaped hot paths process-wide, keyed on the flattened
post-order signatures of :mod:`repro.perf.fingerprints`:

- :func:`fast_normalized_tree_distance` — one Zhang–Shasha run per
  distinct *pair of tree signatures*, ever;
- :func:`fast_forest_distance` — one generalized-Levenshtein run per
  distinct *pair of forest signatures*, ever.

Both produce floats bit-identical to the reference implementations in
:mod:`repro.algorithms.tree_edit`: a memo hit returns the exact value a
fresh computation would produce, because the distances are pure
functions of the signatures.  Every memo keeps hit/miss counters
(mirroring ``RecordDistanceCache.stats()``) surfaced through
:func:`kernel_cache_stats` and the ``perf.*`` observability gauges.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Sequence, Tuple

from repro.algorithms.string_edit import normalized_edit_distance
from repro.algorithms.tree_edit import OrderedTree, tree_edit_distance
from repro.obs import ObserverLike
from repro.perf.fingerprints import (
    ATTR_INTERNER,
    TUPLE_INTERNER,
    Interned,
    interned_forest_signature,
)


class PairMemo:
    """A bounded symmetric pair memo with hit/miss statistics.

    Keys are (signature, signature) tuples; the pair is canonicalized by
    object identity, which is stable because signatures are interned
    (and the memo itself keeps them alive).  Insertion stops at
    ``max_entries`` — lookups keep working, new pairs just recompute —
    so a pathological workload degrades to the unmemoized kernel instead
    of exhausting memory.
    """

    __slots__ = ("name", "max_entries", "hits", "misses", "_table")

    def __init__(self, name: str, max_entries: int = 1_000_000) -> None:
        self.name = name
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self._table: Dict[Tuple[Any, Any], float] = {}

    def lookup(self, sig1: Any, sig2: Any) -> Tuple[Tuple[Any, Any], Optional[float]]:
        """Canonical key for the pair plus the memoized value, if any."""
        # Canonical order by object identity: valid because signatures
        # are interned (equal => identical) and the memo is process-local.
        key = (sig1, sig2) if id(sig1) <= id(sig2) else (sig2, sig1)
        found = self._table.get(key)
        if found is None:
            self.misses += 1
        else:
            self.hits += 1
        return key, found

    def get(self, key: Any) -> Optional[float]:
        """Counted lookup for callers that canonicalize their own keys.

        :func:`repro.features.record_distance.record_distance` orders its
        fingerprint pair by the fingerprints' (cached) value hashes —
        identity ordering would split one logical pair across two keys
        whenever equal fingerprints are distinct objects, which is the
        common cross-page case.
        """
        found = self._table.get(key)
        if found is None:
            self.misses += 1
        else:
            self.hits += 1
        return found

    def store(self, key: Any, value: float) -> None:
        if len(self._table) < self.max_entries:
            self._table[key] = value

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> Dict[str, float]:
        """Hit/miss counters plus derived rate and current size."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
            "entries": len(self._table),
        }

    def clear(self) -> None:
        self._table.clear()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._table)


#: process-wide memos; cleared by :func:`clear_kernel_caches`
TREE_MEMO = PairMemo("tree_memo")
FOREST_MEMO = PairMemo("forest_memo")

#: whole-Drec memo keyed on ``(config, fingerprint, fingerprint)`` — the
#: record distance is a pure function of the two block fingerprints and
#: the feature config, so one weighted-sum computation per distinct
#: record-style pair serves the whole process (the serving loop's health
#: checks re-meet the same styles on every page of an engine).
RECORD_MEMO = PairMemo("record_memo")

#: whole-section homogeneity memo keyed on ``(config, record
#: fingerprints...)`` — Dinr (Formula 5) is the mean of pairwise Drec
#: values, each pure in its fingerprint pair, so the section-level mean
#: is pure in the ordered fingerprint tuple.  Health checks meet the
#: same record line-up page after page; a warm hit skips the whole
#: pairwise loop.
DINR_MEMO = PairMemo("dinr_memo")


class SignedTree:
    """A tree paired with its interned signature.

    Elements of the forest-level edit distance: equality (what the
    sequence kernel's trim compares) is signature equality, which is
    exactly structural tree equality — but resolved by an ``is`` check
    on the interned tuples instead of a recursive dataclass compare.
    """

    __slots__ = ("tree", "sig")

    def __init__(self, tree: OrderedTree, sig: Interned) -> None:
        self.tree = tree
        self.sig = sig

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SignedTree) and (
            self.sig is other.sig or self.sig == other.sig
        )

    def __hash__(self) -> int:
        return hash(self.sig)


def fast_normalized_tree_distance(tree1: SignedTree, tree2: SignedTree) -> float:
    """Memoized normalized tree edit distance over signed trees.

    Bit-identical to
    :func:`repro.algorithms.tree_edit.normalized_tree_distance`: on a
    miss it runs the same Zhang–Shasha program normalized by the same
    larger-size denominator (``len(signature) == tree.size()``).
    """
    sig1, sig2 = tree1.sig, tree2.sig
    if sig1 is sig2 or sig1 == sig2:
        return 0.0
    key, found = TREE_MEMO.lookup(sig1, sig2)
    if found is None:
        found = min(
            1.0,
            tree_edit_distance(tree1.tree, tree2.tree)
            / max(len(sig1), len(sig2)),
        )
        TREE_MEMO.store(key, found)
    return found


def fast_forest_distance(
    forest1: Sequence[OrderedTree],
    forest2: Sequence[OrderedTree],
    sig1: Optional[Interned] = None,
    sig2: Optional[Interned] = None,
) -> float:
    """Memoized normalized tag-forest distance (paper §4.1).

    Bit-identical to :func:`repro.algorithms.tree_edit.forest_distance`;
    pass the fingerprints' interned forest signatures to skip
    re-signing.  Two memo layers cooperate: a hit at the forest level
    skips everything, a miss runs the sequence kernel whose per-pair
    substitution costs hit the tree-level memo.
    """
    if sig1 is None:
        sig1 = interned_forest_signature(forest1)
    if sig2 is None:
        sig2 = interned_forest_signature(forest2)
    if sig1 is sig2 or sig1 == sig2:
        return 0.0
    key, found = FOREST_MEMO.lookup(sig1, sig2)
    if found is None:
        signed1 = [SignedTree(t, s) for t, s in zip(forest1, sig1)]
        signed2 = [SignedTree(t, s) for t, s in zip(forest2, sig2)]
        found = normalized_edit_distance(
            signed1, signed2, substitution_cost=fast_normalized_tree_distance
        )
        FOREST_MEMO.store(key, found)
    return found


def lazy_forest_distance(
    forest1: Callable[[], Sequence[OrderedTree]],
    forest2: Callable[[], Sequence[OrderedTree]],
    sig1: Interned,
    sig2: Interned,
) -> float:
    """:func:`fast_forest_distance` with forest construction deferred.

    The callers that sit behind further memo layers (``record_distance``)
    already hold interned signatures; the :class:`OrderedTree` forests
    are only needed when the forest memo itself misses, so they are
    built by thunk — in the warm serving loop that is almost never.
    """
    if sig1 is sig2 or sig1 == sig2:
        return 0.0
    key, found = FOREST_MEMO.lookup(sig1, sig2)
    if found is None:
        signed1 = [SignedTree(t, s) for t, s in zip(forest1(), sig1)]
        signed2 = [SignedTree(t, s) for t, s in zip(forest2(), sig2)]
        found = normalized_edit_distance(
            signed1, signed2, substitution_cost=fast_normalized_tree_distance
        )
        FOREST_MEMO.store(key, found)
    return found


def kernel_cache_stats() -> Dict[str, Dict[str, float]]:
    """Snapshot of every process-wide kernel cache, keyed by cache name."""
    return {
        "tree_memo": TREE_MEMO.stats(),
        "forest_memo": FOREST_MEMO.stats(),
        "record_memo": RECORD_MEMO.stats(),
        "dinr_memo": DINR_MEMO.stats(),
        "attr_interner": ATTR_INTERNER.stats(),
        "tuple_interner": {"entries": len(TUPLE_INTERNER)},
    }


def clear_kernel_caches() -> None:
    """Reset every process-wide memo/interner (benchmarks, tests)."""
    TREE_MEMO.clear()
    FOREST_MEMO.clear()
    RECORD_MEMO.clear()
    DINR_MEMO.clear()
    ATTR_INTERNER.clear()
    TUPLE_INTERNER.clear()


def observe_kernel_gauges(obs: ObserverLike) -> None:
    """Export the kernel cache stats as ``perf.<cache>.<stat>`` gauges."""
    for cache, stats in kernel_cache_stats().items():
        for stat, value in stats.items():
            obs.gauge(f"perf.{cache}.{stat}", value)
