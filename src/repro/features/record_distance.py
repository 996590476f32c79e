"""Block/record-level distances: Dtf, Dbt, Dbs, Dbp, Dbta and Drec (F4).

The module-level distance functions are the *reference* kernels — the
paper's formulas computed directly over the block features.
:func:`record_distance` computes Formula 4 over the compact interned
fingerprints of :mod:`repro.perf` instead — bitmask Dtal, memoized
tag-forest distance, identity-checked feature tuples — score-identical
to :func:`_record_distance_reference`, the oracle over the reference
kernels (property-tested in ``tests/test_perf_kernels.py``, benchmarked
in ``benchmarks/bench_kernels.py``).
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

from repro.algorithms.string_edit import normalized_edit_distance
from repro.algorithms.tree_edit import forest_distance as _tree_forest_distance
from repro.features.blocks import Block
from repro.features.config import DEFAULT_CONFIG, FeatureConfig
from repro.features.line_distance import position_distance, text_attr_distance
from repro.perf.fingerprints import block_fingerprint, masked_attr_distance
from repro.perf.kernels import RECORD_MEMO, lazy_forest_distance
from repro.render.linetypes import type_distance


def block_type_distance(block1: Block, block2: Block) -> float:
    """Dbt: normalized edit distance between the blocks' type-code strings.

    Substitution cost is the line type distance, so e.g. LINK vs LINK_TEXT
    lines count as near-matches.  Normalized to [0, 1] by the longer block.
    """
    return normalized_edit_distance(
        block1.type_codes, block2.type_codes, substitution_cost=type_distance
    )


def block_shape_distance(
    block1: Block, block2: Block, config: FeatureConfig = DEFAULT_CONFIG
) -> float:
    """Dbs: normalized edit distance between the blocks' left contours.

    Shapes are relative offsets from each block's own first line, and the
    substitution cost of two offsets is their (bounded) position distance,
    giving a value in [0, 1].
    """

    def offset_cost(a: int, b: int) -> float:
        return position_distance(a, b, config)

    return normalized_edit_distance(block1.shape, block2.shape, substitution_cost=offset_cost)


def block_position_distance(
    block1: Block, block2: Block, config: FeatureConfig = DEFAULT_CONFIG
) -> float:
    """Dbp: position distance between the blocks' own position codes."""
    return position_distance(block1.position, block2.position, config)


def block_text_attr_distance(block1: Block, block2: Block) -> float:
    """Dbta: normalized edit distance between the blocks' attribute lists.

    Substitution cost is Dtal (Formula 2), per §4.2.
    """
    return normalized_edit_distance(
        block1.text_attrs, block2.text_attrs, substitution_cost=text_attr_distance
    )


def tag_forest_distance(block1: Block, block2: Block) -> float:
    """Dtf: normalized edit distance between the blocks' tag forests."""
    return _tree_forest_distance(block1.tag_forest(), block2.tag_forest())


def record_distance(
    block1: Block,
    block2: Block,
    config: FeatureConfig = DEFAULT_CONFIG,
) -> float:
    """Drec (Formula 4): weighted sum of the five block distances."""
    if block1 is block2 or (
        block1.page is block2.page
        and block1.start == block2.start
        and block1.end == block2.end
    ):
        # The same line span: every component distance is exactly 0.
        return 0.0
    fp1 = block_fingerprint(block1)
    fp2 = block_fingerprint(block2)
    if fp1 == fp2:
        # Identical features (including position): all five terms are 0.
        return 0.0
    # Drec is a pure function of the two fingerprints and the config, so
    # the weighted sum is memoized process-wide: the serving loop's
    # health checks meet the same record-style pairs on page after page.
    # The pair is canonicalized by the fingerprints' value hashes, which
    # is deterministic for equal fingerprints wherever they were built.
    if hash(fp1) <= hash(fp2):
        memo_key = (config, fp1, fp2)
    else:
        memo_key = (config, fp2, fp1)
    memoized = RECORD_MEMO.get(memo_key)
    if memoized is not None:
        return memoized
    v1, v2, v3, v4, v5 = config.record_weights

    if fp1.forest_sig is fp2.forest_sig:
        dtf = 0.0
    else:
        # Thunked: the OrderedTree forests are only materialized when the
        # forest memo misses — in the warm serving loop, almost never.
        dtf = lazy_forest_distance(
            block1.tag_forest, block2.tag_forest, fp1.forest_sig, fp2.forest_sig
        )

    if fp1.type_codes is fp2.type_codes:
        dbt = 0.0
    else:
        dbt = normalized_edit_distance(
            fp1.type_codes, fp2.type_codes, substitution_cost=type_distance
        )

    if fp1.shape is fp2.shape:
        dbs = 0.0
    else:

        def offset_cost(a: int, b: int) -> float:
            return position_distance(a, b, config)

        dbs = normalized_edit_distance(
            fp1.shape, fp2.shape, substitution_cost=offset_cost
        )

    dbp = position_distance(fp1.position, fp2.position, config)

    if fp1.attr_masks is fp2.attr_masks:
        dbta = 0.0
    else:
        dbta = normalized_edit_distance(
            fp1.attr_masks, fp2.attr_masks, substitution_cost=masked_attr_distance
        )

    result = v1 * dtf + v2 * dbt + v3 * dbs + v4 * dbp + v5 * dbta
    RECORD_MEMO.store(memo_key, result)
    return result


def _record_distance_reference(
    block1: Block,
    block2: Block,
    config: FeatureConfig = DEFAULT_CONFIG,
) -> float:
    """Formula 4 over the naive kernels (the fast path's oracle)."""
    v1, v2, v3, v4, v5 = config.record_weights
    return (
        v1 * tag_forest_distance(block1, block2)
        + v2 * block_type_distance(block1, block2)
        + v3 * block_shape_distance(block1, block2, config)
        + v4 * block_position_distance(block1, block2, config)
        + v5 * block_text_attr_distance(block1, block2)
    )


class RecordDistanceCache:
    """Memoizes pairwise record distances within one extraction run.

    Refinement and granularity analysis recompute Drec for the same block
    pairs many times; blocks hash by (page, start, end) so a small dict
    cache removes the duplicate tree-edit work.  A second memo serves
    record diversity (Formula 6), which ``best_partition`` would
    otherwise recompute for every sub-block shared between candidate
    partitions.

    The cache keeps hit/miss counters so the observability layer can
    report how much duplicate work memoization actually removed (the
    ``cache.hits`` / ``cache.misses`` stage counters and the
    ``record_distance_cache.hit_rate`` / ``diversity_cache.hit_rate``
    gauges).
    """

    def __init__(self, config: FeatureConfig = DEFAULT_CONFIG) -> None:
        self.config = config
        self._cache: Dict[Tuple[Tuple[int, int, int], Tuple[int, int, int]], float] = {}
        self.hits = 0
        self.misses = 0
        self._diversity: Dict[Tuple[int, int, int], float] = {}
        self.diversity_hits = 0
        self.diversity_misses = 0

    def distance(self, block1: Block, block2: Block) -> float:
        """Drec with memoization (symmetric)."""
        key1 = (id(block1.page), block1.start, block1.end)
        key2 = (id(block2.page), block2.start, block2.end)
        key = (key1, key2) if key1 <= key2 else (key2, key1)
        found = self._cache.get(key)
        if found is None:
            self.misses += 1
            found = record_distance(block1, block2, self.config)
            self._cache[key] = found
        else:
            self.hits += 1
        return found

    def diversity(self, block: Block) -> float:
        """Div(r) (Formula 6) with memoization by the block's line span."""
        key = (id(block.page), block.start, block.end)
        found = self._diversity.get(key)
        if found is None:
            self.diversity_misses += 1
            from repro.features.cohesion import record_diversity

            found = record_diversity(block, self.config)
            self._diversity[key] = found
        else:
            self.diversity_hits += 1
        return found

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when unused)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    @property
    def diversity_hit_rate(self) -> float:
        """Fraction of diversity lookups served from the cache."""
        total = self.diversity_hits + self.diversity_misses
        return self.diversity_hits / total if total else 0.0

    def stats(self) -> Dict[str, float]:
        """Hit/miss counters plus derived rate and current size."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
            "entries": len(self._cache),
            "diversity_hits": self.diversity_hits,
            "diversity_misses": self.diversity_misses,
            "diversity_hit_rate": self.diversity_hit_rate,
            "diversity_entries": len(self._diversity),
        }

    def average_to_group(self, block: Block, group: Sequence[Block]) -> float:
        """Davgrs(block, group): mean Drec from ``block`` to each member."""
        if not group:
            return 0.0
        return sum(self.distance(block, member) for member in group) / len(group)
