"""String (sequence) edit distance.

The paper uses string edit distance in two places (§4.1, §4.2):

- between *tag forests* viewed as strings of tag trees, where the
  substitution cost of two trees is their normalized tree edit distance;
- between *block text attributes* viewed as strings of line-attribute
  sets, where the substitution cost is ``Dtal`` (Formula 2).

Both need a Levenshtein distance with unit insertions and deletions and
a pluggable substitution-cost function, provided here by
:func:`edit_distance`.

:func:`edit_distance` is the production kernel: it trims shared
prefixes/suffixes before running the dynamic program.  Substitution
costs are assumed non-negative with ``substitution_cost(x, x) == 0`` —
true of every cost in this codebase — which is what makes the trimming
exact; with a custom cost the trim is verified pair-by-pair before it
is applied, so arbitrary non-negative costs remain safe.
:func:`edit_distance_reference` keeps the plain O(n*m) dynamic program
as the oracle for property tests and kernel benchmarks.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, TypeVar

T = TypeVar("T")

SubstCost = Callable[[T, T], float]


def edit_distance(
    seq1: Sequence[T],
    seq2: Sequence[T],
    substitution_cost: Optional[SubstCost] = None,
) -> float:
    """Generalized Levenshtein distance between two sequences.

    ``substitution_cost(a, b)`` returns the cost of replacing ``a`` with
    ``b``; the default is 0 for equal items and 1 otherwise.  Insertions
    and deletions cost 1.  Substitution costs must be non-negative.

    Runs in O(len(seq1) * len(seq2)) time and O(min(len)) space, minus
    whatever the shared-prefix/suffix trim removes.
    """
    lo1, hi1 = 0, len(seq1)
    lo2, hi2 = 0, len(seq2)

    # -- shared prefix/suffix trimming ----------------------------------
    # Exact for non-negative costs: an optimal alignment can always be
    # rewritten to match an equal, zero-substitution-cost end pair
    # without increasing total cost.
    if substitution_cost is None:
        while lo1 < hi1 and lo2 < hi2 and seq1[lo1] == seq2[lo2]:
            lo1 += 1
            lo2 += 1
        while hi1 > lo1 and hi2 > lo2 and seq1[hi1 - 1] == seq2[hi2 - 1]:
            hi1 -= 1
            hi2 -= 1
        substitution_cost = _unit_substitution
    else:
        while (
            lo1 < hi1
            and lo2 < hi2
            and seq1[lo1] == seq2[lo2]
            and substitution_cost(seq1[lo1], seq2[lo2]) == 0.0
        ):
            lo1 += 1
            lo2 += 1
        while (
            hi1 > lo1
            and hi2 > lo2
            and seq1[hi1 - 1] == seq2[hi2 - 1]
            and substitution_cost(seq1[hi1 - 1], seq2[hi2 - 1]) == 0.0
        ):
            hi1 -= 1
            hi2 -= 1

    seq1 = seq1[lo1:hi1]
    seq2 = seq2[lo2:hi2]

    # -- degenerate remainders ------------------------------------------
    if not seq1:
        return float(len(seq2))
    if not seq2:
        return float(len(seq1))

    # Keep the shorter sequence in the inner dimension for O(min) space.
    if len(seq2) > len(seq1):
        seq1, seq2 = seq2, seq1
        inner_subst = _flip(substitution_cost)
    else:
        inner_subst = substitution_cost

    previous = [float(j) for j in range(len(seq2) + 1)]
    for i, item1 in enumerate(seq1, start=1):
        current = [float(i)]
        append = current.append
        prev_j = previous[0]
        acc = current[0]
        for j, item2 in enumerate(seq2, start=1):
            prev_j1 = previous[j]
            value = acc + 1.0
            other = prev_j1 + 1.0
            if other < value:
                value = other
            other = prev_j + inner_subst(item1, item2)
            if other < value:
                value = other
            append(value)
            prev_j = prev_j1
            acc = value
        previous = current
    return previous[-1]


def edit_distance_reference(
    seq1: Sequence[T],
    seq2: Sequence[T],
    substitution_cost: Optional[SubstCost] = None,
) -> float:
    """The plain generalized Levenshtein DP, with no fast paths.

    Kept as the oracle the optimized :func:`edit_distance` is property-
    tested and benchmarked against (``tests/test_perf_kernels.py``,
    ``benchmarks/bench_kernels.py``).
    """
    if substitution_cost is None:
        substitution_cost = _unit_substitution

    if len(seq2) > len(seq1):
        seq1, seq2 = seq2, seq1
        inner_subst = _flip(substitution_cost)
    else:
        inner_subst = substitution_cost

    previous = [float(j) for j in range(len(seq2) + 1)]
    for i, item1 in enumerate(seq1, start=1):
        current = [float(i)]
        for j, item2 in enumerate(seq2, start=1):
            current.append(
                min(
                    previous[j] + 1.0,
                    current[j - 1] + 1.0,
                    previous[j - 1] + inner_subst(item1, item2),
                )
            )
        previous = current
    return previous[-1]


def normalized_edit_distance(
    seq1: Sequence[T],
    seq2: Sequence[T],
    substitution_cost: Optional[SubstCost] = None,
) -> float:
    """Edit distance normalized by the longer sequence length.

    Returns 0.0 for two empty sequences.  With the default unit costs the
    result is in [0, 1].  This is the paper's normalization for tag-forest
    and block-attribute distances.
    """
    longer = max(len(seq1), len(seq2))
    if longer == 0:
        return 0.0
    return edit_distance(seq1, seq2, substitution_cost) / longer


def _unit_substitution(a: T, b: T) -> float:
    return 0.0 if a == b else 1.0


def _flip(cost: SubstCost) -> SubstCost:
    def flipped(a: T, b: T) -> float:
        return cost(b, a)

    return flipped
