"""Tunable weights and constants for the feature measures.

The paper fixes ``K = 0.127`` for position distances and ``W = 1.8`` for
the refinement threshold, but leaves the line-distance weights ``u1..u3``
(Formula 3) and record-distance weights ``v1..v5`` (Formula 4) as
parameters tuned on sample pages.  The defaults below were tuned on the
test bed's training pages; benches sweep them for the ablation study.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple


@dataclass(frozen=True)
class FeatureConfig:
    """Weights/constants for Formulas 1-7."""

    #: K in Dpl = K * log(1 + |pc1 - pc2|) (paper §4.3)
    position_k: float = 0.127

    #: (u1, u2, u3) — weights of type, position, text-attribute distances
    #: in the line distance Dline (Formula 3); must sum to 1.
    line_weights: Tuple[float, float, float] = (0.4, 0.3, 0.3)

    #: (v1..v5) — weights of tag-forest, block-type, block-shape,
    #: block-position, block-text-attribute distances in the record
    #: distance Drec (Formula 4); must sum to 1.
    record_weights: Tuple[float, float, float, float, float] = (
        0.30,
        0.25,
        0.15,
        0.10,
        0.20,
    )

    #: W — the refinement threshold multiplier (§5.3, §5.5)
    refine_w: float = 1.8

    #: floor applied to Dinr(OL) when used as a scale in W * Dinr —
    #: identical records have Dinr 0, which would make the refinement
    #: threshold vacuous; the paper does not discuss this corner, so a
    #: small floor keeps the comparisons meaningful.
    dinr_floor: float = 0.05

    def __post_init__(self) -> None:
        if abs(sum(self.line_weights) - 1.0) > 1e-9:
            raise ValueError("line_weights must sum to 1")
        if abs(sum(self.record_weights) - 1.0) > 1e-9:
            raise ValueError("record_weights must sum to 1")


DEFAULT_CONFIG = FeatureConfig()
