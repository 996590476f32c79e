"""Configuration of the MSE pipeline.

Lives in its own module (rather than ``repro.core.mse``) so
:mod:`repro.pipeline` can import it without creating an import cycle:
``mse`` calls the pipeline's steps, and the steps read this config.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.grouping import MATCH_THRESHOLD
from repro.features.config import DEFAULT_CONFIG, FeatureConfig


@dataclass(frozen=True)
class MSEConfig:
    """Configuration of the MSE pipeline.

    The boolean switches exist for the ablation benches; the paper's full
    system corresponds to the defaults.
    """

    features: FeatureConfig = DEFAULT_CONFIG
    #: stable-marriage no-match threshold for instance grouping (§5.6)
    match_threshold: float = MATCH_THRESHOLD
    #: build section families for hidden sections (§5.8)
    use_families: bool = True
    #: run MR/DS refinement (§5.3); off = trust raw MRs and mine raw DSs
    use_refinement: bool = True
    #: run the granularity pass (§5.5)
    use_granularity: bool = True
    #: 'cohesion' (Formula 7, §5.4) or 'per-child' (plain tag heuristics)
    mining_strategy: str = "cohesion"
