"""The staged induction pipeline (checkpoint/resume).

This package turns wrapper induction into explicit, typed stages over
one shared :class:`InductionContext`:

- :mod:`repro.pipeline.context` — the context object and page identity;
- :mod:`repro.pipeline.stages` — the Stage protocol, the nine concrete
  stages and the per-page artifact codecs;
- :mod:`repro.pipeline.artifacts` — the on-disk checkpoint store;
- :mod:`repro.pipeline.runner` — in-process execution with checkpoint
  resume and freshness propagation.

:class:`repro.core.mse.MSE` is a thin façade over this package; the CLI
exposes the knobs as ``induce --checkpoint-dir DIR --resume``.
"""

from repro.pipeline.artifacts import ArtifactStore, config_key, pages_key
from repro.pipeline.context import InductionContext, SampleInput, page_id
from repro.pipeline.runner import PipelineRunner
from repro.pipeline.stages import (
    BarrierStage,
    DseStage,
    FamiliesStage,
    GranularityStage,
    GroupingStage,
    MineStage,
    MreStage,
    PageStage,
    RefineStage,
    RenderStage,
    SelectStage,
    Stage,
    WrapperStage,
    analysis_stages,
    decode_artifact,
    encode_artifact,
    induction_stages,
)

__all__ = [
    "ArtifactStore",
    "BarrierStage",
    "DseStage",
    "FamiliesStage",
    "GranularityStage",
    "GroupingStage",
    "InductionContext",
    "MineStage",
    "MreStage",
    "PageStage",
    "PipelineRunner",
    "RefineStage",
    "RenderStage",
    "SampleInput",
    "SelectStage",
    "Stage",
    "WrapperStage",
    "analysis_stages",
    "config_key",
    "decode_artifact",
    "encode_artifact",
    "induction_stages",
    "page_id",
    "pages_key",
]
