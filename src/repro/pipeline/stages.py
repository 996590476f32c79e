"""The pipeline stages: typed inputs/outputs over the induction context.

Each paper step (§3, steps 1-9) is a :class:`Stage` with declared
``requires``/``provides`` artifact names.  *Page* stages run
independently per sample page, and the runner checkpoints their per-page
outputs.  *Barrier* stages need every page's artifacts at once (DSE's
cross-page voting, instance grouping, wrapper construction, families).

Stage graph::

    render ─ mre ─┐
                  ├─ dse ═ refine ─ mine ─ granularity ─┐
    (per page)    │  (barrier)       (per page)         │
                  │                                     ├─ grouping ═ wrapper ═ families
                  └─────────────────────────────────────┘       (barriers)

Per-page artifacts are encoded/decoded with the span codecs of
:mod:`repro.core.serialize`; rendering is deterministic, so spans
re-attach to a re-rendered page bit-identically — the invariant behind
checkpoint resume.
"""

from __future__ import annotations

from typing import (
    Any,
    Callable,
    ClassVar,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    cast,
)

from repro.core.dse import DynamicSection, clean_page_lines, run_dse
from repro.core.family import SectionFamily, build_families
from repro.core.granularity import resolve_granularity
from repro.core.grouping import InstanceGroup, group_section_instances
from repro.core.mining import mine_block
from repro.core.model import SectionInstance
from repro.core.mre import TentativeMR, extract_mrs
from repro.core.refine import refine_page
from repro.core.serialize import (
    ds_from_obj,
    ds_to_obj,
    engine_from_obj,
    engine_to_obj,
    mr_from_obj,
    mr_to_obj,
    section_instance_from_obj,
    section_instance_to_obj,
    section_wrapper_from_obj,
    section_wrapper_to_obj,
)
from repro.core.wrapper import EngineWrapper, SectionWrapper, build_section_wrapper
from repro.features.blocks import Block
from repro.pipeline.context import InductionContext
from repro.render.lines import RenderedPage

#: stage scopes
PAGE = "page"
BARRIER = "barrier"


class Stage:
    """Base of all pipeline stages: a named, typed pipeline step."""

    #: stage name; also the span name and the checkpoint file stem
    name: ClassVar[str]
    #: ``PAGE`` (independent per page) or ``BARRIER`` (all pages at once)
    scope: ClassVar[str]
    #: artifact names this stage reads
    requires: ClassVar[Tuple[str, ...]] = ()
    #: artifact names this stage writes
    provides: ClassVar[Tuple[str, ...]] = ()
    #: whether the runner persists this stage's outputs to the store
    checkpointed: ClassVar[bool] = True
    #: whether the runner opens an observer span for this stage
    spanned: ClassVar[bool] = True


class PageStage(Stage):
    """A stage that runs once per sample page, independently."""

    scope = PAGE

    def run_page(self, ctx: InductionContext, index: int) -> Dict[str, Any]:
        """Produce this stage's artifacts for page ``index``."""
        raise NotImplementedError


class BarrierStage(Stage):
    """A stage that needs all pages' artifacts at once."""

    scope = BARRIER

    def run(self, ctx: InductionContext) -> Dict[str, Any]:
        """Produce this stage's artifacts from the whole context."""
        raise NotImplementedError

    def encode(self, ctx: InductionContext) -> Any:
        """JSON-serializable checkpoint payload of this stage's outputs."""
        raise NotImplementedError

    def decode(self, ctx: InductionContext, obj: Any) -> Dict[str, Any]:
        """Rebuild this stage's artifacts from a checkpoint payload."""
        raise NotImplementedError


# -- per-page artifact codecs ----------------------------------------------
#
# Page-scope artifacts are encoded per value; the runner and the store
# never need stage-specific logic to persist them.

_Encoder = Callable[[Any], Any]
_Decoder = Callable[[Any, RenderedPage], Any]


def _encode_csbms(value: Any) -> List[int]:
    return sorted(cast(Set[int], value))


def _decode_csbms(obj: Any, page: RenderedPage) -> Set[int]:
    return {int(n) for n in obj}


ARTIFACT_CODECS: Dict[str, Tuple[_Encoder, _Decoder]] = {
    "mrs": (
        lambda mrs: [mr_to_obj(mr) for mr in mrs],
        lambda obj, page: [mr_from_obj(o, page) for o in obj],
    ),
    "csbms": (_encode_csbms, _decode_csbms),
    "dss": (
        lambda dss: [ds_to_obj(ds) for ds in dss],
        lambda obj, page: [ds_from_obj(o, page) for o in obj],
    ),
    "pending": (
        lambda dss: [ds_to_obj(ds) for ds in dss],
        lambda obj, page: [ds_from_obj(o, page) for o in obj],
    ),
    "refined": (
        lambda sections: [section_instance_to_obj(s) for s in sections],
        lambda obj, page: [section_instance_from_obj(o, page) for o in obj],
    ),
    "mined": (
        lambda sections: [section_instance_to_obj(s) for s in sections],
        lambda obj, page: [section_instance_from_obj(o, page) for o in obj],
    ),
    "sections": (
        lambda sections: [section_instance_to_obj(s) for s in sections],
        lambda obj, page: [section_instance_from_obj(o, page) for o in obj],
    ),
}


def encode_artifact(name: str, value: Any) -> Any:
    """Encode one page's value of a page-scope artifact."""
    return ARTIFACT_CODECS[name][0](value)


def decode_artifact(name: str, obj: Any, page: RenderedPage) -> Any:
    """Decode one page's value of a page-scope artifact."""
    return ARTIFACT_CODECS[name][1](obj, page)


# -- concrete stages --------------------------------------------------------


class RenderStage(PageStage):
    """Step 1: parse + render every sample page (always re-runs).

    Rendered pages hold live DOM references and are therefore never
    checkpointed: rendering is deterministic and cheap relative to the
    distance-based stages, so resume re-renders and re-attaches spans.
    """

    name = "render"
    provides = ("page",)
    checkpointed = False

    def run_page(self, ctx: InductionContext, index: int) -> Dict[str, Any]:
        from repro.htmlmod.parser import parse_html
        from repro.render.layout import render_page

        markup, _query = ctx.samples[index]
        page = render_page(parse_html(markup))
        ctx.obs.count("render.pages", 1)
        ctx.obs.count("render.lines", len(page.lines))
        return {"page": page}


class MreStage(PageStage):
    """Step 2 (§5.1): visual-pattern mining of multi-record sections."""

    name = "mre"
    requires = ("page",)
    provides = ("mrs",)

    def run_page(self, ctx: InductionContext, index: int) -> Dict[str, Any]:
        mrs = extract_mrs(
            ctx.pages[index], ctx.config.features, ctx.caches[index]
        )
        ctx.obs.count("mre.sections", len(mrs))
        ctx.obs.count("mre.records", sum(len(mr.records) for mr in mrs))
        return {"mrs": mrs}


class DseStage(BarrierStage):
    """Step 3 (§5.2): boundary-marker voting across all page pairs."""

    name = "dse"
    requires = ("page", "mrs")
    provides = ("csbms", "dss")

    def run(self, ctx: InductionContext) -> Dict[str, Any]:
        mrs_per_page = cast(List[List[TentativeMR]], ctx.artifacts["mrs"])
        csbms, dss = run_dse(ctx.pages, ctx.queries, mrs_per_page, obs=ctx.obs)
        return {"csbms": csbms, "dss": dss}

    def encode(self, ctx: InductionContext) -> Any:
        return {
            "csbms": [encode_artifact("csbms", v) for v in ctx.artifacts["csbms"]],
            "dss": [encode_artifact("dss", v) for v in ctx.artifacts["dss"]],
        }

    def decode(self, ctx: InductionContext, obj: Any) -> Dict[str, Any]:
        # Downstream stages (grouping, wrapper construction) compare the
        # cleaned line texts DSE fills in; cleaning is deterministic and
        # page-local, so it re-runs even when the marks are cached.
        for page, query in zip(ctx.pages, ctx.queries):
            clean_page_lines(page, query.split())
        return {
            "csbms": [
                decode_artifact("csbms", v, page)
                for v, page in zip(obj["csbms"], ctx.pages)
            ],
            "dss": [
                decode_artifact("dss", v, page)
                for v, page in zip(obj["dss"], ctx.pages)
            ],
        }


class RefineStage(PageStage):
    """Step 4 (§5.3): repair MRs against DSs (or the ablation bypass)."""

    name = "refine"
    requires = ("page", "mrs", "dss", "csbms")
    provides = ("refined", "pending")

    def run_page(self, ctx: InductionContext, index: int) -> Dict[str, Any]:
        page = ctx.pages[index]
        mrs = cast(List[TentativeMR], ctx.artifacts["mrs"][index])
        dss = cast(List[DynamicSection], ctx.artifacts["dss"][index])
        csbms = cast(Set[int], ctx.artifacts["csbms"][index])
        if ctx.config.use_refinement:
            result = refine_page(
                page,
                mrs,
                dss,
                csbms,
                ctx.config.features,
                ctx.caches[index],
                obs=ctx.obs,
            )
            sections = list(result.sections)
            pending = result.pending
        else:
            # Ablation: trust raw MRs, mine every DS that has no MR.
            sections = [
                SectionInstance(
                    page=page,
                    block=mr.block(),
                    records=list(mr.records),
                    origin="mre-raw",
                )
                for mr in mrs
            ]
            pending = [
                ds
                for ds in dss
                if not any(mr.start <= ds.end and ds.start <= mr.end for mr in mrs)
            ]
        ctx.obs.count("refine.sections", len(sections))
        ctx.obs.count("refine.pending", len(pending))
        return {"refined": sections, "pending": pending}


class MineStage(PageStage):
    """Step 5 (§5.4): record mining of every pending DS."""

    name = "mine"
    requires = ("page", "refined", "pending")
    provides = ("mined",)

    def run_page(self, ctx: InductionContext, index: int) -> Dict[str, Any]:
        page = ctx.pages[index]
        sections = list(cast(List[SectionInstance], ctx.artifacts["refined"][index]))
        pending = cast(List[DynamicSection], ctx.artifacts["pending"][index])
        mined_records = 0
        for ds in pending:
            block = ds.block()
            records = mine_block(
                block,
                ctx.config.mining_strategy,
                ctx.config.features,
                ctx.caches[index],
                obs=ctx.obs,
            )
            mined_records += len(records)
            sections.append(
                SectionInstance(
                    page=page,
                    block=block,
                    records=records,
                    lbm=ds.lbm,
                    rbm=ds.rbm,
                    origin="mined",
                )
            )
        sections.sort(key=lambda s: s.start)
        ctx.obs.count("mine.records", mined_records)
        return {"mined": sections}


class GranularityStage(PageStage):
    """Step 6 (§5.5): section/record granularity resolution."""

    name = "granularity"
    requires = ("page", "mined")
    provides = ("sections",)

    def run_page(self, ctx: InductionContext, index: int) -> Dict[str, Any]:
        sections = cast(List[SectionInstance], ctx.artifacts["mined"][index])
        if ctx.config.use_granularity:
            sections = resolve_granularity(
                sections, ctx.config.features, ctx.caches[index], obs=ctx.obs
            )
        ctx.obs.count("granularity.sections", len(sections))
        return {"sections": sections}


class SelectStage(BarrierStage):
    """Subclass hook between per-page analysis and cross-page grouping.

    ``MSE.select_sections`` is the identity; baselines (the
    single-section ViNTs restriction) override it to filter the per-page
    sections.  The stage is never checkpointed; when the hook returns
    its input unchanged the runner leaves downstream caches valid.
    """

    name = "select"
    requires = ("sections",)
    provides = ("sections",)
    checkpointed = False
    spanned = False

    def __init__(
        self,
        hook: Callable[[List[List[SectionInstance]]], List[List[SectionInstance]]],
    ) -> None:
        self._hook = hook

    def run(self, ctx: InductionContext) -> Dict[str, Any]:
        return {"sections": self._hook(ctx.sections_per_page)}


class GroupingStage(BarrierStage):
    """Step 7 (§5.6): cluster section instances into schema groups."""

    name = "grouping"
    requires = ("sections",)
    provides = ("groups",)

    def run(self, ctx: InductionContext) -> Dict[str, Any]:
        groups = group_section_instances(
            ctx.sections_per_page,
            threshold=ctx.config.match_threshold,
            obs=ctx.obs,
        )
        return {"groups": groups}

    def encode(self, ctx: InductionContext) -> Any:
        # A group member is identified by (page index, section index)
        # into the final per-page section lists.
        indexed: Dict[int, Tuple[int, int]] = {}
        for page_index, sections in enumerate(ctx.sections_per_page):
            for section_index, section in enumerate(sections):
                indexed[id(section)] = (page_index, section_index)
        groups = cast(List[InstanceGroup], ctx.artifacts["groups"])
        return [
            [list(indexed[id(instance)]) for _, instance in group.members]
            for group in groups
        ]

    def decode(self, ctx: InductionContext, obj: Any) -> Dict[str, Any]:
        sections = ctx.sections_per_page
        groups = [
            InstanceGroup(
                members=[
                    (int(page_index), sections[int(page_index)][int(section_index)])
                    for page_index, section_index in members
                ]
            )
            for members in obj
        ]
        return {"groups": groups}


class WrapperStage(BarrierStage):
    """Step 8 (§5.7): build one section wrapper per instance group."""

    name = "wrapper"
    requires = ("groups",)
    provides = ("wrappers",)

    def run(self, ctx: InductionContext) -> Dict[str, Any]:
        groups = cast(List[InstanceGroup], ctx.artifacts["groups"])
        wrappers: List[SectionWrapper] = []
        for index, group in enumerate(groups):
            wrapper = build_section_wrapper(
                group,
                schema_id=f"S{index}",
                config=ctx.config.features,
                obs=ctx.obs,
            )
            if wrapper is not None:
                wrappers.append(wrapper)
        ctx.obs.count("wrapper.schemas", len(wrappers))
        return {"wrappers": wrappers}

    def encode(self, ctx: InductionContext) -> Any:
        wrappers = cast(List[SectionWrapper], ctx.artifacts["wrappers"])
        return [section_wrapper_to_obj(w) for w in wrappers]

    def decode(self, ctx: InductionContext, obj: Any) -> Dict[str, Any]:
        return {"wrappers": [section_wrapper_from_obj(o) for o in obj]}


class FamiliesStage(BarrierStage):
    """Step 9 (§5.8): fold wrappers into families, emit the engine."""

    name = "families"
    requires = ("wrappers",)
    provides = ("engine",)

    def run(self, ctx: InductionContext) -> Dict[str, Any]:
        wrappers = cast(List[SectionWrapper], ctx.artifacts["wrappers"])
        families: List[SectionFamily] = []
        if ctx.config.use_families:
            families, _leftover = build_families(wrappers, obs=ctx.obs)
            # All wrappers stay available: at extraction time a member
            # wrapper runs only when its family did not locate it.
        ctx.obs.count("families.built", len(families))
        engine = EngineWrapper(wrappers, families, ctx.config.features)
        return {"engine": engine}

    def encode(self, ctx: InductionContext) -> Any:
        return engine_to_obj(cast(EngineWrapper, ctx.artifacts["engine"]))

    def decode(self, ctx: InductionContext, obj: Any) -> Dict[str, Any]:
        return {"engine": engine_from_obj(obj, config=ctx.config.features)}


def analysis_stages() -> List[Stage]:
    """Steps 2-6: the per-page analysis chain (plus the DSE barrier)."""
    return [MreStage(), DseStage(), RefineStage(), MineStage(), GranularityStage()]


def induction_stages(
    select: Optional[
        Callable[[List[List[SectionInstance]]], List[List[SectionInstance]]]
    ] = None,
) -> List[Stage]:
    """The full §3 pipeline, render through families.

    ``select`` is the optional between-analysis-and-grouping hook (see
    :class:`SelectStage`); ``None`` omits the stage entirely.
    """
    stages: List[Stage] = [RenderStage()]
    stages.extend(analysis_stages())
    if select is not None:
        stages.append(SelectStage(select))
    stages.extend([GroupingStage(), WrapperStage(), FamiliesStage()])
    return stages
