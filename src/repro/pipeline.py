"""Wrapper induction as nine calls (paper §3, steps 1-9).

:class:`InductionContext` holds one induction's inputs, and each step
is a plain function that fills in the context's result fields:

    render ─ mre ─ dse ─ refine ─ mine ─ granularity ─ grouping ─ wrapper ─ families

``dse``, ``grouping``, ``wrapper`` and ``families`` work on all sample
pages at once; the other steps loop over the pages.
:func:`induction_stages` lists the steps as :class:`Stage` records,
with the unspanned ``select`` hook between granularity and grouping,
and :func:`analysis_stages` lists render through granularity.
:meth:`PipelineRunner.run` calls them in order; each spanned step runs
inside an observer span named after it (see :mod:`repro.obs`), which
also books the step's record-distance cache traffic as ``cache.hits`` /
``cache.misses``.

:class:`repro.core.mse.MSE` runs induction and ``analyze_pages``
through this module; perfbench's traced induction runs it one stage at
a time.  Everything runs in one process.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, NamedTuple, Optional, Sequence, Set, Tuple, Union

from repro.core.dse import DynamicSection, run_dse
from repro.core.family import SectionFamily, build_families
from repro.core.granularity import resolve_granularity
from repro.core.grouping import InstanceGroup, group_section_instances
from repro.core.mining import mine_block
from repro.core.model import SectionInstance
from repro.core.mre import TentativeMR, extract_mrs
from repro.core.mse_config import MSEConfig
from repro.core.refine import refine_page
from repro.core.wrapper import EngineWrapper, SectionWrapper, build_section_wrapper
from repro.features.record_distance import RecordDistanceCache
from repro.htmlmod.parser import parse_html
from repro.obs import NULL_OBSERVER, ObserverLike
from repro.render.layout import render_page
from repro.render.lines import RenderedPage

#: one sample input: an HTML string or an ``(html, query)`` pair
SampleInput = Union[str, Tuple[str, str]]

#: the section instances of every sample page
Sections = List[List[SectionInstance]]


@dataclass
class InductionContext:
    """One induction: its inputs, and the results its steps fill in."""

    #: ``(html, query)`` per sample page; the html is empty when the
    #: context was built from rendered pages
    samples: List[Tuple[str, str]]
    config: MSEConfig
    obs: ObserverLike

    #: step 1: the rendered pages and their record-distance caches
    pages: List[RenderedPage] = field(init=False, default_factory=list)
    caches: List[RecordDistanceCache] = field(init=False, default_factory=list)
    #: step 2: each page's tentative multi-record sections
    mrs: List[List[TentativeMR]] = field(init=False, default_factory=list)
    #: step 3: each page's boundary-marker lines and dynamic sections
    csbms: List[Set[int]] = field(init=False, default_factory=list)
    dss: List[List[DynamicSection]] = field(init=False, default_factory=list)
    #: steps 4-6 (and the select hook): each page's section instances
    sections: Sections = field(init=False, default_factory=list)
    #: step 4: each page's dynamic sections left for step 5 to mine
    pending: List[List[DynamicSection]] = field(init=False, default_factory=list)
    #: steps 7-9
    groups: List[InstanceGroup] = field(init=False, default_factory=list)
    wrappers: List[SectionWrapper] = field(init=False, default_factory=list)
    engine: EngineWrapper = field(init=False, repr=False)

    @classmethod
    def from_samples(
        cls,
        samples: Sequence[SampleInput],
        config: MSEConfig,
        obs: ObserverLike = NULL_OBSERVER,
    ) -> "InductionContext":
        """A context over sample inputs; the render step comes first."""
        pairs = [
            (sample, "") if isinstance(sample, str) else (sample[0], sample[1])
            for sample in samples
        ]
        return cls(pairs, config, obs)

    @classmethod
    def from_pages(
        cls,
        pages: Sequence[RenderedPage],
        queries: Sequence[str],
        config: Optional[MSEConfig] = None,
        obs: ObserverLike = NULL_OBSERVER,
    ) -> "InductionContext":
        """A context over already-rendered pages; the render step is done."""
        if len(pages) != len(queries):
            raise ValueError("pages and queries must align")
        ctx = cls([("", query) for query in queries], config or MSEConfig(), obs)
        ctx.pages = list(pages)
        ctx.caches = [RecordDistanceCache(ctx.config.features) for _ in pages]
        return ctx

    @property
    def queries(self) -> List[str]:
        return [query for _, query in self.samples]


# -- the nine steps -----------------------------------------------------------


def render(ctx: InductionContext) -> None:
    """Step 1: parse and render every sample page."""
    pages: List[RenderedPage] = []
    for markup, _query in ctx.samples:
        page = render_page(parse_html(markup))
        ctx.obs.count("render.pages", 1)
        ctx.obs.count("render.lines", len(page.lines))
        pages.append(page)
    ctx.pages = pages
    ctx.caches = [RecordDistanceCache(ctx.config.features) for _ in pages]


def mre(ctx: InductionContext) -> None:
    """Step 2 (§5.1): visual-pattern mining of multi-record sections."""
    ctx.mrs = []
    for page, cache in zip(ctx.pages, ctx.caches):
        mrs = extract_mrs(page, ctx.config.features, cache)
        ctx.obs.count("mre.sections", len(mrs))
        ctx.obs.count("mre.records", sum(len(mr.records) for mr in mrs))
        ctx.mrs.append(mrs)


def dse(ctx: InductionContext) -> None:
    """Step 3 (§5.2): boundary-marker voting across all page pairs."""
    ctx.csbms, ctx.dss = run_dse(ctx.pages, ctx.queries, ctx.mrs, obs=ctx.obs)


def refine(ctx: InductionContext) -> None:
    """Step 4 (§5.3): repair MRs against DSs (or the ablation bypass)."""
    ctx.sections, ctx.pending = [], []
    for page, cache, mrs, dss, csbms in zip(
        ctx.pages, ctx.caches, ctx.mrs, ctx.dss, ctx.csbms
    ):
        if ctx.config.use_refinement:
            result = refine_page(
                page, mrs, dss, csbms, ctx.config.features, cache, obs=ctx.obs
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
        ctx.sections.append(sections)
        ctx.pending.append(pending)


def mine(ctx: InductionContext) -> None:
    """Step 5 (§5.4): record mining of every pending DS."""
    for index, (page, cache) in enumerate(zip(ctx.pages, ctx.caches)):
        sections = list(ctx.sections[index])
        mined_records = 0
        for ds in ctx.pending[index]:
            block = ds.block()
            records = mine_block(
                block,
                ctx.config.mining_strategy,
                ctx.config.features,
                cache,
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
        ctx.sections[index] = sections


def granularity(ctx: InductionContext) -> None:
    """Step 6 (§5.5): section/record granularity resolution."""
    for index, cache in enumerate(ctx.caches):
        sections = ctx.sections[index]
        if ctx.config.use_granularity:
            sections = resolve_granularity(
                sections, ctx.config.features, cache, obs=ctx.obs
            )
        ctx.obs.count("granularity.sections", len(sections))
        ctx.sections[index] = sections


def grouping(ctx: InductionContext) -> None:
    """Step 7 (§5.6): cluster section instances into schema groups."""
    ctx.groups = group_section_instances(
        ctx.sections, threshold=ctx.config.match_threshold, obs=ctx.obs
    )


def wrapper(ctx: InductionContext) -> None:
    """Step 8 (§5.7): build one section wrapper per instance group."""
    ctx.wrappers = []
    for index, group in enumerate(ctx.groups):
        built = build_section_wrapper(
            group, schema_id=f"S{index}", config=ctx.config.features, obs=ctx.obs
        )
        if built is not None:
            ctx.wrappers.append(built)
    ctx.obs.count("wrapper.schemas", len(ctx.wrappers))


def families(ctx: InductionContext) -> None:
    """Step 9 (§5.8): fold wrappers into families, emit the engine."""
    built: List[SectionFamily] = []
    if ctx.config.use_families:
        built, _leftover = build_families(ctx.wrappers, obs=ctx.obs)
        # All wrappers stay available: at extraction time a member
        # wrapper runs only when its family did not locate it.
    ctx.obs.count("families.built", len(built))
    ctx.engine = EngineWrapper(ctx.wrappers, built, ctx.config.features)


# -- stage lists and the runner -------------------------------------------------


class Stage(NamedTuple):
    """One step of a stage list."""

    #: the step's name, and its span name when ``spanned``
    name: str
    run: Callable[[InductionContext], None]
    spanned: bool


def analysis_stages() -> List[Stage]:
    """Steps 1-6: render through granularity."""
    return [
        Stage("render", render, True),
        Stage("mre", mre, True),
        Stage("dse", dse, True),
        Stage("refine", refine, True),
        Stage("mine", mine, True),
        Stage("granularity", granularity, True),
    ]


def induction_stages(select: Callable[[Sections], Sections]) -> List[Stage]:
    """Steps 1-9, with the ``select`` hook between granularity and
    grouping (``MSE.select_sections``; the ViNTs baseline overrides it)."""

    def select_sections(ctx: InductionContext) -> None:
        ctx.sections = select(ctx.sections)

    return [
        *analysis_stages(),
        Stage("select", select_sections, False),
        Stage("grouping", grouping, True),
        Stage("wrapper", wrapper, True),
        Stage("families", families, True),
    ]


class PipelineRunner:
    """Runs a stage list over one context, in this process."""

    def __init__(self, jobs: int = 1) -> None:
        # Induction runs in one process; ``jobs`` stays only for
        # perfbench's traced induce child, which passes 1.
        if jobs != 1:
            raise ValueError(f"PipelineRunner runs in one process; got jobs={jobs}")

    def run(self, ctx: InductionContext, stages: Sequence[Stage]) -> None:
        """Run the stages in order; their results land in ``ctx``."""
        for stage in stages:
            if not stage.spanned:
                stage.run(ctx)
                continue
            with ctx.obs.span(stage.name):
                hits_before, misses_before = _cache_totals(ctx.caches)
                try:
                    stage.run(ctx)
                finally:
                    hits, misses = _cache_totals(ctx.caches)
                    if hits > hits_before:
                        ctx.obs.count("cache.hits", hits - hits_before)
                    if misses > misses_before:
                        ctx.obs.count("cache.misses", misses - misses_before)


def _cache_totals(caches: Sequence[RecordDistanceCache]) -> Tuple[int, int]:
    return (
        sum(cache.hits for cache in caches),
        sum(cache.misses for cache in caches),
    )
