"""MSE — the wrapper-generation orchestrator (paper §3, steps 1-9).

Input: *n* sample result pages of one search engine (with the queries
that produced them).  Output: an :class:`EngineWrapper` that extracts all
dynamic sections and their records from any result page of that engine.

    >>> from repro import build_wrapper
    >>> wrapper = build_wrapper([(html1, "query one"), (html2, "query two")])
    >>> extraction = wrapper.extract(new_html, "another query")

Since the staged refactor, this class is a façade over
:mod:`repro.pipeline`: the steps are :class:`~repro.pipeline.Stage`
objects executed in this process by a
:class:`~repro.pipeline.PipelineRunner` on one
:class:`~repro.pipeline.InductionContext`.  With ``checkpoint_dir=...``
/ ``resume=True`` every stage's artifacts are persisted as JSON and a
resumed run recomputes only missing stages (and their dependents),
including after adding sample pages; wrappers are bit-identical to a
fresh run.

Each stage runs in an observability span (``render``, ``mre``, ``dse``,
``refine``, ``mine``, ``granularity``, ``grouping``, ``wrapper``,
``families`` — see ``repro.obs``).  Pass an :class:`repro.obs.Observer`
to attribute wall time and stage counters; the default
:data:`~repro.obs.NULL_OBSERVER` makes every probe a no-op.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.core.model import SectionInstance
from repro.core.mse_config import MSEConfig
from repro.core.wrapper import EngineWrapper
from repro.htmlmod.parser import parse_html
from repro.obs import NULL_OBSERVER, ObserverLike
from repro.perf.kernels import observe_kernel_gauges
from repro.pipeline.context import InductionContext, SampleInput
from repro.render.layout import render_page
from repro.render.lines import RenderedPage

__all__ = ["MSE", "MSEConfig", "SampleInput", "build_wrapper"]


@dataclass
class _PreparedPage:
    page: RenderedPage
    query: str


class MSE:
    """Multiple Section Extraction: builds wrappers from sample pages."""

    def __init__(
        self,
        config: Optional[MSEConfig] = None,
        obs: ObserverLike = NULL_OBSERVER,
        checkpoint_dir: Optional[str] = None,
        resume: bool = False,
    ) -> None:
        self.config = config or MSEConfig()
        self.obs = obs if obs is not None else NULL_OBSERVER
        self.checkpoint_dir = checkpoint_dir
        self.resume = resume

    # -- public API -----------------------------------------------------
    def build_wrapper(self, samples: Sequence[SampleInput]) -> EngineWrapper:
        """Induce an engine wrapper from sample result pages.

        Each sample is either an HTML string or an ``(html, query)`` pair;
        at least two samples are required (section instances must be
        certified by a match on another page, §5.6).
        """
        from repro.pipeline import (
            ArtifactStore,
            PipelineRunner,
            induction_stages,
        )

        if len(samples) < 2:
            raise ValueError("MSE needs at least two sample pages")
        ctx = InductionContext.from_samples(samples, self.config, self.obs)

        store = None
        if self.checkpoint_dir is not None:
            ids = ctx.page_ids()
            if ids is not None:
                store = ArtifactStore.open(
                    self.checkpoint_dir, self.config, ids, resume=self.resume
                )
        runner = PipelineRunner(store=store)
        runner.run(ctx, induction_stages(self.select_sections))
        self._observe_run(ctx)
        engine: EngineWrapper = ctx.engine
        return engine

    # -- pipeline pieces (public for tests/ablations) ----------------------
    def analyze_pages(
        self, prepared: Sequence[_PreparedPage]
    ) -> List[List[SectionInstance]]:
        """Steps 2-6 for every sample page: MRE, DSE, refine, mine, check.

        Runs stage-by-stage over all pages (rather than page-by-page over
        all stages) so each stage owns exactly one span and its counters.
        Works over pre-rendered pages, so it runs without checkpoints
        (those need the sample HTML for identity).
        """
        from repro.pipeline import PipelineRunner, analysis_stages

        ctx = InductionContext.from_pages(
            [item.page for item in prepared],
            [item.query for item in prepared],
            self.config,
            self.obs,
        )
        PipelineRunner().run(ctx, analysis_stages())
        self._observe_run(ctx)
        return self.select_sections(ctx.sections_per_page)

    def select_sections(
        self, sections_per_page: List[List[SectionInstance]]
    ) -> List[List[SectionInstance]]:
        """Hook between per-page analysis and cross-page grouping.

        The full system groups every section instance; baselines override
        this to restrict the candidate set (e.g. the single-section ViNTs
        baseline keeps only each page's main section).  Returning the
        argument unchanged (the default) keeps downstream stage caches
        valid on resumed runs.
        """
        return sections_per_page

    def _observe_run(self, ctx: InductionContext) -> None:
        """End-of-analysis cache/kernel gauges (trace + bench surface)."""
        obs = self.obs
        hits = sum(cache.hits for cache in ctx.caches)
        misses = sum(cache.misses for cache in ctx.caches)
        obs.gauge("record_distance_cache.hits", hits)
        obs.gauge("record_distance_cache.misses", misses)
        obs.gauge(
            "record_distance_cache.hit_rate",
            hits / (hits + misses) if hits + misses else 0.0,
        )
        div_hits = sum(cache.diversity_hits for cache in ctx.caches)
        div_misses = sum(cache.diversity_misses for cache in ctx.caches)
        obs.gauge("diversity_cache.hits", div_hits)
        obs.gauge("diversity_cache.misses", div_misses)
        obs.gauge(
            "diversity_cache.hit_rate",
            div_hits / (div_hits + div_misses) if div_hits + div_misses else 0.0,
        )
        observe_kernel_gauges(obs)

    # -- helpers ------------------------------------------------------------
    @staticmethod
    def _prepare(samples: Sequence[SampleInput]) -> List[_PreparedPage]:
        prepared: List[_PreparedPage] = []
        for sample in samples:
            if isinstance(sample, tuple):
                markup, query = sample
            else:
                markup, query = sample, ""
            page = render_page(parse_html(markup))
            prepared.append(_PreparedPage(page=page, query=query))
        return prepared


def build_wrapper(
    samples: Sequence[SampleInput],
    config: Optional[MSEConfig] = None,
    obs: ObserverLike = NULL_OBSERVER,
    checkpoint_dir: Optional[str] = None,
    resume: bool = False,
) -> EngineWrapper:
    """Convenience one-shot wrapper induction (see :class:`MSE`)."""
    return MSE(
        config, obs=obs, checkpoint_dir=checkpoint_dir, resume=resume
    ).build_wrapper(samples)
