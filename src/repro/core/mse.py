"""MSE — the wrapper-generation orchestrator (paper §3, steps 1-9).

Input: *n* sample result pages of one search engine (with the queries
that produced them).  Output: an :class:`EngineWrapper` that extracts all
dynamic sections and their records from any result page of that engine.

    >>> from repro import build_wrapper
    >>> wrapper = build_wrapper([(html1, "query one"), (html2, "query two")])
    >>> extraction = wrapper.extract(new_html, "another query")

The nine steps are the functions of :mod:`repro.pipeline`, called in
order in this process.  Each runs in an observability span (``render``,
``mre``, ``dse``, ``refine``, ``mine``, ``granularity``, ``grouping``,
``wrapper``, ``families`` — see ``repro.obs``).  Pass an
:class:`repro.obs.Observer` to attribute wall time and stage counters;
the default :data:`~repro.obs.NULL_OBSERVER` makes every probe a no-op.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.core.model import SectionInstance
from repro.core.mse_config import MSEConfig
from repro.core.wrapper import EngineWrapper
from repro.obs import NULL_OBSERVER, ObserverLike
from repro.perf.kernels import observe_kernel_gauges
from repro.pipeline import (
    InductionContext,
    PipelineRunner,
    SampleInput,
    Stage,
    analysis_stages,
    induction_stages,
)

__all__ = ["MSE", "MSEConfig", "SampleInput", "build_wrapper"]


class MSE:
    """Multiple Section Extraction: builds wrappers from sample pages."""

    def __init__(
        self,
        config: Optional[MSEConfig] = None,
        obs: ObserverLike = NULL_OBSERVER,
    ) -> None:
        self.config = config or MSEConfig()
        self.obs = obs if obs is not None else NULL_OBSERVER

    # -- public API -----------------------------------------------------
    def build_wrapper(self, samples: Sequence[SampleInput]) -> EngineWrapper:
        """Induce an engine wrapper from sample result pages.

        Each sample is either an HTML string or an ``(html, query)`` pair;
        at least two samples are required (section instances must be
        certified by a match on another page, §5.6).
        """
        if len(samples) < 2:
            raise ValueError("MSE needs at least two sample pages")
        return self._run(samples, induction_stages(self.select_sections)).engine

    # -- pipeline pieces (public for tests/ablations) ----------------------
    def analyze_pages(
        self, samples: Sequence[SampleInput]
    ) -> List[List[SectionInstance]]:
        """Steps 1-6 for every sample page: render, MRE, DSE, refine,
        mine and granularity; then the :meth:`select_sections` hook."""
        ctx = self._run(samples, analysis_stages())
        return self.select_sections(ctx.sections)

    def select_sections(
        self, sections_per_page: List[List[SectionInstance]]
    ) -> List[List[SectionInstance]]:
        """Hook between per-page analysis and cross-page grouping.

        The full system groups every section instance; baselines override
        this to restrict the candidate set (e.g. the single-section ViNTs
        baseline keeps only each page's main section).
        """
        return sections_per_page

    def _run(
        self, samples: Sequence[SampleInput], stages: Sequence[Stage]
    ) -> InductionContext:
        ctx = InductionContext.from_samples(samples, self.config, self.obs)
        PipelineRunner().run(ctx, stages)
        self._observe_run(ctx)
        return ctx

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


def build_wrapper(
    samples: Sequence[SampleInput],
    config: Optional[MSEConfig] = None,
    obs: ObserverLike = NULL_OBSERVER,
) -> EngineWrapper:
    """Convenience one-shot wrapper induction (see :class:`MSE`)."""
    return MSE(config, obs=obs).build_wrapper(samples)
