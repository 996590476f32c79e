"""The induction context: one object owning everything the stages share.

Before the staged architecture, ``MSE.analyze_pages`` threaded five
parallel lists (pages, MRs, DSs, CSBMs, caches) through private
methods.  :class:`InductionContext` replaces that: it owns the sample
inputs, the rendered pages, the per-page distance caches, the config and
the observer, plus a named artifact map that the stages read and write.

Artifact names (see :mod:`repro.pipeline.stages` for producers):

========== ======= =====================================================
name        scope   value
========== ======= =====================================================
``page``     page   :class:`~repro.render.lines.RenderedPage` per page
``mrs``      page   ``List[TentativeMR]`` per page
``csbms``   barrier ``Set[int]`` per page (aligned list)
``dss``     barrier ``List[DynamicSection]`` per page (aligned list)
``refined``  page   ``List[SectionInstance]`` per page
``pending``  page   ``List[DynamicSection]`` per page
``mined``    page   ``List[SectionInstance]`` per page
``sections`` page   ``List[SectionInstance]`` per page (final per-page)
``groups``  barrier ``List[InstanceGroup]``
``wrappers`` barrier ``List[SectionWrapper]``
``engine``  barrier :class:`~repro.core.wrapper.EngineWrapper`
========== ======= =====================================================
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union, cast

from repro.core.mse_config import MSEConfig
from repro.features.record_distance import RecordDistanceCache
from repro.obs import NULL_OBSERVER, ObserverLike
from repro.render.lines import RenderedPage

#: one sample input: an HTML string or an ``(html, query)`` pair
SampleInput = Union[str, Tuple[str, str]]


def normalize_samples(samples: Sequence[SampleInput]) -> List[Tuple[str, str]]:
    """Coerce sample inputs to ``(html, query)`` pairs (query may be '')."""
    normalized: List[Tuple[str, str]] = []
    for sample in samples:
        if isinstance(sample, tuple):
            normalized.append((sample[0], sample[1]))
        else:
            normalized.append((sample, ""))
    return normalized


def page_id(markup: str, query: str) -> str:
    """Content hash identifying one sample page (HTML + query).

    Checkpointed per-page artifacts are keyed by this id, so resuming
    with extra sample pages reuses the page-local artifacts of the pages
    that did not change.
    """
    digest = hashlib.sha256()
    digest.update(query.encode("utf-8"))
    digest.update(b"\x00")
    digest.update(markup.encode("utf-8"))
    return digest.hexdigest()[:16]


@dataclass
class InductionContext:
    """Everything one wrapper-induction run shares across its stages."""

    #: normalized (html, query) sample inputs; empty when the context was
    #: built from pre-rendered pages (no checkpointing possible then)
    samples: List[Tuple[str, str]]
    config: MSEConfig
    obs: ObserverLike = NULL_OBSERVER
    #: per-page record-distance caches (created by the render stage)
    caches: List[RecordDistanceCache] = field(default_factory=list)
    #: stage artifacts by name; page-scope values are per-page lists
    artifacts: Dict[str, Any] = field(default_factory=dict)

    @classmethod
    def from_samples(
        cls,
        samples: Sequence[SampleInput],
        config: Optional[MSEConfig] = None,
        obs: ObserverLike = NULL_OBSERVER,
    ) -> "InductionContext":
        """A context over raw sample inputs (render stage still to run)."""
        return cls(
            samples=normalize_samples(samples),
            config=config or MSEConfig(),
            obs=obs,
        )

    @classmethod
    def from_pages(
        cls,
        pages: Sequence[RenderedPage],
        queries: Sequence[str],
        config: Optional[MSEConfig] = None,
        obs: ObserverLike = NULL_OBSERVER,
    ) -> "InductionContext":
        """A context over already-rendered pages (no sample HTML known).

        Used by :meth:`repro.core.mse.MSE.analyze_pages`, by perfbench's
        traced induction and by tests; such a context cannot be
        checkpointed (it has no page ids).
        """
        if len(pages) != len(queries):
            raise ValueError("pages and queries must align")
        cfg = config or MSEConfig()
        ctx = cls(samples=[("", query) for query in queries], config=cfg, obs=obs)
        ctx.artifacts["page"] = list(pages)
        ctx.caches = [RecordDistanceCache(cfg.features) for _ in pages]
        return ctx

    # -- identity -------------------------------------------------------
    @property
    def page_count(self) -> int:
        return len(self.samples)

    @property
    def queries(self) -> List[str]:
        return [query for _, query in self.samples]

    def page_ids(self) -> Optional[List[str]]:
        """Per-page content hashes, or None when sample HTML is unknown."""
        if any(not markup for markup, _ in self.samples):
            return None
        return [page_id(markup, query) for markup, query in self.samples]

    # -- artifacts ------------------------------------------------------
    @property
    def pages(self) -> List[RenderedPage]:
        """The rendered pages (render stage output)."""
        return cast(List[RenderedPage], self.artifacts.get("page", []))

    def page_values(self, name: str) -> List[Any]:
        """The per-page value list of a page-scope artifact, creating it."""
        values = self.artifacts.get(name)
        if values is None:
            values = self.artifacts[name] = [None] * self.page_count
        return cast(List[Any], values)

    def set_page_value(self, name: str, index: int, value: Any) -> None:
        self.page_values(name)[index] = value

    @property
    def sections_per_page(self) -> List[List[Any]]:
        """The final per-page section instances (granularity output)."""
        return cast(List[List[Any]], self.artifacts["sections"])

    @property
    def engine(self) -> Any:
        """The induced engine wrapper (families stage output)."""
        return self.artifacts["engine"]
