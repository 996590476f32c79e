"""The pipeline runner: executes stages in one process, with checkpoints.

The runner walks an ordered stage list (:func:`repro.pipeline.stages
.induction_stages`) over one :class:`InductionContext`:

- consecutive checkpointed *page* stages form a group whose per-page
  chains resume together (the never-checkpointed render stage is a
  group of its own); each stage runs over every page inside one span;
- *barrier* stages run once over all pages.

With an :class:`~repro.pipeline.artifacts.ArtifactStore` attached, every
checkpointed stage's outputs are persisted and a resumed run loads them
instead of recomputing — per page for page stages, per page *set* for
barriers.  Cached results do not count as *fresh*; a stage actually
re-executed marks its outputs fresh, and any stage whose inputs are
fresh ignores its own cache.  That is what makes "delete one stage file,
resume" re-run exactly that stage and its dependents, and what keeps a
grown sample set sound (the DSE barrier re-runs, so everything past it
recomputes while per-page MRE artifacts are reused).

Stages are pure over rendering (no wall-clock, no randomness, no
iteration-order dependence — enforced by ``repro.analysis``), so fresh
and resumed runs produce bit-identical wrappers.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.features.record_distance import RecordDistanceCache
from repro.pipeline.artifacts import ArtifactStore
from repro.pipeline.context import InductionContext
from repro.pipeline.stages import (
    BarrierStage,
    PageStage,
    Stage,
    decode_artifact,
    encode_artifact,
)

#: freshness mark meaning "every page" (barrier-scope artifacts)
_ALL = -1


@contextmanager
def _booked_span(ctx: InductionContext, stage: Stage) -> Iterator[None]:
    """A stage span that books the stage's share of record-distance
    cache traffic as ``cache.hits`` / ``cache.misses`` counters (the
    trace shape the monolithic orchestrator established)."""
    if not stage.spanned:
        yield
        return
    with ctx.obs.span(stage.name):
        hits_before, misses_before = _cache_totals(ctx.caches)
        try:
            yield
        finally:
            hits_after, misses_after = _cache_totals(ctx.caches)
            if hits_after > hits_before:
                ctx.obs.count("cache.hits", hits_after - hits_before)
            if misses_after > misses_before:
                ctx.obs.count("cache.misses", misses_after - misses_before)


def _cache_totals(caches: Sequence[RecordDistanceCache]) -> Tuple[int, int]:
    return (
        sum(cache.hits for cache in caches),
        sum(cache.misses for cache in caches),
    )


class PipelineRunner:
    """Executes a stage list over a context; see the module docstring."""

    def __init__(
        self, jobs: int = 1, store: Optional[ArtifactStore] = None
    ) -> None:
        # Induction always runs in one process; ``jobs`` survives only
        # for callers that pass ``jobs=1`` (perfbench/child.py).
        if jobs != 1:
            raise ValueError(
                f"PipelineRunner runs in one process; got jobs={jobs}"
            )
        self.store = store
        #: artifact name -> page indices recomputed this run (_ALL = all)
        self._fresh: Dict[str, Set[int]] = {}

    # -- public ---------------------------------------------------------
    def run(self, ctx: InductionContext, stages: Sequence[Stage]) -> InductionContext:
        """Execute the stages in order; artifacts land in ``ctx``."""
        self._fresh = {}
        for group in _grouped(stages):
            self._ensure_caches(ctx)
            if isinstance(group[0], BarrierStage):
                assert len(group) == 1
                self._run_barrier(ctx, group[0])
            else:
                self._run_page_group(ctx, [s for s in group if isinstance(s, PageStage)])
        return ctx

    # -- freshness ------------------------------------------------------
    def _mark_fresh(self, name: str, index: int) -> None:
        self._fresh.setdefault(name, set()).add(index)

    def _inputs_fresh(self, requires: Sequence[str], index: Optional[int]) -> bool:
        """Whether any required artifact was recomputed this run.

        ``index`` scopes the check to one page; None means "any page"
        (barrier stages).  Rendered pages never count as fresh: rendering
        always re-runs but is deterministic, so it cannot invalidate.
        """
        for name in requires:
            if name == "page":
                continue
            marks = self._fresh.get(name)
            if not marks:
                continue
            if index is None or _ALL in marks or index in marks:
                return True
        return False

    # -- barrier stages -------------------------------------------------
    def _run_barrier(self, ctx: InductionContext, stage: BarrierStage) -> None:
        store = self.store if stage.checkpointed else None
        if store is not None and not self._inputs_fresh(stage.requires, None):
            payload = store.load_barrier(stage.name)
            if payload is not None:
                for name, value in stage.decode(ctx, payload).items():
                    ctx.artifacts[name] = value
                return

        previous = {name: ctx.artifacts.get(name) for name in stage.provides}
        with _booked_span(ctx, stage):
            produced = stage.run(ctx)
        for name, value in produced.items():
            ctx.artifacts[name] = value
            # An identity-returning hook (SelectStage's default) leaves
            # downstream caches valid; only a changed value is fresh.
            if stage.checkpointed or value is not previous.get(name):
                self._mark_fresh(name, _ALL)
        if store is not None:
            store.save_barrier(stage.name, stage.encode(ctx))

    # -- page-stage groups ----------------------------------------------
    def _run_page_group(
        self, ctx: InductionContext, group: List[PageStage]
    ) -> None:
        store = self.store
        cached: Dict[str, List[Optional[Any]]] = {}
        for stage in group:
            if store is not None and stage.checkpointed:
                cached[stage.name] = store.load_pages(stage.name)

        # Per page: index of the first stage in the chain that must run
        # (missing checkpoint or fresh inputs); everything after it runs
        # too, since its inputs become fresh.
        starts: List[int] = []
        for index in range(ctx.page_count):
            start = len(group)
            for position, stage in enumerate(group):
                values = cached.get(stage.name)
                if (
                    values is None
                    or values[index] is None
                    or self._inputs_fresh(stage.requires, index)
                ):
                    start = position
                    break
            starts.append(start)

        # Decode the cached prefix of every page's chain.
        for position, stage in enumerate(group):
            values = cached.get(stage.name)
            for index in range(ctx.page_count):
                if position < starts[index] and values is not None:
                    encoded = values[index]
                    assert encoded is not None
                    for name in stage.provides:
                        ctx.set_page_value(
                            name,
                            index,
                            decode_artifact(name, encoded[name], ctx.pages[index]),
                        )

        # Run the rest: one span per stage, pages inside (the monolith's
        # trace shape).
        computed: Dict[str, Dict[int, Dict[str, Any]]] = {
            stage.name: {} for stage in group
        }
        for position, stage in enumerate(group):
            indices = [i for i in range(ctx.page_count) if starts[i] <= position]
            if not indices:
                continue
            with _booked_span(ctx, stage):
                for index in indices:
                    produced = stage.run_page(ctx, index)
                    for name, value in produced.items():
                        ctx.set_page_value(name, index, value)
                    if store is not None and stage.checkpointed:
                        computed[stage.name][index] = {
                            name: encode_artifact(name, value)
                            for name, value in produced.items()
                        }

        for index, start in enumerate(starts):
            for stage in group[start:]:
                for name in stage.provides:
                    if name != "page":
                        self._mark_fresh(name, index)

        if store is not None:
            for stage in group:
                if not stage.checkpointed:
                    continue
                encoded_pages = {
                    store.page_ids[index]: encoded
                    for index, encoded in sorted(computed[stage.name].items())
                }
                if encoded_pages:
                    store.save_pages(stage.name, encoded_pages)

    # -- helpers --------------------------------------------------------
    def _ensure_caches(self, ctx: InductionContext) -> None:
        """Per-page record-distance caches, once pages exist."""
        if ctx.pages and len(ctx.caches) != len(ctx.pages):
            ctx.caches = [
                RecordDistanceCache(ctx.config.features) for _ in ctx.pages
            ]


def _grouped(stages: Sequence[Stage]) -> Iterator[List[Stage]]:
    """Split the stage list into resume units.

    Consecutive page stages with the same ``checkpointed`` flag form one
    group (a page's chain resumes from its first stage that must run);
    every barrier stage is its own group.  Keeping the never-checkpointed
    render stage apart stops it from forcing the stages after it to re-run.
    """
    group: List[Stage] = []
    for stage in stages:
        if isinstance(stage, PageStage) and (
            not group
            or (
                isinstance(group[-1], PageStage)
                and group[-1].checkpointed == stage.checkpointed
            )
        ):
            group.append(stage)
            continue
        if group:
            yield group
        group = [stage] if isinstance(stage, PageStage) else []
        if not isinstance(stage, PageStage):
            yield [stage]
    if group:
        yield group
