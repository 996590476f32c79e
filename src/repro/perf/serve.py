"""The serving path: one render per page, extraction and health from it.

A served page needs two results: its extraction (what
:meth:`~repro.core.wrapper.EngineWrapper.extract` returns) and the
wrapper's health on it (what :func:`repro.core.verify.check_wrapper`
returns).  Computed separately, that costs two parses, two renders and
two application sweeps.  :meth:`CompiledWrapper.serve` parses, renders
and cleans the page once, applies the engine's families and section
wrappers once (:meth:`EngineWrapper.apply`), and builds both results
from those shared applications — the extraction through
:meth:`EngineWrapper.assemble`, the health through
:func:`repro.core.verify.health_from_applications`.

Application is the paper's §5.7 procedure and nothing else: the same
:func:`repro.core.wrapper.apply_section_wrapper` that
``EngineWrapper.extract`` and ``check_wrapper`` run, over the element
spans :meth:`RenderedPage.line_range_of_element` caches per page.  Both
results are therefore byte-identical to the interpreted pair by
construction; the serve tests and ``benchmarks/bench_serve.py`` assert
it on every page they serve.

:class:`PageIndex` is a handle on one rendered, cleaned page, so one
render can be shared by several wrappers (:func:`extract_many`, the
:class:`repro.perf.server.Server` workers).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

from repro.core.model import PageExtraction
from repro.core.verify import WrapperHealth, health_from_applications
from repro.core.wrapper import EngineWrapper, PageApplications, render_result_page
from repro.htmlmod.dom import Document
from repro.obs import NULL_OBSERVER, ObserverLike
from repro.render.lines import RenderedPage


@dataclass(frozen=True)
class PageIndex:
    """One rendered, cleaned result page, shared by every wrapper applied
    to it (element spans are cached on the page itself)."""

    page: RenderedPage


def build_page_index(
    markup_or_document: Union[str, Document],
    query: str = "",
    obs: ObserverLike = NULL_OBSERVER,
) -> PageIndex:
    """Parse, render and clean one result page for serving."""
    return PageIndex(render_result_page(markup_or_document, query, obs=obs))


@dataclass(frozen=True)
class ServedPage:
    """One served page: its extraction plus the wrapper health behind it."""

    extraction: PageExtraction
    health: WrapperHealth


class CompiledWrapper:
    """An :class:`~repro.core.wrapper.EngineWrapper` ready for serving.

    ``extract`` equals ``EngineWrapper.extract``; ``serve`` additionally
    returns the page's :class:`~repro.core.verify.WrapperHealth`, equal
    to ``check_wrapper``'s, from the same applications.
    """

    __slots__ = ("engine",)

    def __init__(self, engine: EngineWrapper) -> None:
        self.engine = engine

    def __repr__(self) -> str:
        return f"CompiledWrapper({self.engine!r})"

    def apply_to_index(
        self, index: PageIndex, obs: ObserverLike = NULL_OBSERVER
    ) -> PageApplications:
        """Apply every family and schema to one indexed page, once."""
        return self.engine.apply(index.page, obs=obs)

    def extract_index(
        self, index: PageIndex, obs: ObserverLike = NULL_OBSERVER
    ) -> PageExtraction:
        """Extraction from an already-indexed page."""
        return self.engine.assemble(self.apply_to_index(index, obs=obs), obs=obs)

    def extract(
        self,
        markup_or_document: Union[str, Document],
        query: str = "",
        obs: ObserverLike = NULL_OBSERVER,
    ) -> PageExtraction:
        """The page's extraction, as :meth:`EngineWrapper.extract`."""
        index = build_page_index(markup_or_document, query, obs=obs)
        return self.extract_index(index, obs=obs)

    def serve_index(
        self, index: PageIndex, obs: ObserverLike = NULL_OBSERVER
    ) -> ServedPage:
        """Extraction + health for one indexed page, from one apply pass."""
        applications = self.apply_to_index(index, obs=obs)
        extraction = self.engine.assemble(applications, obs=obs)
        health = health_from_applications(
            self.engine, applications.wrapper_instances, obs=obs
        )
        return ServedPage(extraction=extraction, health=health)

    def serve(
        self,
        markup_or_document: Union[str, Document],
        query: str = "",
        obs: ObserverLike = NULL_OBSERVER,
    ) -> ServedPage:
        """One shared render serving extraction *and* monitoring health.

        Equal to ``engine.extract(page, query)`` followed by
        ``check_wrapper(engine, page, query)``, at one parse, one render
        and one application sweep instead of two of each.
        """
        index = build_page_index(markup_or_document, query, obs=obs)
        return self.serve_index(index, obs=obs)


def compile_wrapper(engine: EngineWrapper) -> CompiledWrapper:
    """Wrap an engine wrapper for the serving path."""
    return CompiledWrapper(engine)


# ---------------------------------------------------------------------------
# Batch serving
# ---------------------------------------------------------------------------


def resolve_assignments(
    count: int, wrapper_of: Optional[Sequence[int]], wrapper_count: int
) -> List[Tuple[int, ...]]:
    """Per-page wrapper-id tuples (every wrapper unless ``wrapper_of``).

    Raises ValueError when ``wrapper_of`` does not assign exactly one
    in-range wrapper id to each of the ``count`` pages.
    """
    if wrapper_of is not None and len(wrapper_of) != count:
        raise ValueError("wrapper_of must assign one wrapper per page")
    if wrapper_of is None:
        everyone = tuple(range(wrapper_count))
        return [everyone] * count
    for wrapper_id in wrapper_of:
        if not 0 <= wrapper_id < wrapper_count:
            raise ValueError(f"wrapper_of index {wrapper_id} out of range")
    return [(wrapper_id,) for wrapper_id in wrapper_of]


def extract_many(
    pages: Sequence[Tuple[str, str]],
    wrappers: Sequence[Union[EngineWrapper, CompiledWrapper]],
    jobs: int = 1,
    wrapper_of: Optional[Sequence[int]] = None,
    obs: ObserverLike = NULL_OBSERVER,
    chunksize: Optional[int] = None,
) -> List[List[PageExtraction]]:
    """Batch extraction: render each page once, apply many wrappers.

    ``pages`` is a sequence of ``(markup, query)`` pairs; ``wrappers``
    may mix plain and compiled engine wrappers.  By default every
    wrapper is applied to every page; ``wrapper_of`` (one wrapper index
    per page) restricts each page to its own wrapper — the shape of a
    multi-engine serving fleet.  Returns one list of
    :class:`PageExtraction` per page, aligned with the applied wrapper
    order; results are deterministic and independent of ``jobs``
    (asserted corpus-wide in the serve tests).

    ``jobs <= 1`` (or a single page) runs the in-process loop and never
    touches ``multiprocessing``.  Larger ``jobs`` delegate to a
    temporary :class:`repro.perf.server.Server` — a compatibility shim
    for one-shot callers.  The pool is torn down on return, so its
    workers start cold; a caller serving repeated batches should hold a
    ``Server`` (with priming pages) open instead.
    """
    assignments = resolve_assignments(len(pages), wrapper_of, len(wrappers))

    with obs.span("extract_many"):
        if jobs <= 1 or len(pages) <= 1:
            compiled = [
                wrapper
                if isinstance(wrapper, CompiledWrapper)
                else CompiledWrapper(wrapper)
                for wrapper in wrappers
            ]
            serial: List[List[PageExtraction]] = []
            for (markup, query), wrapper_ids in zip(pages, assignments):
                index = build_page_index(markup, query, obs=obs)
                serial.append(
                    [
                        compiled[wrapper_id].extract_index(index, obs=obs)
                        for wrapper_id in wrapper_ids
                    ]
                )
            obs.count("serve.pages", len(serial))
            return serial

        # Imported here: repro.perf.server imports this module.
        from repro.perf.server import Server

        with Server(
            wrappers,
            jobs=min(jobs, len(pages)),
            chunksize=chunksize,
            obs=obs,
        ) as server:
            return server.extract(pages, wrapper_of=wrapper_of)
