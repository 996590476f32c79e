"""Workload inputs: the seeded corpus and the orders the workloads walk.

Engine ``i`` of the corpus for seed ``s`` is
``SyntheticEngine.generate(i, s + i, multi_section=i >= 81)``, exactly
as :func:`repro.testbed.make_engine` builds the paper corpus for
``s = CORPUS_SEED``.  Its ten pages come from ``queries(10)`` and
``result_page``; its truth from ``compute_truth``.  The seed also draws
every order a workload walks the corpus in, so a percentile samples the
whole run instead of one class of engine.

Generation is input preparation, never timed.  For ``serve`` and
``pool`` it also induces each engine's wrapper and records the
interpreted path's extraction and health of every page, the references
compiled and pooled serving must match byte for byte.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import random
import time
from dataclasses import asdict, dataclass, replace
from typing import Any, List, Optional, Sequence, Tuple

from repro.core.model import PageExtraction
from repro.core.mse import build_wrapper
from repro.core.serialize import wrapper_to_json
from repro.core.verify import WrapperHealth, check_wrapper
from perfbench import procs
from repro.testbed import (
    CORPUS_SEED,
    MULTI_SECTION_ENGINES,
    PAGES_PER_ENGINE,
    SAMPLE_PAGES,
    SINGLE_SECTION_ENGINES,
    TOTAL_ENGINES,
    PageTruth,
    SyntheticEngine,
    compute_truth,
)

#: (engine id, page index) of one page of the corpus
PageRef = Tuple[int, int]


def canonical_extraction(extraction: PageExtraction) -> str:
    """The byte form extractions are compared in."""
    return json.dumps(asdict(extraction), sort_keys=True)


def canonical_health(health: WrapperHealth) -> str:
    """The byte form wrapper-health documents are compared in."""
    return json.dumps(health.to_obj(), sort_keys=True)


@dataclass
class EngineInputs:
    """One engine's pages, queries and truth (plus serving references)."""

    engine_id: int
    multi_section: bool
    queries: List[str]
    pages: List[str]
    #: per page; grading reads only the sections, so the rendered page
    #: each truth was read from stays in the generating process
    truths: List[PageTruth]
    #: seconds spent in the testbed generating this engine
    gen_s: float
    #: ``wrapper_to_json`` of the wrapper induced from the sample pages
    wrapper_json: Optional[str] = None
    #: per page: canonical ``EngineWrapper.extract`` and ``check_wrapper``
    reference: Optional[List[Tuple[str, str]]] = None

    @property
    def samples(self) -> List[Tuple[str, str]]:
        return list(zip(self.pages[:SAMPLE_PAGES], self.queries[:SAMPLE_PAGES]))


def make_engine_inputs(task: Tuple[int, int, bool]) -> EngineInputs:
    """Generate engine ``engine_id`` of the corpus for ``seed``.

    Module-level so generation can fan out over child processes.
    """
    engine_id, seed, with_references = task
    start = time.perf_counter()
    engine = SyntheticEngine.generate(
        engine_id, seed + engine_id, multi_section=engine_id >= SINGLE_SECTION_ENGINES
    )
    queries = engine.queries(PAGES_PER_ENGINE)
    pages = [engine.result_page(query) for query in queries]
    truths = [replace(compute_truth(markup), page=None) for markup in pages]
    inputs = EngineInputs(
        engine_id=engine_id,
        multi_section=engine.is_multi_section,
        queries=queries,
        pages=pages,
        truths=truths,
        gen_s=time.perf_counter() - start,
    )
    if with_references:
        wrapper = build_wrapper(inputs.samples)
        inputs.wrapper_json = wrapper_to_json(wrapper)
        inputs.reference = [
            (
                canonical_extraction(wrapper.extract(markup, query)),
                canonical_health(check_wrapper(wrapper, markup, query)),
            )
            for markup, query in zip(pages, queries)
        ]
    return inputs


@dataclass
class Corpus:
    """The whole seeded corpus, engines in id order."""

    seed: int
    engines: List[EngineInputs]

    def digest(self) -> str:
        """SHA-256 over every engine's class, queries and pages."""
        digest = hashlib.sha256()
        for engine in self.engines:
            digest.update(f"{engine.engine_id}:{engine.multi_section}\0".encode())
            for query, markup in zip(engine.queries, engine.pages):
                digest.update(query.encode("utf-8") + b"\0")
                digest.update(markup.encode("utf-8") + b"\0")
        return digest.hexdigest()

    def check_shape(self) -> None:
        """Raise unless the corpus has the paper's shape.

        81 single-section and 38 multi-section engines, 10 pages each.
        """
        multi = sum(1 for engine in self.engines if engine.multi_section)
        problems = []
        if len(self.engines) != TOTAL_ENGINES:
            problems.append(f"{len(self.engines)} engines, not {TOTAL_ENGINES}")
        if multi != MULTI_SECTION_ENGINES:
            problems.append(f"{multi} multi-section engines, not {MULTI_SECTION_ENGINES}")
        for engine in self.engines:
            if len(engine.pages) != PAGES_PER_ENGINE or len(set(engine.queries)) != PAGES_PER_ENGINE:
                problems.append(f"engine {engine.engine_id} lacks {PAGES_PER_ENGINE} distinct pages")
        if problems:
            raise ValueError("corpus has the wrong shape: " + "; ".join(problems))

    @property
    def gen_s(self) -> float:
        return sum(engine.gen_s for engine in self.engines)


def generate(seed: int, with_references: bool, jobs: int) -> Corpus:
    """Generate the corpus for ``seed`` over ``jobs`` child processes.

    Multi-section engines are the slowest to induce, so they are handed
    out first; results come back in engine-id order either way.
    """
    tasks = [(engine_id, seed, with_references) for engine_id in reversed(range(TOTAL_ENGINES))]
    if jobs <= 1:
        engines = [make_engine_inputs(task) for task in tasks]
    else:
        engines = []
        pending = iter(tasks)
        with contextlib.ExitStack() as stack:
            busy = [
                stack.enter_context(procs.Child("perfbench.inputs", "generation_worker"))
                for _ in range(min(jobs, len(tasks)))
            ]
            for worker in busy:
                worker.send(next(pending))
            while busy:
                for worker in procs.wait_any(busy):
                    engines.append(worker.receive())
                    task = next(pending, None)
                    worker.send(task)
                    if task is None:
                        busy.remove(worker)
    engines.sort(key=lambda engine: engine.engine_id)
    return Corpus(seed=seed, engines=engines)


def generation_worker(conn: Any) -> None:
    """Child side of :func:`generate`: one engine per task until ``None``."""
    while True:
        task = conn.recv()
        if task is None:
            return
        conn.send(("engine", make_engine_inputs(task)))


def _rng(seed: int, purpose: str) -> random.Random:
    return random.Random(f"{seed}:{purpose}")


def induce_order(seed: int) -> List[int]:
    """Engine ids in the seeded order ``induce`` visits them."""
    order = list(range(TOTAL_ENGINES))
    _rng(seed, "induce").shuffle(order)
    return order


def serve_order(seed: int) -> List[PageRef]:
    """All 1190 pages in the seeded order ``serve`` requests them."""
    order = [
        (engine_id, page_index)
        for engine_id in range(TOTAL_ENGINES)
        for page_index in range(PAGES_PER_ENGINE)
    ]
    _rng(seed, "serve").shuffle(order)
    return order


def pool_batches(seed: int) -> List[List[PageRef]]:
    """Ten batches, each one page of every engine, in seeded orders.

    A batch is one metasearch query fanned out to the fleet.  Each
    engine's ten pages are dealt over the ten batches in a seeded
    order, and each batch lists its engines in its own seeded order, so
    over one round every page is served exactly once.
    """
    rng = _rng(seed, "pool")
    dealt = []
    for _ in range(TOTAL_ENGINES):
        pages = list(range(PAGES_PER_ENGINE))
        rng.shuffle(pages)
        dealt.append(pages)
    batches = []
    for batch_index in range(PAGES_PER_ENGINE):
        engines = list(range(TOTAL_ENGINES))
        rng.shuffle(engines)
        batches.append([(engine_id, dealt[engine_id][batch_index]) for engine_id in engines])
    return batches


def warm_pages() -> List[PageRef]:
    """Every page once, in engine order: what serve and pool warm up on.

    Warming on one sample page per engine left the kernel memos half
    filled: the first timed round ran about 15 % slower than later ones
    and its p99 was nearly twice theirs, so the metrics depended on how
    many rounds fit in the time.  Warming on every page fills the memos
    before the clock, and every timed round sees the same warm state.
    """
    return [
        (engine_id, page_index)
        for engine_id in range(TOTAL_ENGINES)
        for page_index in range(PAGES_PER_ENGINE)
    ]


#: paper-corpus engines (three single-section, four multi-section)
#: whose induced wrapper and ten extractions every run re-derives; the
#: SHA-256 over ``wrapper_to_json`` and the canonical extractions must
#: match, so a changed output shows on any seed, not only the default
ANCHOR_DIGESTS = {
    3: "4d251348b510140158fd5ebec7ad181acc04dc15b33cba48a0058d24842cc0de",
    44: "52565a8ae99e97894e84f45f448d83e4984fea7fc32e4eaffdd3c8aeac04450b",
    80: "ae9104f42b57655fcde96931b31b34991e8489582e88936d4f734a2afe7454b6",
    83: "81eb2ae7243b9f9b752b90d3e65eb6ee309879fe085641046df37c53651e51ad",
    96: "8825f15890fb03055f71ff320239132511905a5de2d917978031b9ece32ab4a5",
    104: "1e4eb1657444b4311f446cee6bc2bebe27932e916b16fa61753c6de099492012",
    117: "4dc4ea87efe2f79da9407443f7e56ae04f1962161a1da388c3d08ae0feee5c32",
}


def anchor_problems() -> List[str]:
    """Anchor engines whose outputs differ from the recorded bytes."""
    problems = []
    for engine_id, expected in ANCHOR_DIGESTS.items():
        engine = make_engine_inputs((engine_id, CORPUS_SEED, False))
        wrapper = build_wrapper(engine.samples)
        chunks = [wrapper_to_json(wrapper)] + [
            canonical_extraction(wrapper.extract(markup, query))
            for markup, query in zip(engine.pages, engine.queries)
        ]
        if digest_of(chunks) != expected:
            problems.append(f"paper-corpus engine {engine_id} induced or extracted different bytes")
    return problems


def digest_of(chunks: Sequence[str]) -> str:
    """SHA-256 over a sequence of canonical strings."""
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk.encode("utf-8") + b"\0")
    return digest.hexdigest()
