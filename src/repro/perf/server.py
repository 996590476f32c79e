"""Warm persistent serving workers: the long-lived batch pool.

MSE applies each induced wrapper to each result page independently
(§5.7), so a batch is an ordered map over independent pages.
:class:`Server` runs it on a
:class:`~concurrent.futures.ProcessPoolExecutor` kept alive across
batches: the executor's ``initializer`` compiles the wrappers once and
primes each worker's kernel memos over representative pages, and each
chunk of a batch (sized by :func:`auto_chunksize`) is one ``submit``,
read back in chunk order.  When a worker dies, or the pool finishes
nothing for a whole stall window, the server kills every worker, opens
a fresh executor and resubmits only the unfinished chunks, so a crash
costs throughput, never a page, a duplicate or the ordering.  Worker
exceptions arrive with their own type and the worker traceback as
``__cause__``; results are bit-identical to the serial serving path.

Only what the executor lacks is added.  A barrier sized to the pool
makes ``jobs`` report tasks reach ``jobs`` distinct workers, for the
per-worker kernel stats after priming and at close and the observer
documents merged through :meth:`Observer.merge_stats`.  Every worker is
SIGKILLed before ``shutdown(wait=True)``, which otherwise blocks forever
on a stopped one; and the parent drops its unused ends of the executor's
queues, without which a stuck feeder or a half-sent result blocks it too.
The flow rules (MP01/MP02) check the worker functions, declared in
:data:`repro.analysis.registry.POOL_WORKER_ENTRYPOINTS`.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from itertools import islice
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.core.model import PageExtraction
from repro.core.wrapper import EngineWrapper
from repro.htmlmod import NestingDepthError
from repro.obs import NULL_OBSERVER, Observer, ObserverLike
from repro.perf.kernels import kernel_cache_stats
from repro.perf.serve import (
    CompiledWrapper,
    ServedPage,
    build_page_index,
    resolve_assignments,
)

#: one unit of worker work: ((markup, query), wrapper ids to apply)
_PageTask = Tuple[Tuple[str, str], Tuple[int, ...]]

#: a chunk of page tasks shipped in one submit
_Chunk = Tuple[_PageTask, ...]

#: per page of a chunk, one result per applied wrapper
_Payload = List[List[Any]]

#: one worker's report: (pid, priming pages served, observer stats
#: document or None, kernel cache stats)
_Report = Tuple[int, int, Optional[Dict[str, Any]], Dict[str, Any]]

#: seconds the pool may finish nothing (no chunk, no report) before the
#: server takes it for wedged — a stopped worker, or a queue lock held
#: by a worker killed mid-write — and replaces it
_STALL_SECONDS = 60.0

#: pool replacements (after a crash or a stall) one server may spend
_MAX_RESTARTS = 8

#: auto_chunksize targets this many chunks per worker (the stdlib Pool
#: heuristic): slack for work stealing without per-page IPC
_CHUNKS_PER_WORKER = 4

#: auto_chunksize cap: one chunk never serializes an unbounded payload
_MAX_CHUNKSIZE = 64


def auto_chunksize(page_count: int, workers: int) -> int:
    """Chunk size amortizing IPC: about ``_CHUNKS_PER_WORKER`` chunks
    per worker, capped at ``_MAX_CHUNKSIZE`` pages per chunk."""
    if page_count <= 0 or workers <= 0:
        return 1
    chunk, extra = divmod(page_count, workers * _CHUNKS_PER_WORKER)
    if extra:
        chunk += 1
    return max(1, min(chunk, _MAX_CHUNKSIZE))


#: this worker's state, filled by :func:`_init_worker` (never in the
#: parent): ``compiled`` wrappers, ``obs``, ``prime_pages`` served, and
#: the ``barrier`` sized to the pool that holds each worker to one report
_WORKER: Dict[str, Any] = {}


def _init_worker(
    engines: Sequence[EngineWrapper],
    prime_tasks: Sequence[_PageTask],
    observed: bool,
    barrier: Any,
) -> None:
    """Executor initializer: compile the wrappers, prime the memos.

    Priming runs ``serve_index``, which warms every memo a batch can hit
    (extraction *and* health kernels).  A page nested too deep to parse
    primes nothing and is not counted.
    """
    obs: ObserverLike = Observer() if observed else NULL_OBSERVER
    compiled = [CompiledWrapper(engine) for engine in engines]
    primed = 0
    for (markup, query), wrapper_ids in prime_tasks:
        try:
            index = build_page_index(markup, query, obs=obs)
        except NestingDepthError:
            continue
        for wrapper_id in wrapper_ids:
            compiled[wrapper_id].serve_index(index, obs=obs)
        primed += 1
    _WORKER.update(
        compiled=compiled, obs=obs, prime_pages=primed, barrier=barrier
    )
    # The wrappers and primed memos live as long as the worker; freeze
    # them so later collections never re-scan the warm cache population.
    gc.collect()
    gc.freeze()


def _run_chunk(serve: bool, chunk: _Chunk) -> _Payload:
    """Serve (or extract) every page of one chunk, in chunk order."""
    compiled, obs = _WORKER["compiled"], _WORKER["obs"]
    run = (
        CompiledWrapper.serve_index if serve else CompiledWrapper.extract_index
    )
    payload: _Payload = []
    for (markup, query), wrapper_ids in chunk:
        index = build_page_index(markup, query, obs=obs)
        payload.append([run(compiled[i], index, obs=obs) for i in wrapper_ids])
    return payload


def _report(final: bool) -> _Report:
    """This worker's stats, once every worker holds a report task: no
    worker can take a second report while the barrier waits."""
    _WORKER["barrier"].wait(timeout=_STALL_SECONDS)
    obs = _WORKER["obs"]
    doc = obs.stats() if final and isinstance(obs, Observer) else None
    return os.getpid(), _WORKER["prime_pages"], doc, kernel_cache_stats()


class Server:
    """A long-lived pool of pre-warmed compiled-serving workers.

    ``wrappers`` may mix plain :class:`EngineWrapper` and
    :class:`CompiledWrapper`.  ``prime_pages`` — optional representative
    ``(markup, query)`` pairs — are served once by *every* worker at
    spawn to warm its kernel memos; ``prime_of`` restricts each priming
    page to one wrapper, the same shape as ``wrapper_of``.  A priming
    page that is not a ``(str, str)`` pair raises :class:`TypeError`
    here, before any worker starts.

    Use as a context manager, or call :meth:`close`::

        with Server(wrappers, jobs=4, prime_pages=samples) as server:
            extractions = server.extract(pages, wrapper_of=owners)
            served = server.serve(more_pages, wrapper_of=owners)

    Workers stay resident across batches.  Results are deterministic
    and bit-identical to the serial compiled path whatever ``jobs``,
    crashes and stalls included.
    """

    def __init__(
        self,
        wrappers: Sequence[Union[EngineWrapper, CompiledWrapper]],
        jobs: int = 1,
        prime_pages: Sequence[Tuple[str, str]] = (),
        prime_of: Optional[Sequence[int]] = None,
        obs: ObserverLike = NULL_OBSERVER,
    ) -> None:
        if not wrappers:
            raise ValueError("Server needs at least one wrapper")
        for page in prime_pages:
            # A worker that fails to prime dies in the executor
            # initializer, and the pool would be rebuilt until it gives up.
            if not (
                isinstance(page, (tuple, list))
                and len(page) == 2
                and all(isinstance(part, str) for part in page)
            ):
                raise TypeError(
                    f"priming page must be a (markup, query) pair of str, "
                    f"got {page!r:.80}"
                )
        self.jobs = max(1, jobs)
        self.obs = obs
        self.restarts = 0
        #: per-worker telemetry: {"prime_pages", "primed", "final"}; ids
        #: number every worker the server has run, replacements included
        self.worker_stats: Dict[int, Dict[str, Any]] = {}
        self._engines: List[EngineWrapper] = [
            wrapper.engine if isinstance(wrapper, CompiledWrapper) else wrapper
            for wrapper in wrappers
        ]
        prime_ids = resolve_assignments(
            len(prime_pages), prime_of, len(self._engines)
        )
        self._prime: Tuple[_PageTask, ...] = tuple(zip(prime_pages, prime_ids))
        self._observed = bool(getattr(obs, "enabled", False))
        self._pool: Optional[ProcessPoolExecutor] = None
        #: worker pid -> worker id
        self._worker_ids: Dict[int, int] = {}
        self._closed = False

    # -- lifecycle ------------------------------------------------------
    def __enter__(self) -> "Server":
        self.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    @property
    def workers_alive(self) -> int:
        """Live worker processes right now (crash tests poke at this)."""
        return sum(1 for proc in self._processes() if proc.is_alive())

    def start(self) -> "Server":
        """Fork and prime the pool; idempotent; blocks until warm."""
        if self._closed:
            raise RuntimeError("Server is closed")
        if self._pool is None:
            with self.obs.span("server.start"):
                self._open(restart=False)
                self.obs.gauge("server.workers", float(self.jobs))
        return self

    def close(self) -> None:
        """Shut the pool down: collect final stats, merge telemetry, kill."""
        if self._closed:
            return
        self._closed = True
        if self._pool is None:
            return
        for report in self._broadcast(final=True):
            self._on_report("final", report)
        self._kill()
        self.obs.gauge("server.restarts", float(self.restarts))

    # -- the public batch API -------------------------------------------
    def extract(
        self,
        pages: Sequence[Tuple[str, str]],
        wrapper_of: Optional[Sequence[int]] = None,
    ) -> List[List[PageExtraction]]:
        """Batch extraction across the pool; order matches ``pages``."""
        return self._run_batch(pages, wrapper_of, serve=False)

    def serve(
        self,
        pages: Sequence[Tuple[str, str]],
        wrapper_of: Optional[Sequence[int]] = None,
    ) -> List[List[ServedPage]]:
        """Batch serving (extraction + health) across the pool."""
        return self._run_batch(pages, wrapper_of, serve=True)

    # -- internals ------------------------------------------------------
    def _processes(self) -> List[Any]:
        """The executor's worker processes (it has no public handle)."""
        if self._pool is None:
            return []
        return list(self._pool._processes.values())

    def _open(self, restart: bool) -> None:
        """Fork a primed pool, again until every worker reports; each
        replacement spends one unit of the restart budget."""
        while True:
            if restart:
                self._kill()
                self.restarts += 1
                self.obs.count("server.worker_restarts")
                if self.restarts > _MAX_RESTARTS:
                    self._closed = True
                    raise RuntimeError(
                        f"Server exceeded {_MAX_RESTARTS} worker restarts"
                    )
            ctx = multiprocessing.get_context("fork")
            barrier = ctx.Barrier(self.jobs)
            self._pool = ProcessPoolExecutor(
                self.jobs,
                mp_context=ctx,
                initializer=_init_worker,
                initargs=(self._engines, self._prime, self._observed, barrier),
            )
            reports = self._broadcast(final=False)
            for report in reports:
                self._on_report("primed", report)
            if len(reports) == self.jobs:
                # Only workers use these ends.  Without the parent's, a
                # feeder stuck writing to dead workers fails (CPython
                # gh-94777) and a half-sent result reads as EOF, so neither
                # hangs shutdown.  Every worker idles: no thread races us.
                pool: Any = self._pool  # the queues have no public handle
                pool._call_queue._reader.close()
                pool._result_queue._writer.close()
                return
            restart = True

    def _broadcast(self, final: bool) -> List[_Report]:
        """A :func:`_report` from each worker that answers within the
        stall window (a broken or stalled pool answers with fewer)."""
        assert self._pool is not None
        try:
            futures = [
                self._pool.submit(_report, final) for _ in range(self.jobs)
            ]
        except BrokenProcessPool:
            return []
        done, _ = wait(futures, timeout=_STALL_SECONDS)
        answered = [f for f in futures if f in done and f.exception() is None]
        return [future.result() for future in answered]

    def _kill(self) -> None:
        """SIGKILL every worker, then shut the executor down (its join
        would block forever on a stopped worker)."""
        for proc in self._processes():
            proc.kill()
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def _on_report(self, phase: str, report: _Report) -> None:
        """File one worker's ``primed`` or ``final`` report."""
        pid, prime_pages, stats_doc, kernel_stats = report
        if phase == "primed":
            self._worker_ids[pid] = len(self.worker_stats)
        worker_id = self._worker_ids[pid]
        stats = self.worker_stats.setdefault(worker_id, {})
        stats["prime_pages"] = prime_pages
        stats[phase] = kernel_stats
        obs = self.obs
        if stats_doc is not None and isinstance(obs, Observer):
            obs.merge_stats(stats_doc)
        if not obs.enabled:
            return
        prefix = f"server.worker.{worker_id}"
        obs.gauge(f"{prefix}.prime_pages", float(prime_pages))
        for cache, cache_stats in kernel_stats.items():
            rate = cache_stats.get("hit_rate")
            if rate is not None:
                obs.gauge(f"{prefix}.{phase}.{cache}.hit_rate", float(rate))

    def _run_chunks(
        self, serve: bool, chunks: Dict[int, _Chunk]
    ) -> Iterator[Tuple[int, _Payload]]:
        """Run ``chunks`` with one per worker plus one queued in flight;
        yield ``(index, payload)`` as each finishes.  Stops early, leaving
        the rest unyielded, when the pool breaks or finishes nothing for a
        whole stall window.  An error leaves only the chunks in flight to
        run, so nothing is cancelled (on Python 3.11, cancelling a future
        still queued when the pool breaks crashes the manager thread)."""
        assert self._pool is not None
        todo = iter(chunks.items())
        running: Dict[Any, int] = {}  # future -> chunk index
        try:
            while True:
                for i, chunk in islice(todo, self.jobs + 1 - len(running)):
                    running[self._pool.submit(_run_chunk, serve, chunk)] = i
                if not running:
                    return
                finished, _ = wait(
                    running, _STALL_SECONDS, return_when=FIRST_COMPLETED
                )
                if not finished:
                    return
                for future in finished:
                    yield running.pop(future), future.result()
        except BrokenProcessPool:
            return

    def _run_batch(
        self,
        pages: Sequence[Tuple[str, str]],
        wrapper_of: Optional[Sequence[int]],
        serve: bool,
    ) -> List[List[Any]]:
        if self._closed:
            raise RuntimeError("Server is closed")
        assignments = resolve_assignments(
            len(pages), wrapper_of, len(self._engines)
        )
        if not pages:
            return []
        self.start()
        obs = self.obs
        with obs.span("server.batch"):
            size = auto_chunksize(len(pages), self.jobs)
            obs.gauge("server.chunksize", float(size))
            tasks: List[_PageTask] = list(zip(pages, assignments))
            chunks = [
                tuple(tasks[start : start + size])
                for start in range(0, len(tasks), size)
            ]
            done: Dict[int, _Payload] = {}
            while True:
                todo = {
                    i: chunk for i, chunk in enumerate(chunks) if i not in done
                }
                done.update(self._run_chunks(serve, todo))
                if len(done) == len(chunks):
                    break
                self._open(restart=True)
            obs.count("serve.pages", len(pages))
            return [page for index in sorted(done) for page in done[index]]
