"""Warm persistent serving workers: the long-lived batch pool.

:func:`repro.perf.serve.extract_many` answers *one* batch, but it used
to pay the whole pool tax per call: fork workers, re-compile every
wrapper inside each of them, start with cold ``TREE_MEMO`` /
``FOREST_MEMO`` / ``DINR_MEMO`` caches, and ship one page per IPC
round-trip.  ``BENCH_serve.json`` recorded the result — a 4-worker pool
*losing* to one warm thread.

:class:`Server` keeps the pool alive instead:

- **Spawn once.**  Workers are forked at :meth:`Server.start` (or on
  first use) and stay resident across calls.  Each worker compiles the
  engine wrappers once and then runs a *priming pass* over caller-chosen
  representative pages, so the per-process kernel memos and interners
  are warm before the first real batch arrives.  Per-worker cache
  warmth is reported back (``server.worker.*`` gauges and
  :attr:`Server.worker_stats`) so benchmarks can show the
  cold-vs-warm delta next to pages/sec.
- **Amortize IPC.**  Batches are split into chunks sized by
  :func:`auto_chunksize` (the classic ``len(pages) / (workers * 4)``
  heuristic, capped) and dispatched one chunk per idle worker, so the
  per-message cost spreads over many pages while the tail stays
  balanced.
- **Degrade, don't lose.**  The parent polls worker liveness while it
  collects results; a worker that dies mid-chunk is respawned (with a
  fresh task queue, so a stale chunk can never replay) and its chunk is
  retried.  Chunk completion is idempotent, batch-epoch-fenced and
  written into position-indexed slots, so a crash costs throughput —
  never a page, never a duplicate, never the ordering.  If the pool
  goes *silent* for a whole stall window (a stopped worker, or a result
  queue poisoned by a worker killed mid-write), the parent rebuilds it
  wholesale — every worker killed, fresh queues, in-flight chunks
  requeued — so no single wedged channel can deadlock a batch; crashes
  and rebuilds draw from the same ``max_restarts`` budget and raise
  once it is exhausted.

Results are bit-identical to the serial serving path (and therefore to
the :meth:`~repro.core.wrapper.EngineWrapper.extract` /
``check_wrapper`` pair): workers run the same
:class:`~repro.perf.serve.CompiledWrapper` code on the same rendered
page, and the parity suite asserts it corpus-wide.

Per-worker observability rides the same protocol: when the caller's
observer is enabled each worker keeps its own
:class:`~repro.obs.Observer`, and at :meth:`Server.close` the worker
stats documents merge back through :meth:`Observer.merge_stats` (spans
graft, counters add, metrics fold via
:meth:`MetricsRegistry.merge_snapshot`).

Fork-safety and pickle-safety of this module are enforced by the flow
rules (MP01/MP02): the worker entry points are registered in
:data:`repro.analysis.registry.POOL_WORKER_ENTRYPOINTS`, and the only
globals workers touch are the registered process-local memos.
"""

from __future__ import annotations

import gc
import multiprocessing
import traceback
from collections import deque
from queue import Empty
from typing import (
    Any,
    Deque,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

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

#: one unit of worker work: (markup, query, wrapper ids to apply)
_PageTask = Tuple[str, str, Tuple[int, ...]]

#: a chunk of page tasks shipped in one IPC message
_Chunk = Tuple[_PageTask, ...]

#: batch modes (what the worker runs per page)
_MODE_EXTRACT = "extract"
_MODE_SERVE = "serve"

#: seconds between liveness checks while waiting on the result queue
_POLL_SECONDS = 0.05

#: consecutive empty polls (~60 s at _POLL_SECONDS) before the parent
#: assumes the worker IPC is wedged — fork can copy a queue mid-write
#: on a loaded box — and terminates the silent workers so the normal
#: respawn-and-requeue path recovers instead of polling forever
_STALL_POLLS = 1200

#: auto_chunksize targets this many chunks per worker (the stdlib
#: Pool heuristic): enough slack for work stealing without paying
#: per-page IPC
_CHUNKS_PER_WORKER = 4

#: auto_chunksize cap so huge batches still stream progress
_MAX_CHUNKSIZE = 64


def auto_chunksize(page_count: int, workers: int) -> int:
    """Chunk size amortizing IPC for ``page_count`` pages on ``workers``.

    Mirrors ``multiprocessing.Pool``'s heuristic — about
    ``_CHUNKS_PER_WORKER`` chunks per worker so stragglers can steal
    work — capped at ``_MAX_CHUNKSIZE`` pages per message so one chunk
    never serializes an unbounded payload.
    """
    if page_count <= 0 or workers <= 0:
        return 1
    chunk, extra = divmod(page_count, workers * _CHUNKS_PER_WORKER)
    if extra:
        chunk += 1
    return max(1, min(chunk, _MAX_CHUNKSIZE))


def _prime_worker(
    compiled: Sequence[CompiledWrapper],
    prime_tasks: Sequence[_PageTask],
    obs: ObserverLike,
) -> int:
    """Warm this process's kernel memos: serve every priming page.

    ``serve_index`` exercises strictly more of the hot path than
    ``extract_index`` (extraction *and* the DINR/health kernels), so
    priming through it warms every memo a later batch can hit.  The
    served results are discarded — only the cache side effects matter.
    A page nested too deep to parse primes nothing and is not counted;
    serving it later raises its :class:`NestingDepthError` as usual.
    """
    primed = 0
    for markup, query, wrapper_ids in prime_tasks:
        try:
            index = build_page_index(markup, query, obs=obs)
        except NestingDepthError:
            continue
        for wrapper_id in wrapper_ids:
            compiled[wrapper_id].serve_index(index, obs=obs)
        primed += 1
    return primed


def _run_chunk(
    compiled: Sequence[CompiledWrapper],
    mode: str,
    chunk: _Chunk,
    obs: ObserverLike,
) -> List[List[Any]]:
    """Serve or extract every page of one chunk, in chunk order."""
    payload: List[List[Any]] = []
    for markup, query, wrapper_ids in chunk:
        index = build_page_index(markup, query, obs=obs)
        if mode == _MODE_SERVE:
            payload.append(
                [
                    compiled[wrapper_id].serve_index(index, obs=obs)
                    for wrapper_id in wrapper_ids
                ]
            )
        else:
            payload.append(
                [
                    compiled[wrapper_id].extract_index(index, obs=obs)
                    for wrapper_id in wrapper_ids
                ]
            )
    return payload


def _worker_main(
    worker_id: int,
    engines: Sequence[EngineWrapper],
    prime_tasks: Sequence[_PageTask],
    observed: bool,
    tasks: Any,
    results: Any,
) -> None:
    """Resident worker loop: compile, prime, then serve chunks forever.

    Protocol (messages on ``results``):

    - ``("primed", worker_id, prime_pages, kernel_stats)`` once the
      wrappers are compiled and the priming pass has run;
    - ``("done", worker_id, epoch, chunk_id, payload)`` per completed
      chunk — ``epoch`` echoes the batch that dispatched it, so the
      parent can discard chunks from a batch aborted by an error;
    - ``("error", worker_id, epoch, chunk_id, formatted_traceback,
      nesting_message)`` when a chunk raises — ``nesting_message`` is the
      one-line message of a :class:`NestingDepthError`, else ``None``;
      the worker stays alive for the next chunk;
    - ``("stats", worker_id, stats_doc, kernel_stats)`` in response to
      the ``None`` shutdown sentinel, after which the worker exits.
    """
    obs: ObserverLike = Observer() if observed else NULL_OBSERVER
    compiled = [CompiledWrapper(engine) for engine in engines]
    primed = _prime_worker(compiled, prime_tasks, obs)
    # The wrappers and primed memos are permanent for this
    # worker's lifetime; freeze them out of the cyclic GC so later
    # collections never re-scan the (large) warm cache population.
    gc.collect()
    gc.freeze()
    results.put(("primed", worker_id, primed, kernel_cache_stats()))
    while True:
        message = tasks.get()
        if message is None:
            stats_doc = obs.stats() if isinstance(obs, Observer) else None
            results.put(("stats", worker_id, stats_doc, kernel_cache_stats()))
            return
        epoch, chunk_id, mode, chunk = message
        try:
            payload = _run_chunk(compiled, mode, chunk, obs)
        except Exception as exc:
            nesting = str(exc) if isinstance(exc, NestingDepthError) else None
            trace = traceback.format_exc()
            results.put(("error", worker_id, epoch, chunk_id, trace, nesting))
            continue
        results.put(("done", worker_id, epoch, chunk_id, payload))


class Server:
    """A long-lived pool of pre-warmed compiled-serving workers.

    ``wrappers`` may mix plain :class:`EngineWrapper` and
    :class:`CompiledWrapper` (workers compile their own copies).
    ``prime_pages`` — optional representative ``(markup, query)`` pairs
    — are served once by *every* worker at spawn to warm its kernel
    memos; ``prime_of`` restricts each priming page to one wrapper, the
    same shape as ``wrapper_of``.

    Use as a context manager, or call :meth:`close` / :meth:`join`::

        with Server(wrappers, jobs=4, prime_pages=samples) as server:
            extractions = server.extract(pages, wrapper_of=owners)
            served = server.serve(more_pages, wrapper_of=owners)

    Batches may be submitted repeatedly; workers stay resident (that is
    the point).  Results are deterministic and bit-identical to the
    serial compiled path regardless of ``jobs``/``chunksize``; a worker
    crash is detected, the worker respawned and its chunk retried, so
    pages are never lost or duplicated.
    """

    def __init__(
        self,
        wrappers: Sequence[Union[EngineWrapper, CompiledWrapper]],
        jobs: int = 1,
        chunksize: Optional[int] = None,
        prime_pages: Sequence[Tuple[str, str]] = (),
        prime_of: Optional[Sequence[int]] = None,
        obs: ObserverLike = NULL_OBSERVER,
        max_restarts: int = 8,
    ) -> None:
        if not wrappers:
            raise ValueError("Server needs at least one wrapper")
        if chunksize is not None and chunksize < 1:
            raise ValueError("chunksize must be >= 1")
        self.jobs = max(1, jobs)
        self.chunksize = chunksize
        self.obs = obs
        self.max_restarts = max_restarts
        self.restarts = 0
        #: per-worker telemetry: {"prime_pages", "primed", "final", ...}
        self.worker_stats: Dict[int, Dict[str, Any]] = {}
        self._engines: List[EngineWrapper] = [
            wrapper.engine if isinstance(wrapper, CompiledWrapper) else wrapper
            for wrapper in wrappers
        ]
        prime_ids = resolve_assignments(
            len(prime_pages), prime_of, len(self._engines)
        )
        self._prime: Tuple[_PageTask, ...] = tuple(
            (markup, query, wrapper_ids)
            for (markup, query), wrapper_ids in zip(prime_pages, prime_ids)
        )
        self._observed = bool(getattr(obs, "enabled", False))
        self._ctx = multiprocessing.get_context()
        self._result_queue: Any = self._ctx.Queue()
        self._workers: Dict[int, Any] = {}
        self._task_queues: Dict[int, Any] = {}
        self._primed: Set[int] = set()
        #: worker id -> (batch epoch, chunk id) of its in-flight chunk
        self._busy: Dict[int, Tuple[int, int]] = {}
        self._next_worker_id = 0
        self._epoch = 0
        self._started = False
        self._closed = False
        # per-batch state (reset by _run_batch)
        self._chunks: List[_Chunk] = []
        self._chunk_starts: List[int] = []
        self._pending: Deque[int] = deque()
        self._completed: Set[int] = set()
        self._slots: List[Optional[List[Any]]] = []
        self._mode: str = _MODE_EXTRACT

    # -- lifecycle ------------------------------------------------------
    def __enter__(self) -> "Server":
        self.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    @property
    def workers_alive(self) -> int:
        """Live worker processes right now (crash tests poke at this)."""
        return sum(1 for proc in self._workers.values() if proc.is_alive())

    def start(self) -> "Server":
        """Spawn and prime the pool; idempotent; blocks until warm."""
        if self._closed:
            raise RuntimeError("Server is closed")
        if self._started:
            return self
        self._started = True
        with self.obs.span("server.start"):
            for _ in range(self.jobs):
                self._spawn()
            stalled = 0
            while any(
                worker_id not in self._primed for worker_id in self._workers
            ):
                message = self._poll()
                if message is None:
                    stalled += 1
                    if stalled >= _STALL_POLLS:
                        stalled = 0
                        self._rebuild_pool()
                        continue
                    self._reap()
                    continue
                stalled = 0
                if message[0] == "primed":
                    self._on_primed(message[1], message[2], message[3])
            self.obs.gauge("server.workers", float(len(self._workers)))
        return self

    def close(self) -> None:
        """Shut the pool down: drain stats, merge telemetry, join."""
        if self._closed:
            return
        self._closed = True
        if not self._started:
            return
        for worker_id in sorted(self._task_queues):
            self._task_queues[worker_id].put(None)
        waiting = {
            worker_id
            for worker_id, proc in self._workers.items()
            if proc.is_alive()
        }
        exited: Set[int] = set()
        stalled = 0
        while waiting:
            message = self._poll()
            if message is None:
                stalled += 1
                if stalled >= _STALL_POLLS:
                    break  # wedged workers: the join/terminate below cleans up
                # A worker that had exited before this empty poll has
                # nothing left in flight; one that exited since may still
                # have its stats in the pipe, so it gets one more poll.
                waiting -= exited
                exited = {
                    worker_id
                    for worker_id in waiting
                    if not self._workers[worker_id].is_alive()
                }
                continue
            stalled = 0
            if message[0] == "stats":
                self._on_final_stats(message[1], message[2], message[3])
                waiting.discard(message[1])
            # late "done"/"error"/"primed" messages are harmless here
        for proc in self._workers.values():
            proc.join(timeout=5)
            if proc.is_alive():
                proc.kill()
                proc.join()
        self._workers.clear()
        self._task_queues.clear()
        self._primed.clear()
        self._busy.clear()
        self.obs.gauge("server.restarts", float(self.restarts))

    def join(self) -> None:
        """Alias for :meth:`close` (submit/collect API symmetry)."""
        self.close()

    # -- the public batch API -------------------------------------------
    def extract(
        self,
        pages: Sequence[Tuple[str, str]],
        wrapper_of: Optional[Sequence[int]] = None,
    ) -> List[List[PageExtraction]]:
        """Batch extraction across the pool; order matches ``pages``."""
        return self._run_batch(pages, wrapper_of, _MODE_EXTRACT)

    def serve(
        self,
        pages: Sequence[Tuple[str, str]],
        wrapper_of: Optional[Sequence[int]] = None,
    ) -> List[List[ServedPage]]:
        """Batch serving (extraction + health) across the pool."""
        return self._run_batch(pages, wrapper_of, _MODE_SERVE)

    # -- internals ------------------------------------------------------
    def _spawn(self) -> int:
        """Start one worker with a fresh task queue; returns its id."""
        worker_id = self._next_worker_id
        self._next_worker_id += 1
        task_queue = self._ctx.Queue()
        proc = self._ctx.Process(
            target=_worker_main,
            args=(
                worker_id,
                self._engines,
                self._prime,
                self._observed,
                task_queue,
                self._result_queue,
            ),
        )
        proc.daemon = True
        proc.start()
        self._task_queues[worker_id] = task_queue
        self._workers[worker_id] = proc
        return worker_id

    def _poll(self) -> Optional[Tuple[Any, ...]]:
        """One result-queue read; ``None`` means check liveness."""
        try:
            message: Tuple[Any, ...] = self._result_queue.get(
                timeout=_POLL_SECONDS
            )
        except Empty:
            return None
        return message

    def _reap(self) -> None:
        """Respawn dead workers; requeue whatever they were chewing on.

        A dead worker's in-flight chunk goes back to the *front* of the
        pending deque (retry first), and its replacement gets a fresh
        task queue — a chunk sitting in the dead worker's queue can
        therefore never be delivered twice.  A chunk from an aborted
        earlier batch (stale epoch) is simply dropped.
        """
        for worker_id in sorted(self._workers):
            proc = self._workers[worker_id]
            if proc.is_alive():
                continue
            del self._workers[worker_id]
            del self._task_queues[worker_id]
            self._primed.discard(worker_id)
            in_flight = self._busy.pop(worker_id, None)
            if in_flight is not None:
                epoch, chunk_id = in_flight
                if epoch == self._epoch and chunk_id not in self._completed:
                    self._pending.appendleft(chunk_id)
            self.restarts += 1
            self.obs.count("server.worker_restarts")
            if self.restarts > self.max_restarts:
                self._abort()
                raise RuntimeError(
                    f"Server exceeded {self.max_restarts} worker restarts"
                )
            replacement = self._spawn()
            self.worker_stats.setdefault(replacement, {})["respawned_for"] = (
                worker_id
            )

    def _rebuild_pool(self) -> None:
        """Tear the whole pool down and bring it back on fresh queues.

        The stall recovery: when every channel goes silent for a whole
        window, the likeliest causes are a lost task message or a
        *poisoned result queue* — a worker killed between writing its
        message bytes and releasing the queue's shared write lock
        leaves that semaphore held forever, wedging every other worker.
        Per-worker respawn cannot fix either (the replacement inherits
        the same result queue), so: SIGKILL every worker, swap in a
        fresh result queue, respawn the pool, and requeue whatever was
        in flight.  Costs one re-prime and one unit of the restart
        budget — a wedge that persists across ``max_restarts`` rebuilds
        raises rather than looping.
        """
        self.obs.count("server.pool_rebuilds")
        for worker_id in list(self._workers):
            proc = self._workers.pop(worker_id)
            if proc.is_alive():
                # SIGKILL, not SIGTERM: a wedged (or stopped) worker may
                # never get to deliver a catchable signal.
                proc.kill()
            proc.join()
            self._task_queues.pop(worker_id, None)
            self._primed.discard(worker_id)
            in_flight = self._busy.pop(worker_id, None)
            if in_flight is not None:
                epoch, chunk_id = in_flight
                if epoch == self._epoch and chunk_id not in self._completed:
                    self._pending.appendleft(chunk_id)
        self.restarts += 1
        if self.restarts > self.max_restarts:
            self._abort()
            raise RuntimeError(
                f"Server exceeded {self.max_restarts} worker restarts"
            )
        self._result_queue = self._ctx.Queue()
        for _ in range(self.jobs):
            self._spawn()

    def _abort(self) -> None:
        """Hard-stop every worker (restart-budget exhausted)."""
        self._closed = True
        for proc in self._workers.values():
            if proc.is_alive():
                proc.kill()
            proc.join()
        self._workers.clear()
        self._task_queues.clear()
        self._busy.clear()

    def _on_primed(
        self, worker_id: int, prime_pages: int, kernel_stats: Dict[str, Any]
    ) -> None:
        self._primed.add(worker_id)
        stats = self.worker_stats.setdefault(worker_id, {})
        stats["prime_pages"] = prime_pages
        stats["primed"] = kernel_stats
        obs = self.obs
        if obs.enabled:
            obs.gauge(
                f"server.worker.{worker_id}.prime_pages", float(prime_pages)
            )
            for cache, cache_stats in kernel_stats.items():
                rate = cache_stats.get("hit_rate")
                if rate is not None:
                    obs.gauge(
                        f"server.worker.{worker_id}.primed.{cache}.hit_rate",
                        float(rate),
                    )

    def _on_final_stats(
        self,
        worker_id: int,
        stats_doc: Optional[Dict[str, Any]],
        kernel_stats: Dict[str, Any],
    ) -> None:
        stats = self.worker_stats.setdefault(worker_id, {})
        stats["final"] = kernel_stats
        obs = self.obs
        if stats_doc is not None:
            merge = getattr(obs, "merge_stats", None)
            if merge is not None:
                merge(stats_doc)
        if obs.enabled:
            for cache, cache_stats in kernel_stats.items():
                rate = cache_stats.get("hit_rate")
                if rate is not None:
                    obs.gauge(
                        f"server.worker.{worker_id}.final.{cache}.hit_rate",
                        float(rate),
                    )

    def _dispatch(self) -> None:
        """Hand one pending chunk to every idle worker."""
        for worker_id in sorted(self._workers):
            if worker_id in self._busy:
                continue
            chunk_id: Optional[int] = None
            while self._pending:
                candidate = self._pending.popleft()
                if candidate not in self._completed:
                    chunk_id = candidate
                    break
            if chunk_id is None:
                return
            self._task_queues[worker_id].put(
                (self._epoch, chunk_id, self._mode, self._chunks[chunk_id])
            )
            self._busy[worker_id] = (self._epoch, chunk_id)

    def _on_done(
        self,
        worker_id: int,
        epoch: int,
        chunk_id: int,
        payload: List[List[Any]],
    ) -> None:
        if self._busy.get(worker_id) == (epoch, chunk_id):
            del self._busy[worker_id]
        if epoch != self._epoch:
            return  # chunk from a batch aborted by an error: drop it
        if chunk_id in self._completed:
            return  # a retried chunk finished twice: identical, drop it
        self._completed.add(chunk_id)
        start = self._chunk_starts[chunk_id]
        for offset, page_results in enumerate(payload):
            self._slots[start + offset] = page_results

    def _run_batch(
        self,
        pages: Sequence[Tuple[str, str]],
        wrapper_of: Optional[Sequence[int]],
        mode: str,
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
            # New epoch: anything still in flight from an aborted batch
            # will be recognized as stale and discarded on arrival.
            self._epoch += 1
            size = self.chunksize or auto_chunksize(len(pages), self.jobs)
            tasks: List[_PageTask] = [
                (markup, query, wrapper_ids)
                for (markup, query), wrapper_ids in zip(pages, assignments)
            ]
            self._mode = mode
            self._chunks = [
                tuple(tasks[start : start + size])
                for start in range(0, len(tasks), size)
            ]
            self._chunk_starts = list(range(0, len(tasks), size))
            self._pending = deque(range(len(self._chunks)))
            self._completed = set()
            self._slots = [None] * len(pages)
            obs.gauge("server.chunksize", float(size))
            stalled = 0
            while len(self._completed) < len(self._chunks):
                self._dispatch()
                message = self._poll()
                if message is None:
                    stalled += 1
                    if stalled >= _STALL_POLLS:
                        stalled = 0
                        self._rebuild_pool()
                        continue
                    self._reap()
                    continue
                stalled = 0
                kind = message[0]
                if kind == "done":
                    self._on_done(
                        message[1], message[2], message[3], message[4]
                    )
                elif kind == "error":
                    self._busy.pop(message[1], None)
                    if message[2] != self._epoch:
                        continue  # failure of an already-aborted batch
                    failure = RuntimeError(
                        f"server worker {message[1]} failed on chunk "
                        f"{message[3]}:\n{message[4]}"
                    )
                    # A too-deep page is the caller's input error: keep
                    # its type, with the worker traceback as the cause.
                    if message[5] is not None:
                        raise NestingDepthError(message[5]) from failure
                    raise failure
                elif kind == "primed":
                    self._on_primed(message[1], message[2], message[3])
            obs.count("serve.pages", len(self._slots))
            results: List[List[Any]] = []
            for slot in self._slots:
                assert slot is not None  # every chunk completed exactly once
                results.append(slot)
            self._slots = []
            self._chunks = []
            return results
