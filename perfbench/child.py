"""The measured processes: one workload pass in a fresh interpreter.

The harness starts :func:`main` in a fresh interpreter
(:class:`perfbench.procs.Child`) for every measured pass and every extra
set-up sample.  The child imports the layers its workload calls, says
it is ready (the harness times process start to that moment), receives
its inputs as plain data, sets up, runs the timed loop and sends back
its outputs, latencies and counts.  Nothing here grades or generates:
``repro.evalkit`` and ``repro.testbed`` are never imported in a child.

Untraced runs call the program's top-level entry points and nothing
else.  Traced runs replace each top-level call by the public calls it
is made of, with a span around each (see :mod:`perfbench.tracing`).
"""

from __future__ import annotations

import importlib
import os
import pickle
import resource
import time
import traceback
from typing import Any, Dict, List, Optional, Tuple

from perfbench.tracing import Tracer, interposed

#: modules each workload's untraced path calls into; importing them is
#: the whole of ``induce``'s set-up
IMPORTS = {
    "induce": ("repro.core.mse", "repro.core.serialize"),
    "serve": ("repro.core.serialize", "repro.perf.serve"),
    "pool": ("repro.core.serialize", "repro.perf.server"),
}

#: order of the memo counters a span snapshots at its boundaries
MEMO_COUNTERS = (
    "tree_memo.hits",
    "tree_memo.misses",
    "forest_memo.hits",
    "forest_memo.misses",
    "record_memo.hits",
    "record_memo.misses",
    "dinr_memo.hits",
    "dinr_memo.misses",
)

Job = Dict[str, Any]
Result = Dict[str, Any]


def main(conn: Any, workload: str, traced: str) -> None:
    """Child entry point: handshake, one job, one result, exit.

    ``traced`` is ``"1"`` for the traced run.
    """
    for module in IMPORTS[workload]:
        importlib.import_module(module)
    conn.send(("ready", time.monotonic()))
    job = conn.recv()
    runner = TRACED[workload] if traced == "1" else UNTRACED[workload]
    result = runner(job)
    result["peak_rss_mb"] = result.get("peak_rss_mb", 0.0) + _own_peak_mb()
    conn.send(("result", result))


# -- memory ---------------------------------------------------------------


def _own_peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _children_peak_mb() -> float:
    """Summed peak RSS (VmHWM) of this process's live children."""
    me = os.getpid()
    total_kb = 0
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as handle:
                parent = int(handle.read().rsplit(")", 1)[1].split()[1])
            if parent != me:
                continue
            with open(f"/proc/{entry}/status", encoding="ascii") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except (OSError, ValueError, IndexError):
            continue  # the process ended while being read
    return total_kb / 1024.0


def _memo_counters() -> Tuple[int, ...]:
    from repro.perf import kernels

    return (
        kernels.TREE_MEMO.hits,
        kernels.TREE_MEMO.misses,
        kernels.FOREST_MEMO.hits,
        kernels.FOREST_MEMO.misses,
        kernels.RECORD_MEMO.hits,
        kernels.RECORD_MEMO.misses,
        kernels.DINR_MEMO.hits,
        kernels.DINR_MEMO.misses,
    )


def _memo_entries() -> int:
    from repro.perf.kernels import kernel_cache_stats

    stats = kernel_cache_stats()
    return int(
        sum(stats[name]["entries"] for name in ("tree_memo", "forest_memo", "record_memo", "dinr_memo"))
    )


def _trace_result(tracer: Tracer, job: Job) -> Result:
    tracer.write_jsonl(job["trace_path"])
    return {
        "layers": tracer.layers(),
        "tallies": dict(tracer.tallies),
        "item_s": tracer.duration("item"),
    }


# -- induce -----------------------------------------------------------------


def run_induce(job: Job) -> Result:
    """One induction pass: per engine, build the wrapper, extract 10 pages."""
    if job["setup_only"]:
        return {"setup_post_s": 0.0}
    from repro.core.mse import build_wrapper
    from repro.core.serialize import wrapper_to_json

    pages, queries, samples = job["pages"], job["queries"], job["sample_pages"]
    latencies: List[float] = []
    induced: Dict[int, Any] = {}
    failures: Dict[int, str] = {}
    started = time.perf_counter()
    for engine_id in job["order"]:
        markups, terms = pages[engine_id], queries[engine_id]
        begin = time.perf_counter()
        try:
            wrapper = build_wrapper(list(zip(markups[:samples], terms[:samples])))
            extractions = [wrapper.extract(m, q) for m, q in zip(markups, terms)]
        except Exception:
            failures[engine_id] = traceback.format_exc()
            continue
        latencies.append(time.perf_counter() - begin)
        induced[engine_id] = (wrapper, extractions)
    wall_s = time.perf_counter() - started
    return {
        "wall_s": wall_s,
        "latencies": latencies,
        "failures": failures,
        "outputs": {
            engine_id: (wrapper_to_json(wrapper), extractions)
            for engine_id, (wrapper, extractions) in induced.items()
        },
        "memo_entries": _memo_entries(),
    }


def run_induce_traced(job: Job) -> Result:
    """The induction pass, stage by stage, with a span around each call."""
    from repro.core.mse import MSE
    from repro.core.serialize import wrapper_to_json
    from repro.htmlmod.parser import parse_html
    from repro.pipeline import InductionContext, PipelineRunner, induction_stages
    from repro.render.layout import render_page

    pages, queries, samples = job["pages"], job["queries"], job["sample_pages"]
    tracer = Tracer(_memo_counters)
    outputs: Dict[int, Any] = {}
    failures: Dict[int, str] = {}
    record_cache = [0, 0]
    for engine_id in job["order"]:
        markups, terms = pages[engine_id], queries[engine_id]
        try:
            with tracer.span("item", item=engine_id):
                rendered = []
                for markup in markups[:samples]:
                    with tracer.span("htmlmod.parse"):
                        document = parse_html(markup)
                    with tracer.span("render.layout"):
                        page = render_page(document)
                    tracer.tally("render.lines", len(page.lines))
                    rendered.append(page)
                ctx = InductionContext.from_pages(rendered, terms[:samples])
                for stage in induction_stages(MSE().select_sections):
                    if stage.name == "render":
                        continue  # done above, call by call
                    if stage.spanned:
                        with tracer.span("core." + stage.name):
                            PipelineRunner(jobs=1).run(ctx, [stage])
                    else:
                        PipelineRunner(jobs=1).run(ctx, [stage])
                wrapper = ctx.engine
                extractions = []
                for markup, query in zip(markups, terms):
                    with tracer.span("core.extract"):
                        extractions.append(wrapper.extract(markup, query))
        except Exception:
            failures[engine_id] = traceback.format_exc()
            continue
        record_cache[0] += sum(cache.hits for cache in ctx.caches)
        record_cache[1] += sum(cache.misses for cache in ctx.caches)
        outputs[engine_id] = (wrapper_to_json(wrapper), extractions)
    result = _trace_result(tracer, job)
    result.update(
        outputs=outputs,
        failures=failures,
        failed=len(failures),
        record_cache=record_cache,
        memo_entries=_memo_entries(),
    )
    return result


# -- serve ------------------------------------------------------------------


def _page(job: Job, ref: Tuple[int, int]) -> Tuple[str, str]:
    return job["pages"][ref[0]][ref[1]], job["queries"][ref[0]][ref[1]]


def run_serve(job: Job) -> Result:
    """Load, compile, warm, then serve rounds of all pages until time is up."""
    from repro.core.serialize import wrapper_from_json
    from repro.perf.serve import compile_wrapper

    begin = time.perf_counter()
    compiled = [compile_wrapper(wrapper_from_json(text)) for text in job["wrappers"]]
    for ref in job["warm"]:
        compiled[ref[0]].serve(*_page(job, ref))
    setup_post_s = time.perf_counter() - begin
    if job["setup_only"]:
        return {"setup_post_s": setup_post_s}

    order = job["order"]
    requests = [(compiled[ref[0]], *_page(job, ref)) for ref in order]
    latencies: List[float] = []
    first: Optional[List[Any]] = None
    round_s: List[float] = []
    failed = mismatched = 0
    failure: Optional[str] = None
    while True:
        served: List[Any] = [None] * len(order)
        round_begin = time.perf_counter()
        for position, (wrapper, markup, query) in enumerate(requests):
            item_begin = time.perf_counter()
            try:
                served[position] = wrapper.serve(markup, query)
            except Exception:
                failed += 1
                failure = failure or traceback.format_exc()
                continue
            latencies.append(time.perf_counter() - item_begin)
        round_s.append(time.perf_counter() - round_begin)
        # Outside the clock: every later round must repeat the first.
        if first is None:
            first = served
        else:
            mismatched += sum(1 for a, b in zip(first, served) if a != b)
        if sum(round_s) >= job["seconds"] and len(round_s) >= job["min_rounds"]:
            break
    return {
        "setup_post_s": setup_post_s,
        "round_s": round_s,
        "attempted": len(round_s) * len(order),
        "latencies": latencies,
        "failed": failed,
        "failure": failure,
        "repeat_mismatches": mismatched,
        "served": first,
    }


def run_serve_traced(job: Job) -> Result:
    """One round of serve with each page's calls split out and spanned."""
    from repro.core.dse import clean_page_lines
    from repro.core.serialize import wrapper_from_json
    from repro.htmlmod.parser import parse_html
    from repro.perf import serve as serve_module
    from repro.perf.serve import CompiledWrapper, PageIndex, compile_wrapper
    from repro.render.layout import render_page

    tracer = Tracer(_memo_counters)
    engines = []
    for text in job["wrappers"]:
        with tracer.span("core.serialize.load"):
            engines.append(wrapper_from_json(text))
    compiled = []
    for engine in engines:
        with tracer.span("perf.serve.compile"):
            compiled.append(compile_wrapper(engine))
    for ref in job["warm"]:
        compiled[ref[0]].serve(*_page(job, ref))

    order = job["order"]
    served: List[Any] = [None] * len(order)
    failed = 0
    failure: Optional[str] = None
    with interposed(tracer, CompiledWrapper, "apply_to_index", "perf.serve.apply"), interposed(
        tracer, serve_module, "health_from_applications", "core.verify.health"
    ):
        for position, ref in enumerate(order):
            markup, query = _page(job, ref)
            try:
                with tracer.span("item", item=position):
                    with tracer.span("htmlmod.parse"):
                        document = parse_html(markup)
                    with tracer.span("render.layout"):
                        page = render_page(document)
                    tracer.tally("render.lines", len(page.lines))
                    with tracer.span("core.clean"):
                        clean_page_lines(page, query.split())
                    with tracer.span("perf.serve.index"):
                        index = PageIndex(page)
                    # Extraction assembly has no public entry point: it
                    # stays in the item span's self time.
                    served[position] = compiled[ref[0]].serve_index(index)
            except Exception:
                failed += 1
                failure = failure or traceback.format_exc()
    result = _trace_result(tracer, job)
    result.update(
        served=served,
        failed=failed,
        failure=failure,
        memo_entries=_memo_entries(),
    )
    return result


# -- pool -------------------------------------------------------------------


def _start_server(job: Job, engines: List[Any]) -> Any:
    from repro.perf.server import Server

    warm = job["warm"]
    return Server(
        engines,
        jobs=job["jobs"],
        prime_pages=[_page(job, ref) for ref in warm],
        prime_of=[ref[0] for ref in warm],
    )


def _batch_payload(job: Job, batch: List[Tuple[int, int]]) -> Tuple[List[Tuple[str, str]], List[int]]:
    return [_page(job, ref) for ref in batch], [ref[0] for ref in batch]


def _unpack_batch(served: Any, size: int) -> List[Any]:
    """Per page: its one served result, or None when lost or malformed."""
    if not isinstance(served, list) or len(served) != size:
        return [None] * size
    return [
        results[0] if isinstance(results, list) and len(results) == 1 else None
        for results in served
    ]


def run_pool(job: Job) -> Result:
    """Start a primed pool, then send batches one at a time until time is up."""
    from repro.core.serialize import wrapper_from_json

    begin = time.perf_counter()
    engines = [wrapper_from_json(text) for text in job["wrappers"]]
    server = _start_server(job, engines)
    try:
        server.start()
        setup_post_s = time.perf_counter() - begin
        if job["setup_only"]:
            return {"setup_post_s": setup_post_s}
        payloads = [_batch_payload(job, batch) for batch in job["batches"]]
        latencies: List[float] = []
        first: List[Optional[List[Any]]] = [None] * len(payloads)
        round_s: List[float] = []
        failed = mismatched = 0
        failure: Optional[str] = None
        while True:
            timed_s = 0.0
            for number, (pages, owners) in enumerate(payloads):
                batch_begin = time.perf_counter()
                try:
                    served = server.serve(pages, wrapper_of=owners)
                except Exception:
                    served = None
                    failure = failure or traceback.format_exc()
                elapsed = time.perf_counter() - batch_begin
                timed_s += elapsed
                # Outside the clock: a lost, duplicated or misaligned page
                # is a failed item, never a dropped one.
                results = _unpack_batch(served, len(pages))
                if served is not None:
                    latencies.append(elapsed)
                reference = first[number]
                for position, result in enumerate(results):
                    if result is None:
                        failed += 1
                    elif reference is not None and reference[position] != result:
                        failed += 1
                        mismatched += 1
                if reference is None:
                    first[number] = results
            round_s.append(timed_s)
            if sum(round_s) >= job["seconds"] and len(round_s) >= job["min_rounds"]:
                break
        peak_workers_mb = _children_peak_mb()
        restarts = server.restarts
    finally:
        server.close()
    return {
        "setup_post_s": setup_post_s,
        "round_s": round_s,
        "attempted": len(round_s) * sum(len(pages) for pages, _ in payloads),
        "latencies": latencies,
        "failed": failed,
        "failure": failure,
        "repeat_mismatches": mismatched,
        "served": first,
        "restarts": restarts,
        "peak_rss_mb": peak_workers_mb,
    }


def run_pool_traced(job: Job) -> Result:
    """One round of pool batches, each also served in-process.

    The in-process twin gives the pool's efficiency against ``jobs``
    ideal copies of the single-process loop on the same pages, and a
    second parity check; it runs between batches, outside every span.
    """
    from repro.core.serialize import wrapper_from_json
    from repro.perf.serve import compile_wrapper

    tracer = Tracer(_memo_counters)
    engines = []
    for text in job["wrappers"]:
        with tracer.span("core.serialize.load"):
            engines.append(wrapper_from_json(text))
    compiled = [compile_wrapper(engine) for engine in engines]
    for ref in job["warm"]:
        compiled[ref[0]].serve(*_page(job, ref))

    server = _start_server(job, engines)
    served_batches: List[List[Any]] = []
    pool_s = local_s = 0.0
    result_bytes = pages_sent = failed = mismatched = 0
    failure: Optional[str] = None
    try:
        with tracer.span("perf.server.start"):
            server.start()
        for number, batch in enumerate(job["batches"]):
            pages, owners = _batch_payload(job, batch)
            with tracer.span("item", item=number):
                batch_begin = time.perf_counter()
                try:
                    with tracer.span("perf.server.serve"):
                        served = server.serve(pages, wrapper_of=owners)
                except Exception:
                    served = None
                    failure = failure or traceback.format_exc()
                pool_s += time.perf_counter() - batch_begin
            pages_sent += len(pages)
            results = _unpack_batch(served, len(pages))
            if served is not None:
                result_bytes += len(pickle.dumps(served))
            local_begin = time.perf_counter()
            local = [compiled[owner].serve(m, q) for (m, q), owner in zip(pages, owners)]
            local_s += time.perf_counter() - local_begin
            for result, twin in zip(results, local):
                if result is None:
                    failed += 1
                elif result != twin:
                    failed += 1
                    mismatched += 1
            served_batches.append(results)
        restarts = server.restarts
    finally:
        with tracer.span("perf.server.close"):
            server.close()
    result = _trace_result(tracer, job)
    result.update(
        served=served_batches,
        failed=failed,
        failure=failure,
        inprocess_mismatches=mismatched,
        restarts=restarts,
        pool_s=pool_s,
        local_s=local_s,
        result_bytes=result_bytes,
        pages=pages_sent,
        worker_stats=server.worker_stats,
    )
    return result


UNTRACED = {"induce": run_induce, "serve": run_serve, "pool": run_pool}
TRACED = {"induce": run_induce_traced, "serve": run_serve_traced, "pool": run_pool_traced}
