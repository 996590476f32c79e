"""Serving-path benchmark: separate vs shared-render vs pooled serving.

Models the production serving loop: one wrapper per engine, induced once
from that engine's sample pages, then applied to a stream of result
pages *with health monitoring* (what :class:`repro.monitor
.WrapperMonitor` does per served page).  The timed modes, over the same
corpus:

- **interpreted serve** — ``EngineWrapper.extract`` followed by
  ``check_wrapper`` per page: extraction and health computed separately
  (two parses, two renders, two application sweeps);
- **compiled serve** — ``CompiledWrapper.serve``: one shared render,
  one application sweep, extraction and health assembled from the same
  per-schema results (:mod:`repro.perf.serve`);
- **cold pool** — an unprimed :class:`repro.perf.server.Server` opened
  and closed per call at ``jobs=N``, so every call pays worker spawn +
  per-worker wrapper compilation with cold kernel memos;
- **warm pool** — a long-lived ``Server`` spawned and primed *before*
  the clock starts: workers are resident, their memos warmed by a
  priming pass (one sample page per engine), chunked batches amortize
  IPC.  Timed for both ``Server.serve`` (the headline: extraction +
  health) and ``Server.extract``.

Every timed page is also a parity check: the compiled extraction must
serialize byte-identically to the interpreted one, the compiled health
document byte-identically to ``check_wrapper``'s — and every pooled
result byte-identically to the serial references.

The process-wide kernel caches are cleared right before the pool modes
run, so pool workers genuinely fork cold and the per-worker
``after_priming`` → ``final`` hit-rate delta in ``memo_warmth`` shows
what the priming pass actually bought.

Pool throughput gates are hardware-aware: the full-strength targets
(warm pool at jobs=4 beating single-thread compiled serve by >= 1.5x
and interpreted serve by >= 3x) apply when >= 4 cores back the
requested workers; scaled floors apply below that, and the measured
environment (cpu count, effective workers) is recorded in the output
so a gate never silently means less than it claims.  The warm-vs-cold
gate is hardware-independent — resident primed workers must beat
per-call pool spin-up even on one core.

Environment overrides:

- ``REPRO_BENCH_SERVE`` — output path (default ``BENCH_serve.json``);
- ``REPRO_BENCH_SERVE_ENGINES`` — engine-count cap (0 = full corpus);
- ``REPRO_BENCH_SERVE_MIN_SPEEDUP`` — serve speedup gate (default 2.0;
  CI uses a softer gate on shared runners);
- ``REPRO_BENCH_SERVE_JOBS`` — worker count for the pool modes;
- ``REPRO_BENCH_SERVE_MIN_POOL_VS_COMPILED`` — warm-pool serve vs
  single-thread compiled serve gate (default hardware-aware);
- ``REPRO_BENCH_SERVE_MIN_POOL_VS_INTERPRETED`` — warm-pool serve vs
  interpreted serve gate (default hardware-aware);
- ``REPRO_BENCH_SERVE_MIN_WARM_VS_COLD`` — warm-pool extract vs
  cold-pool extract gate (default hardware-aware);
- ``REPRO_BENCH_SERVE_REPEATS`` — timing repetitions (default 3; the
  minimum is kept, the ``timeit`` methodology — scheduler jitter only
  ever adds time, so min-of-K is the estimator of true cost).

Runnable as a pytest target (``pytest benchmarks/bench_serve.py``) or
directly (``python benchmarks/bench_serve.py``).
"""

import json
import multiprocessing
import os
import time
from dataclasses import asdict

from repro.core.mse import build_wrapper
from repro.core.verify import check_wrapper
from repro.perf.kernels import clear_kernel_caches
from repro.perf.serve import compile_wrapper
from repro.perf.server import Server, auto_chunksize
from repro.testbed import engine_ids, load_engine_pages

OUTPUT = os.environ.get("REPRO_BENCH_SERVE", "BENCH_serve.json")
ENGINE_LIMIT = int(os.environ.get("REPRO_BENCH_SERVE_ENGINES", "0"))
MIN_SPEEDUP = float(os.environ.get("REPRO_BENCH_SERVE_MIN_SPEEDUP", "2.0"))
JOBS = int(os.environ.get("REPRO_BENCH_SERVE_JOBS", "4"))
REPEATS = int(os.environ.get("REPRO_BENCH_SERVE_REPEATS", "3"))

CPU_COUNT = multiprocessing.cpu_count()
EFFECTIVE_WORKERS = min(JOBS, CPU_COUNT)


def _hardware_gate(full, dual, single):
    """Gate default by how many cores actually back the workers."""
    if EFFECTIVE_WORKERS >= 4:
        return full
    if EFFECTIVE_WORKERS >= 2:
        return dual
    return single


#: warm-pool serve vs single-thread compiled serve: the paper target is
#: 1.5x at 4 real cores; on fewer cores a pool cannot beat one warm
#: thread by parallelism, so the floor only rules out pathological IPC
MIN_POOL_VS_COMPILED = float(
    os.environ.get(
        "REPRO_BENCH_SERVE_MIN_POOL_VS_COMPILED",
        str(_hardware_gate(1.5, 0.9, 0.3)),
    )
)
#: warm-pool serve vs interpreted serve: 3x at 4 real cores
MIN_POOL_VS_INTERPRETED = float(
    os.environ.get(
        "REPRO_BENCH_SERVE_MIN_POOL_VS_INTERPRETED",
        str(_hardware_gate(3.0, 1.8, 0.6)),
    )
)
#: resident primed workers vs per-call pool spin-up: the amortized
#: fork+compile cost only buys a clear win when workers run in
#: parallel; on a single core the saved spin-up is small relative to
#: the serialized page work, so the floor there just rules out the
#: resident pool being materially *slower* than respawning
MIN_WARM_VS_COLD = float(
    os.environ.get(
        "REPRO_BENCH_SERVE_MIN_WARM_VS_COLD",
        str(_hardware_gate(1.15, 1.05, 0.9)),
    )
)

#: kernel memos whose warmth the pool telemetry reports
_WARMTH_CACHES = ("tree_memo", "forest_memo", "record_memo", "dinr_memo")


def _best_of(fn):
    """(min elapsed over REPEATS runs, last result) for a thunk.

    Noise from the scheduler and allocator is strictly additive, so the
    minimum over repetitions estimates the true per-page cost; every
    repetition does the full work, so the result is the same each time.
    """
    best = float("inf")
    result = None
    for _ in range(max(1, REPEATS)):
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        if elapsed < best:
            best = elapsed
    return best, result


def _extraction_bytes(extraction):
    return json.dumps(asdict(extraction), sort_keys=True)


def _health_bytes(health):
    return json.dumps(health.to_obj(), sort_keys=True)


def _percentile(sorted_values, q):
    rank = max(0, min(len(sorted_values) - 1,
                      int(round(q * (len(sorted_values) - 1)))))
    return sorted_values[rank]


def _mode_stats(latencies):
    total = sum(latencies)
    ordered = sorted(latencies)
    return {
        "seconds": total,
        "pages_per_sec": len(latencies) / total if total else 0.0,
        "p50_ms": _percentile(ordered, 0.50) * 1e3,
        "p99_ms": _percentile(ordered, 0.99) * 1e3,
    }


def _pool_stats(seconds, page_count):
    return {
        "jobs": JOBS,
        "seconds": seconds,
        "pages_per_sec": page_count / seconds if seconds else 0.0,
    }


def _mean_hit_rates(worker_stats, snapshot_key):
    """Per-cache hit rates of one snapshot, averaged across workers."""
    rates = {}
    for cache in _WARMTH_CACHES:
        values = [
            stats[snapshot_key][cache]["hit_rate"]
            for stats in worker_stats.values()
            if snapshot_key in stats
        ]
        rates[cache] = sum(values) / len(values) if values else 0.0
    return rates


def _serve_workload():
    """(engine wrappers, per-page (wrapper index, markup, query) tasks,
    one representative priming page per engine)."""
    ids = list(engine_ids())
    if ENGINE_LIMIT:
        ids = ids[:ENGINE_LIMIT]
    engines = []
    tasks = []
    prime_pages = []
    for position, engine_id in enumerate(ids):
        pages = load_engine_pages(engine_id)
        engines.append(build_wrapper(list(pages.sample_set)))
        prime_pages.append(pages.sample_set[0])
        for markup, query in list(pages.sample_set) + list(pages.test_set):
            tasks.append((position, markup, query))
    return engines, tasks, prime_pages


def test_serve_bench_emitted():
    engines, tasks, prime_pages = _serve_workload()
    assert tasks, "empty serve workload"
    compiled = [compile_wrapper(engine) for engine in engines]

    # Steady state: a serving loop runs for months, not once.  One
    # untimed pass warms the process-wide memos and interners for *both*
    # modes (they share the kernel caches), so the timed pass below
    # measures the regime the monitor actually operates in; per-page
    # work (parse, render, index, application) is rebuilt every serve
    # either way.
    for position, markup, query in tasks:
        engines[position].extract(markup, query)
        check_wrapper(engines[position], markup, query)
        compiled[position].serve(markup, query)

    interpreted_serve = []
    compiled_serve = []
    ref_extractions = []
    ref_healths = []
    for position, markup, query in tasks:
        engine = engines[position]
        fast = compiled[position]

        elapsed, (ref_extraction, ref_health) = _best_of(
            lambda: (
                engine.extract(markup, query),
                check_wrapper(engine, markup, query),
            )
        )
        interpreted_serve.append(elapsed)
        ref_extractions.append(_extraction_bytes(ref_extraction))
        ref_healths.append(_health_bytes(ref_health))

        elapsed, served = _best_of(lambda: fast.serve(markup, query))
        compiled_serve.append(elapsed)

        # Parity: the measured results, not a separate run.
        assert _extraction_bytes(served.extraction) == ref_extractions[-1], (
            "compiled serve extraction diverged from EngineWrapper.extract"
        )
        assert _extraction_bytes(fast.extract(markup, query)) == (
            ref_extractions[-1]
        ), "compiled extract diverged from EngineWrapper.extract"
        assert _health_bytes(served.health) == ref_healths[-1], (
            "compiled health diverged from check_wrapper"
        )

    pages = [(markup, query) for _, markup, query in tasks]
    wrapper_of = [position for position, _, _ in tasks]

    # From here on the pool workers must genuinely fork cold: clear the
    # parent's kernel caches so inherited state cannot masquerade as
    # priming (the serial numbers above are already recorded).
    clear_kernel_caches()

    # Cold pool: an unprimed Server per call — every repetition pays
    # spawn + compile + cold memos.
    def cold_pool_extract():
        with Server(compiled, jobs=JOBS) as server:
            return server.extract(pages, wrapper_of=wrapper_of)

    cold_seconds, cold_batch = _best_of(cold_pool_extract)
    pooled_mismatches = 0
    for row, ref in zip(cold_batch, ref_extractions):
        assert len(row) == 1
        if _extraction_bytes(row[0]) != ref:
            pooled_mismatches += 1
    assert pooled_mismatches == 0, (
        "cold-pool extract diverged from the serial references"
    )

    # Warm pool: spawn + prime once, outside the clock; then the same
    # batches run against resident workers with warm memos.
    with Server(
        compiled,
        jobs=JOBS,
        prime_pages=prime_pages,
        prime_of=list(range(len(engines))),
    ) as server:
        warm_serve_seconds, warm_served = _best_of(
            lambda: server.serve(pages, wrapper_of=wrapper_of)
        )
        warm_extract_seconds, warm_batch = _best_of(
            lambda: server.extract(pages, wrapper_of=wrapper_of)
        )
        pool_restarts = server.restarts
    for row, ref_e, ref_h in zip(warm_served, ref_extractions, ref_healths):
        assert len(row) == 1
        if (
            _extraction_bytes(row[0].extraction) != ref_e
            or _health_bytes(row[0].health) != ref_h
        ):
            pooled_mismatches += 1
    for row, ref in zip(warm_batch, ref_extractions):
        if _extraction_bytes(row[0]) != ref:
            pooled_mismatches += 1
    assert pooled_mismatches == 0, (
        "warm-pool results diverged from the serial references"
    )
    memo_warmth = {
        "after_priming": _mean_hit_rates(server.worker_stats, "primed"),
        "final": _mean_hit_rates(server.worker_stats, "final"),
    }

    modes = {
        "interpreted_serve": _mode_stats(interpreted_serve),
        "compiled_serve": _mode_stats(compiled_serve),
        "cold_pool_extract": _pool_stats(cold_seconds, len(pages)),
        "warm_pool_extract": _pool_stats(warm_extract_seconds, len(pages)),
        "warm_pool_serve": _pool_stats(warm_serve_seconds, len(pages)),
    }
    speedups = {
        # The headline: serving with monitoring, single thread.
        "serve": (
            modes["interpreted_serve"]["seconds"]
            / modes["compiled_serve"]["seconds"]
        ),
        # The pool headline: warm resident workers vs everything else.
        "pool_serve_vs_compiled_serve": (
            modes["warm_pool_serve"]["pages_per_sec"]
            / modes["compiled_serve"]["pages_per_sec"]
        ),
        "pool_serve_vs_interpreted_serve": (
            modes["warm_pool_serve"]["pages_per_sec"]
            / modes["interpreted_serve"]["pages_per_sec"]
        ),
        "warm_vs_cold_pool": (
            modes["warm_pool_extract"]["pages_per_sec"]
            / modes["cold_pool_extract"]["pages_per_sec"]
        ),
    }
    doc = {
        "format": "repro-serve-bench",
        "version": 3,
        "workload": {
            "engines": len(engines),
            "pages": len(pages),
            "pages_per_engine": len(pages) // max(1, len(engines)),
            "min_speedup_gate": MIN_SPEEDUP,
            "warmup_passes": 1,
            "timing_repeats": REPEATS,
        },
        "environment": {
            "cpu_count": CPU_COUNT,
            "jobs": JOBS,
            "effective_workers": EFFECTIVE_WORKERS,
            "chunksize": auto_chunksize(len(pages), JOBS),
            "prime_pages": len(prime_pages),
            "pool_restarts": pool_restarts,
        },
        "gates": {
            "min_speedup": MIN_SPEEDUP,
            "min_pool_vs_compiled": MIN_POOL_VS_COMPILED,
            "min_pool_vs_interpreted": MIN_POOL_VS_INTERPRETED,
            "min_warm_vs_cold": MIN_WARM_VS_COLD,
        },
        "modes": modes,
        "speedups": speedups,
        "memo_warmth": memo_warmth,
        "parity": {
            "pages_checked": len(pages),
            # serial pass + warm serve + warm extract + cold extract
            "pooled_results_checked": 3 * len(pages),
            "mismatches": 0,
        },
    }
    with open(OUTPUT, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"\nserve bench written to {OUTPUT}")
    for name, row in modes.items():
        line = (f"  {name:<20s} {row['seconds'] * 1e3:>9.1f}ms  "
                f"{row['pages_per_sec']:>7.1f} pages/sec")
        if "p50_ms" in row:
            line += (f"  p50 {row['p50_ms']:>6.2f}ms  "
                     f"p99 {row['p99_ms']:>6.2f}ms")
        print(line)
    print(f"  serve speedup {speedups['serve']:.2f}x")
    print(f"  warm pool({JOBS} jobs, {EFFECTIVE_WORKERS} effective) "
          f"vs compiled serve {speedups['pool_serve_vs_compiled_serve']:.2f}x  "
          f"vs interpreted {speedups['pool_serve_vs_interpreted_serve']:.2f}x  "
          f"warm-vs-cold {speedups['warm_vs_cold_pool']:.2f}x")

    # Gates run after the JSON is written: a failed floor still leaves
    # the measured numbers on disk for diagnosis.
    assert speedups["serve"] >= MIN_SPEEDUP, (speedups, MIN_SPEEDUP)
    assert speedups["pool_serve_vs_compiled_serve"] >= MIN_POOL_VS_COMPILED, (
        speedups, MIN_POOL_VS_COMPILED
    )
    assert (
        speedups["pool_serve_vs_interpreted_serve"] >= MIN_POOL_VS_INTERPRETED
    ), (speedups, MIN_POOL_VS_INTERPRETED)
    assert speedups["warm_vs_cold_pool"] >= MIN_WARM_VS_COLD, (
        speedups, MIN_WARM_VS_COLD
    )


if __name__ == "__main__":
    test_serve_bench_emitted()
