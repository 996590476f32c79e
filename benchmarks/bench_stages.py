"""Per-stage pipeline stats for benchmark trajectories.

Runs wrapper induction and extraction over a corpus slice under an
:class:`repro.obs.Observer` and writes the aggregate per-stage wall time
and counters to ``BENCH_stages.json`` (same document schema as
``Observer.stats`` / the CLI's ``--trace``).  Comparing these files
across commits attributes a timing or behaviour regression to the stage
that moved — render, mre, dse, refine, mine, granularity, grouping,
wrapper or families.

The second bench covers the ``repro.pipeline`` execution layer itself:
checkpoint write/read overhead, written to ``BENCH_pipeline.json`` (and
the checkpointed and resumed wrappers are asserted byte-identical to
the fresh one — the layer's load-bearing invariant).

Set ``REPRO_BENCH_STATS`` / ``REPRO_BENCH_PIPELINE`` to override the
output paths.
"""

import json
import os
import time

from repro.core.mse import build_wrapper
from repro.core.serialize import wrapper_to_json
from repro.evalkit.harness import run_evaluation
from repro.obs import Observer
from repro.testbed import load_engine_pages

#: engines included in the stage profile (small but multi-section heavy)
STAGE_LIMIT = 8

#: engines for the pipeline-layer bench: one single-, one multi-section
PIPELINE_ENGINES = (3, 85)

OUTPUT = os.environ.get("REPRO_BENCH_STATS", "BENCH_stages.json")
OUTPUT_PIPELINE = os.environ.get("REPRO_BENCH_PIPELINE", "BENCH_pipeline.json")


def test_stage_stats_emitted():
    obs = Observer()
    run = run_evaluation("all", limit=STAGE_LIMIT, obs=obs)
    assert run.engines

    stats = obs.stats()
    stages = {span["name"] for span in stats["spans"]}
    # Every induction stage must be attributable.
    for stage in (
        "render", "mre", "dse", "refine", "mine",
        "granularity", "grouping", "wrapper", "families",
    ):
        assert stage in stages, f"stage {stage} missing from trace"
    # The cache hit-rate gauge is the headline perf metric.
    assert "record_distance_cache.hit_rate" in stats["metrics"]["gauges"]

    with open(OUTPUT, "w", encoding="utf-8") as handle:
        json.dump(stats, handle, indent=2, sort_keys=True)
    print(f"\nper-stage stats written to {OUTPUT}")
    for span in stats["spans"]:
        print(
            f"  {span['path']:<24s} {span['calls']:>4d}x "
            f"{span['seconds'] * 1000:>9.1f}ms"
        )


def _timed_induction(samples, **kwargs):
    start = time.perf_counter()
    engine = build_wrapper(samples, **kwargs)
    return wrapper_to_json(engine), time.perf_counter() - start


def test_pipeline_bench_emitted(tmp_path):
    """Checkpoint write/read overhead → BENCH_pipeline.json."""
    report = {"format": "repro-bench-pipeline", "version": 2, "engines": {}}
    for engine_id in PIPELINE_ENGINES:
        samples = load_engine_pages(engine_id).sample_set
        ck = tmp_path / f"ck-{engine_id}"

        serial, serial_s = _timed_induction(samples)
        cold, cold_s = _timed_induction(samples, checkpoint_dir=str(ck))
        warm, warm_s = _timed_induction(
            samples, checkpoint_dir=str(ck), resume=True
        )

        # The layer's invariant: every variant is byte-identical.
        assert cold == serial, f"checkpointed wrapper differs (engine {engine_id})"
        assert warm == serial, f"resumed wrapper differs (engine {engine_id})"

        store_bytes = sum(
            entry.stat().st_size for entry in ck.iterdir() if entry.is_file()
        )
        report["engines"][str(engine_id)] = {
            "pages": len(samples),
            "serial_seconds": serial_s,
            "checkpoint_cold_seconds": cold_s,
            "checkpoint_write_overhead_seconds": cold_s - serial_s,
            "resume_seconds": warm_s,
            "resume_speedup": serial_s / warm_s if warm_s else None,
            "checkpoint_bytes": store_bytes,
        }

    with open(OUTPUT_PIPELINE, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
    print(f"\npipeline bench written to {OUTPUT_PIPELINE}")
    for engine_id, row in report["engines"].items():
        print(
            f"  engine {engine_id}: serial {row['serial_seconds'] * 1000:.0f}ms"
            f"  ckpt-cold {row['checkpoint_cold_seconds'] * 1000:.0f}ms"
            f"  resume {row['resume_seconds'] * 1000:.0f}ms"
            f"  store {row['checkpoint_bytes']}B"
        )
