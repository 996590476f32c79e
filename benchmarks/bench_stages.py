"""Per-stage pipeline stats for benchmark trajectories.

Runs wrapper induction and extraction over a corpus slice under an
:class:`repro.obs.Observer` and writes the aggregate per-stage wall time
and counters to ``BENCH_stages.json`` (same document schema as
``Observer.stats`` / the CLI's ``--trace``).  Comparing these files
across commits attributes a timing or behaviour regression to the stage
that moved — render, mre, dse, refine, mine, granularity, grouping,
wrapper or families.

Set ``REPRO_BENCH_STATS`` to override the output path.
"""

import json
import os

from repro.evalkit.harness import run_evaluation
from repro.obs import Observer

#: engines included in the stage profile (small but multi-section heavy)
STAGE_LIMIT = 8

OUTPUT = os.environ.get("REPRO_BENCH_STATS", "BENCH_stages.json")


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
