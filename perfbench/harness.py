"""The benchmark harness: inputs, measured children, checks, metrics.

One invocation runs one workload on one seed:

1. generate the corpus for the seed (input generation, untimed);
2. run the workload's measured pass(es) in fresh child processes
   (:mod:`perfbench.child`, started and stopped by
   :mod:`perfbench.procs`) with tracing off, plus extra set-up-only
   children, since set-up time is reported as a median;
3. with ``--trace 1``, run the traced pass in another child and check
   that its outputs are byte-identical to the untraced ones;
4. grade every extraction against its own page's truth with
   ``repro.evalkit`` (untimed) and check outputs: against the published
   counts on the paper corpus, against the interpreted path's bytes for
   serve and pool;
5. print a table, then one JSON line with the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from perfbench import child, procs

WORKLOADS = {
    "induce": "Induction stages, tree-edit kernels and their memo writes, "
    "and interpreted extraction do the work; perf.serve and perf.server never run.",
    "serve": "Parse, render, clean, page index, automaton apply and health "
    "do all the work on warm memos; no induction stage runs.",
    "pool": "Per-page work is serve's, so any difference from serve is the "
    "pool layer: spawn, priming, chunking, pickling results and IPC.",
}

#: the tail percentile per workload: the highest with at least ten
#: samples beyond it at the workload's smallest run (119 engines; one
#: round of 1190 pages; five rounds of 10 batches)
TAIL_PERCENTILE = {"induce": 90, "serve": 99, "pool": 80}
TAIL_UNIT = {"induce": "engines", "serve": "pages", "pool": "batches"}

#: pool batch rounds always timed, so the p80 has >= 10 batches beyond it
MIN_POOL_ROUNDS = 5

#: fresh processes that set up once each; setup_s is their median
SETUP_SAMPLES = 3

#: the paper corpus (seed CORPUS_SEED) as ``repro eval`` grades it
PAPER_COUNTS = {
    "sections_actual": 1741,
    "sections_extracted": 1849,
    "sections_perfect": 1604,
    "records_actual": 9304,
    "records_extracted": 9303,
    "records_correct": 9222,
}

#: quality floors for other seeds: far below anything the testbed
#: produces (0.88-0.92 section recall, 0.99 record recall), so only a
#: broken extractor trips them
FLOORS = {
    "section_recall": 0.80,
    "section_precision": 0.75,
    "record_recall": 0.95,
    "record_precision": 0.95,
}

END_TO_END_UNITS = {
    "items_per_s": "1/s",
    "p50_ms": "ms",
    "tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
    "section_recall": "ratio",
    "section_precision": "ratio",
    "record_recall": "ratio",
    "record_precision": "ratio",
}

#: span names of the traced run -> per-layer metric names
SPAN_METRICS = {
    "htmlmod.parse": "htmlmod.parse_s",
    "render.layout": "render.layout_s",
    "core.clean": "core.clean_s",
    "perf.serve.index": "perf.serve.index_s",
    "perf.serve.apply": "perf.serve.apply_s",
    "core.verify.health": "core.verify.health_s",
    "perf.serve.compile": "perf.serve.compile_s",
    "core.serialize.load": "core.serialize.load_s",
    "core.mre": "core.mre_s",
    "core.dse": "core.dse_s",
    "core.refine": "core.refine_s",
    "core.mine": "core.mine_s",
    "core.granularity": "core.granularity_s",
    "core.grouping": "core.grouping_s",
    "core.wrapper": "core.wrapper_s",
    "core.families": "core.families_s",
    "core.extract": "core.extract_s",
    "perf.server.start": "perf.server.start_s",
    "perf.server.serve": "perf.server.serve_s",
    "perf.server.close": "perf.server.close_s",
    "item": "item.self_s",
}

PER_LAYER_UNITS: Dict[str, str] = {name: "s" for name in SPAN_METRICS.values()}
PER_LAYER_UNITS.update(
    {
        "render.lines": "count",
        "perf.kernels.tree_memo.misses": "count",
        "perf.kernels.tree_memo.hit_rate": "ratio",
        "perf.kernels.forest_memo.misses": "count",
        "perf.kernels.forest_memo.hit_rate": "ratio",
        "perf.kernels.record_memo.misses": "count",
        "perf.kernels.record_memo.hit_rate": "ratio",
        "perf.kernels.dinr_memo.misses": "count",
        "perf.kernels.dinr_memo.hit_rate": "ratio",
        "perf.kernels.entries": "count",
        "features.record_cache.hit_rate": "ratio",
        "perf.server.restarts": "count",
        "perf.server.chunks": "count",
        "perf.server.result_bytes": "B",
        "perf.server.efficiency": "ratio",
        "perf.server.worker.dinr_memo.hit_rate.primed": "ratio",
        "perf.server.worker.dinr_memo.hit_rate.final": "ratio",
        "testbed.gen_s": "s",
        "trace.overhead": "ratio",
    }
)


# -- child processes --------------------------------------------------------


def run_child(workload: str, traced: bool, job: Dict[str, Any]) -> Tuple[float, Dict[str, Any]]:
    """Run one job in a fresh child interpreter.

    Returns the seconds from process start to the child's imports being
    done, and the child's result.
    """
    with procs.Child("perfbench.child", "main", workload, "1" if traced else "0") as process:
        ready_at = process.receive()
        process.send(job)
        result = process.receive()
    return ready_at - process.started, result


# -- statistics -------------------------------------------------------------


def percentile(values: Sequence[float], q: int) -> float:
    """The q-th percentile, interpolating between order statistics."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# -- grading ----------------------------------------------------------------


@dataclass
class Quality:
    """Table 1 Total and Table 3 counts over all pages of the corpus."""

    counts: Dict[str, int]

    @property
    def metrics(self) -> Dict[str, float]:
        c = self.counts
        return {
            "section_recall": c["sections_perfect"] / c["sections_actual"],
            "section_precision": c["sections_perfect"] / max(1, c["sections_extracted"]),
            "record_recall": c["records_correct"] / max(1, c["records_actual"]),
            "record_precision": c["records_correct"] / max(1, c["records_extracted"]),
        }


def grade(corpus: Any, extractions: Dict[Tuple[int, int], Any]) -> Quality:
    """Grade every page's extraction against its own truth.

    A page without an extraction (its item failed) grades as extracting
    nothing, so failures lower recall instead of vanishing.
    """
    from repro.core.model import PageExtraction
    from repro.evalkit.matching import grade_page
    from repro.evalkit.metrics import RecordCounts, SectionCounts

    sections, records = SectionCounts(), RecordCounts()
    empty = PageExtraction(sections=())
    for engine in corpus.engines:
        for page_index, truth in enumerate(engine.truths):
            extraction = extractions.get((engine.engine_id, page_index), empty)
            page_grade = grade_page(extraction, truth)
            sections.add_grade(page_grade, len(truth.sections))
            records.add_grade(page_grade)
    return Quality(
        {
            "sections_actual": sections.actual,
            "sections_extracted": sections.extracted,
            "sections_perfect": sections.perfect,
            "records_actual": records.actual,
            "records_extracted": records.extracted,
            "records_correct": records.correct,
        }
    )


def quality_problems(seed: int, quality: Quality) -> List[str]:
    from repro.testbed import CORPUS_SEED

    if seed == CORPUS_SEED:
        return [
            f"{name} = {quality.counts[name]}, paper corpus has {expected}"
            for name, expected in PAPER_COUNTS.items()
            if quality.counts[name] != expected
        ]
    return [
        f"{name} = {value:.4f} below the floor {FLOORS[name]}"
        for name, value in quality.metrics.items()
        if value < FLOORS[name]
    ]


# -- one run's outcome ------------------------------------------------------


@dataclass
class Outcome:
    """What the untraced measured run produced, before grading."""

    completed: int
    attempted: int
    failed: int
    wall_s: float
    latencies: List[float]
    setup_samples: List[float]
    peak_rss_mb: float
    #: per page (engine id, page index): the extraction to grade
    extractions: Dict[Tuple[int, int], Any]
    #: canonical bytes of every output, for traced-vs-untraced identity
    output_digest: str
    extraction_digest: str
    problems: List[str] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    #: items/s over the first pass or round alone: the same work a
    #: traced run does, so the baseline of ``trace.overhead``
    first_items_per_s: float = 0.0
    #: ``Server.restarts`` (pool only)
    restarts: Optional[int] = None


def _extraction_digest(extractions: Dict[Tuple[int, int], Any]) -> str:
    from perfbench.inputs import canonical_extraction, digest_of

    return digest_of(canonical_extraction(extractions[key]) for key in sorted(extractions))


# -- induce -----------------------------------------------------------------


def _induce_job(corpus: Any, seed: int) -> Dict[str, Any]:
    from perfbench.inputs import induce_order
    from repro.testbed import SAMPLE_PAGES

    return {
        "setup_only": False,
        "order": induce_order(seed),
        "pages": [engine.pages for engine in corpus.engines],
        "queries": [engine.queries for engine in corpus.engines],
        "sample_pages": SAMPLE_PAGES,
    }


def _induce_digests(outputs: Dict[int, Any]) -> Tuple[str, Dict[Tuple[int, int], Any]]:
    from perfbench.inputs import canonical_extraction, digest_of

    extractions = {}
    chunks = []
    for engine_id in sorted(outputs):
        wrapper_json, pages = outputs[engine_id]
        chunks.append(wrapper_json)
        for page_index, extraction in enumerate(pages):
            extractions[(engine_id, page_index)] = extraction
            chunks.append(canonical_extraction(extraction))
    return digest_of(chunks), extractions


def measure_induce(corpus: Any, seed: int, seconds: float) -> Outcome:
    """Whole passes, each in a fresh process, until ``seconds`` are used.

    A fresh process per pass starts every pass from the kernel-memo
    state a fresh ``repro eval`` process has; a warm second pass in one
    process would run about three times faster and make the figures
    bimodal.
    """
    job = _induce_job(corpus, seed)
    passes: List[Dict[str, Any]] = []
    setup_samples: List[float] = []
    spent = 0.0
    while True:
        import_s, result = run_child("induce", False, job)
        setup_samples.append(import_s)
        passes.append(result)
        spent += result["wall_s"]
        if spent + result["wall_s"] > seconds:
            break
    while len(setup_samples) < SETUP_SAMPLES:
        import_s, _ = run_child("induce", False, {"setup_only": True})
        setup_samples.append(import_s)

    first = passes[0]
    output_digest, extractions = _induce_digests(first["outputs"])
    problems = []
    for result in passes[1:]:
        if _induce_digests(result["outputs"])[0] != output_digest:
            problems.append("a repeated induce pass produced different outputs")
    failures = [text for result in passes for text in result["failures"].values()]
    attempted = len(job["order"]) * len(passes)
    notes = [f"{len(passes)} pass(es)"]
    if failures:
        notes.append("first failure:\n" + failures[0])
    return Outcome(
        completed=attempted - len(failures),
        attempted=attempted,
        failed=len(failures),
        wall_s=sum(result["wall_s"] for result in passes),
        latencies=[value for result in passes for value in result["latencies"]],
        setup_samples=setup_samples,
        peak_rss_mb=max(result["peak_rss_mb"] for result in passes),
        extractions=extractions,
        output_digest=output_digest,
        extraction_digest=_extraction_digest(extractions),
        problems=problems,
        notes=notes,
        first_items_per_s=len(first["latencies"]) / first["wall_s"],
    )


def trace_induce(corpus: Any, seed: int, trace_path: str) -> Dict[str, Any]:
    job = _induce_job(corpus, seed)
    job["trace_path"] = trace_path
    _, result = run_child("induce", True, job)
    result["output_digest"], _ = _induce_digests(result["outputs"])
    return result


# -- serve and pool ---------------------------------------------------------


def _serving_job(corpus: Any, seed: int, workload: str, seconds: float, jobs: int) -> Dict[str, Any]:
    from perfbench.inputs import pool_batches, serve_order, warm_pages

    job: Dict[str, Any] = {
        "setup_only": False,
        "seconds": seconds,
        "wrappers": [engine.wrapper_json for engine in corpus.engines],
        "pages": [engine.pages for engine in corpus.engines],
        "queries": [engine.queries for engine in corpus.engines],
        "warm": warm_pages(),
    }
    if workload == "serve":
        job["order"] = serve_order(seed)
        job["min_rounds"] = 1
    else:
        job["batches"] = pool_batches(seed)
        job["jobs"] = jobs
        job["min_rounds"] = MIN_POOL_ROUNDS
    return job


def _served_by_page(job: Dict[str, Any], served: Any) -> Dict[Tuple[int, int], Any]:
    """Map a child's served results back to (engine id, page index)."""
    if "order" in job:
        refs = job["order"]
        results = served
    else:
        refs = [ref for batch in job["batches"] for ref in batch]
        results = [result for batch in served for result in batch]
    return {tuple(ref): result for ref, result in zip(refs, results) if result is not None}


def _check_against_reference(corpus: Any, by_page: Dict[Tuple[int, int], Any]) -> Tuple[str, List[str]]:
    """Digest of the served outputs; pages whose bytes differ from the
    interpreted ``extract`` and ``check_wrapper`` reference."""
    from perfbench.inputs import canonical_extraction, canonical_health, digest_of

    chunks = []
    wrong = []
    for key in sorted(by_page):
        served = by_page[key]
        extraction = canonical_extraction(served.extraction)
        health = canonical_health(served.health)
        chunks.extend([extraction, health])
        expected = corpus.engines[key[0]].reference[key[1]]
        if (extraction, health) != expected:
            wrong.append(f"engine {key[0]} page {key[1]}")
    return digest_of(chunks), wrong


def measure_serving(corpus: Any, seed: int, workload: str, seconds: float, jobs: int) -> Outcome:
    """serve or pool: one measured child, then set-up-only children."""
    job = _serving_job(corpus, seed, workload, seconds, jobs)
    import_s, result = run_child(workload, False, job)
    setup_samples = [import_s + result["setup_post_s"]]
    setup_job = dict(job, setup_only=True)
    while len(setup_samples) < SETUP_SAMPLES:
        import_s, extra = run_child(workload, False, setup_job)
        setup_samples.append(import_s + extra["setup_post_s"])

    by_page = _served_by_page(job, result["served"])
    output_digest, wrong = _check_against_reference(corpus, by_page)
    problems = [f"{len(wrong)} pages differ from the interpreted path, first {wrong[0]}"] if wrong else []
    if result["repeat_mismatches"]:
        problems.append(f"{result['repeat_mismatches']} re-served pages differ from their first serving")
    round_s = result["round_s"]
    failed = result["failed"]
    if workload == "pool":
        # A misaligned pooled page is a failed one, in its first round
        # and in every later round that repeated it.
        failed = min(result["attempted"], failed + len(wrong) * len(round_s))
    extractions = {key: served.extraction for key, served in by_page.items()}
    per_round = result["attempted"] / len(round_s)
    notes = [f"{len(round_s)} round(s) of {per_round:.0f} pages, pages/s per round: "
             + ", ".join(f"{per_round / s:.0f}" for s in round_s)]
    if result["failure"]:
        notes.append("first failure:\n" + result["failure"])
    return Outcome(
        completed=result["attempted"] - failed,
        attempted=result["attempted"],
        failed=failed,
        wall_s=sum(round_s),
        latencies=result["latencies"],
        setup_samples=setup_samples,
        peak_rss_mb=result["peak_rss_mb"],
        extractions=extractions,
        output_digest=output_digest,
        extraction_digest=_extraction_digest(extractions),
        problems=problems,
        notes=notes,
        first_items_per_s=per_round / round_s[0],
        restarts=result.get("restarts"),
    )


def trace_serving(corpus: Any, seed: int, workload: str, jobs: int, trace_path: str) -> Dict[str, Any]:
    job = _serving_job(corpus, seed, workload, 0.0, jobs)
    job["trace_path"] = trace_path
    _, result = run_child(workload, True, job)
    by_page = _served_by_page(job, result["served"])
    result["output_digest"], _ = _check_against_reference(corpus, by_page)
    return result


# -- metrics ----------------------------------------------------------------


def end_to_end(workload: str, outcome: Outcome, quality: Quality) -> Dict[str, float]:
    """The ten end-to-end metrics, from the untraced run only."""
    latencies = outcome.latencies or [0.0]  # every item failed
    values = {
        "items_per_s": outcome.completed / outcome.wall_s if outcome.wall_s else 0.0,
        "p50_ms": statistics.median(latencies) * 1000.0,
        "tail_ms": percentile(latencies, TAIL_PERCENTILE[workload]) * 1000.0,
        "setup_s": statistics.median(outcome.setup_samples),
        "peak_rss_mb": outcome.peak_rss_mb,
        "success_rate": 1.0 - outcome.failed / outcome.attempted,
    }
    values.update(quality.metrics)
    return values


def _hit_rate(hits: float, misses: float) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def per_layer(
    workload: str, traced: Dict[str, Any], untraced_items_per_s: float, corpus: Any, jobs: int
) -> Tuple[Dict[str, float], Dict[str, int]]:
    """Per-layer metrics of the traced run (0 where a layer never runs).

    ``untraced_items_per_s`` is the untraced rate over the same work
    the traced run did (its first pass or round).
    """
    values: Dict[str, float] = {name: 0.0 for name in PER_LAYER_UNITS}
    calls: Dict[str, int] = {}
    layers = traced["layers"]
    for span, info in layers.items():
        values[SPAN_METRICS[span]] = info["self_s"]
        calls[SPAN_METRICS[span]] = info["calls"]
    values["render.lines"] = traced["tallies"].get("render.lines", 0)
    values["testbed.gen_s"] = corpus.gen_s

    width = len(child.MEMO_COUNTERS)
    if workload == "pool":
        # The pool's memos live in its workers: their traffic between
        # priming and shutdown, summed over workers.
        memo = [0.0] * width
        primed_rates, final_rates, entries = [], [], 0
        for stats in traced["worker_stats"].values():
            if "primed" not in stats or "final" not in stats:
                continue  # a worker that died and was replaced
            for k, label in enumerate(child.MEMO_COUNTERS):
                cache, counter = label.split(".")
                memo[k] += stats["final"][cache][counter] - stats["primed"][cache][counter]
            primed_rates.append(stats["primed"]["dinr_memo"]["hit_rate"])
            final_rates.append(stats["final"]["dinr_memo"]["hit_rate"])
            entries += sum(
                stats["final"][cache]["entries"]
                for cache in ("tree_memo", "forest_memo", "record_memo", "dinr_memo")
            )
        values["perf.kernels.entries"] = entries
        if primed_rates:
            values["perf.server.worker.dinr_memo.hit_rate.primed"] = statistics.mean(primed_rates)
            values["perf.server.worker.dinr_memo.hit_rate.final"] = statistics.mean(final_rates)

        from repro.perf.server import auto_chunksize

        batch = len(corpus.engines)
        size = auto_chunksize(batch, jobs)
        values["perf.server.chunks"] = -(-batch // size)
        values["perf.server.restarts"] = traced["restarts"]
        values["perf.server.result_bytes"] = traced["result_bytes"] / max(1, traced["pages"])
        values["perf.server.efficiency"] = traced["local_s"] / (jobs * traced["pool_s"])
        traced_items_per_s = traced["pages"] / traced["pool_s"]
    else:
        memo = [sum(info["counts"][k] for info in layers.values()) for k in range(width)]
        values["perf.kernels.entries"] = traced["memo_entries"]
        item = layers.get("item", {"calls": 0})
        traced_items_per_s = item["calls"] / traced["item_s"] if traced["item_s"] else 0.0
    if workload == "induce":
        values["features.record_cache.hit_rate"] = _hit_rate(*traced["record_cache"])
    for k in range(0, width, 2):
        cache = child.MEMO_COUNTERS[k].split(".")[0]
        values[f"perf.kernels.{cache}.misses"] = memo[k + 1]
        values[f"perf.kernels.{cache}.hit_rate"] = _hit_rate(memo[k], memo[k + 1])
    if traced_items_per_s:
        values["trace.overhead"] = untraced_items_per_s / traced_items_per_s - 1.0
    return values, calls


# -- output -----------------------------------------------------------------


def _print_table(
    workload: str,
    seed: int,
    corpus_digest: str,
    outcome: Outcome,
    quality: Quality,
    metrics: Dict[str, float],
) -> None:
    c = quality.counts
    details = {
        "tail_ms": f"p{TAIL_PERCENTILE[workload]} of {len(outcome.latencies)} {TAIL_UNIT[workload]}",
        "setup_s": "median of " + ", ".join(f"{v:.3f}" for v in outcome.setup_samples),
        "success_rate": f"error_rate {outcome.failed / outcome.attempted:.4f}: "
        f"{outcome.failed} of {outcome.attempted} items failed",
        "section_recall": f"{c['sections_perfect']} of {c['sections_actual']} sections perfect",
        "section_precision": f"{c['sections_perfect']} of {c['sections_extracted']} extracted",
        "record_recall": f"{c['records_correct']} of {c['records_actual']} records",
        "record_precision": f"{c['records_correct']} of {c['records_extracted']} extracted",
    }
    print(f"workload {workload}: {WORKLOADS[workload]}")
    print(f"seed {seed}  corpus sha256 {corpus_digest[:16]}  " + "  ".join(outcome.notes[:1]))
    for name, unit in END_TO_END_UNITS.items():
        print(f"  {name:<18} {metrics[name]:>12.4f} {unit:<6} {details.get(name, '')}")
    if outcome.restarts is not None:
        print(f"  Server.restarts    {outcome.restarts}")
    print(f"  extractions sha256 {outcome.extraction_digest[:16]}")
    for note in outcome.notes[1:]:
        print(note)


def _print_layers(values: Dict[str, float], calls: Dict[str, int], traced: Dict[str, Any]) -> None:
    print("per-layer (traced run; self time summed over the run):")
    counts = {
        SPAN_METRICS[span]: info["counts"] for span, info in traced["layers"].items()
    }
    print(f"  {'metric':<46} {'value':>12} unit   calls  memo misses tree/forest/record/dinr")
    for name, unit in PER_LAYER_UNITS.items():
        line = f"  {name:<46} {values[name]:>12.6g} {unit:<6}"
        if name in calls:
            misses = counts[name][1::2]
            line += f" {calls[name]:>6}  " + "/".join(str(m) for m in misses)
        print(line)


def _parse(argv: Sequence[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None, help="corpus seed (default: the paper corpus)")
    parser.add_argument("--seconds", type=float, default=8.0, help="timed seconds per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: traced per-layer run")
    return parser.parse_args(argv)


def main(argv: Sequence[str]) -> int:
    args = _parse(argv)
    procs.adopt_orphans()
    procs.stop_on_signals()
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("perfbench: src/repro not found; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    from perfbench import inputs
    from repro.testbed import CORPUS_SEED

    seed = CORPUS_SEED if args.seed is None else args.seed
    jobs = len(os.sched_getaffinity(0))
    workload = args.workload
    corpus = inputs.generate(seed, with_references=workload != "induce", jobs=jobs)
    corpus.check_shape()

    if workload == "induce":
        outcome = measure_induce(corpus, seed, args.seconds)
    else:
        outcome = measure_serving(corpus, seed, workload, args.seconds, jobs)
    quality = grade(corpus, outcome.extractions)
    problems = outcome.problems + quality_problems(seed, quality)
    if workload == "induce":
        # serve and pool run induction only as input generation, and
        # their bytes are checked against the interpreted path instead.
        problems += inputs.anchor_problems()
    metrics = end_to_end(workload, outcome, quality)
    _print_table(workload, seed, corpus.digest(), outcome, quality, metrics)
    units = END_TO_END_UNITS

    if args.trace:
        out_dir = os.path.join(root, "perfbench", "out")
        os.makedirs(out_dir, exist_ok=True)
        trace_path = os.path.join(out_dir, f"trace-{workload}-{seed}.jsonl")
        if workload == "induce":
            traced = trace_induce(corpus, seed, trace_path)
        else:
            traced = trace_serving(corpus, seed, workload, jobs, trace_path)
        if traced["output_digest"] != outcome.output_digest:
            problems.append("the traced run's outputs differ from the untraced run's")
        if traced["failed"]:
            problems.append("the traced run had failures its untraced twin did not")
        if traced.get("inprocess_mismatches"):
            problems.append(f"{traced['inprocess_mismatches']} pooled pages differ from in-process serving")
        metrics, calls = per_layer(workload, traced, outcome.first_items_per_s, corpus, jobs)
        _print_layers(metrics, calls, traced)
        print(f"  spans written to {os.path.relpath(trace_path, root)}")
        units = PER_LAYER_UNITS

    for problem in problems:
        print(f"INCORRECT: {problem}")
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
            }
        )
    )
    return 0
