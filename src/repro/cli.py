"""Command-line interface.

    python -m repro induce  -o wrapper.json page1.html:query1 page2.html:query2 ...
                    [--jobs N] [--checkpoint-dir DIR] [--resume]
    python -m repro extract -w wrapper.json page1.html[:q1] [page2.html[:q2] ...]
                    [--query "..."] [--json]
    python -m repro serve   -w wrapper.json [-w more.json ...] --pages page1.html[:q1] ...
                    [--jobs N] [--json FILE]
    python -m repro check   -w wrapper.json page.html [--query "..."] [--json FILE]
    python -m repro monitor -w wrapper.json page1.html:q1 page2.html:q2 ...
                    [--window N] [--threshold X] [--heal] [--events FILE]
    python -m repro monitor --testbed ID --evolve MUTATION [--mutate-at N] [--pages N]
    python -m repro eval    [--table 1|2|3|all] [--limit N] [--jobs N]
    python -m repro demo    [--engine-id N]

``induce`` builds a wrapper from sample pages (each argument is an HTML
file path, optionally suffixed ``:query terms``); ``extract`` applies a
saved wrapper to one or more pages and prints sections/records — with
``--json`` it emits one array with a per-page timing entry; ``serve``
runs the batch serving path (:mod:`repro.perf.serve`): each page is
parsed and rendered once and every wrapper is applied to the shared
render, reporting pages/sec and p50/p99 per-page latency (``--jobs N``
fans pages out over worker processes);
``check`` reports wrapper health on one page (``--json FILE`` writes the
machine-readable breakdown); ``monitor`` feeds a stream of pages through
the sliding-window drift monitor — with ``--heal`` it re-induces and
hot-swaps the wrapper once drift is confirmed, and ``--events FILE``
persists the health-event JSONL log.  In ``--testbed`` mode the stream
comes from a template-evolution engine (see
``repro.testbed.evolution``): the wrapper is induced from pre-mutation
sample pages and detection latency is reported against ground truth.
``eval`` regenerates the paper's tables on the synthetic corpus;
``demo`` runs a full induce-and-extract round trip against one
synthetic engine.

``induce --jobs N`` fans the per-page pipeline stages out over worker
processes; ``--checkpoint-dir DIR`` persists every stage's artifacts as
JSON, and ``--resume`` reuses them on a later run, recomputing only
missing stages and their dependents (see ``repro.pipeline``).  All
variants produce byte-identical wrapper JSON.

``induce``, ``extract``, ``check`` and ``eval`` accept ``--trace FILE``
(write a JSONL pipeline trace: one span per stage with wall time and
stage counters, plus a final metrics record) and ``--stats`` (print the
human-readable span tree and metrics to stderr after the run).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import List, Optional, Sequence, Tuple

from repro.core.annotate import annotate_record
from repro.core.mse import build_wrapper
from repro.core.serialize import load_wrapper, save_wrapper
from repro.core.verify import check_wrapper
from repro.htmlmod import NestingDepthError
from repro.obs import NULL_OBSERVER, Observer, render_report

#: page-argument suffixes that may carry an inline query
_PAGE_EXTENSIONS = (".html:", ".htm:")


def _split_page_arg(arg: str) -> Tuple[str, str]:
    """``path.html:query terms`` -> (path, query); query optional.

    Only the suffix after the *last* ``.html:`` (or ``.htm:``) counts as
    the query, so paths that contain colons themselves (Windows drive
    letters, ``dir:name`` conventions) parse as plain paths.
    """
    lower = arg.lower()
    for ext in _PAGE_EXTENSIONS:
        index = lower.rfind(ext)
        if index != -1:
            colon = index + len(ext) - 1
            return arg[:colon], arg[colon + 1 :]
    return arg, ""


class _PageReadError(Exception):
    """A page file could not be read (missing, unreadable, not text)."""


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise _PageReadError(f"cannot read page file {path!r}: {exc}") from exc


def _observer_for(args):
    """An enabled observer when the command asked for tracing/stats."""
    if getattr(args, "trace", None) or getattr(args, "stats", False):
        return Observer()
    return NULL_OBSERVER


def _finish_obs(args, obs, title: str) -> None:
    """Persist/print the observer's results per the command's flags."""
    if not obs.enabled:
        return
    if getattr(args, "trace", None):
        obs.write_jsonl(args.trace)
    if getattr(args, "stats", False):
        print(render_report(obs, title), file=sys.stderr)


def cmd_induce(args) -> int:
    samples = []
    for arg in args.pages:
        path, query = _split_page_arg(arg)
        samples.append((_read(path), query))
    if len(samples) < 2:
        print("induce: need at least two sample pages", file=sys.stderr)
        return 2
    if args.resume and not args.checkpoint_dir:
        print("induce: --resume requires --checkpoint-dir", file=sys.stderr)
        return 2
    obs = _observer_for(args)
    wrapper = build_wrapper(
        samples,
        obs=obs,
        jobs=args.jobs,
        checkpoint_dir=args.checkpoint_dir,
        resume=args.resume,
    )
    save_wrapper(wrapper, args.output)
    print(
        f"wrote {args.output}: {len(wrapper.wrappers)} section schema(s), "
        f"{len(wrapper.families)} famil{'y' if len(wrapper.families) == 1 else 'ies'}"
    )
    _finish_obs(args, obs, "induce trace")
    return 0


def _section_payload(section) -> dict:
    return {
        "schema": section.schema_id,
        "lbm": section.lbm_text,
        "lines": list(section.line_span),
        "records": [
            {"lines": list(r.lines), "span": list(r.line_span),
             "fields": annotate_record(r).fields}
            for r in section.records
        ],
    }


def cmd_extract(args) -> int:
    wrapper = load_wrapper(args.wrapper)
    obs = _observer_for(args)
    # Read every page up front so a bad path fails before any output.
    pages: List[Tuple[str, str, str]] = []
    for arg in args.pages:
        path, query = _split_page_arg(arg)
        pages.append((path, _read(path), query or args.query))

    # --jobs > 1 routes the batch through the serving pool
    # (bit-identical extractions, no per-page timing).
    batch: Optional[List] = None
    if args.jobs > 1 and len(pages) > 1:
        from repro.perf.serve import extract_many

        rows = extract_many(
            [(markup, query) for _, markup, query in pages],
            [wrapper],
            jobs=args.jobs,
            chunksize=args.chunksize,
            obs=obs,
        )
        batch = [row[0] for row in rows]

    payload = []
    for position, (path, markup, query) in enumerate(pages):
        seconds: Optional[float] = None
        if batch is not None:
            extraction = batch[position]
        else:
            start = time.perf_counter()
            extraction = wrapper.extract(markup, query, obs=obs)
            seconds = time.perf_counter() - start
        if args.json:
            entry = {
                "page": path,
                "query": query,
                "sections": [
                    _section_payload(section)
                    for section in extraction.sections
                ],
            }
            if seconds is not None:
                entry["seconds"] = seconds
            payload.append(entry)
            continue
        if len(pages) > 1:
            print(f"== {path} ==")
        print(f"{len(extraction)} section(s), "
              f"{extraction.record_count} record(s)")
        for section in extraction.sections:
            print(f"\n[{section.lbm_text or section.schema_id}]")
            for record in section.records:
                print(f"  - {record.text}")
        if len(pages) > 1:
            print()
    _finish_obs(args, obs, "extract trace")
    if args.json:
        print(json.dumps(payload, indent=2))
    return 0


def _percentile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank percentile of an ascending-sorted non-empty list."""
    rank = max(0, min(len(sorted_values) - 1,
                      int(round(q * (len(sorted_values) - 1)))))
    return sorted_values[rank]


def cmd_serve(args) -> int:
    from repro.perf.serve import build_page_index, compile_wrapper
    from repro.perf.server import Server, auto_chunksize

    page_args = list(args.pages) + list(args.pages_flag or [])
    if not page_args:
        print("serve: need at least one page (positional or --pages)",
              file=sys.stderr)
        return 2
    engines = [load_wrapper(path) for path in args.wrapper]
    pages: List[Tuple[str, str]] = []
    paths: List[str] = []
    for arg in page_args:
        path, query = _split_page_arg(arg)
        pages.append((_read(path), query or args.query))
        paths.append(path)

    obs = _observer_for(args)
    compiled = [compile_wrapper(engine) for engine in engines]
    latencies: Optional[List[float]] = None
    pool_doc: Optional[dict] = None
    if args.jobs <= 1:
        results = []
        latencies = []
        start = time.perf_counter()
        for markup, query in pages:
            page_start = time.perf_counter()
            index = build_page_index(markup, query, obs=obs)
            results.append(
                [one.extract_index(index, obs=obs) for one in compiled]
            )
            latencies.append(time.perf_counter() - page_start)
        elapsed = time.perf_counter() - start
    else:
        # The warm persistent pool: workers compile the wrappers once
        # and prime their kernel memos on the first page before the
        # timed batch runs.
        jobs = min(args.jobs, len(pages))
        with Server(
            compiled,
            jobs=jobs,
            chunksize=args.chunksize,
            prime_pages=pages[:1],
            obs=obs,
        ) as server:
            start = time.perf_counter()
            results = server.extract(pages)
            elapsed = time.perf_counter() - start
            pool_doc = {
                "workers": jobs,
                "chunksize": args.chunksize
                or auto_chunksize(len(pages), jobs),
                "prime_pages": 1,
                "restarts": server.restarts,
                "worker_prime_pages": {
                    str(worker_id): stats.get("prime_pages", 0)
                    for worker_id, stats in sorted(
                        server.worker_stats.items()
                    )
                },
            }

    doc = {
        "format": "repro-serve-report",
        "jobs": args.jobs,
        "wrappers": list(args.wrapper),
        "pages": [],
        "wall_seconds": elapsed,
        "pages_per_sec": len(pages) / elapsed if elapsed > 0 else 0.0,
    }
    if pool_doc is not None:
        doc["pool"] = pool_doc
    for position, (path, row) in enumerate(zip(paths, results)):
        entry = {
            "page": path,
            "sections": sum(len(extraction) for extraction in row),
            "records": sum(
                extraction.record_count for extraction in row
            ),
        }
        if latencies is not None:
            entry["seconds"] = latencies[position]
        doc["pages"].append(entry)
        print(f"  {path}: {entry['sections']} section(s), "
              f"{entry['records']} record(s)")
    if latencies:
        ordered = sorted(latencies)
        doc["latency"] = {
            "p50_ms": _percentile(ordered, 0.50) * 1e3,
            "p99_ms": _percentile(ordered, 0.99) * 1e3,
        }
        print(f"served {len(pages)} page(s) with {len(compiled)} compiled "
              f"wrapper(s) in {elapsed:.3f}s "
              f"({doc['pages_per_sec']:.1f} pages/sec, "
              f"p50 {doc['latency']['p50_ms']:.2f}ms, "
              f"p99 {doc['latency']['p99_ms']:.2f}ms)")
    else:
        print(f"served {len(pages)} page(s) with {len(compiled)} compiled "
              f"wrapper(s) in {elapsed:.3f}s "
              f"({doc['pages_per_sec']:.1f} pages/sec, jobs={args.jobs})")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, indent=2, sort_keys=True)
            handle.write("\n")
    _finish_obs(args, obs, "serve trace")
    return 0


def cmd_check(args) -> int:
    wrapper = load_wrapper(args.wrapper)
    obs = _observer_for(args)
    health = check_wrapper(wrapper, _read(args.page), args.query, obs=obs)
    print(f"health score: {health.score:.2f} "
          f"({'DRIFTED - re-induce' if health.drifted else 'ok'})")
    for section in health.sections:
        status = "ok" if section.healthy else ("absent" if not section.found else "suspect")
        print(f"  {section.schema_id}: {status} "
              f"(records={section.record_count}, typical={section.typical_records})")
        checks = " ".join(
            f"{name}={'pass' if passed else 'FAIL'}"
            for name, passed in section.checks.items()
        )
        print(f"    checks: {checks} (homogeneity={section.homogeneity:.3f})")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(health.to_obj(), handle, indent=2, sort_keys=True)
            handle.write("\n")
    if getattr(args, "stats", False):
        print("metrics: " + json.dumps(health.metrics, sort_keys=True),
              file=sys.stderr)
    _finish_obs(args, obs, "check trace")
    return 1 if health.drifted else 0


def cmd_monitor(args) -> int:
    from repro.monitor import MonitorConfig, WrapperMonitor

    config = MonitorConfig(
        window=args.window,
        threshold=args.threshold,
        ph_delta=args.ph_delta,
        ph_lambda=args.ph_lambda,
        heal=args.heal,
        checkpoint_dir=args.checkpoint_dir,
        jobs=args.jobs,
    )

    truth = None
    if args.testbed is not None:
        from repro.testbed.evolution import MUTATIONS, load_evolving_pages
        from repro.testbed.corpus import SAMPLE_PAGES

        if args.pages:
            print("monitor: --testbed and page arguments are exclusive",
                  file=sys.stderr)
            return 2
        if args.evolve not in MUTATIONS:
            print(f"monitor: unknown mutation {args.evolve!r} "
                  f"(choose from {', '.join(sorted(MUTATIONS))})",
                  file=sys.stderr)
            return 2
        evolving = load_evolving_pages(
            args.testbed, args.evolve,
            mutate_at=args.mutate_at, total_pages=args.total_pages,
        )
        truth = evolving.truth
        if args.wrapper:
            wrapper = load_wrapper(args.wrapper)
        else:
            wrapper = build_wrapper(evolving.sample_set)
        stream = evolving.stream(SAMPLE_PAGES)
        offset = SAMPLE_PAGES
        print(f"testbed engine {args.testbed} / {args.evolve}: monitoring "
              f"{len(stream)} pages (template mutates at page "
              f"{truth.mutate_at}, drift expected: {truth.drift_expected})")
    else:
        if not args.wrapper:
            print("monitor: -w/--wrapper is required outside --testbed mode",
                  file=sys.stderr)
            return 2
        if len(args.pages) < 1:
            print("monitor: need at least one page to monitor", file=sys.stderr)
            return 2
        wrapper = load_wrapper(args.wrapper)
        stream = []
        for arg in args.pages:
            path, query = _split_page_arg(arg)
            stream.append((_read(path), query))
        offset = 0

    obs = _observer_for(args)
    monitor = WrapperMonitor(wrapper, config, obs=obs)
    for markup, query in stream:
        page = offset + monitor.pages_seen
        health = monitor.observe_page(markup, query)
        print(f"  page {page:3d}: score {health.score:.2f} "
              f"state={monitor.state}")
        for event in monitor.log.events[-3:]:
            if event["event"] == "drift" and event["page"] == page - offset:
                print(f"    DRIFT confirmed on stream {event['stream']!r} "
                      f"(ph={event['ph']:.2f}, ewma={event['ewma']:.2f})")
            elif event["event"] == "heal" and event["page"] == page - offset:
                verdict = "recovered" if event["recovered"] else "NOT recovered"
                print(f"    heal attempt: {verdict} "
                      f"(post-heal score {event['score']:.2f})")

    summary = monitor.summary()
    doc = summary.to_obj()
    if truth is not None:
        doc["truth"] = {
            "engine_id": truth.engine_id,
            "mutation": truth.mutation,
            "mutate_at": truth.mutate_at,
            "drift_expected": truth.drift_expected,
        }
        detected = [offset + page for page in summary.drift_pages]
        doc["detected_at"] = detected
        doc["detection_latency"] = (
            truth.detection_latency(detected[0]) if detected else None
        )
    print(f"monitored {summary.pages} pages: {summary.drifts} drift(s), "
          f"{summary.reinductions} re-induction(s), {summary.heals} heal(s); "
          f"final state {summary.state}")
    if truth is not None and doc["detection_latency"] is not None:
        print(f"detection latency: {doc['detection_latency']} page(s) "
              f"after the mutation")
    if args.events:
        monitor.log.write_jsonl(args.events)
        print(f"wrote {len(monitor.log.events)} health events to {args.events}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, indent=2, sort_keys=True)
            handle.write("\n")
    _finish_obs(args, obs, "monitor trace")
    return 0 if summary.state == "healthy" else 1


def cmd_eval(args) -> int:
    from repro.evalkit.harness import main as harness_main

    argv = ["--table", args.table]
    if args.limit is not None:
        argv += ["--limit", str(args.limit)]
    if args.progress:
        argv.append("--progress")
    if args.jobs != 1:
        argv += ["--jobs", str(args.jobs)]
    if args.trace:
        argv += ["--trace", args.trace]
    if args.stats:
        argv.append("--stats")
    return harness_main(argv)


def cmd_demo(args) -> int:
    from repro.testbed import load_engine_pages

    engine_pages = load_engine_pages(args.engine_id)
    engine = engine_pages.engine
    print(f"engine {engine.name}: {len(engine.sections)} section schema(s), "
          f"template {engine.template.name}")
    wrapper = build_wrapper(engine_pages.sample_set)
    print(f"induced {len(wrapper.wrappers)} schema(s), "
          f"{len(wrapper.families)} family(ies) from "
          f"{len(engine_pages.sample_set)} sample pages")
    markup, query = engine_pages.test_set[0]
    extraction = wrapper.extract(markup, query)
    print(f"\nextraction for held-out query {query!r}:")
    for section in extraction.sections:
        print(f"  [{section.lbm_text or section.schema_id}] {len(section)} records")
        for record in section.records[:3]:
            print(f"     - {record.lines[0][:70]}")
    return 0


def _add_obs_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace",
        metavar="FILE",
        default=None,
        help="write a JSONL pipeline trace (spans + metrics) to FILE",
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help="print the span tree and metrics to stderr after the run",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_induce = sub.add_parser("induce", help="build a wrapper from sample pages")
    p_induce.add_argument("pages", nargs="+", help="page.html[:query terms]")
    p_induce.add_argument("-o", "--output", required=True, help="wrapper JSON path")
    p_induce.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for per-page pipeline stages (1 = serial)",
    )
    p_induce.add_argument(
        "--checkpoint-dir", metavar="DIR", default=None,
        help="persist per-stage artifacts to DIR (JSON checkpoints)",
    )
    p_induce.add_argument(
        "--resume", action="store_true",
        help="reuse artifacts in --checkpoint-dir; recompute only missing "
        "stages (and their dependents, e.g. after adding sample pages)",
    )
    _add_obs_flags(p_induce)
    p_induce.set_defaults(func=cmd_induce)

    p_extract = sub.add_parser("extract", help="apply a wrapper to page(s)")
    p_extract.add_argument(
        "pages", nargs="+", help="result page HTML file(s), page.html[:query]"
    )
    p_extract.add_argument("-w", "--wrapper", required=True)
    p_extract.add_argument(
        "--query", default="",
        help="query for pages without an inline :query suffix",
    )
    p_extract.add_argument(
        "--json", action="store_true",
        help="emit one JSON array with per-page sections and timing",
    )
    p_extract.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for batch extraction over the compiled "
        "serving pool (1 = serial interpreted loop with per-page timing)",
    )
    p_extract.add_argument(
        "--chunksize", type=int, default=None,
        help="pages per worker IPC message when --jobs > 1 "
        "(default: auto heuristic from page and worker count)",
    )
    _add_obs_flags(p_extract)
    p_extract.set_defaults(func=cmd_extract)

    p_serve = sub.add_parser(
        "serve", help="batch-extract pages with compiled wrappers"
    )
    p_serve.add_argument(
        "pages", nargs="*", help="result page HTML file(s), page.html[:query]"
    )
    p_serve.add_argument(
        "--pages", dest="pages_flag", nargs="+", metavar="PAGE",
        help="additional page.html[:query] arguments",
    )
    p_serve.add_argument(
        "-w", "--wrapper", action="append", required=True,
        help="wrapper JSON path (repeat to serve several engines' wrappers)",
    )
    p_serve.add_argument(
        "--query", default="",
        help="query for pages without an inline :query suffix",
    )
    p_serve.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for page serving (1 = serial, with p50/p99; "
        ">1 routes through the warm persistent Server pool)",
    )
    p_serve.add_argument(
        "--chunksize", type=int, default=None,
        help="pages per worker IPC message when --jobs > 1 "
        "(default: auto heuristic from page and worker count)",
    )
    p_serve.add_argument(
        "--json", metavar="FILE", default=None,
        help="write the serve report (per-page counts, throughput) to FILE",
    )
    _add_obs_flags(p_serve)
    p_serve.set_defaults(func=cmd_serve)

    p_check = sub.add_parser("check", help="wrapper health / drift detection")
    p_check.add_argument("page", help="result page HTML file")
    p_check.add_argument("-w", "--wrapper", required=True)
    p_check.add_argument("--query", default="")
    p_check.add_argument(
        "--json", metavar="FILE", default=None,
        help="write the machine-readable health breakdown to FILE",
    )
    _add_obs_flags(p_check)
    p_check.set_defaults(func=cmd_check)

    p_monitor = sub.add_parser(
        "monitor", help="sliding-window drift monitor over a page stream"
    )
    p_monitor.add_argument(
        "pages", nargs="*", help="page.html[:query terms] stream, in served order"
    )
    p_monitor.add_argument(
        "-w", "--wrapper", default=None,
        help="wrapper JSON (required unless --testbed induces one)",
    )
    p_monitor.add_argument(
        "--window", type=int, default=8,
        help="sliding-window length in pages (default 8)",
    )
    p_monitor.add_argument(
        "--threshold", type=float, default=0.6,
        help="health threshold for drift confirmation and heal acceptance",
    )
    p_monitor.add_argument(
        "--ph-delta", type=float, default=0.05,
        help="Page-Hinkley tolerated deviation below the running mean",
    )
    p_monitor.add_argument(
        "--ph-lambda", type=float, default=1.0,
        help="Page-Hinkley alarm threshold on the cumulative statistic",
    )
    p_monitor.add_argument(
        "--heal", action="store_true",
        help="re-induce and hot-swap the wrapper once drift is confirmed",
    )
    p_monitor.add_argument(
        "--events", metavar="FILE", default=None,
        help="write the health-event JSONL log to FILE",
    )
    p_monitor.add_argument(
        "--json", metavar="FILE", default=None,
        help="write the end-of-run summary JSON to FILE",
    )
    p_monitor.add_argument(
        "--checkpoint-dir", metavar="DIR", default=None,
        help="checkpoint directory for resumable re-induction",
    )
    p_monitor.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for re-induction (1 = serial)",
    )
    p_monitor.add_argument(
        "--testbed", type=int, metavar="ID", default=None,
        help="monitor a template-evolution workload of synthetic engine ID",
    )
    p_monitor.add_argument(
        "--evolve", metavar="MUTATION", default="marker_rewrite",
        help="template mutation for --testbed mode (marker_rewrite, "
        "style_swap, section_drop, header_retag)",
    )
    p_monitor.add_argument(
        "--mutate-at", type=int, default=12,
        help="page index where the --testbed template mutates (default 12)",
    )
    p_monitor.add_argument(
        "--total-pages", type=int, default=24,
        help="total pages in the --testbed workload (default 24)",
    )
    _add_obs_flags(p_monitor)
    p_monitor.set_defaults(func=cmd_monitor)

    p_eval = sub.add_parser("eval", help="regenerate the paper's tables")
    p_eval.add_argument("--table", choices=["1", "2", "3", "all"], default="all")
    p_eval.add_argument("--limit", type=int, default=None)
    p_eval.add_argument("--progress", action="store_true")
    p_eval.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for the evaluation (1 = serial)",
    )
    _add_obs_flags(p_eval)
    p_eval.set_defaults(func=cmd_eval)

    p_demo = sub.add_parser("demo", help="induce+extract on a synthetic engine")
    p_demo.add_argument("--engine-id", type=int, default=85)
    p_demo.set_defaults(func=cmd_demo)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (_PageReadError, NestingDepthError) as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
