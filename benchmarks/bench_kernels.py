"""Micro-benchmarks for the hot kernels: distances (repro.perf) and parsing.

Times each optimised kernel against its naive reference on block
features taken from real corpus pages, checks the scores agree exactly,
and writes per-kernel wall time, speedup and cache hit rates to
``BENCH_kernels.json``.  The ``parse`` kernel times ``parse_html``
against the ``html.parser`` reference on one page of every engine,
min-of-N rounds per side with the slowest round as the spread, and
checks that both build the same DOM on every page.  Comparing these
files across commits shows whether a change moved the kernels
themselves, independently of the stage-level trajectory in
``BENCH_stages.json``.

Set ``REPRO_BENCH_KERNELS`` to override the output path.  Runnable as a
pytest target (``pytest benchmarks/bench_kernels.py``) or directly
(``python benchmarks/bench_kernels.py``).
"""

import json
import os
import time
from itertools import combinations

from repro.algorithms.string_edit import edit_distance, edit_distance_reference
from repro.algorithms.tree_edit import forest_distance
from repro.algorithms.string_edit import normalized_edit_distance
from repro.features.blocks import Block
from repro.features.config import DEFAULT_CONFIG
from repro.features.line_distance import text_attr_distance
from repro.features.record_distance import RecordDistanceCache
from repro.features.cohesion import record_diversity
from repro.htmlmod.parser import parse_html
from repro.htmlmod.reference import dom_outline, parse_html_reference
from repro.perf.fingerprints import block_fingerprint, masked_attr_distance
from repro.perf.kernels import (
    clear_kernel_caches,
    fast_forest_distance,
    kernel_cache_stats,
)
from repro.render.layout import render_page
from repro.render.linetypes import type_distance
from repro.testbed import TOTAL_ENGINES
from repro.testbed.corpus import load_engine_pages, make_engine

OUTPUT = os.environ.get("REPRO_BENCH_KERNELS", "BENCH_kernels.json")

#: corpus slice the kernel inputs are drawn from
ENGINES = 4
PAGES_PER_ENGINE = 2
BLOCK_SPAN = 3
#: pairwise workload size (blocks -> blocks*(blocks-1)/2 pairs)
MAX_BLOCKS = 36
#: repetitions of the diversity workload (models best_partition re-asking)
DIVERSITY_ROUNDS = 8
#: interleaved timing rounds of the parse kernel (one page per engine)
PARSE_ROUNDS = 7


def _corpus_blocks():
    """Fixed-span blocks over real rendered corpus pages."""
    blocks = []
    for engine_id in range(ENGINES):
        pages = load_engine_pages(engine_id, pages_per_engine=PAGES_PER_ENGINE)
        for markup in pages.pages:
            page = render_page(parse_html(markup))
            for start in range(0, len(page.lines) - BLOCK_SPAN, BLOCK_SPAN):
                blocks.append(Block(page, start, start + BLOCK_SPAN - 1))
    return blocks[:MAX_BLOCKS]


def _timed(fn, pairs):
    start = time.perf_counter()
    scores = [fn(a, b) for a, b in pairs]
    return time.perf_counter() - start, scores


def _bench_edit_distance(pairs):
    seqs = [(a.type_codes, b.type_codes) for a, b in pairs]
    ref_seconds, ref = _timed(
        lambda s1, s2: edit_distance_reference(s1, s2, substitution_cost=type_distance),
        seqs,
    )
    fast_seconds, fast = _timed(
        lambda s1, s2: edit_distance(s1, s2, substitution_cost=type_distance),
        seqs,
    )
    assert ref == fast, "trimmed edit_distance diverged from reference"
    return ref_seconds, fast_seconds


def _bench_forest(pairs):
    forests = [(a.tag_forest(), b.tag_forest()) for a, b in pairs]
    ref_seconds, ref = _timed(forest_distance, forests)
    clear_kernel_caches()
    fast_seconds, fast = _timed(fast_forest_distance, forests)
    assert ref == fast, "memoized forest distance diverged from reference"
    return ref_seconds, fast_seconds


def _bench_attr_masks(pairs):
    attrs = [(a.text_attrs, b.text_attrs) for a, b in pairs]
    masks = [
        (block_fingerprint(a).attr_masks, block_fingerprint(b).attr_masks)
        for a, b in pairs
    ]
    ref_seconds, ref = _timed(
        lambda t1, t2: normalized_edit_distance(
            t1, t2, substitution_cost=text_attr_distance
        ),
        attrs,
    )
    fast_seconds, fast = _timed(
        lambda m1, m2: normalized_edit_distance(
            m1, m2, substitution_cost=masked_attr_distance
        ),
        masks,
    )
    assert ref == fast, "bitmask Dtal diverged from the frozenset reference"
    return ref_seconds, fast_seconds


def _bench_diversity(blocks):
    workload = [b for b in blocks for _ in range(DIVERSITY_ROUNDS)]
    start = time.perf_counter()
    ref = [record_diversity(b, DEFAULT_CONFIG) for b in workload]
    ref_seconds = time.perf_counter() - start
    cache = RecordDistanceCache(DEFAULT_CONFIG)
    start = time.perf_counter()
    fast = [cache.diversity(b) for b in workload]
    fast_seconds = time.perf_counter() - start
    assert ref == fast, "cached diversity diverged from Formula 6"
    return ref_seconds, fast_seconds


def _parse_pages():
    """The first result page of every corpus engine."""
    pages = []
    for engine_id in range(TOTAL_ENGINES):
        engine = make_engine(engine_id)
        pages.append(engine.result_page(engine.queries(1)[0]))
    return pages


def _bench_parse(pages):
    for markup in pages:
        assert dom_outline(parse_html(markup)) == dom_outline(
            parse_html_reference(markup)
        ), "parse_html built a different DOM from the html.parser reference"
    rounds = {"reference": [], "fast": []}
    for _ in range(PARSE_ROUNDS):
        for side, parse in (("reference", parse_html_reference), ("fast", parse_html)):
            start = time.perf_counter()
            for markup in pages:
                parse(markup)
            rounds[side].append(time.perf_counter() - start)
    return rounds


def test_kernel_bench_emitted():
    blocks = _corpus_blocks()
    assert len(blocks) >= 8, "corpus slice produced too few blocks"
    pairs = list(combinations(blocks, 2))

    kernels = {}
    for name, (ref_seconds, fast_seconds) in (
        ("edit_distance", _bench_edit_distance(pairs)),
        ("forest_distance", _bench_forest(pairs)),
        ("attr_distance", _bench_attr_masks(pairs)),
        ("diversity", _bench_diversity(blocks)),
    ):
        kernels[name] = {
            "reference_seconds": ref_seconds,
            "fast_seconds": fast_seconds,
            "speedup": ref_seconds / fast_seconds if fast_seconds else 0.0,
        }

    parse_pages = _parse_pages()
    rounds = _bench_parse(parse_pages)
    kernels["parse"] = {
        "reference_seconds": min(rounds["reference"]),
        "reference_seconds_max": max(rounds["reference"]),
        "fast_seconds": min(rounds["fast"]),
        "fast_seconds_max": max(rounds["fast"]),
        "speedup": min(rounds["reference"]) / min(rounds["fast"]),
    }

    # The memoized tree kernel is where the ISSUE's >=2x target lives; the
    # other kernels only have to not regress (their wins are workload
    # dependent and too small to gate CI on without flakes).
    assert kernels["forest_distance"]["speedup"] >= 2.0, kernels["forest_distance"]

    doc = {
        "format": "repro-bench-kernels",
        "version": 1,
        "workload": {
            "engines": ENGINES,
            "pages_per_engine": PAGES_PER_ENGINE,
            "blocks": len(blocks),
            "pairs": len(pairs),
            "diversity_rounds": DIVERSITY_ROUNDS,
            "parse_pages": len(parse_pages),
            "parse_rounds": PARSE_ROUNDS,
        },
        "kernels": kernels,
        "caches": kernel_cache_stats(),
    }
    with open(OUTPUT, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
    print(f"\nkernel bench written to {OUTPUT}")
    for name, row in kernels.items():
        print(
            f"  {name:<16s} ref {row['reference_seconds'] * 1000:>8.1f}ms  "
            f"fast {row['fast_seconds'] * 1000:>8.1f}ms  "
            f"{row['speedup']:>6.1f}x"
        )


if __name__ == "__main__":
    test_kernel_bench_emitted()
