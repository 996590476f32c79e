"""Hot-kernel optimisation layer: fingerprints, memoized kernels, serving.

The distance kernels of §4 — Zhang–Shasha tree edit (Dtf), generalized
Levenshtein (Dbt/Dbs/Dbta) and the O(n²) cohesion sums of Formulas 5–7 —
dominate wrapper-induction time (see the ``BENCH_stages.json``
trajectory).  This package attacks them from the data side and the
compute side while keeping every result bit-identical to the reference
implementations:

- :mod:`repro.perf.fingerprints` — per-block compact signatures:
  attribute-set bitmasks (Dtal by popcount), interned feature tuples,
  flattened post-order tag-forest signatures;
- :mod:`repro.perf.kernels` — process-wide tree/forest distance memos
  keyed on those signatures, with hit/miss statistics surfaced as
  ``perf.*`` observability gauges;
- :mod:`repro.perf.serve` — the serving path: one render per page
  feeding both the extraction and the wrapper health, and the batch
  ``extract_many`` entry point behind ``python -m repro serve``;
- :mod:`repro.perf.server` — the warm persistent worker pool:
  :class:`~repro.perf.server.Server` spawns serving workers
  once, primes their per-process memos over representative pages, and
  amortizes IPC with auto-sized task chunks across repeated batches.

See the "Performance" section of DESIGN.md for how the layers fit, and
``benchmarks/bench_kernels.py`` / ``benchmarks/bench_serve.py`` for the
benchmarks feeding ``BENCH_kernels.json`` and ``BENCH_serve.json``.
"""

from typing import Any

from repro.perf.fingerprints import (
    ATTR_INTERNER,
    TUPLE_INTERNER,
    AttrInterner,
    BlockFingerprint,
    TupleInterner,
    block_fingerprint,
    interned_forest_signature,
    masked_attr_distance,
)
from repro.perf.kernels import (
    FOREST_MEMO,
    TREE_MEMO,
    PairMemo,
    SignedTree,
    clear_kernel_caches,
    fast_forest_distance,
    fast_normalized_tree_distance,
    kernel_cache_stats,
    observe_kernel_gauges,
)

# repro.perf.serve imports back into repro.core (which itself reaches
# repro.perf.fingerprints through the feature kernels), so an eager
# import here would close an import cycle during partial init.  The
# serve names are exported lazily instead (PEP 562); `import
# repro.perf.serve` also works directly.
_SERVE_EXPORTS = frozenset(
    {
        "CompiledWrapper",
        "PageApplications",
        "PageIndex",
        "ServedPage",
        "build_page_index",
        "compile_wrapper",
        "extract_many",
    }
)

#: names resolved lazily from repro.perf.server (same cycle reasoning)
_SERVER_EXPORTS = frozenset({"Server", "auto_chunksize"})


def __getattr__(name: str) -> Any:
    if name in _SERVE_EXPORTS:
        from repro.perf import serve

        return getattr(serve, name)
    if name in _SERVER_EXPORTS:
        from repro.perf import server

        return getattr(server, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [  # lint: allow API01 -- serve names resolve lazily via module __getattr__ (PEP 562)
    "ATTR_INTERNER",
    "FOREST_MEMO",
    "TREE_MEMO",
    "TUPLE_INTERNER",
    "AttrInterner",
    "BlockFingerprint",
    "CompiledWrapper",
    "PageApplications",
    "PageIndex",
    "PairMemo",
    "ServedPage",
    "Server",
    "SignedTree",
    "TupleInterner",
    "auto_chunksize",
    "block_fingerprint",
    "build_page_index",
    "clear_kernel_caches",
    "compile_wrapper",
    "extract_many",
    "fast_forest_distance",
    "fast_normalized_tree_distance",
    "interned_forest_signature",
    "kernel_cache_stats",
    "masked_attr_distance",
    "observe_kernel_gauges",
]
