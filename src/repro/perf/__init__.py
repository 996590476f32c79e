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
  feeding both the extraction and the wrapper health;
- :mod:`repro.perf.server` — the warm persistent worker pool behind
  ``python -m repro serve|extract --jobs N``:
  :class:`~repro.perf.server.Server` runs a ``ProcessPoolExecutor``
  whose initializer compiles the wrappers and primes each worker's
  memos once, submits auto-sized page chunks across repeated batches,
  and rebuilds the pool after a crash or a stall without losing a page.

The package re-exports nothing; import from the submodules.  See the
"Performance" section of DESIGN.md for how the layers fit, and
``benchmarks/bench_kernels.py`` / ``benchmarks/bench_serve.py`` for the
benchmarks feeding ``BENCH_kernels.json`` and ``BENCH_serve.json``.
"""
