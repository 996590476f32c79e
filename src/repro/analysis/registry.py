"""Central classification of process-local state.

PR 3 marked every process-local memo site with an inline
``# lint: allow`` pragma; as the memo family grew (``TREE_MEMO``,
``RECORD_MEMO``, ``DINR_MEMO``, the interners, the serving worker
wrapper list) the pragmas spread and nothing tied them together.  This
registry replaces them with explicit, *reviewed* classification:

- :data:`PROCESS_LOCAL_MEMOS` names every mutable module global that the
  fork-safety rule (MP01) accepts on a pool-worker path.  An entry is a
  claim: the global is a memo or interner whose values are pure
  functions of their keys, so a fork that starts cold merely recomputes
  — it can never disagree with the parent — or it is state a pool's
  initializer fills for its own worker and the parent never reads.
  Anything mutable mutated on a worker path and *not* listed here is a
  fork-safety finding.

- :data:`POOL_WORKER_ENTRYPOINTS` names the functions that run inside
  worker processes.  The flow model also discovers entries structurally
  from dispatch sites; the declared list is the safety net for targets
  shipped through handles it cannot follow, and seeds
  :func:`repro.analysis.flow.callgraph.build_call_graph`'s
  ``worker_entries``.

- :data:`IDENTITY_KEY_FUNCTIONS` names the functions allowed to derive
  ``id()``-based memo keys (DET01's one sanctioned exception).  Keys
  built from object identity are process-dependent by construction;
  they are sound exactly when the table that holds them never crosses a
  process boundary.  Registering the *function* here replaces the
  per-line pragmas those sites used to carry and keeps the reasons in
  one reviewed place.

Every entry carries its justification string; the docs renderer and the
flow rules surface it verbatim.  To classify a new module-level cache as
process-local, add it to :data:`PROCESS_LOCAL_MEMOS` with a reason that
argues value-purity (see DESIGN.md "Whole-program flow analysis").
"""

from __future__ import annotations

from typing import Dict

#: mutable module globals MP01 accepts on pool-worker paths: qualified
#: name -> why a cold per-process copy is equivalent to the parent's
PROCESS_LOCAL_MEMOS: Dict[str, str] = {
    "repro.perf.kernels.TREE_MEMO": (
        "bounded PairMemo of pure tree-distance values; a cold worker "
        "recomputes identical floats (bit-identity property-tested)"
    ),
    "repro.perf.kernels.FOREST_MEMO": (
        "bounded PairMemo of pure forest-distance values; cold-start "
        "recomputation is bit-identical to the parent's entries"
    ),
    "repro.perf.kernels.RECORD_MEMO": (
        "Drec memo keyed on (config, fingerprint, fingerprint); the "
        "weighted sum is a pure function of the key"
    ),
    "repro.perf.kernels.DINR_MEMO": (
        "section-homogeneity memo keyed on ordered record fingerprints; "
        "Dinr is a pure function of the key"
    ),
    "repro.perf.fingerprints.ATTR_INTERNER": (
        "intern table for text-attr bitmasks; interning is idempotent, "
        "each process builds its own universe and masks never cross "
        "processes"
    ),
    "repro.perf.fingerprints.TUPLE_INTERNER": (
        "intern table for signature tuples; idempotent fill, interned "
        "objects are compared by value at every boundary"
    ),
    "repro.perf.server._WORKER": (
        "Server worker state (compiled wrappers, observer, priming count, "
        "report barrier) filled once by the executor initializer inside "
        "each worker; the parent never reads it, and only task results "
        "cross back"
    ),
}

#: declared pool/process worker entry points: qualified name -> how the
#: function reaches a worker process.  The flow model discovers entries
#: structurally (pool ``initializer=`` and dispatch methods,
#: ``Process(target=...)``); declaring them here guarantees MP01
#: fork-safety coverage cannot silently lapse when a construction or
#: dispatch site is refactored out of the model's sight.
POOL_WORKER_ENTRYPOINTS: Dict[str, str] = {
    "repro.perf.server._init_worker": (
        "Server._open's ProcessPoolExecutor initializer: compiles the "
        "wrappers and primes the process-local kernel memos"
    ),
    "repro.perf.server._run_chunk": (
        "submitted once per chunk by Server._run_chunks: serves or "
        "extracts the chunk's pages"
    ),
    "repro.perf.server._report": (
        "submitted once per worker by Server._broadcast: the worker's "
        "kernel stats and observer document"
    ),
}

#: functions allowed to build id()-derived memo keys: qualified name ->
#: why identity keys are sound there (replaces the PR 3 line pragmas)
IDENTITY_KEY_FUNCTIONS: Dict[str, str] = {
    "repro.features.blocks.Block.__hash__": (
        "blocks hash by (page identity, span); hashes are process-local "
        "by definition and never serialized"
    ),
    "repro.features.record_distance.RecordDistanceCache.distance": (
        "per-run cache keyed on (page identity, span); caches are "
        "created per page set and never cross processes"
    ),
    "repro.features.record_distance.RecordDistanceCache.diversity": (
        "per-run diversity memo keyed on (page identity, span); same "
        "lifetime as the distance cache"
    ),
    "repro.perf.kernels.PairMemo.lookup": (
        "canonicalizes the signature pair by object identity, valid "
        "because signatures are interned and the memo is process-local"
    ),
    "repro.core.verify._section_dinr_key": (
        "page-local leaf-line identity lookups build a key whose "
        "encoded values are line offsets, not ids; never serialized"
    ),
}
