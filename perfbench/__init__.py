"""Repository benchmark for the MSE reproduction.

Three closed-loop workloads with one client each, all over the same
seeded 119-engine corpus:

- ``induce``: wrapper induction plus interpreted extraction per engine
  (the loop behind the paper's Tables 1-3);
- ``serve``: compiled per-page serving (extraction plus health) in one
  process;
- ``pool``: the same pages served in batches through the warm
  :class:`repro.perf.server.Server` pool.

``python3 perfbench/run.py --workload NAME`` runs one workload from the
repository root; see ``perfbench/README.md`` for the metrics and the
traced per-layer run.
"""
