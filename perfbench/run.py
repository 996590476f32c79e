"""Benchmark entry point; run from the repository root.

    python3 perfbench/run.py --workload {induce,serve,pool}
        [--seed N] [--seconds S] [--trace 0|1]

Only the standard library is imported here; the harness checks that
it runs in a checkout with ``src/repro`` before importing anything else.
"""

import os
import sys

if __name__ == "__main__":
    sys.path.insert(0, os.getcwd())
    from perfbench.harness import main

    sys.exit(main(sys.argv[1:]))
