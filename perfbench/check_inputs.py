"""Check that the benchmark's inputs are a pure function of the seed.

    python3 perfbench/check_inputs.py [--seed N] [--other M]

Generates the corpus for ``--seed`` (default: the paper corpus) twice
and requires identical bytes, then for ``--other`` and requires a
different corpus of the same shape: 81 single-section and 38
multi-section engines with 10 distinct pages each.  It also requires
that the workload orders drawn from the seed repeat, and that every
order visits each engine or page exactly as often as the workload
definition says.  Exits 0 when every check holds, 1 otherwise.
"""

import argparse
import os
import sys
from collections import Counter


def main(argv):
    parser = argparse.ArgumentParser(prog="perfbench/check_inputs.py", description=__doc__)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--other", type=int, default=1)
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("check_inputs: src/repro not found; run from the repository root", file=sys.stderr)
        return 2
    sys.path[:0] = [root, os.path.join(root, "src")]
    from perfbench import inputs
    from repro.testbed import CORPUS_SEED, PAGES_PER_ENGINE, TOTAL_ENGINES

    seed = CORPUS_SEED if args.seed is None else args.seed
    jobs = len(os.sched_getaffinity(0))
    problems = []

    first = inputs.generate(seed, with_references=False, jobs=jobs)
    again = inputs.generate(seed, with_references=False, jobs=jobs)
    other = inputs.generate(args.other, with_references=False, jobs=jobs)
    for corpus in (first, other):
        try:
            corpus.check_shape()
        except ValueError as exc:
            problems.append(f"seed {corpus.seed}: {exc}")
    if first.digest() != again.digest():
        problems.append(f"seed {seed} generated two different corpora")
    if first.digest() == other.digest():
        problems.append(f"seeds {seed} and {args.other} generated the same corpus")

    for draw in (inputs.induce_order, inputs.serve_order, inputs.pool_batches):
        if draw(seed) != draw(seed):
            problems.append(f"{draw.__name__} does not repeat for seed {seed}")
        if draw(seed) == draw(args.other):
            problems.append(f"{draw.__name__} ignores the seed")
    if sorted(inputs.induce_order(seed)) != list(range(TOTAL_ENGINES)):
        problems.append("induce_order does not visit every engine once")
    pages = Counter(inputs.serve_order(seed))
    if len(pages) != TOTAL_ENGINES * PAGES_PER_ENGINE or set(pages.values()) != {1}:
        problems.append("serve_order does not request every page once")
    batches = inputs.pool_batches(seed)
    pooled = Counter(ref for batch in batches for ref in batch)
    if set(pooled.values()) != {1} or len(pooled) != TOTAL_ENGINES * PAGES_PER_ENGINE:
        problems.append("pool_batches does not serve every page once per round")
    if any(sorted(engine for engine, _ in batch) != list(range(TOTAL_ENGINES)) for batch in batches):
        problems.append("a pool batch is not one page of every engine")

    print(f"seed {seed}: corpus sha256 {first.digest()}")
    print(f"seed {args.other}: corpus sha256 {other.digest()}")
    for problem in problems:
        print(f"FAILED: {problem}")
    print("inputs: ok" if not problems else f"inputs: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
