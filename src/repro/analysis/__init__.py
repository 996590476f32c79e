"""``repro.analysis``: the AST invariant linter for the MSE pipeline.

PR 2 proved Tables 1-3 bit-identical across serial, fast-kernel and
parallel runs; this package turns the invariants that proof rests on
into machine-checked rules.  See DESIGN.md "Static analysis" for the
rule catalogue and ``python -m repro.analysis --help`` for the CLI.
"""
