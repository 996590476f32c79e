"""``repro.analysis``: the AST invariant linter for the MSE pipeline.

PR 2 proved Tables 1-3 bit-identical across serial, fast-kernel and
parallel runs; this package turns the invariants that proof rests on
into machine-checked rules.  See DESIGN.md "Static analysis" for the
rule catalogue and ``python -m repro.analysis --help`` for the CLI.
"""

from __future__ import annotations

from repro.analysis.baseline import (
    apply_baseline,
    load_baseline,
    save_baseline,
)
from repro.analysis.engine import (
    ModuleContext,
    ProjectContext,
    ProjectRule,
    Rule,
    analyze_paths,
    discover_files,
    display_path,
    display_root,
    module_name_of,
)
from repro.analysis.findings import Finding, finding_at
from repro.analysis.rules import all_rules, default_rules, flow_rules

__all__ = [
    "Finding",
    "ModuleContext",
    "ProjectContext",
    "ProjectRule",
    "Rule",
    "all_rules",
    "analyze_paths",
    "apply_baseline",
    "default_rules",
    "discover_files",
    "display_path",
    "display_root",
    "finding_at",
    "flow_rules",
    "load_baseline",
    "module_name_of",
    "save_baseline",
]
