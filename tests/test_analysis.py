"""Tests for the AST invariant linter (repro.analysis)."""

import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.analysis.baseline import apply_baseline, load_baseline, save_baseline
from repro.analysis.engine import analyze_paths, module_name_of
from repro.analysis.findings import Finding
from repro.analysis.rules import default_rules
from repro.analysis.__main__ import main as analysis_main

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC_REPRO = REPO_ROOT / "src" / "repro"


def write_module(tmp_path, relpath, source):
    """Lay a fixture module out under tmp_path (e.g. 'repro/core/x.py')."""
    target = tmp_path / relpath
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(textwrap.dedent(source), encoding="utf-8")
    return target


def rules_of(findings):
    return {f.rule for f in findings}


# ---------------------------------------------------------------------------
# Engine basics
# ---------------------------------------------------------------------------


def test_module_name_anchors_on_repro_component(tmp_path):
    assert module_name_of(Path("src/repro/core/mse.py")) == "repro.core.mse"
    assert module_name_of(Path("repro/perf/__init__.py")) == "repro.perf"
    assert (
        module_name_of(tmp_path / "repro" / "features" / "x.py")
        == "repro.features.x"
    )
    assert module_name_of(Path("somewhere/else.py")) is None


def test_syntax_error_becomes_parse_finding(tmp_path):
    path = write_module(tmp_path, "repro/core/broken.py", "def f(:\n")
    findings = analyze_paths([str(path)])
    assert [f.rule for f in findings] == ["E000"]


def test_unknown_path_raises(tmp_path):
    with pytest.raises(FileNotFoundError):
        analyze_paths([str(tmp_path / "missing")])


# ---------------------------------------------------------------------------
# DET01 determinism
# ---------------------------------------------------------------------------

DET01_BAD = """\
    import random
    import os

    def score(items):
        seed = os.environ["SEED"]
        for item in {1, 2, 3}:
            pass
        return id(items)
"""

DET01_GOOD = """\
    def score(items: list) -> list:
        out = []
        for item in sorted({1, 2, 3}):
            out.append(item)
        return out
"""


def test_det01_flags_nondeterminism_in_scope(tmp_path):
    path = write_module(tmp_path, "repro/core/scoring.py", DET01_BAD)
    findings = [f for f in analyze_paths([str(path)]) if f.rule == "DET01"]
    messages = " ".join(f.message for f in findings)
    assert "random" in messages
    assert "os.environ" in messages
    assert "id()" in messages
    assert "unordered set" in messages


def test_det01_passes_clean_module(tmp_path):
    path = write_module(tmp_path, "repro/core/scoring.py", DET01_GOOD)
    assert "DET01" not in rules_of(analyze_paths([str(path)]))


def test_det01_ignores_out_of_scope_packages(tmp_path):
    path = write_module(tmp_path, "repro/obs/clock.py", DET01_BAD)
    assert "DET01" not in rules_of(analyze_paths([str(path)]))


# ---------------------------------------------------------------------------
# PUR01 kernel purity
# ---------------------------------------------------------------------------

PUR01_BAD = """\
    def kernel(sig, out):
        sig.cached = 1
        out.append(sig)
        return out
"""

PUR01_GOOD = """\
    class Memo:
        def store(self, key: tuple, value: float) -> None:
            self._table[key] = value

    def kernel(sig: tuple) -> list:
        local = []
        local.append(sig)
        return local
"""


def test_pur01_flags_argument_mutation_in_perf(tmp_path):
    path = write_module(tmp_path, "repro/perf/hot.py", PUR01_BAD)
    findings = [f for f in analyze_paths([str(path)]) if f.rule == "PUR01"]
    assert len(findings) == 2  # attribute assignment + .append()


def test_pur01_allows_self_and_locals(tmp_path):
    path = write_module(tmp_path, "repro/perf/hot.py", PUR01_GOOD)
    assert "PUR01" not in rules_of(analyze_paths([str(path)]))


def test_pur01_only_applies_to_perf(tmp_path):
    path = write_module(tmp_path, "repro/core/hot.py", PUR01_BAD)
    assert "PUR01" not in rules_of(analyze_paths([str(path)]))


# ---------------------------------------------------------------------------
# OBS01 observer threading
# ---------------------------------------------------------------------------

OBS01_BAD = """\
    OBS = Observer()

    def stage_a(page, obs):
        return page

    def stage_b(page, obs=Observer()):
        return page
"""

OBS01_GOOD = """\
    def stage(page, obs=NULL_OBSERVER):
        return page
"""


def test_obs01_flags_unthreaded_observers(tmp_path):
    path = write_module(tmp_path, "repro/core/stage.py", OBS01_BAD)
    findings = [f for f in analyze_paths([str(path)]) if f.rule == "OBS01"]
    messages = " ".join(f.message for f in findings)
    assert "module-level Observer()" in messages
    assert "without a default" in messages
    assert len(findings) == 3


def test_obs01_passes_null_observer_default(tmp_path):
    path = write_module(tmp_path, "repro/core/stage.py", OBS01_GOOD)
    assert "OBS01" not in rules_of(analyze_paths([str(path)]))


# ---------------------------------------------------------------------------
# API01 hygiene (unscoped)
# ---------------------------------------------------------------------------

API01_BAD = """\
    __all__ = ["f", "f", "ghost"]

    def f(items=[]):
        try:
            return items
        except:
            return None
"""

API01_GOOD = """\
    __all__ = ["f"]

    def f(items=None):
        try:
            return items
        except ValueError:
            return None
"""


def test_api01_flags_hygiene_everywhere(tmp_path):
    # Deliberately outside any repro package: API01 is unscoped.
    path = write_module(tmp_path, "scripts/tool.py", API01_BAD)
    findings = [f for f in analyze_paths([str(path)]) if f.rule == "API01"]
    messages = " ".join(f.message for f in findings)
    assert "mutable default" in messages
    assert "bare except" in messages
    assert "duplicate 'f'" in messages
    assert "'ghost'" in messages


def test_api01_passes_clean_module(tmp_path):
    path = write_module(tmp_path, "scripts/tool.py", API01_GOOD)
    assert "API01" not in rules_of(analyze_paths([str(path)]))


def test_api01_skips_computed_dunder_all(tmp_path):
    path = write_module(
        tmp_path,
        "repro/pkg.py",
        """\
        _EXPORTS = {"a": 1}
        __all__ = sorted(_EXPORTS)
        """,
    )
    assert "API01" not in rules_of(analyze_paths([str(path)]))


# ---------------------------------------------------------------------------
# CFG01 config threading
# ---------------------------------------------------------------------------

CFG01_BAD = """\
    def distance(a, b):
        return compare(a, b, DEFAULT_CONFIG)
"""

CFG01_GOOD = """\
    def distance(a, b, config=DEFAULT_CONFIG):
        return compare(a, b, config)
"""


def test_cfg01_flags_ambient_config_read(tmp_path):
    path = write_module(tmp_path, "repro/features/dist.py", CFG01_BAD)
    findings = [f for f in analyze_paths([str(path)]) if f.rule == "CFG01"]
    assert len(findings) == 1
    assert "DEFAULT_CONFIG" in findings[0].message


def test_cfg01_allows_default_parameter_value(tmp_path):
    path = write_module(tmp_path, "repro/features/dist.py", CFG01_GOOD)
    assert "CFG01" not in rules_of(analyze_paths([str(path)]))


# ---------------------------------------------------------------------------
# TYP01 typing gate
# ---------------------------------------------------------------------------

TYP01_BAD = """\
    def f(x) -> int:
        return x

    def g(x: int):
        return x
"""

TYP01_GOOD = """\
    class C:
        def __init__(self, x: int):
            self.x = x

        def get(self) -> int:
            return self.x

        @staticmethod
        def make(x: int) -> "C":
            return C(x)

    def f(x: int) -> int:
        return x
"""


def test_typ01_flags_missing_annotations(tmp_path):
    path = write_module(tmp_path, "repro/algorithms/alg.py", TYP01_BAD)
    findings = [f for f in analyze_paths([str(path)]) if f.rule == "TYP01"]
    assert len(findings) == 2


def test_typ01_exempts_self_cls_and_init_return(tmp_path):
    path = write_module(tmp_path, "repro/algorithms/alg.py", TYP01_GOOD)
    assert "TYP01" not in rules_of(analyze_paths([str(path)]))


def test_typ01_ignores_unscoped_files(tmp_path):
    path = write_module(tmp_path, "scripts/tool.py", TYP01_BAD)
    assert "TYP01" not in rules_of(analyze_paths([str(path)]))


# ---------------------------------------------------------------------------
# Inline pragmas
# ---------------------------------------------------------------------------


def test_pragma_suppresses_named_rule_on_line(tmp_path):
    path = write_module(
        tmp_path,
        "repro/core/memo.py",
        """\
        def key_of(page):
            return id(page)  # lint: allow DET01 -- process-local memo key
        """,
    )
    assert "DET01" not in rules_of(analyze_paths([str(path)]))


def test_pragma_does_not_suppress_other_rules(tmp_path):
    path = write_module(
        tmp_path,
        "repro/core/memo.py",
        """\
        def key_of(page):
            return id(page)  # lint: allow PUR01 -- wrong rule id
        """,
    )
    assert "DET01" in rules_of(analyze_paths([str(path)]))


# ---------------------------------------------------------------------------
# Baseline round-trip
# ---------------------------------------------------------------------------


def test_baseline_round_trip_suppresses_findings(tmp_path):
    module = write_module(tmp_path, "repro/core/dirty.py", "import random\n")
    findings = analyze_paths([str(module)])
    assert findings

    baseline_path = tmp_path / "baseline.json"
    save_baseline(baseline_path, findings)
    loaded = load_baseline(baseline_path)
    assert loaded == findings
    assert apply_baseline(findings, loaded) == []


def test_baseline_matching_is_line_insensitive(tmp_path):
    module = write_module(tmp_path, "repro/core/dirty.py", "import random\n")
    baseline = analyze_paths([str(module)])

    # The same violation moves down two lines; it must stay suppressed.
    write_module(tmp_path, "repro/core/dirty.py", "X = 1\nY = 2\nimport random\n")
    moved = analyze_paths([str(module)])
    assert moved and moved[0].line != baseline[0].line
    assert apply_baseline(moved, baseline) == []


def test_baseline_rejects_foreign_files(tmp_path):
    bad = tmp_path / "not-a-baseline.json"
    bad.write_text(json.dumps({"format": "something-else"}), encoding="utf-8")
    with pytest.raises(ValueError):
        load_baseline(bad)


# ---------------------------------------------------------------------------
# Determinism of the linter itself
# ---------------------------------------------------------------------------


def test_findings_identical_regardless_of_path_order(tmp_path):
    a = write_module(tmp_path, "repro/core/a.py", "import random\n")
    b = write_module(tmp_path, "repro/perf/b.py", PUR01_BAD)
    c = write_module(tmp_path, "repro/features/c.py", CFG01_BAD)

    orders = [
        [str(a), str(b), str(c)],
        [str(c), str(a), str(b)],
        [str(b), str(c), str(a)],
    ]
    results = [analyze_paths(order) for order in orders]
    assert results[0] == results[1] == results[2]
    # Directory discovery agrees with explicit file lists.
    assert analyze_paths([str(tmp_path)]) == results[0]


def test_duplicate_paths_do_not_duplicate_findings(tmp_path):
    a = write_module(tmp_path, "repro/core/a.py", "import random\n")
    once = analyze_paths([str(a)])
    twice = analyze_paths([str(a), str(a), str(tmp_path)])
    assert once == twice


# ---------------------------------------------------------------------------
# The repository gates itself
# ---------------------------------------------------------------------------


def test_src_repro_is_clean():
    assert analyze_paths([str(SRC_REPRO)]) == []


def test_committed_baseline_is_empty():
    baseline = load_baseline(REPO_ROOT / "analysis-baseline.json")
    assert baseline == []


def test_every_rule_has_id_title_invariant():
    rules = default_rules()
    ids = [rule.rule_id for rule in rules]
    assert len(ids) == len(set(ids))
    assert len(rules) >= 5
    for rule in rules:
        assert rule.rule_id and rule.title and rule.invariant


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_exit_codes_and_text_output(tmp_path, capsys):
    dirty = write_module(tmp_path, "repro/core/dirty.py", "import random\n")
    clean = write_module(tmp_path, "repro/core/clean.py", "X = 1\n")

    assert analysis_main([str(clean)]) == 0
    assert analysis_main([str(dirty)]) == 1
    out = capsys.readouterr().out
    assert "DET01" in out
    assert f"{dirty.as_posix()}:1:0:" in out


def test_cli_json_format(tmp_path, capsys):
    dirty = write_module(tmp_path, "repro/core/dirty.py", "import random\n")
    assert analysis_main([str(dirty), "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == len(payload["findings"]) == 1
    assert payload["findings"][0]["rule"] == "DET01"


def test_cli_baseline_flow(tmp_path, capsys):
    dirty = write_module(tmp_path, "repro/core/dirty.py", "import random\n")
    baseline = tmp_path / "baseline.json"

    assert analysis_main([str(dirty), "--write-baseline", str(baseline)]) == 0
    assert analysis_main([str(dirty), "--baseline", str(baseline)]) == 0
    out = capsys.readouterr().out
    assert "suppressed by baseline" in out


def test_cli_usage_errors(tmp_path, capsys):
    assert analysis_main([str(tmp_path / "missing")]) == 2
    assert analysis_main(["--rules", "NOPE99", str(tmp_path)]) == 2


def test_cli_rule_filter(tmp_path):
    dirty = write_module(
        tmp_path, "repro/core/dirty.py", "import random\n\ndef f(x=[]):\n    return x\n"
    )
    assert analysis_main([str(dirty), "--rules", "OBS01"]) == 0
    assert analysis_main([str(dirty), "--rules", "DET01"]) == 1


# ---------------------------------------------------------------------------
# mypy strict gate (runs only where the lint extra is installed, e.g. CI)
# ---------------------------------------------------------------------------


def test_mypy_strict_on_gated_packages():
    pytest.importorskip("mypy")
    result = subprocess.run(
        [
            sys.executable,
            "-m",
            "mypy",
            "-p",
            "repro.core",
            "-p",
            "repro.algorithms",
            "-p",
            "repro.features",
            "-p",
            "repro.perf",
        ],
        cwd=str(REPO_ROOT),
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stdout + result.stderr
