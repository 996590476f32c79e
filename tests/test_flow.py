"""Tests for the whole-program flow analysis (repro.analysis.flow).

Each rule gets an adversarial fixture — a seeded bug of exactly the
class the rule exists to catch — asserting both detection and the
sanctioned escape hatches (inline pragma, registry allowlist).  The
determinism and path-normalization contracts of the engine are
property-tested at the end.
"""

import json
import subprocess
import textwrap
from pathlib import Path

import pytest

from repro.analysis.__main__ import main as analysis_main
from repro.analysis.engine import (
    ProjectContext,
    analyze_paths,
    discover_files,
    display_root,
    parse_file,
)
from repro.analysis.flow.callgraph import MUTATES, PURE, build_call_graph
from repro.analysis.flow.model import build_project_model
from repro.analysis.flow.rules import (
    CodecDriftRule,
    ForkSafetyRule,
    HotPathComplexityRule,
    PickleSafetyRule,
    flow_rules,
)

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC_REPRO = REPO_ROOT / "src" / "repro"


def write_module(tmp_path, relpath, source):
    """Lay a fixture module out under tmp_path (e.g. 'repro/core/x.py')."""
    target = tmp_path / relpath
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(textwrap.dedent(source), encoding="utf-8")
    return target


def project_of(tmp_path):
    root = display_root()
    files = discover_files([str(tmp_path)])
    return ProjectContext(
        [p.ctx for p in (parse_file(f, root) for f in files) if p.ctx]
    )


def rules_of(findings):
    return {f.rule for f in findings}


# ---------------------------------------------------------------------------
# Symbol table + call graph
# ---------------------------------------------------------------------------

GRAPH_FIXTURE = """\
    GLOBAL_TABLE = {}
    FROZEN = frozenset({"a"})

    def leaf(x):
        return x + 1

    def writes(x):
        GLOBAL_TABLE[x] = leaf(x)

    def caller(x):
        return writes(x)

    class Stage:
        def encode(self):
            return leaf(2)

    STAGES = {"stage": Stage}
"""


def test_call_graph_edges_reachability_and_purity(tmp_path):
    write_module(tmp_path, "repro/pipeline/fix.py", GRAPH_FIXTURE)
    project = project_of(tmp_path)
    model = build_project_model(project.modules)
    graph = build_call_graph(model)

    assert "repro.pipeline.fix.GLOBAL_TABLE" in model.globals
    assert model.globals["repro.pipeline.fix.GLOBAL_TABLE"].mutable
    assert not model.globals["repro.pipeline.fix.FROZEN"].mutable

    edges = graph.edges["repro.pipeline.fix.caller"]
    assert "repro.pipeline.fix.writes" in edges

    reachable, _ = graph.reachable_from(["repro.pipeline.fix.caller"])
    assert "repro.pipeline.fix.leaf" in reachable

    assert graph.purity["repro.pipeline.fix.leaf"] == PURE
    assert graph.purity["repro.pipeline.fix.writes"] == MUTATES
    # impurity propagates along call edges
    assert graph.purity["repro.pipeline.fix.caller"] == MUTATES


def test_class_closure_reaches_methods_via_global_reference(tmp_path):
    # referencing STAGES (whose initializer closes over Stage) must make
    # Stage.encode reachable — this is the PAGE_STAGES dict-dispatch shape
    write_module(
        tmp_path,
        "repro/pipeline/fix.py",
        GRAPH_FIXTURE
        + "\n    def dispatch(name):\n"
        + "        return STAGES[name]().encode()\n",
    )
    project = project_of(tmp_path)
    graph = build_call_graph(build_project_model(project.modules))
    reachable, _ = graph.reachable_from(["repro.pipeline.fix.dispatch"])
    assert "repro.pipeline.fix.Stage.encode" in reachable


# ---------------------------------------------------------------------------
# MP01 fork safety
# ---------------------------------------------------------------------------

MP01_BUG = """\
    import multiprocessing

    CACHE = {}

    def _worker(task):
        CACHE[task] = task * 2
        return CACHE[task]

    def run(tasks):
        with multiprocessing.Pool() as pool:
            return list(pool.imap_unordered(_worker, tasks))
"""


def test_mp01_catches_worker_mutating_module_global(tmp_path):
    path = write_module(tmp_path, "repro/pipeline/leak.py", MP01_BUG)
    findings = analyze_paths([str(path)], [ForkSafetyRule(allowlist={})])
    assert rules_of(findings) == {"MP01"}
    message = findings[0].message
    assert "repro.pipeline.leak.CACHE" in message
    assert "_worker" in message  # names the worker path


def test_mp01_transitive_mutation_through_helper(tmp_path):
    # the worker itself is clean; a helper it calls does the mutating
    path = write_module(
        tmp_path,
        "repro/pipeline/leak.py",
        """\
        import multiprocessing

        TABLE = {}

        def _store(key, value):
            TABLE[key] = value

        def _worker(task):
            _store(task, task * 2)
            return task

        def run(tasks):
            with multiprocessing.Pool() as pool:
                return pool.map(_worker, tasks)
        """,
    )
    findings = analyze_paths([str(path)], [ForkSafetyRule(allowlist={})])
    assert rules_of(findings) == {"MP01"}
    assert "_worker -> repro.pipeline.leak._store" in findings[0].message


def test_mp01_allowlist_and_pragma_escape_hatches(tmp_path):
    path = write_module(tmp_path, "repro/pipeline/leak.py", MP01_BUG)
    allowed = ForkSafetyRule(
        allowlist={"repro.pipeline.leak.CACHE": "per-process memo"}
    )
    assert analyze_paths([str(path)], [allowed]) == []

    pragmad = MP01_BUG.replace(
        "    CACHE[task] = task * 2",
        "    CACHE[task] = task * 2  # lint: allow MP01 -- fixture",
    )
    path.write_text(textwrap.dedent(pragmad), encoding="utf-8")
    assert analyze_paths([str(path)], [ForkSafetyRule(allowlist={})]) == []


def test_mp01_ignores_mutations_off_the_worker_path(tmp_path):
    path = write_module(
        tmp_path,
        "repro/pipeline/ok.py",
        """\
        import multiprocessing

        RESULTS = {}

        def _worker(task):
            return task * 2

        def run(tasks):
            with multiprocessing.Pool() as pool:
                for task, out in zip(tasks, pool.map(_worker, tasks)):
                    RESULTS[task] = out  # parent-side merge: fine
            return RESULTS
        """,
    )
    assert analyze_paths([str(path)], [ForkSafetyRule(allowlist={})]) == []


def test_mp01_initializer_is_a_worker_entry(tmp_path):
    path = write_module(
        tmp_path,
        "repro/pipeline/init.py",
        """\
        import multiprocessing

        STATE = []

        def _init(wrappers):
            STATE.extend(wrappers)

        def _worker(task):
            return task

        def run(tasks, wrappers):
            with multiprocessing.Pool(initializer=_init, initargs=(wrappers,)) as pool:
                return pool.map(_worker, tasks)
        """,
    )
    findings = analyze_paths([str(path)], [ForkSafetyRule(allowlist={})])
    assert rules_of(findings) == {"MP01"}
    assert "repro.pipeline.init.STATE" in findings[0].message


def test_mp01_executor_initializer_is_a_worker_entry(tmp_path):
    path = write_module(
        tmp_path,
        "repro/pipeline/executor.py",
        """\
        from concurrent.futures import ProcessPoolExecutor

        STATE = []

        def _init(wrappers):
            STATE.extend(wrappers)

        def _worker(task):
            return task

        def run(tasks, wrappers):
            with ProcessPoolExecutor(initializer=_init, initargs=(wrappers,)) as pool:
                return [pool.submit(_worker, task).result() for task in tasks]
        """,
    )
    findings = analyze_paths([str(path)], [ForkSafetyRule(allowlist={})])
    assert rules_of(findings) == {"MP01"}
    assert "repro.pipeline.executor.STATE" in findings[0].message
    assert "via initializer" in findings[0].message


def test_mp01_process_target_is_a_worker_entry(tmp_path):
    # a long-lived Process (the Server pool shape) is a dispatch too,
    # even when constructed through a get_context() factory handle
    path = write_module(
        tmp_path,
        "repro/pipeline/proc.py",
        """\
        import multiprocessing

        SEEN = {}

        def _loop(tasks):
            for task in tasks:
                SEEN[task] = task

        def spawn(tasks):
            ctx = multiprocessing.get_context()
            proc = ctx.Process(target=_loop, args=(tasks,))
            proc.start()
            return proc
        """,
    )
    findings = analyze_paths([str(path)], [ForkSafetyRule(allowlist={})])
    assert rules_of(findings) == {"MP01"}
    assert "repro.pipeline.proc.SEEN" in findings[0].message


def test_registry_entrypoints_seed_worker_entries():
    # the Server worker entry points are declared in the registry; the
    # call graph must treat them as worker entries, and must also find
    # them on its own: the initializer at the executor's construction
    # site, the submitted functions through the self._pool handle
    from repro.analysis.registry import POOL_WORKER_ENTRYPOINTS

    graph = build_call_graph(build_project_model(project_of(SRC_REPRO).modules))
    for qualname in POOL_WORKER_ENTRYPOINTS:
        assert qualname in graph.worker_entries, qualname
    for name, via in (
        ("_init_worker", "Server._open via initializer"),
        ("_run_chunk", "Server._run_chunks via submit"),
        ("_report", "Server._broadcast via submit"),
    ):
        entry = graph.worker_entries[f"repro.perf.server.{name}"]
        assert entry == f"repro.perf.server.{via}", entry


# ---------------------------------------------------------------------------
# MP02 payload pickle safety
# ---------------------------------------------------------------------------


def test_mp02_lambda_and_bound_method_callables(tmp_path):
    path = write_module(
        tmp_path,
        "repro/pipeline/pick.py",
        """\
        import multiprocessing

        class Runner:
            def work(self, task):
                return task

        def run_lambda(tasks):
            with multiprocessing.Pool() as pool:
                return pool.map(lambda t: t + 1, tasks)

        def run_method(tasks):
            runner = Runner()
            with multiprocessing.Pool() as pool:
                return pool.map(runner.work, tasks)
        """,
    )
    findings = analyze_paths([str(path)], [PickleSafetyRule()])
    assert rules_of(findings) == {"MP02"}
    messages = " | ".join(f.message for f in findings)
    assert "lambda" in messages
    assert "bound method 'runner.work'" in messages


def test_mp02_lambda_submitted_to_an_executor_attribute(tmp_path):
    # the Server shape: the pool lives on self and another method submits
    path = write_module(
        tmp_path,
        "repro/pipeline/pick.py",
        """\
        import concurrent.futures

        def _worker(task):
            return task

        class Runner:
            def start(self):
                self._pool = concurrent.futures.ProcessPoolExecutor()

            def run(self, task):
                ok = self._pool.submit(_worker, task)
                return ok, self._pool.submit(lambda t: t + 1, task)
        """,
    )
    findings = analyze_paths([str(path)], [PickleSafetyRule()])
    assert rules_of(findings) == {"MP02"}
    assert len(findings) == 1
    assert "lambda shipped to pool submit()" in findings[0].message


def test_mp02_lock_in_payload(tmp_path):
    path = write_module(
        tmp_path,
        "repro/pipeline/pick.py",
        """\
        import multiprocessing
        import threading

        def _worker(task):
            return task

        def run(items):
            payload = [(item, threading.Lock()) for item in items]
            with multiprocessing.Pool() as pool:
                return pool.map(_worker, payload)
        """,
    )
    findings = analyze_paths([str(path)], [PickleSafetyRule()])
    assert rules_of(findings) == {"MP02"}
    assert "'Lock(...)'" in findings[0].message


def test_mp02_process_target_lambda(tmp_path):
    path = write_module(
        tmp_path,
        "repro/pipeline/pick.py",
        """\
        import multiprocessing

        def spawn(q):
            proc = multiprocessing.Process(target=lambda: None, args=(q,))
            proc.start()
            return proc
        """,
    )
    findings = analyze_paths([str(path)], [PickleSafetyRule()])
    assert rules_of(findings) == {"MP02"}
    assert "lambda" in findings[0].message


def test_mp02_clean_toplevel_worker_and_pragma(tmp_path):
    clean = """\
        import multiprocessing

        def _worker(task):
            return task * 2

        def run(tasks):
            with multiprocessing.Pool() as pool:
                return pool.map(_worker, tasks)
    """
    path = write_module(tmp_path, "repro/pipeline/pick.py", clean)
    assert analyze_paths([str(path)], [PickleSafetyRule()]) == []

    bad = clean.replace(
        "        return pool.map(_worker, tasks)",
        "        return pool.map(lambda t: t, tasks)"
        "  # lint: allow MP02 -- fixture",
    )
    path.write_text(textwrap.dedent(bad), encoding="utf-8")
    assert analyze_paths([str(path)], [PickleSafetyRule()]) == []


# ---------------------------------------------------------------------------
# PERF01 hot-path complexity
# ---------------------------------------------------------------------------

PERF01_BUG = """\
    def _pairwise(records):
        out = []
        for first in records:
            for second in records:
                out.append((first, second))
        return out

    def serve(page):
        return _pairwise(page.records)
"""


def test_perf01_catches_quadratic_loop_reachable_from_serve(tmp_path):
    path = write_module(tmp_path, "repro/perf/hot.py", PERF01_BUG)
    findings = analyze_paths([str(path)], [HotPathComplexityRule()])
    assert rules_of(findings) == {"PERF01"}
    message = findings[0].message
    assert "depth-2" in message
    assert "repro.perf.hot.serve" in message  # the hot path is named


def test_perf01_memo_on_the_path_clears_the_finding(tmp_path):
    path = write_module(
        tmp_path,
        "repro/perf/hot.py",
        """\
        def _pairwise(records, cache_get):
            out = []
            for first in records:
                for second in records:
                    out.append(cache_get(first, second))
            return out

        def serve(page):
            return _pairwise(page.records, page.cache_get)
        """,
    )
    assert analyze_paths([str(path)], [HotPathComplexityRule()]) == []


def test_perf01_cold_functions_and_pragma(tmp_path):
    # same nest, not reachable from a hot entry: no finding
    cold = PERF01_BUG.replace("def serve(page):", "def offline(page):")
    path = write_module(tmp_path, "repro/perf/cold.py", cold)
    assert analyze_paths([str(path)], [HotPathComplexityRule()]) == []

    pragmad = PERF01_BUG.replace(
        "    for first in records:",
        "    for first in records:  # lint: allow PERF01 -- fixture",
    )
    path = write_module(tmp_path, "repro/perf/hot.py", pragmad)
    assert analyze_paths([str(path)], [HotPathComplexityRule()]) == []


# ---------------------------------------------------------------------------
# SER01 codec drift
# ---------------------------------------------------------------------------

SER01_BUG = """\
    from dataclasses import dataclass

    @dataclass
    class Thing:
        name: str
        count: int

    def thing_to_obj(thing: Thing) -> dict:
        return {"name": thing.name}
"""


def test_ser01_catches_unread_dataclass_field(tmp_path):
    path = write_module(tmp_path, "repro/core/codec.py", SER01_BUG)
    findings = analyze_paths([str(path)], [CodecDriftRule()])
    assert rules_of(findings) == {"SER01"}
    assert "'count'" in findings[0].message


def test_ser01_clean_codec_renamed_keys_and_page_exemption(tmp_path):
    path = write_module(
        tmp_path,
        "repro/core/codec.py",
        """\
        from dataclasses import dataclass

        class RenderedPage:
            pass

        @dataclass
        class Thing:
            page: RenderedPage
            name: str
            count: int

        def thing_to_obj(thing: Thing) -> dict:
            # keys differ from field names; reads are what count
            return {"n": thing.name, "c": thing.count}
        """,
    )
    assert analyze_paths([str(path)], [CodecDriftRule()]) == []


def test_ser01_delegating_alias_inherits_callee_reads(tmp_path):
    path = write_module(
        tmp_path,
        "repro/core/codec.py",
        """\
        from dataclasses import dataclass

        @dataclass
        class Thing:
            name: str
            count: int

        def _impl_to_obj(thing: Thing) -> dict:
            return {"name": thing.name, "count": thing.count}

        def thing_to_obj(thing: Thing) -> dict:
            return _impl_to_obj(thing)
        """,
    )
    assert analyze_paths([str(path)], [CodecDriftRule()]) == []


def test_ser01_pragma_escape_hatch(tmp_path):
    pragmad = SER01_BUG.replace(
        "def thing_to_obj(thing: Thing) -> dict:",
        "def thing_to_obj(thing: Thing) -> dict:"
        "  # lint: allow SER01 -- fixture",
    )
    path = write_module(tmp_path, "repro/core/codec.py", pragmad)
    assert analyze_paths([str(path)], [CodecDriftRule()]) == []


# ---------------------------------------------------------------------------
# The real tree
# ---------------------------------------------------------------------------


def test_src_repro_is_clean_under_flow_rules():
    assert analyze_paths([str(SRC_REPRO)], flow_rules()) == []


def test_flow_rules_fire_on_real_memos_without_allowlist():
    # zero findings must come from the registry doing its job, not from
    # the detector seeing nothing: emptying the allowlist must expose
    # the whole process-local memo family
    findings = analyze_paths([str(SRC_REPRO)], [ForkSafetyRule(allowlist={})])
    globals_hit = {f.message.split("'")[1] for f in findings}
    assert "repro.perf.kernels.TREE_MEMO" in globals_hit
    assert "repro.perf.kernels.RECORD_MEMO" in globals_hit
    # the persistent-Server worker path reaches the DINR health memo
    # (priming runs serve_index), and the worker state the executor
    # initializer fills is a registered global like the memos
    assert "repro.perf.kernels.DINR_MEMO" in globals_hit
    assert "repro.perf.server._WORKER" in globals_hit


def test_registry_replaces_det01_pragmas():
    # the memo key sites dropped their per-line pragmas in favour of
    # IDENTITY_KEY_FUNCTIONS; none of those files carries one any more
    for rel in (
        "perf/kernels.py",
        "perf/serve.py",
        "features/record_distance.py",
        "features/blocks.py",
        "core/verify.py",
    ):
        source = (SRC_REPRO / rel).read_text(encoding="utf-8")
        assert "allow DET01" not in source, rel


def test_det01_registry_suppression_is_scoped(tmp_path):
    # id() inside a registered identity-key function: sanctioned;
    # the same call anywhere else: still a finding
    from repro.analysis.rules.determinism import DeterminismRule

    path = write_module(
        tmp_path,
        "repro/perf/kernels.py",
        """\
        class PairMemo:
            def lookup(self, sig1, sig2):
                return (id(sig1), id(sig2))

        def elsewhere(value):
            return id(value)
        """,
    )
    findings = analyze_paths([str(path)], [DeterminismRule()])
    assert len(findings) == 1
    assert findings[0].line == 6


# ---------------------------------------------------------------------------
# Determinism of the analysis itself
# ---------------------------------------------------------------------------


def _as_json(findings):
    return json.dumps([f.to_dict() for f in findings], sort_keys=True)


def test_shuffled_file_order_is_byte_identical(tmp_path):
    write_module(tmp_path, "repro/pipeline/leak.py", MP01_BUG)
    write_module(tmp_path, "repro/perf/hot.py", PERF01_BUG)
    write_module(tmp_path, "repro/core/codec.py", SER01_BUG)
    paths = sorted(str(p) for p in tmp_path.rglob("*.py"))
    orders = [paths, paths[::-1], [paths[1], paths[2], paths[0]]]
    outputs = set()
    for order in orders:
        findings = analyze_paths(
            order,
            [ForkSafetyRule(allowlist={}), HotPathComplexityRule(),
             CodecDriftRule()],
        )
        outputs.add(_as_json(findings))
    assert len(outputs) == 1
    assert json.loads(outputs.pop())  # and they are not trivially empty


def test_repeated_full_runs_are_byte_identical():
    first = analyze_paths([str(SRC_REPRO)])
    second = analyze_paths([str(SRC_REPRO)])
    assert _as_json(first) == _as_json(second)


# ---------------------------------------------------------------------------
# Path normalization (machine-portable baselines)
# ---------------------------------------------------------------------------


def _fixture_repo(tmp_path):
    (tmp_path / "pyproject.toml").write_text("[project]\nname='x'\n")
    write_module(tmp_path, "src/repro/core/codec.py", SER01_BUG)
    return tmp_path


def test_absolute_root_reports_repo_relative_paths(tmp_path, monkeypatch):
    repo = _fixture_repo(tmp_path)
    monkeypatch.chdir(repo)
    findings = analyze_paths([str(repo / "src")], [CodecDriftRule()])
    assert [f.path for f in findings] == ["src/repro/core/codec.py"]


def test_relative_and_absolute_roots_agree(tmp_path, monkeypatch):
    repo = _fixture_repo(tmp_path)
    monkeypatch.chdir(repo)
    absolute = analyze_paths([str(repo / "src")], [CodecDriftRule()])
    relative = analyze_paths(["src"], [CodecDriftRule()])
    assert _as_json(absolute) == _as_json(relative)


# ---------------------------------------------------------------------------
# Diff-aware gate (--changed-only)
# ---------------------------------------------------------------------------


def _git(repo, *args):
    subprocess.run(
        ["git", "-c", "user.email=t@example.com", "-c", "user.name=t",
         *args],
        cwd=repo,
        check=True,
        capture_output=True,
    )


def test_changed_only_counts_only_changed_files(tmp_path, monkeypatch, capsys):
    repo = _fixture_repo(tmp_path)
    _git(repo, "init", "-q")
    _git(repo, "add", ".")
    _git(repo, "commit", "-q", "-m", "seed")
    # a second finding in a NEW file; the committed one is pre-existing
    write_module(repo, "src/repro/perf/hot.py", PERF01_BUG)
    monkeypatch.chdir(repo)

    code = analysis_main(["src", "--changed-only", "--rules", "SER01,PERF01"])
    out = capsys.readouterr().out
    assert code == 1
    assert "hot.py" in out
    assert "codec.py" not in out  # unchanged file: not counted

    # fix the new file; pre-existing findings no longer fail the gate
    (repo / "src/repro/perf/hot.py").unlink()
    code = analysis_main(["src", "--changed-only", "--rules", "SER01,PERF01"])
    assert code == 0
    assert "0 finding(s)" in capsys.readouterr().out


def test_full_run_still_sees_pre_existing_findings(tmp_path, monkeypatch, capsys):
    repo = _fixture_repo(tmp_path)
    _git(repo, "init", "-q")
    _git(repo, "add", ".")
    _git(repo, "commit", "-q", "-m", "seed")
    monkeypatch.chdir(repo)
    code = analysis_main(["src", "--rules", "SER01"])
    assert code == 1
    assert "codec.py" in capsys.readouterr().out
