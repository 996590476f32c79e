"""The interprocedural rules: MP01, MP02, PERF01, SER01.

Each rule is a :class:`~repro.analysis.engine.ProjectRule`: it runs
once per analysis with every parsed module in scope, shares one symbol
table + call graph per run through the project cache, and emits plain
:class:`~repro.analysis.findings.Finding` objects that the inline
``# lint: allow`` pragma and the baseline machinery treat exactly like
per-file findings.

- **MP01 fork safety** — a mutable module global mutated in any function
  reachable from a pool-worker callable must be registered in
  :data:`repro.analysis.registry.PROCESS_LOCAL_MEMOS`.
- **MP02 payload pickle safety** — callables and payloads shipped to a
  pool must survive pickling: no lambdas, no nested defs, no bound
  methods, no locks/open handles/observer objects in the payload.
- **PERF01 hot-path complexity** — functions reachable from ``serve()``
  or ``record_distance`` may not nest loops over page/line/block
  collections unless a memo sits on the path.
- **SER01 codec drift** — every dataclass field must be read by the
  ``*_to_obj`` codec that encodes it (page references excepted), so a
  new field fails lint instead of silently missing from saved wrappers.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

from repro.analysis import registry
from repro.analysis.engine import ProjectContext, ProjectRule
from repro.analysis.findings import Finding, finding_at
from repro.analysis.flow.callgraph import CallGraph, build_call_graph
from repro.analysis.flow.model import (
    FunctionInfo,
    ProjectModel,
    build_project_model,
    _chain_of,
)

_MODEL_KEY = "flow:model"
_GRAPH_KEY = "flow:graph"


def project_graph(project: ProjectContext) -> CallGraph:
    """The per-run shared symbol table + call graph (built once)."""
    graph = project.cache.get(_GRAPH_KEY)
    if isinstance(graph, CallGraph):
        return graph
    model = build_project_model(project.modules)
    built = build_call_graph(model)
    project.cache[_MODEL_KEY] = model
    project.cache[_GRAPH_KEY] = built
    return built


def _finding(
    function: FunctionInfo, node: ast.AST, rule: str, message: str
) -> Finding:
    return finding_at(function.path, node, rule, message)


# ---------------------------------------------------------------------------
# MP01 fork safety
# ---------------------------------------------------------------------------


class ForkSafetyRule(ProjectRule):
    rule_id = "MP01"
    title = "fork safety"
    invariant = (
        "no function reachable from a pool-worker callable mutates a "
        "mutable module global unless the global is registered as a "
        "process-local memo in repro.analysis.registry"
    )

    def __init__(self, allowlist: Optional[Mapping[str, str]] = None) -> None:
        self.allowlist = (
            registry.PROCESS_LOCAL_MEMOS if allowlist is None else allowlist
        )

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        graph = project_graph(project)
        if not graph.worker_entries:
            return
        reachable, parents = graph.reachable_from(graph.worker_entries)
        for qualname in reachable:
            for mutation in graph.mutations.get(qualname, []):
                if mutation.global_qualname in self.allowlist:
                    continue
                chain = graph.chain_to(qualname, parents)
                entry = chain[0]
                dispatch = graph.worker_entries.get(entry, entry)
                route = " -> ".join(chain)
                yield _finding(
                    mutation.function,
                    mutation.site.node,
                    self.rule_id,
                    (
                        f"mutable module global '{mutation.global_qualname}' "
                        f"mutated ({mutation.how}) on a worker path "
                        f"[{route}; dispatched by {dispatch}]; register it "
                        "in PROCESS_LOCAL_MEMOS with a purity argument or "
                        "move the state into the task payload"
                    ),
                )


# ---------------------------------------------------------------------------
# MP02 payload pickle safety
# ---------------------------------------------------------------------------

#: constructors whose results never survive a pickle boundary (or, for
#: observers, must never cross one: their stats merge by document)
_UNPICKLABLE_CALLS: Tuple[str, ...] = (
    "open",
    "Lock",
    "RLock",
    "Semaphore",
    "BoundedSemaphore",
    "Condition",
    "Event",
    "Observer",
    "NullObserver",
)


class PickleSafetyRule(ProjectRule):
    rule_id = "MP02"
    title = "payload pickle safety"
    invariant = (
        "callables shipped to a process pool are top-level functions and "
        "their payloads contain no closures, locks, observers or open "
        "handles"
    )

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        graph = project_graph(project)
        model = graph.project
        for qualname in model.functions:
            function = model.functions[qualname]
            module = model.modules[function.module]
            for dispatch in function.pool_dispatches:
                yield from self._check_callable(function, module, dispatch, graph)
                if dispatch.payload_expr is not None:
                    yield from self._check_payload(
                        function, dispatch.payload_expr
                    )

    def _check_callable(
        self,
        function: FunctionInfo,
        module: object,
        dispatch: object,
        graph: CallGraph,
    ) -> Iterator[Finding]:
        from repro.analysis.flow.callgraph import resolve_chain
        from repro.analysis.flow.model import ModuleInfo, PoolDispatch

        assert isinstance(dispatch, PoolDispatch)
        assert isinstance(module, ModuleInfo)
        expr = dispatch.callable_expr
        if isinstance(expr, ast.Lambda):
            yield _finding(
                function,
                expr,
                self.rule_id,
                f"lambda shipped to pool {dispatch.via}(); workers can only "
                "import top-level functions",
            )
            return
        chain = _chain_of(expr)
        if chain is None:
            yield _finding(
                function,
                expr,
                self.rule_id,
                f"pool {dispatch.via}() callable is not a plain name; "
                "workers can only import top-level functions",
            )
            return
        parts = chain.split(".")
        if parts[0] == "self" or (
            len(parts) > 1 and function.is_local(parts[0])
        ):
            yield _finding(
                function,
                expr,
                self.rule_id,
                f"bound method '{chain}' shipped to pool {dispatch.via}(); "
                "workers can only import top-level functions",
            )
            return
        if function.is_local(chain):
            yield _finding(
                function,
                expr,
                self.rule_id,
                f"local '{chain}' shipped to pool {dispatch.via}(); nested "
                "functions and locals do not pickle",
            )
            return
        resolved = resolve_chain(graph.project, module, function, chain)
        if resolved is not None and resolved.kind == "function":
            target = graph.project.functions[resolved.qualname]
            if target.class_qualname is not None:
                yield _finding(
                    function,
                    expr,
                    self.rule_id,
                    f"method '{resolved.qualname}' shipped to pool "
                    f"{dispatch.via}(); workers can only import top-level "
                    "functions",
                )

    def _check_payload(
        self, function: FunctionInfo, payload: ast.expr
    ) -> Iterator[Finding]:
        # The payload expression, plus — when it is a plain local name —
        # every value assigned to that name in this function.
        exprs: List[ast.expr] = [payload]
        name = payload.id if isinstance(payload, ast.Name) else None
        if name is not None:
            for node in ast.walk(function.node):
                if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == name
                    for t in node.targets
                ):
                    exprs.append(node.value)
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id == name
                    and node.func.attr == "append"
                    and node.args
                ):
                    exprs.append(node.args[0])
        for expr in exprs:
            for node in ast.walk(expr):
                if isinstance(node, ast.Lambda):
                    yield _finding(
                        function,
                        node,
                        self.rule_id,
                        "lambda inside a pool payload; closures do not "
                        "pickle",
                    )
                elif isinstance(node, ast.Call):
                    chain = _chain_of(node.func)
                    tail = None if chain is None else chain.rsplit(".", 1)[-1]
                    if tail in _UNPICKLABLE_CALLS:
                        yield _finding(
                            function,
                            node,
                            self.rule_id,
                            f"'{tail}(...)' result inside a pool payload; "
                            "locks, observers and open handles do not "
                            "cross process boundaries — ship plain data "
                            "and rebuild in the worker",
                        )


# ---------------------------------------------------------------------------
# PERF01 hot-path complexity
# ---------------------------------------------------------------------------

#: identifier substrings that mark a loop as iterating page-shaped data
_DATA_COLLECTION_HINTS: Tuple[str, ...] = (
    "block",
    "candidate",
    "instance",
    "line",
    "member",
    "page",
    "record",
    "section",
)

#: callee-chain substrings that count as a memo on the path
_MEMO_HINTS: Tuple[str, ...] = ("cache", "intern", "memo")

#: bare function names whose bodies anchor the serving hot path
_HOT_ENTRY_NAMES: Tuple[str, ...] = ("serve", "record_distance")


def _iterates_data(chains: Sequence[str]) -> bool:
    for chain in chains:
        tail = chain.rsplit(".", 1)[-1].lower()
        if any(hint in tail for hint in _DATA_COLLECTION_HINTS):
            return True
    return False


def _has_memo_access(function: FunctionInfo) -> bool:
    for chain, _node in function.calls:
        if any(hint in chain.lower() for hint in _MEMO_HINTS):
            return True
    for chain in function.chain_loads:
        head = chain.split(".")[0].lower()
        if any(hint in head for hint in _MEMO_HINTS):
            return True
    return False


class HotPathComplexityRule(ProjectRule):
    rule_id = "PERF01"
    title = "hot-path complexity"
    invariant = (
        "functions reachable from serve()/record_distance do not nest "
        "loops over page/line/block/record collections unless a memo "
        "lookup sits on the path"
    )

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        graph = project_graph(project)
        entries = sorted(
            qualname
            for qualname, function in graph.project.functions.items()
            if function.name in _HOT_ENTRY_NAMES
        )
        if not entries:
            return
        reachable, parents = graph.reachable_from(entries)
        for qualname in reachable:
            function = graph.project.functions[qualname]
            if _has_memo_access(function):
                continue
            for node, depth, chains in function.loop_nests:
                if depth < 2 or not _iterates_data(chains):
                    continue
                data_chains = sorted(
                    chain
                    for chain in chains
                    if _iterates_data([chain])
                )
                chain_to = graph.chain_to(qualname, parents)
                yield _finding(
                    function,
                    node,
                    self.rule_id,
                    (
                        f"depth-{depth} loop nest over "
                        f"{', '.join(data_chains)} in '{qualname}' "
                        f"(hot path: {' -> '.join(chain_to)}) without a "
                        "memo on the path; add a memo lookup or justify "
                        "with a pragma"
                    ),
                )


# ---------------------------------------------------------------------------
# SER01 codec drift
# ---------------------------------------------------------------------------


class CodecDriftRule(ProjectRule):
    rule_id = "SER01"
    title = "codec drift"
    invariant = (
        "every field of a dataclass with a *_to_obj codec is read by "
        "that codec (RenderedPage references excepted), so adding a "
        "field without updating the codec fails lint"
    )

    #: annotation heads exempt from encoding: runtime page references,
    #: never persisted (spans are; see core/serialize.py)
    exempt_annotations: Tuple[str, ...] = ("RenderedPage",)

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        from repro.analysis.flow.callgraph import resolve_chain

        graph = project_graph(project)
        model = graph.project
        for qualname in model.functions:
            function = model.functions[qualname]
            if not function.name.endswith("_to_obj"):
                continue
            if not function.params:
                continue
            param = function.params[0]
            if param in ("self", "cls"):
                if len(function.params) < 2:
                    continue
                param = function.params[1]
            annotation = function.param_annotations.get(param)
            if annotation is None:
                continue
            module = model.modules[function.module]
            resolved = resolve_chain(model, module, None, annotation)
            if resolved is None or resolved.kind != "class":
                continue
            class_info = model.classes.get(resolved.qualname)
            if class_info is None or not class_info.is_dataclass:
                continue
            fields = self._all_fields(model, class_info)
            reads = self._reads_of(model, function, param, set())
            for field_name, field_annotation in fields:
                if field_name in reads:
                    continue
                head = field_annotation.rsplit(".", 1)[-1]
                if head in self.exempt_annotations:
                    continue
                yield _finding(
                    function,
                    function.node,
                    self.rule_id,
                    (
                        f"codec '{function.qualname}' does not read field "
                        f"'{field_name}' of {class_info.qualname}; the "
                        "serialized form has drifted from the dataclass"
                    ),
                )

    def _reads_of(
        self,
        model: ProjectModel,
        function: FunctionInfo,
        param: str,
        visited: Set[str],
    ) -> Set[str]:
        """Attributes read on ``param``, following delegation.

        A codec that forwards its whole argument to another project
        function (``section_wrapper_to_obj`` delegating to
        ``_wrapper_to_obj``) inherits the callee's reads on the
        forwarded parameter — the fields are covered, just one call
        away.
        """
        from repro.analysis.flow.callgraph import resolve_chain

        if function.qualname in visited:
            return set()
        visited.add(function.qualname)
        reads = set(function.param_attr_reads.get(param, set()))
        module = model.modules[function.module]
        for chain, call in function.calls:
            position = next(
                (
                    index
                    for index, arg in enumerate(call.args)
                    if isinstance(arg, ast.Name) and arg.id == param
                ),
                None,
            )
            if position is None:
                continue
            resolved = resolve_chain(model, module, function, chain)
            if resolved is None or resolved.kind != "function":
                continue
            callee = model.functions[resolved.qualname]
            if position >= len(callee.params):
                continue
            callee_param = callee.params[position]
            reads |= self._reads_of(model, callee, callee_param, visited)
        return reads

    def _all_fields(
        self, model: ProjectModel, class_info: object
    ) -> List[Tuple[str, str]]:
        """Own fields plus resolvable dataclass base fields, in order."""
        from repro.analysis.flow.callgraph import resolve_chain
        from repro.analysis.flow.model import ClassInfo

        assert isinstance(class_info, ClassInfo)
        fields: List[Tuple[str, str]] = []
        seen: Set[str] = set()
        stack: List[ClassInfo] = [class_info]
        while stack:
            current = stack.pop(0)
            if current.qualname in seen:
                continue
            seen.add(current.qualname)
            for item in current.fields:
                if item[0] not in {f[0] for f in fields}:
                    fields.append(item)
            module = model.modules.get(current.module)
            if module is None:
                continue
            for base_chain in current.bases:
                base = resolve_chain(model, module, None, base_chain)
                if base is not None and base.kind == "class":
                    base_info = model.classes.get(base.qualname)
                    if base_info is not None and base_info.is_dataclass:
                        stack.append(base_info)
        return fields


def flow_rules() -> List[ProjectRule]:
    """Fresh instances of every flow rule, in registry order."""
    return [
        ForkSafetyRule(),
        PickleSafetyRule(),
        HotPathComplexityRule(),
        CodecDriftRule(),
    ]
