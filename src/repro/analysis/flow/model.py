"""The project symbol table: modules, functions, classes, globals.

One :class:`ProjectModel` summarizes every parsed module of an analysis
run.  The unit of summary is the *top-level callable*: module functions
and class methods each get a :class:`FunctionInfo`; nested ``def``\\ s,
lambdas and comprehensions are folded into their enclosing top-level
callable (a closure handed to a caller executes with the enclosing
scope's facts, so attributing its reads, calls and mutations to the
enclosing function is the sound direction for reachability analysis).

The facts collected per function are exactly what the interprocedural
rules need and nothing more:

- raw call chains and name loads (resolved later by the call graph),
- mutation sites: attribute/subscript stores, ``del``, aug-assigns and
  method calls on a receiver chain, plus rebinds of ``global`` names,
- attribute reads grouped by parameter (the codec-drift rule checks a
  codec reads every dataclass field of its parameter),
- pool fan-out sites: ``multiprocessing.Pool`` and
  ``concurrent.futures.ProcessPoolExecutor`` construction and the
  dispatch calls (``map``/``imap``/``submit``/…) with their callable and
  payload expressions.

Everything is stored in insertion order derived from sorted module
paths, so downstream iteration is deterministic by construction.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.engine import ModuleContext

#: method names whose call mutates a builtin container receiver
MUTATING_CONTAINER_METHODS: Tuple[str, ...] = (
    "add",
    "append",
    "clear",
    "discard",
    "extend",
    "insert",
    "intern",
    "pop",
    "popitem",
    "remove",
    "setdefault",
    "sort",
    "store",
    "update",
)

#: pool dispatch methods that execute their callable in a worker
POOL_DISPATCH_METHODS: Tuple[str, ...] = (
    "apply",
    "apply_async",
    "imap",
    "imap_unordered",
    "map",
    "map_async",
    "starmap",
    "starmap_async",
    "submit",
)

@dataclass
class MutationSite:
    """One potential in-place mutation of a receiver chain."""

    #: dotted receiver chain (``TREE_MEMO``, ``self._table``); for a
    #: ``global``-declared rebind this is the bare global name
    receiver: str
    #: ``"store"`` (attr/subscript/del/augassign), ``"method"`` (a call
    #: whose mutating-ness depends on the resolved method) or
    #: ``"rebind"`` (assignment to a ``global``-declared name)
    kind: str
    #: method name for ``kind == "method"``; empty otherwise
    method: str
    node: ast.AST


@dataclass
class PoolDispatch:
    """One pool fan-out: a callable shipped to worker processes."""

    #: the expression of the worker callable (first positional arg, the
    #: ``initializer=`` keyword, or a ``Process(target=...)`` keyword)
    callable_expr: ast.expr
    #: the payload expression (the iterable / ``submit`` arguments /
    #: ``initargs`` / ``args``)
    payload_expr: Optional[ast.expr]
    #: dispatch method name (``imap_unordered``, …), ``initializer``,
    #: or ``Process`` for a long-lived worker construction
    via: str
    node: ast.AST


@dataclass
class FunctionInfo:
    """Summary of one top-level callable (module function or method)."""

    name: str
    qualname: str
    module: str
    path: str
    lineno: int
    node: ast.AST
    #: owning class qualname for methods; None for module functions
    class_qualname: Optional[str] = None
    params: List[str] = field(default_factory=list)
    #: every name bound anywhere in the subtree (params, assignments,
    #: loop/with/except targets, nested defs and their params, imports)
    local_names: Set[str] = field(default_factory=set)
    #: names declared ``global`` somewhere in the subtree
    declared_globals: Set[str] = field(default_factory=set)
    #: raw dotted callee chains with their call nodes
    calls: List[Tuple[str, ast.Call]] = field(default_factory=list)
    #: calls whose callee is not a name chain (lambda, subscript, call)
    opaque_calls: List[ast.Call] = field(default_factory=list)
    #: plain name loads (for reference edges / global reads)
    name_loads: Set[str] = field(default_factory=set)
    #: dotted chains read anywhere (covers ``module.GLOBAL`` reads)
    chain_loads: Set[str] = field(default_factory=set)
    mutations: List[MutationSite] = field(default_factory=list)
    #: attribute names read per parameter (``wrapper`` -> {"pref", ...})
    param_attr_reads: Dict[str, Set[str]] = field(default_factory=dict)
    pool_dispatches: List[PoolDispatch] = field(default_factory=list)
    #: whether the subtree constructs a process pool
    creates_pool: bool = False
    #: nested function/lambda definitions exist (folded into this info)
    has_nested_defs: bool = False
    #: `For`/`AsyncFor` loop nests: (outer node, depth, iter chains)
    loop_nests: List[Tuple[ast.AST, int, Tuple[str, ...]]] = field(
        default_factory=list
    )
    #: first-parameter annotation as a dotted chain, if present
    param_annotations: Dict[str, str] = field(default_factory=dict)
    #: return annotation as a dotted chain, if present
    return_annotation: Optional[str] = None

    def is_local(self, name: str) -> bool:
        return name in self.local_names and name not in self.declared_globals


@dataclass
class ClassInfo:
    """Summary of one top-level class."""

    name: str
    qualname: str
    module: str
    node: ast.ClassDef
    #: raw dotted base-class chains
    bases: List[str] = field(default_factory=list)
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)
    #: annotated class-body fields in declaration order (dataclasses)
    fields: List[Tuple[str, str]] = field(default_factory=list)
    is_dataclass: bool = False


@dataclass
class GlobalInfo:
    """Summary of one module-level binding."""

    name: str
    qualname: str
    module: str
    lineno: int
    #: the (first) bound value expression; None for bare annotations
    value: Optional[ast.expr]
    #: conservatively mutable? (container literal or class instance)
    mutable: bool = False
    #: raw dotted chain of the constructor when value is ``Name(...)``
    constructor: Optional[str] = None
    #: raw dotted chains referenced anywhere in the value expression
    #: (class references inside registry dicts like ``PAGE_STAGES``)
    references: List[str] = field(default_factory=list)


@dataclass
class ModuleInfo:
    """Summary of one parsed module."""

    name: str
    path: str
    context: ModuleContext
    imports: Dict[str, str] = field(default_factory=dict)
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    classes: Dict[str, ClassInfo] = field(default_factory=dict)
    globals: Dict[str, GlobalInfo] = field(default_factory=dict)


@dataclass
class ProjectModel:
    """Every module summary of one analysis run, cross-indexed."""

    modules: Dict[str, ModuleInfo] = field(default_factory=dict)
    #: every FunctionInfo by qualified name (functions and methods)
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    classes: Dict[str, ClassInfo] = field(default_factory=dict)
    globals: Dict[str, GlobalInfo] = field(default_factory=dict)


def _module_name(ctx: ModuleContext) -> str:
    """The dotted module name; path-derived for non-``repro`` files."""
    if ctx.module is not None:
        return ctx.module
    dotted = ctx.path[:-3] if ctx.path.endswith(".py") else ctx.path
    dotted = dotted.replace("\\", "/").strip("/").replace("/", ".")
    if dotted.endswith(".__init__"):
        dotted = dotted[: -len(".__init__")]
    return dotted or ctx.path


def _chain_of(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain (self included); else None."""
    parts: List[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        parts.append(current.id)
        return ".".join(reversed(parts))
    return None


def _annotation_chain(node: Optional[ast.expr]) -> Optional[str]:
    """The dotted chain of an annotation, unwrapping quotes/Optional."""
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            node = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return None
    if isinstance(node, ast.Subscript):
        # Optional[X] / List[X] — the head type is what callers match on.
        return _annotation_chain(node.value)
    return _chain_of(node)


class _FactVisitor(ast.NodeVisitor):
    """Collects one top-level callable's facts over its whole subtree."""

    def __init__(self, info: FunctionInfo) -> None:
        self.info = info

    # -- scope bookkeeping ----------------------------------------------
    def _bind(self, target: ast.AST) -> None:
        for node in ast.walk(target):
            if isinstance(node, ast.Name) and isinstance(
                node.ctx, (ast.Store, ast.Del)
            ):
                self.info.local_names.add(node.id)

    def visit_Global(self, node: ast.Global) -> None:
        self.info.declared_globals.update(node.names)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._nested_def(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._nested_def(node)

    def _nested_def(self, node: ast.AST) -> None:
        self.info.has_nested_defs = True
        self.info.local_names.add(getattr(node, "name", ""))
        args = getattr(node, "args", None)
        if args is not None:
            for arg in _all_args(args):
                self.info.local_names.add(arg.arg)
        for child in getattr(node, "body", []):
            self.visit(child)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self.info.has_nested_defs = True
        for arg in _all_args(node.args):
            self.info.local_names.add(arg.arg)
        self.visit(node.body)

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self.info.local_names.add(alias.asname or alias.name.split(".")[0])

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        for alias in node.names:
            self.info.local_names.add(alias.asname or alias.name)

    # -- binding statements ---------------------------------------------
    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._mutation_target(target)
            self._bind(target)
        self.visit(node.value)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._mutation_target(node.target)
        self._bind(node.target)
        if node.value is not None:
            self.visit(node.value)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._mutation_target(node.target, augmenting=True)
        self._bind(node.target)
        self.visit(node.value)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            self._mutation_target(target)
            self._bind(target)

    def visit_For(self, node: ast.For) -> None:
        self._bind(node.target)
        self.generic_visit(node)

    def visit_AsyncFor(self, node: ast.AsyncFor) -> None:
        self._bind(node.target)
        self.generic_visit(node)

    def visit_withitem(self, node: ast.withitem) -> None:
        if node.optional_vars is not None:
            self._bind(node.optional_vars)
        self.visit(node.context_expr)

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.name:
            self.info.local_names.add(node.name)
        self.generic_visit(node)

    def visit_comprehension(self, node: ast.comprehension) -> None:
        self._bind(node.target)
        self.visit(node.iter)
        for cond in node.ifs:
            self.visit(cond)

    def visit_NamedExpr(self, node: ast.NamedExpr) -> None:
        self._bind(node.target)
        self.visit(node.value)

    def _mutation_target(self, target: ast.AST, augmenting: bool = False) -> None:
        """Record attr/subscript stores and ``global`` rebinds."""
        if isinstance(target, (ast.Attribute, ast.Subscript)):
            receiver = _chain_of(target.value)
            if receiver is not None:
                self.info.mutations.append(
                    MutationSite(receiver, "store", "", target)
                )
            else:
                self.visit(target.value)
            if isinstance(target, ast.Subscript):
                self.visit(target.slice)
        elif isinstance(target, ast.Name):
            if augmenting or isinstance(target.ctx, ast.Store):
                if target.id in self.info.declared_globals:
                    self.info.mutations.append(
                        MutationSite(target.id, "rebind", "", target)
                    )
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._mutation_target(element)

    # -- uses ------------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        chain = _chain_of(node.func)
        if chain is None:
            self.info.opaque_calls.append(node)
            self.visit(node.func)
        else:
            self.info.calls.append((chain, node))
            if "." in chain:
                receiver, method = chain.rsplit(".", 1)
                self.info.mutations.append(
                    MutationSite(receiver, "method", method, node)
                )
            # Record the receiver chain's reads without re-visiting the
            # attribute chain (visit args only below).
            self._record_chain(chain, node.func)
        for arg in node.args:
            self.visit(arg)
        for keyword in node.keywords:
            self.visit(keyword.value)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        chain = _chain_of(node)
        if chain is not None and isinstance(node.ctx, ast.Load):
            self._record_chain(chain, node)
        else:
            self.generic_visit(node)

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load):
            self._record_chain(node.id, node)

    def _record_chain(self, chain: str, node: ast.AST) -> None:
        parts = chain.split(".")
        head = parts[0]
        self.info.name_loads.add(head)
        self.info.chain_loads.add(chain)
        if len(parts) >= 2 and head in self.info.params:
            self.info.param_attr_reads.setdefault(head, set()).add(parts[1])


def _all_args(args: ast.arguments) -> List[ast.arg]:
    out: List[ast.arg] = []
    out.extend(getattr(args, "posonlyargs", []))
    out.extend(args.args)
    if args.vararg is not None:
        out.append(args.vararg)
    out.extend(args.kwonlyargs)
    if args.kwarg is not None:
        out.append(args.kwarg)
    return out


def _collect_loop_nests(info: FunctionInfo) -> None:
    """Record every ``for`` nest with its depth and iterated chains."""

    def loop_chains(loop: ast.AST) -> Tuple[str, ...]:
        iter_expr = getattr(loop, "iter", None)
        if iter_expr is None:
            return ()
        chains: Set[str] = set()
        for node in ast.walk(iter_expr):
            chain = _chain_of(node)
            if chain is not None:
                chains.add(chain)
        return tuple(sorted(chains))

    def depth_below(node: ast.AST) -> int:
        deepest = 0
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            child_depth = depth_below(child)
            if isinstance(child, (ast.For, ast.AsyncFor)):
                child_depth += 1
            deepest = max(deepest, child_depth)
        return deepest

    def walk(node: ast.AST, inside: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                walk(child, inside)
                continue
            if isinstance(child, (ast.For, ast.AsyncFor)):
                if not inside:
                    nest_depth = 1 + depth_below(child)
                    chains: Set[str] = set(loop_chains(child))
                    for sub in ast.walk(child):
                        if isinstance(sub, (ast.For, ast.AsyncFor)):
                            chains.update(loop_chains(sub))
                    info.loop_nests.append(
                        (child, nest_depth, tuple(sorted(chains)))
                    )
                walk(child, True)
            else:
                walk(child, inside)

    walk(info.node, False)


def _pool_handles(node: ast.AST, pool_chains: Set[str]) -> Set[str]:
    """Chains bound to a new pool under ``node``: ``with Pool() as p``
    targets and assignment targets, ``self`` attributes included."""
    handles: Set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.withitem) and sub.optional_vars is not None:
            value, targets = sub.context_expr, [sub.optional_vars]
        elif isinstance(sub, ast.Assign):
            value, targets = sub.value, list(sub.targets)
        else:
            continue
        if isinstance(value, ast.Call) and _chain_of(value.func) in pool_chains:
            for target in targets:
                bound = _chain_of(target)
                if bound is not None:
                    handles.add(bound)
    return handles


def _find_pool_dispatches(
    info: FunctionInfo,
    pool_chains: Set[str],
    process_chains: Set[str],
    class_handles: Set[str],
) -> None:
    """Mark pool construction and record dispatch sites.

    A dispatch method counts on a pool handle: a name this function
    binds to a new pool, or a ``self`` attribute some method of its
    class binds to one (``class_handles``).  A function that builds a
    pool without binding it counts dispatches on any receiver.
    """
    for chain, call in info.calls:
        # A bare multiprocessing.Process(target=..., args=...) is a
        # dispatch too: the target runs in a worker, the args cross the
        # pickle boundary.  Contexts hide the module behind a handle
        # (ctx.Process), so any ``*.Process(target=...)`` call counts.
        if chain in process_chains or chain.rsplit(".", 1)[-1] == "Process":
            target_expr: Optional[ast.expr] = None
            args_expr: Optional[ast.expr] = None
            for keyword in call.keywords:
                if keyword.arg == "target":
                    target_expr = keyword.value
                elif keyword.arg == "args":
                    args_expr = keyword.value
            if target_expr is not None:
                info.pool_dispatches.append(
                    PoolDispatch(target_expr, args_expr, "Process", call)
                )
        if chain in pool_chains:
            info.creates_pool = True
            for keyword in call.keywords:
                if keyword.arg == "initializer":
                    initargs: Optional[ast.expr] = None
                    for other in call.keywords:
                        if other.arg == "initargs":
                            initargs = other.value
                    info.pool_dispatches.append(
                        PoolDispatch(keyword.value, initargs, "initializer", call)
                    )
    if not info.creates_pool and not class_handles:
        return
    handles = set(class_handles)
    if info.creates_pool:
        handles |= _pool_handles(info.node, pool_chains)
    anonymous = info.creates_pool and not handles
    for chain, call in info.calls:
        if "." not in chain:
            continue
        receiver, method = chain.rsplit(".", 1)
        if method not in POOL_DISPATCH_METHODS or not call.args:
            continue
        if receiver not in handles and not anonymous:
            continue
        # ``submit(fn, *args)`` ships every later argument.
        rest = call.args[1:]
        payload: Optional[ast.expr] = None
        if len(rest) == 1:
            payload = rest[0]
        elif rest:
            payload = ast.Tuple(elts=list(rest), ctx=ast.Load())
        info.pool_dispatches.append(PoolDispatch(call.args[0], payload, method, call))


def _build_function(
    node: ast.AST,
    module: ModuleInfo,
    class_info: Optional[ClassInfo],
    pool_chains: Set[str],
    process_chains: Set[str],
    class_handles: Set[str],
) -> FunctionInfo:
    name = getattr(node, "name", "<lambda>")
    if class_info is not None:
        qualname = f"{class_info.qualname}.{name}"
    else:
        qualname = f"{module.name}.{name}"
    info = FunctionInfo(
        name=name,
        qualname=qualname,
        module=module.name,
        path=module.path,
        lineno=getattr(node, "lineno", 0),
        node=node,
        class_qualname=None if class_info is None else class_info.qualname,
    )
    args = getattr(node, "args", None)
    if args is not None:
        for arg in _all_args(args):
            info.params.append(arg.arg)
            info.local_names.add(arg.arg)
            chain = _annotation_chain(arg.annotation)
            if chain is not None:
                info.param_annotations[arg.arg] = chain
    info.return_annotation = _annotation_chain(getattr(node, "returns", None))
    visitor = _FactVisitor(info)
    # Visit body statements only: decorators and annotations reference
    # types, and treating those as value uses would wire spurious
    # reachability edges into the call graph.
    for child in getattr(node, "body", []):
        visitor.visit(child)
    _collect_loop_nests(info)
    _find_pool_dispatches(info, pool_chains, process_chains, class_handles)
    return info


def _value_mutability(
    value: Optional[ast.expr], module: ModuleInfo
) -> Tuple[bool, Optional[str], List[str]]:
    """(mutable?, constructor chain, referenced chains) of a global."""
    if value is None:
        return False, None, []
    references: List[str] = []
    for node in ast.walk(value):
        chain = _chain_of(node)
        if chain is not None:
            references.append(chain)
    references = sorted(set(references))
    if isinstance(value, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                          ast.DictComp, ast.SetComp)):
        return True, None, references
    if isinstance(value, ast.Call):
        chain = _chain_of(value.func)
        if chain is None:
            return False, None, references
        tail = chain.rsplit(".", 1)[-1]
        if tail in ("frozenset", "tuple", "property", "TypeVar", "compile"):
            return False, chain, references
        if tail in ("list", "dict", "set", "bytearray", "defaultdict",
                    "OrderedDict", "deque"):
            return True, chain, references
        # A call to a (possibly project) class or factory: conservatively
        # mutable; the fork-safety rule only *flags* it when a resolved
        # impure method is invoked on it from a worker path.
        return True, chain, references
    return False, None, references


#: process-pool classes by defining module
_POOL_CLASSES: Dict[str, str] = {
    "multiprocessing": "Pool",
    "multiprocessing.pool": "Pool",
    "concurrent.futures": "ProcessPoolExecutor",
    "concurrent.futures.process": "ProcessPoolExecutor",
}


def _pool_chains(module: ModuleInfo) -> Set[str]:
    """Chains that denote a process pool class in this module
    (``multiprocessing.Pool``, ``concurrent.futures.ProcessPoolExecutor``)."""
    chains: Set[str] = {
        f"{home}.{name}" for home, name in _POOL_CLASSES.items()
    }
    for alias, target in module.imports.items():
        if target in _POOL_CLASSES:
            chains.add(f"{alias}.{_POOL_CLASSES[target]}")
        if target in chains:
            chains.add(alias)
    return chains


def _process_chains(module: ModuleInfo) -> Set[str]:
    """Chains that denote ``multiprocessing.Process`` in this module."""
    chains: Set[str] = set()
    for alias, target in module.imports.items():
        if target == "multiprocessing":
            chains.add(f"{alias}.Process")
        if target in (
            "multiprocessing.Process",
            "multiprocessing.process.Process",
        ):
            chains.add(alias)
        if target == "multiprocessing.process":
            chains.add(f"{alias}.Process")
    chains.add("multiprocessing.Process")
    return chains


def _module_imports(tree: ast.Module, module_name: str) -> Dict[str, str]:
    imports: Dict[str, str] = {}
    package_parts = module_name.split(".")
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else alias.name.split(".")[0]
                imports[bound] = target
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                # Relative import: resolve against this module's package.
                base_parts = package_parts[: -node.level] if node.level <= len(
                    package_parts
                ) else []
                base = ".".join(base_parts + ([node.module] if node.module else []))
            else:
                base = node.module or ""
            for alias in node.names:
                if alias.name == "*":
                    continue
                bound = alias.asname or alias.name
                imports[bound] = f"{base}.{alias.name}" if base else alias.name
    return imports


def _class_fields(node: ast.ClassDef) -> List[Tuple[str, str]]:
    fields: List[Tuple[str, str]] = []
    for child in node.body:
        if isinstance(child, ast.AnnAssign) and isinstance(child.target, ast.Name):
            chain = _annotation_chain(child.annotation) or ""
            if chain == "ClassVar":
                continue
            fields.append((child.target.id, chain))
    return fields


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        chain = _chain_of(target)
        if chain is not None and chain.rsplit(".", 1)[-1] == "dataclass":
            return True
    return False


def build_module_info(ctx: ModuleContext) -> ModuleInfo:
    """Summarize one parsed module."""
    name = _module_name(ctx)
    module = ModuleInfo(name=name, path=ctx.path, context=ctx)
    module.imports = _module_imports(ctx.tree, name)
    pool_chains = _pool_chains(module)
    process_chains = _process_chains(module)

    for node in ctx.tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            info = _build_function(
                node, module, None, pool_chains, process_chains, set()
            )
            module.functions[info.name] = info
        elif isinstance(node, ast.ClassDef):
            class_info = ClassInfo(
                name=node.name,
                qualname=f"{name}.{node.name}",
                module=name,
                node=node,
                bases=[
                    chain
                    for chain in (_chain_of(base) for base in node.bases)
                    if chain is not None
                ],
                fields=_class_fields(node),
                is_dataclass=_is_dataclass(node),
            )
            # Pools a method binds to ``self`` are handles in every method.
            class_handles = {
                chain
                for chain in _pool_handles(node, pool_chains)
                if chain.startswith("self.")
            }
            for child in node.body:
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    method = _build_function(
                        child,
                        module,
                        class_info,
                        pool_chains,
                        process_chains,
                        class_handles,
                    )
                    class_info.methods[method.name] = method
            module.classes[node.name] = class_info
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            value = node.value
            for target in targets:
                if not isinstance(target, ast.Name):
                    continue
                if target.id in module.globals:
                    continue
                mutable, constructor, references = _value_mutability(value, module)
                module.globals[target.id] = GlobalInfo(
                    name=target.id,
                    qualname=f"{name}.{target.id}",
                    module=name,
                    lineno=node.lineno,
                    value=value,
                    mutable=mutable,
                    constructor=constructor,
                    references=references,
                )
    return module


def build_project_model(contexts: Sequence[ModuleContext]) -> ProjectModel:
    """Summarize every parsed module of a run into one model.

    Contexts arrive in the engine's sorted path order; the model keeps
    that order everywhere, which is what makes downstream iteration —
    and therefore findings — deterministic.
    """
    project = ProjectModel()
    for ctx in contexts:
        module = build_module_info(ctx)
        project.modules[module.name] = module
        for function in module.functions.values():
            project.functions[function.qualname] = function
        for class_info in module.classes.values():
            project.classes[class_info.qualname] = class_info
            for method in class_info.methods.values():
                project.functions[method.qualname] = method
        for global_info in module.globals.values():
            project.globals[global_info.qualname] = global_info
    return project
