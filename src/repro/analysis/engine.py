"""The rule engine: deterministic file discovery, parsing, rule dispatch.

The engine is the machine-checked counterpart of the guarantees PR 2
made by hand: Tables 1-3 are bit-identical across serial, fast-kernel
and parallel runs *because* the kernels are pure, memo keys are interned
and nothing in the scoring path consults process state.  Each
:class:`Rule` encodes one of those invariants over the stdlib ``ast``;
the engine runs every rule over every file and returns a sorted,
de-duplicated list of :class:`~repro.analysis.findings.Finding`.

Determinism of the *linter itself* is part of the contract: files are
discovered in sorted order, rules run in registration order, and the
final findings are sorted — the same inputs produce byte-identical
output regardless of argument order or filesystem enumeration order
(property-tested in ``tests/test_analysis.py``).

Deliberate, documented exceptions are allowed inline::

    key = (id(block.page), block.start, block.end)  # lint: allow DET01 -- process-local memo key

The pragma suppresses the named rule(s) on that line only; the trailing
``-- reason`` is required reading for the next editor, not the engine.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.analysis.findings import Finding, finding_at

#: ``# lint: allow RULE01, RULE02 -- optional reason``
_PRAGMA_RE = re.compile(r"#\s*lint:\s*allow\s+([A-Z0-9_,\s]+?)(?:--|$)")

#: rule id reserved for files the parser rejects
PARSE_RULE = "E000"


class ModuleContext:
    """Everything a rule may inspect about one parsed source file."""

    def __init__(
        self,
        path: str,
        module: Optional[str],
        source: str,
        tree: ast.Module,
    ) -> None:
        self.path = path
        #: dotted module name when the file lives under a ``repro``
        #: package directory (``repro.core.mse``); None otherwise.
        self.module = module
        self.source = source
        self.tree = tree

    def in_packages(self, prefixes: Sequence[str]) -> bool:
        """Whether this module belongs to any of the dotted prefixes."""
        if self.module is None:
            return False
        return any(
            self.module == prefix or self.module.startswith(prefix + ".")
            for prefix in prefixes
        )

    def finding(self, node: ast.AST, rule: str, message: str) -> Finding:
        return finding_at(self.path, node, rule, message)


class Rule:
    """Base class of one invariant check.

    Subclasses set ``rule_id``, ``title`` and ``invariant`` (the docs
    render them verbatim) and implement :meth:`check`.  ``scope`` limits
    the rule to dotted module prefixes; ``None`` applies it everywhere.
    """

    rule_id: str = ""
    title: str = ""
    invariant: str = ""
    scope: Optional[Tuple[str, ...]] = None

    def applies_to(self, ctx: ModuleContext) -> bool:
        if self.scope is None:
            return True
        return ctx.in_packages(self.scope)

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        raise NotImplementedError


class ProjectContext:
    """Everything a project rule may inspect about one analysis run.

    Holds every parsed module of the run (sorted by display path — the
    engine's discovery order) plus a scratch ``cache`` dict the flow
    rules use to share one symbol table / call graph per run instead of
    rebuilding them per rule.
    """

    def __init__(self, modules: Sequence[ModuleContext]) -> None:
        self.modules = list(modules)
        self.cache: Dict[str, object] = {}


class ProjectRule:
    """Base class of one whole-program check.

    Unlike :class:`Rule`, a project rule sees every parsed file of the
    run at once (symbol tables, call graphs and codec/dataclass pairs
    are cross-module facts).  Findings still land on one file and line,
    and inline ``# lint: allow`` pragmas suppress them the same way.
    """

    rule_id: str = ""
    title: str = ""
    invariant: str = ""

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        raise NotImplementedError


def module_name_of(path: Path) -> Optional[str]:
    """Dotted module name for files under a ``repro`` package directory.

    Anchored on the last path component named ``repro`` so the same
    derivation works for ``src/repro/...`` in the repository and for
    fixture trees tests lay out under a temporary directory.
    """
    parts = [part for part in path.parts]
    anchor = None
    for index, part in enumerate(parts):
        if part == "repro":
            anchor = index
    if anchor is None:
        return None
    dotted = list(parts[anchor:-1])
    stem = path.stem
    if stem != "__init__":
        dotted.append(stem)
    return ".".join(dotted)


def discover_files(paths: Sequence[str]) -> List[Path]:
    """Python files under the given paths, deduplicated and sorted.

    Sorting by posix path string makes discovery independent of both the
    argument order and the filesystem's directory enumeration order.
    """
    seen: Set[str] = set()
    out: List[Path] = []
    for raw in paths:
        root = Path(raw)
        if root.is_file():
            candidates: Iterable[Path] = [root]
        elif root.is_dir():
            candidates = root.rglob("*.py")
        else:
            raise FileNotFoundError(f"no such file or directory: {raw}")
        for candidate in candidates:
            key = candidate.resolve().as_posix()
            if key in seen:
                continue
            seen.add(key)
            out.append(candidate)
    out.sort(key=lambda p: p.as_posix())
    return out


#: marker files that identify the repository root for path display
_ROOT_MARKERS = ("pyproject.toml", ".git")


def display_root(start: Optional[Path] = None) -> Path:
    """The directory findings paths are made relative to.

    Walks up from ``start`` (default: the working directory) to the
    nearest repository marker; falls back to ``start`` itself.  Keeping
    reported paths repo-relative makes baselines machine-portable: the
    same finding produces the same baseline entry regardless of where
    the repository is checked out or whether the linter was invoked
    with an absolute or a relative root.
    """
    origin = (start or Path.cwd()).resolve()
    for candidate in [origin, *origin.parents]:
        if any((candidate / marker).exists() for marker in _ROOT_MARKERS):
            return candidate
    return origin


def display_path(path: Path, root: Optional[Path] = None) -> str:
    """Repo-relative posix form of a path when under the root.

    Paths outside the root (temporary fixture trees in tests, say) keep
    their as-given form.
    """
    base = display_root() if root is None else root
    resolved = path.resolve()
    try:
        return resolved.relative_to(base).as_posix()
    except ValueError:
        return path.as_posix()


def _suppressed_lines(source: str) -> Dict[int, Set[str]]:
    """``line number -> rule ids`` allowed by inline pragmas."""
    allowed: Dict[int, Set[str]] = {}
    for number, text in enumerate(source.splitlines(), start=1):
        match = _PRAGMA_RE.search(text)
        if match is None:
            continue
        ids = {
            part.strip()
            for part in match.group(1).replace(",", " ").split()
            if part.strip()
        }
        if ids:
            allowed[number] = ids
    return allowed


class ParsedFile:
    """One discovered file: parsed context (or parse error) + pragmas."""

    def __init__(
        self,
        display: str,
        ctx: Optional[ModuleContext],
        allowed: Dict[int, Set[str]],
        parse_error: Optional[Finding],
    ) -> None:
        self.display = display
        self.ctx = ctx
        self.allowed = allowed
        self.parse_error = parse_error


def parse_file(path: Path, root: Optional[Path] = None) -> ParsedFile:
    """Parse one file once: context, pragma lines, or a parse finding."""
    display = display_path(path, root)
    source = path.read_text(encoding="utf-8")
    try:
        tree = ast.parse(source, filename=display)
    except SyntaxError as exc:
        return ParsedFile(
            display,
            None,
            {},
            Finding(
                path=display,
                line=exc.lineno or 0,
                col=exc.offset or 0,
                rule=PARSE_RULE,
                message=f"file does not parse: {exc.msg}",
            ),
        )
    ctx = ModuleContext(
        path=display, module=module_name_of(path), source=source, tree=tree
    )
    return ParsedFile(display, ctx, _suppressed_lines(source), None)


def _run_file_rules(
    parsed: ParsedFile, rules: Sequence[Rule]
) -> List[Finding]:
    if parsed.parse_error is not None:
        return [parsed.parse_error]
    ctx = parsed.ctx
    assert ctx is not None
    out: List[Finding] = []
    for rule in rules:
        if not rule.applies_to(ctx):
            continue
        for finding in rule.check(ctx):
            if finding.rule in parsed.allowed.get(finding.line, ()):
                continue
            out.append(finding)
    return out


AnyRule = object  # Rule | ProjectRule; kept loose for 3.9 compatibility


def analyze_paths(
    paths: Sequence[str], rules: Optional[Sequence[object]] = None
) -> List[Finding]:
    """Run the rules over every Python file under ``paths``, sorted.

    ``rules`` may mix per-file :class:`Rule` and whole-program
    :class:`ProjectRule` instances; by default every registered rule of
    both kinds runs.  Files are parsed exactly once, shared between the
    per-file pass and the project pass.
    """
    if rules is None:
        from repro.analysis.rules import all_rules

        rules = all_rules()
    file_rules = [rule for rule in rules if isinstance(rule, Rule)]
    project_rules = [rule for rule in rules if isinstance(rule, ProjectRule)]

    root = display_root()
    parsed_files = [parse_file(path, root) for path in discover_files(paths)]

    findings: Set[Finding] = set()
    for parsed in parsed_files:
        findings.update(_run_file_rules(parsed, file_rules))

    if project_rules:
        contexts = [p.ctx for p in parsed_files if p.ctx is not None]
        allowed_of = {
            p.display: p.allowed for p in parsed_files if p.ctx is not None
        }
        project = ProjectContext(contexts)
        for rule in project_rules:
            for finding in rule.check_project(project):
                if finding.rule in allowed_of.get(finding.path, {}).get(
                    finding.line, ()
                ):
                    continue
                findings.add(finding)
    return sorted(findings, key=Finding.sort_key)
