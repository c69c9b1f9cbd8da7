"""Worker-purity analysis: the process-pool surface must stay pure.

``repro.runner`` proves serial ≡ parallel dynamically (bit-identical
batch results).  The property that makes the proof *hold* is that the
callables shipped to :class:`~concurrent.futures.ProcessPoolExecutor`
do not depend on mutable state accumulated in the parent or in a
previous job of the same worker: everything a job needs is in its
payload, everything it produces is in its record.

This analysis finds the worker surface by *discovery*, not
configuration: every ``executor.submit(f, ...)`` / ``executor.map(f,
...)`` call site in a module that imports ``ProcessPoolExecutor``
roots the surface at ``f`` (resolved through the call graph), and the
surface is the transitive call-graph closure from those roots.  Within
the closure it reports:

- **W701** — a ``global`` declaration whose names are re-bound (the
  rebinding is per-process state that diverges between serial and
  forked execution);
- **W702** — mutation of a module-level mutable container (a name
  bound to a dict/list/set literal or constructor at module scope):
  subscript stores, ``del``, and retaining method calls
  (``append``/``update``/``setdefault``/…);
- **W703** — a ``nonlocal`` declaration whose names are re-bound
  (enclosing-scope accumulation).

Each finding names the worker entry point and the call path that
reaches the offending function, so the report reads as a proof
obligation: *this* mutation is reachable from *this* submitted
callable.  Value-transparent per-process memo caches (keyed by full
fingerprints) are the one legitimate exception; they are suppressed
explicitly with a justified ``# simlint: ignore[W70x]`` pragma at the
line — the point is that every one is visible and reviewed.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.lint.callgraph import CallGraph, FunctionInfo
from repro.lint.core import ModuleSource, Project

__all__ = ["PurityFinding", "run_worker_analysis", "worker_entrypoints"]

_EXECUTOR_METHODS = frozenset({"submit", "map"})

_MUTATOR_METHODS = frozenset({
    "append", "add", "insert", "extend", "setdefault", "update", "pop",
    "popitem", "clear", "remove", "discard", "appendleft",
})


@dataclass(frozen=True)
class PurityFinding:
    rule: str          # W701..W703
    path: str
    line: int
    message: str
    entry: str         # worker entry point fid
    chain: Tuple[str, ...]  # call path entry -> offending function


def _imports_executor(module: ModuleSource) -> bool:
    for node in ast.walk(module.tree):
        if isinstance(node, ast.ImportFrom):
            if node.module == "concurrent.futures" and any(
                alias.name == "ProcessPoolExecutor" for alias in node.names
            ):
                return True
        elif isinstance(node, ast.Import):
            if any(
                alias.name.startswith("concurrent.futures")
                for alias in node.names
            ):
                return True
    return False


def worker_entrypoints(
    project: Project, graph: CallGraph
) -> List[FunctionInfo]:
    """Functions handed to a ProcessPoolExecutor anywhere in the project."""
    roots: Dict[str, FunctionInfo] = {}
    for module in project:
        if not _imports_executor(module):
            continue
        for fn in graph.functions.values():
            if fn.module.relpath != module.relpath:
                continue
            for call in graph.iter_calls(fn):
                func = call.func
                if not (
                    isinstance(func, ast.Attribute)
                    and func.attr in _EXECUTOR_METHODS
                    and call.args
                ):
                    continue
                first = call.args[0]
                resolved = None
                if isinstance(first, ast.Name):
                    resolved = graph.resolve_name(fn.module, first.id)
                elif isinstance(first, ast.Attribute) and isinstance(
                    first.value, ast.Name
                ):
                    scope = graph.scope(fn.module)
                    mod_alias = scope.module_aliases.get(first.value.id)
                    if mod_alias is not None:
                        target = graph._find_module(mod_alias)
                        if target is not None:
                            resolved = graph.resolve_name(
                                target, first.attr
                            )
                if isinstance(resolved, FunctionInfo):
                    roots[resolved.fid] = resolved
    return [roots[fid] for fid in sorted(roots)]


def _mutable_globals(module: ModuleSource) -> Set[str]:
    """Module-level names bound to mutable container literals."""
    names: Set[str] = set()
    for stmt in module.tree.body:
        targets: List[ast.expr] = []
        value: Optional[ast.expr] = None
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        if value is None:
            continue
        is_container = isinstance(value, (ast.Dict, ast.List, ast.Set)) or (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name)
            and value.func.id in ("dict", "list", "set")
        )
        if not is_container:
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                names.add(target.id)
    return names


def _reachable(
    graph: CallGraph, roots: List[FunctionInfo]
) -> Dict[str, Tuple[str, Tuple[str, ...]]]:
    """fid -> (entry fid, call chain from the entry), BFS order."""
    out: Dict[str, Tuple[str, Tuple[str, ...]]] = {}
    for root in roots:
        frontier: List[Tuple[FunctionInfo, Tuple[str, ...]]] = [
            (root, (root.fid,))
        ]
        while frontier:
            fn, chain = frontier.pop(0)
            if fn.fid in out:
                continue
            out[fn.fid] = (root.fid, chain)
            for _, target in graph.callees(fn):
                if target.fn.fid not in out:
                    frontier.append(
                        (target.fn, chain + (target.fn.fid,))
                    )
    return out


def _scope_nodes(body: List[ast.stmt]) -> Iterator[ast.AST]:
    """Every node of one function scope, NOT descending into nested defs."""
    stack: List[ast.AST] = list(body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(node))


def _function_findings(
    fn: FunctionInfo,
    entry: str,
    chain: Tuple[str, ...],
    mutable_globals: Set[str],
) -> Iterator[PurityFinding]:
    """Findings for one function and (recursively) its nested scopes.

    ``global``/``nonlocal`` declarations are scoped to the ``def`` that
    holds them — a closure's ``nonlocal count`` must not make the
    *enclosing* function's plain ``count = 0`` initialiser a finding.
    """
    path = fn.module.relpath

    def finding(rule: str, node: ast.AST, message: str) -> PurityFinding:
        return PurityFinding(
            rule=rule,
            path=path,
            line=getattr(node, "lineno", fn.line),
            message=message,
            entry=entry,
            chain=chain,
        )

    scopes: List[List[ast.stmt]] = [fn.node.body]
    while scopes:
        body = scopes.pop(0)
        yield from _scope_findings(
            fn, body, mutable_globals, finding, scopes
        )


def _scope_findings(
    fn: FunctionInfo,
    body: List[ast.stmt],
    mutable_globals: Set[str],
    finding,
    scopes: List[List[ast.stmt]],
) -> Iterator[PurityFinding]:
    declared_global: Set[str] = set()
    declared_nonlocal: Set[str] = set()
    for node in _scope_nodes(body):
        if isinstance(node, ast.Global):
            declared_global |= set(node.names)
        elif isinstance(node, ast.Nonlocal):
            declared_nonlocal |= set(node.names)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scopes.append(node.body)

    for node in _scope_nodes(body):
        targets: List[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, ast.AugAssign):
            targets = [node.target]
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        elif isinstance(node, ast.Delete):
            targets = list(node.targets)
        for target in targets:
            if isinstance(target, ast.Name):
                if target.id in declared_global:
                    yield finding(
                        "W701", node,
                        f"worker-reachable function '{fn.qualname}' "
                        f"re-binds module global '{target.id}'",
                    )
                elif target.id in declared_nonlocal:
                    yield finding(
                        "W703", node,
                        f"worker-reachable function '{fn.qualname}' "
                        f"re-binds enclosing-scope name '{target.id}'",
                    )
            elif isinstance(target, ast.Subscript) and isinstance(
                target.value, ast.Name
            ):
                name = target.value.id
                if name in mutable_globals:
                    yield finding(
                        "W702", node,
                        f"worker-reachable function '{fn.qualname}' "
                        f"mutates module-level container '{name}'",
                    )
        if isinstance(node, ast.Call) and isinstance(
            node.func, ast.Attribute
        ):
            receiver = node.func.value
            if (
                isinstance(receiver, ast.Name)
                and receiver.id in mutable_globals
                and node.func.attr in _MUTATOR_METHODS
            ):
                yield finding(
                    "W702", node,
                    f"worker-reachable function '{fn.qualname}' mutates "
                    f"module-level container '{receiver.id}' via "
                    f".{node.func.attr}()",
                )


def run_worker_analysis(
    project: Project, graph: CallGraph
) -> List[PurityFinding]:
    roots = worker_entrypoints(project, graph)
    if not roots:
        return []
    reachable = _reachable(graph, roots)
    mutable_by_module: Dict[str, Set[str]] = {}
    findings: List[PurityFinding] = []
    for fid in sorted(reachable):
        fn = graph.functions[fid]
        relpath = fn.module.relpath
        if relpath not in mutable_by_module:
            mutable_by_module[relpath] = _mutable_globals(fn.module)
        entry, chain = reachable[fid]
        findings.extend(
            _function_findings(fn, entry, chain, mutable_by_module[relpath])
        )
    return findings
