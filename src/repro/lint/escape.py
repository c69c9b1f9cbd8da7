"""Scratch-escape analysis: reusable kernel buffers must stay put.

An array kernel may keep module-level numpy scratch buffers (say
``_IOTA``/``_TICKS``) that are grown geometrically and reused across
kernel invocations: every caller receives views over the *same* memory.
That is only aliasing-safe while the views are consumed before the next
probe — i.e. while no reference outlives the kernel call.  This module
proves that statically for every such buffer in the project ("any
future kernel" included: the buffer set is *detected*, not configured).

A **scratch buffer** is a module-level name bound to a numpy allocation
(``np.empty/zeros/ones/full/arange``).  Within the defining module the
analysis tracks the may-alias set per local — direct reads, slices
(views!), ``np.ufunc(..., out=view)`` results (numpy returns the out
argument), tuple unpacking, and calls to same-module functions whose
summary says they return a buffer.  A buffer **escapes** when an alias

- is returned (or yielded) by a *public* function — module-internal
  accessors like ``_scratch()`` handing views to the kernel next door
  are the designed idiom and stay legal (A601);
- is stored on an object attribute or a non-scratch module global,
  where it outlives the call (A602);
- is captured by a nested function or lambda, whose lifetime is
  unbounded (A603);
- is passed to a function in *another* project module, leaving the
  kernel that owns the reuse discipline (A604).  External/unresolved
  calls (numpy ufuncs) are assumed non-retaining — they are the whole
  point of the buffers — but project code outside the module is not.

Container-mutator retention (``somelist.append(view)``) counts as an
attribute-style escape and is reported under A602.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.lint.callgraph import CallGraph, CallTarget, FunctionInfo
from repro.lint.core import ModuleSource, Project

__all__ = ["EscapeFinding", "run_escape_analysis", "scratch_buffers"]

_NP_ALLOCATORS = frozenset({"empty", "zeros", "ones", "full", "arange"})

#: method calls that retain their argument inside the receiver.
_RETAINING_METHODS = frozenset({
    "append", "add", "insert", "extend", "setdefault", "update",
    "appendleft",
})


@dataclass(frozen=True)
class EscapeFinding:
    """One way a scratch buffer may outlive its kernel invocation."""

    rule: str           # A601..A604
    path: str
    line: int
    buffer: str
    message: str


def _numpy_aliases(module: ModuleSource) -> Set[str]:
    names: Set[str] = set()
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name in ("numpy", "numpy.random"):
                    names.add(alias.asname or alias.name.split(".")[0])
    return names


def scratch_buffers(module: ModuleSource) -> Dict[str, int]:
    """Module-level numpy-allocated names -> definition line."""
    numpy_names = _numpy_aliases(module)
    if not numpy_names:
        return {}
    buffers: Dict[str, int] = {}
    for stmt in module.tree.body:
        if not (
            isinstance(stmt, ast.Assign)
            and len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Name)
        ):
            continue
        value = stmt.value
        if (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Attribute)
            and value.func.attr in _NP_ALLOCATORS
            and isinstance(value.func.value, ast.Name)
            and value.func.value.id in numpy_names
        ):
            # ``np.empty(0, ...)`` is an immutable empty *sentinel*, not
            # a reusable scratch: it carries no data that could go
            # stale, and sharing it is the point.
            if value.args and (
                isinstance(value.args[0], ast.Constant)
                and value.args[0].value == 0
            ):
                continue
            buffers[stmt.targets[0].id] = stmt.lineno
    return buffers


class _EscapeScanner:
    """Per-function may-alias tracking for one module's buffers."""

    def __init__(
        self,
        fn: FunctionInfo,
        buffers: FrozenSet[str],
        graph: CallGraph,
        returns_of: Dict[str, FrozenSet[str]],
        numpy_names: FrozenSet[str] = frozenset(),
    ) -> None:
        self.fn = fn
        self.buffers = buffers
        self.graph = graph
        self.returns_of = returns_of
        self.numpy_names = numpy_names
        #: local name -> buffer names it may alias
        self.aliases: Dict[str, Set[str]] = {}
        self.returned: Set[str] = set()
        self.findings: List[EscapeFinding] = []

    # -- alias computation ---------------------------------------------

    def expr_buffers(self, expr: ast.expr) -> Set[str]:
        """Buffers the value of ``expr`` may alias (views included)."""
        if isinstance(expr, ast.Name):
            if expr.id in self.buffers:
                return {expr.id}
            return set(self.aliases.get(expr.id, ()))
        if isinstance(expr, ast.Subscript):
            # A slice of a view is a view; a scalar index is a copy —
            # distinguishing them statically is not reliable, so any
            # subscript of an alias stays an alias (over-approximate).
            return self.expr_buffers(expr.value)
        if isinstance(expr, ast.Call):
            out: Set[str] = set()
            # np.ufunc(..., out=view) returns the out argument
            for kw in expr.keywords:
                if kw.arg == "out":
                    out |= self.expr_buffers(kw.value)
            target = self.graph.resolve_call(self.fn, expr)
            if (
                target is not None
                and target.fn.module.relpath == self.fn.module.relpath
            ):
                out |= set(self.returns_of.get(target.fn.fid, frozenset()))
            return out
        if isinstance(expr, (ast.Tuple, ast.List)):
            out = set()
            for element in expr.elts:
                out |= self.expr_buffers(element)
            return out
        if isinstance(expr, ast.IfExp):
            return self.expr_buffers(expr.body) | self.expr_buffers(
                expr.orelse
            )
        if isinstance(expr, (ast.Await, ast.Starred)):
            return self.expr_buffers(expr.value)
        if isinstance(expr, ast.NamedExpr):
            return self.expr_buffers(expr.value)
        return set()

    # -- the walk ------------------------------------------------------

    def run(self) -> None:
        # two passes so aliases assigned later in the body are seen by
        # earlier escape sites inside loops
        for _ in range(2):
            for stmt in self.fn.node.body:
                self.visit(stmt)

    def _finding(
        self, rule: str, node: ast.AST, buffer: str, message: str
    ) -> None:
        finding = EscapeFinding(
            rule=rule,
            path=self.fn.module.relpath,
            line=getattr(node, "lineno", self.fn.line),
            buffer=buffer,
            message=message,
        )
        if finding not in self.findings:
            self.findings.append(finding)

    def visit(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            buffers = self.expr_buffers(stmt.value)
            for target in stmt.targets:
                self.assign(target, buffers, stmt)
            self.scan_calls(stmt)
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            self.assign(stmt.target, self.expr_buffers(stmt.value), stmt)
            self.scan_calls(stmt)
        elif isinstance(stmt, ast.AugAssign):
            self.scan_calls(stmt)
        elif isinstance(stmt, (ast.Return, ast.Expr)):
            value = stmt.value
            if isinstance(stmt, ast.Return) and value is not None:
                self.returned |= self.expr_buffers(value)
            if (
                isinstance(stmt, ast.Expr)
                and isinstance(value, (ast.Yield, ast.YieldFrom))
                and value.value is not None
            ):
                self.returned |= self.expr_buffers(value.value)
            self.scan_calls(stmt)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self.assign(stmt.target, self.expr_buffers(stmt.iter), stmt)
            self.scan_calls(stmt.iter)
            for sub in stmt.body + stmt.orelse:
                self.visit(sub)
        elif isinstance(stmt, (ast.While, ast.If)):
            self.scan_calls(stmt.test)
            for sub in stmt.body + stmt.orelse:
                self.visit(sub)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self.scan_calls(item.context_expr)
                if item.optional_vars is not None:
                    self.assign(
                        item.optional_vars,
                        self.expr_buffers(item.context_expr),
                        stmt,
                    )
            for sub in stmt.body:
                self.visit(sub)
        elif isinstance(stmt, ast.Try):
            for block in (stmt.body, stmt.orelse, stmt.finalbody):
                for sub in block:
                    self.visit(sub)
            for handler in stmt.handlers:
                for sub in handler.body:
                    self.visit(sub)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self._check_closure(stmt)
        else:
            self.scan_calls(stmt)

    def assign(
        self, target: ast.expr, buffers: Set[str], stmt: ast.stmt
    ) -> None:
        if isinstance(target, ast.Name):
            if buffers:
                self.aliases.setdefault(target.id, set()).update(buffers)
            return
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self.assign(element, buffers, stmt)
            return
        if isinstance(target, ast.Starred):
            self.assign(target.value, buffers, stmt)
            return
        if isinstance(target, ast.Attribute) and buffers:
            for buffer in sorted(buffers):
                self._finding(
                    "A602", stmt, buffer,
                    f"scratch buffer '{buffer}' is stored on "
                    f"'{ast.unparse(target)}', outliving the kernel call",
                )

    def scan_calls(self, node: ast.AST) -> None:
        """Escape checks on every call expression under ``node``."""
        for call in ast.walk(node if not isinstance(node, ast.stmt) else node):
            if isinstance(call, ast.Lambda):
                self._check_closure(call)
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            # retaining container methods — but ``np.add(a, b, out=...)``
            # is a ufunc, not a container mutation
            if isinstance(func, ast.Attribute) and (
                func.attr in _RETAINING_METHODS
            ) and not (
                isinstance(func.value, ast.Name)
                and func.value.id in self.numpy_names
            ):
                for arg in call.args:
                    for buffer in sorted(self.expr_buffers(arg)):
                        self._finding(
                            "A602", call, buffer,
                            f"scratch buffer '{buffer}' is retained via "
                            f".{func.attr}(...)",
                        )
            # crossing into another project module
            target = self.graph.resolve_call(self.fn, call)
            if (
                target is not None
                and target.fn.module.relpath != self.fn.module.relpath
            ):
                args: List[ast.expr] = list(call.args)
                args.extend(kw.value for kw in call.keywords)
                for arg in args:
                    for buffer in sorted(self.expr_buffers(arg)):
                        self._finding(
                            "A604", call, buffer,
                            f"scratch buffer '{buffer}' is passed out of "
                            f"its kernel module to '{target.fn.fid}'",
                        )

    def _check_closure(self, node: ast.AST) -> None:
        captured: Set[str] = set()
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                if sub.id in self.buffers:
                    captured.add(sub.id)
                captured |= set(self.aliases.get(sub.id, ()))
        for buffer in sorted(captured):
            self._finding(
                "A603", node, buffer,
                f"scratch buffer '{buffer}' is captured by a nested "
                "function/lambda whose lifetime is unbounded",
            )


def _public_surface(module: ModuleSource) -> Dict[str, str]:
    """Public name -> top-level function it refers to (aliases followed)."""
    surface: Dict[str, str] = {}
    for stmt in module.tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if not stmt.name.startswith("_"):
                surface[stmt.name] = stmt.name
        elif (
            isinstance(stmt, ast.Assign)
            and len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Name)
            and isinstance(stmt.value, ast.Name)
            and not stmt.targets[0].id.startswith("_")
        ):
            surface[stmt.targets[0].id] = stmt.value.id
    return surface


def run_escape_analysis(
    project: Project, graph: CallGraph
) -> List[EscapeFinding]:
    findings: List[EscapeFinding] = []
    for module in project:
        buffers = scratch_buffers(module)
        if not buffers:
            continue
        buffer_set = frozenset(buffers)
        numpy_names = frozenset(_numpy_aliases(module))
        functions = [
            fn for fn in graph.functions.values()
            if fn.module.relpath == module.relpath
        ]
        # fixpoint of "which functions return a buffer alias"
        returns_of: Dict[str, FrozenSet[str]] = {
            fn.fid: frozenset() for fn in functions
        }
        for _ in range(4):
            changed = False
            for fn in functions:
                scanner = _EscapeScanner(
                    fn, buffer_set, graph, returns_of, numpy_names
                )
                scanner.run()
                returned = frozenset(scanner.returned)
                if returned != returns_of[fn.fid]:
                    returns_of[fn.fid] = returned
                    changed = True
            if not changed:
                break
        # final scan with stable summaries, collecting findings
        surface = _public_surface(module)
        by_name = {fn.name: fn for fn in functions if not fn.is_method}
        for fn in functions:
            scanner = _EscapeScanner(
                fn, buffer_set, graph, returns_of, numpy_names
            )
            scanner.run()
            findings.extend(scanner.findings)
        # A601: a buffer alias returned across the module's public surface
        for public, target_name in sorted(surface.items()):
            fn = by_name.get(target_name)
            if fn is None:
                continue
            returned = returns_of.get(fn.fid, frozenset())
            for buffer in sorted(returned):
                findings.append(EscapeFinding(
                    rule="A601",
                    path=module.relpath,
                    line=fn.line,
                    buffer=buffer,
                    message=(
                        f"public function '{public}' returns a view of "
                        f"scratch buffer '{buffer}', letting it escape "
                        "the kernel module"
                    ),
                ))
        # A601 for public *methods* returning a buffer
        for fn in functions:
            if fn.is_method and not fn.name.startswith("_"):
                for buffer in sorted(returns_of.get(fn.fid, frozenset())):
                    findings.append(EscapeFinding(
                        rule="A601",
                        path=module.relpath,
                        line=fn.line,
                        buffer=buffer,
                        message=(
                            f"public method '{fn.qualname}' returns a view "
                            f"of scratch buffer '{buffer}', letting it "
                            "escape the kernel"
                        ),
                    ))
    return findings
