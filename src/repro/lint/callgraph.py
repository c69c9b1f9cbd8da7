"""Module-aware interprocedural call graph over a lint :class:`Project`.

simlint v1 rules reason per file, or across a few registry modules.
The v2 flow analyses need to follow a value *across* function
and module boundaries, which requires three things this module
provides, all from the AST alone (nothing under analysis is imported):

- a **function index**: every ``def`` in the project, keyed by
  ``relpath::qualname`` (``runner/worker.py::execute_job``,
  ``memory/hierarchy.py::MemoryHierarchy.access``), with its enclosing
  class when it is a method;
- **import resolution**: each module's local names mapped back to the
  project module/symbol they were imported from.  Target modules are
  located by *dotted-suffix match* (``repro.sim.stats`` matches
  ``src/repro/sim/stats.py`` as well as a fixture tree's
  ``sim/stats.py``), the same trick the registry rules use with path
  suffixes, so the graph works identically on the real tree and on
  miniature test fixtures;
- **call-site resolution**: given a call expression inside a function,
  find the :class:`FunctionInfo` it lands on.  Resolved forms: plain
  names (local or imported functions), ``module.func(...)`` through
  an imported project module, ``self.method(...)`` /``cls.method(...)``
  through the enclosing class (following project-local base classes),
  ``Class(...)`` instantiation (lands on ``__init__``), and
  ``Class.staticmethod(...)``.  Anything else — ufuncs, stdlib calls,
  true dynamic dispatch — resolves to ``None`` and the analyses treat
  it conservatively.

Resolution is deliberately *best effort*: a call the graph cannot see
makes the flow analyses miss a flow (a false negative), never crash or
over-report.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.lint.core import ModuleSource, Project

__all__ = [
    "FunctionInfo",
    "ClassInfo",
    "CallGraph",
    "CallTarget",
    "module_dotted",
]

FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]


def module_dotted(module: ModuleSource) -> str:
    """Dotted module path relative to the lint root (``sim.stats``)."""
    parts = list(module.parts)
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


@dataclass
class FunctionInfo:
    """One ``def`` in the project, with enough context to resolve calls."""

    module: ModuleSource
    node: FunctionNode
    qualname: str
    class_name: Optional[str] = None

    @property
    def fid(self) -> str:
        """Stable identifier used in summaries and flow traces."""
        return f"{self.module.relpath}::{self.qualname}"

    @property
    def name(self) -> str:
        return self.node.name

    @property
    def line(self) -> int:
        return self.node.lineno

    @property
    def is_method(self) -> bool:
        return self.class_name is not None

    @property
    def decorators(self) -> Tuple[str, ...]:
        names = []
        for dec in self.node.decorator_list:
            if isinstance(dec, ast.Name):
                names.append(dec.id)
            elif isinstance(dec, ast.Attribute):
                names.append(dec.attr)
        return tuple(names)

    def param_names(self) -> List[str]:
        """Positional parameter names, *including* self/cls for methods."""
        args = self.node.args
        return [a.arg for a in args.posonlyargs + args.args]

    def keyword_only_names(self) -> List[str]:
        return [a.arg for a in self.node.args.kwonlyargs]


@dataclass
class ClassInfo:
    module: ModuleSource
    node: ast.ClassDef
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)
    base_names: Tuple[str, ...] = ()

    @property
    def name(self) -> str:
        return self.node.name


@dataclass(frozen=True)
class CallTarget:
    """A resolved call: the callee plus the positional-argument offset.

    ``offset`` is 1 for bound-style calls (``self.m(a)`` → ``a`` binds
    to the callee's second parameter) and 0 for plain function calls
    and ``@staticmethod`` access.
    """

    fn: "FunctionInfo"
    offset: int


class _ModuleScope:
    """Per-module name bindings the resolver consults."""

    def __init__(self) -> None:
        #: local name -> dotted project-module it refers to
        self.module_aliases: Dict[str, str] = {}
        #: local name -> (dotted module, symbol name) for ``from`` imports
        self.symbol_aliases: Dict[str, Tuple[str, str]] = {}
        #: local name -> top-level function in this module
        self.functions: Dict[str, FunctionInfo] = {}
        #: local name -> class defined in this module
        self.classes: Dict[str, ClassInfo] = {}


class CallGraph:
    """Function index + call resolver for one :class:`Project`."""

    def __init__(self, project: Project) -> None:
        self.project = project
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, List[ClassInfo]] = {}
        self._scopes: Dict[str, _ModuleScope] = {}
        self._by_dotted: Dict[str, ModuleSource] = {}
        for module in project:
            self._by_dotted[module_dotted(module)] = module
        for module in project:
            self._index_module(module)
        for module in project:
            self._resolve_imports(module)

    # ------------------------------------------------------------------
    # indexing
    # ------------------------------------------------------------------

    def _index_module(self, module: ModuleSource) -> None:
        scope = self._scopes.setdefault(module.relpath, _ModuleScope())
        for stmt in module.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info = FunctionInfo(module, stmt, stmt.name)
                scope.functions[stmt.name] = info
                self.functions[info.fid] = info
            elif isinstance(stmt, ast.ClassDef):
                cls = ClassInfo(
                    module,
                    stmt,
                    base_names=tuple(
                        base.id if isinstance(base, ast.Name) else base.attr
                        for base in stmt.bases
                        if isinstance(base, (ast.Name, ast.Attribute))
                    ),
                )
                for sub in stmt.body:
                    if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        info = FunctionInfo(
                            module, sub, f"{stmt.name}.{sub.name}", stmt.name
                        )
                        cls.methods[sub.name] = info
                        self.functions[info.fid] = info
                scope.classes[stmt.name] = cls
                self.classes.setdefault(stmt.name, []).append(cls)

    def _resolve_imports(self, module: ModuleSource) -> None:
        scope = self._scopes[module.relpath]
        pkg_parts = list(module.parts[:-1])
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else alias.name.split(".")[0]
                    if self._find_module(target) is not None:
                        scope.module_aliases[local] = target
            elif isinstance(node, ast.ImportFrom):
                target_mod = self._absolute_from(node, pkg_parts)
                if target_mod is None:
                    continue
                if self._find_module(target_mod) is None:
                    continue
                for alias in node.names:
                    local = alias.asname or alias.name
                    scope.symbol_aliases[local] = (target_mod, alias.name)

    @staticmethod
    def _absolute_from(
        node: ast.ImportFrom, pkg_parts: Sequence[str]
    ) -> Optional[str]:
        if node.level == 0:
            return node.module
        base = list(pkg_parts)
        for _ in range(node.level - 1):
            if not base:
                return None
            base.pop()
        if node.module:
            base.extend(node.module.split("."))
        return ".".join(base) if base else None

    def _find_module(self, dotted: str) -> Optional[ModuleSource]:
        """Locate a project module by dotted suffix match."""
        if dotted in self._by_dotted:
            return self._by_dotted[dotted]
        suffix = "." + dotted
        for known, module in self._by_dotted.items():
            if known.endswith(suffix):
                return module
        return None

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------

    def scope(self, module: ModuleSource) -> _ModuleScope:
        return self._scopes[module.relpath]

    def class_of(self, fn: FunctionInfo) -> Optional[ClassInfo]:
        if fn.class_name is None:
            return None
        return self._scopes[fn.module.relpath].classes.get(fn.class_name)

    def lookup_method(
        self, cls: Optional[ClassInfo], name: str, depth: int = 0
    ) -> Optional[FunctionInfo]:
        """Method lookup following project-local single inheritance."""
        if cls is None or depth > 8:
            return None
        if name in cls.methods:
            return cls.methods[name]
        for base in cls.base_names:
            base_cls = self._scopes[cls.module.relpath].classes.get(base)
            if base_cls is None:
                candidates = self.classes.get(base, [])
                base_cls = candidates[0] if len(candidates) == 1 else None
            found = self.lookup_method(base_cls, name, depth + 1)
            if found is not None:
                return found
        return None

    def resolve_name(
        self, module: ModuleSource, name: str, depth: int = 0
    ) -> Optional[Union[FunctionInfo, ClassInfo]]:
        """Resolve a bare name in module scope to a function or class."""
        if depth > 8:
            return None
        scope = self._scopes[module.relpath]
        if name in scope.functions:
            return scope.functions[name]
        if name in scope.classes:
            return scope.classes[name]
        if name in scope.symbol_aliases:
            target_mod, symbol = scope.symbol_aliases[name]
            target = self._find_module(target_mod)
            if target is not None:
                return self.resolve_name(target, symbol, depth + 1)
        return None

    def resolve_call(
        self, fn: FunctionInfo, call: ast.Call
    ) -> Optional[CallTarget]:
        """Resolve one call site inside ``fn`` (best effort)."""
        func = call.func
        module = fn.module
        if isinstance(func, ast.Name):
            resolved = self.resolve_name(module, func.id)
            return self._as_target(resolved)
        if not isinstance(func, ast.Attribute):
            return None
        base = func.value
        if isinstance(base, ast.Name):
            if base.id in ("self", "cls") and fn.is_method:
                method = self.lookup_method(self.class_of(fn), func.attr)
                if method is not None:
                    return CallTarget(method, offset=1)
                return None
            scope = self._scopes[module.relpath]
            if base.id in scope.module_aliases:
                target = self._find_module(scope.module_aliases[base.id])
                if target is not None:
                    resolved = self.resolve_name(target, func.attr)
                    return self._as_target(resolved)
                return None
            resolved_base = self.resolve_name(module, base.id)
            if isinstance(resolved_base, ClassInfo):
                method = self.lookup_method(resolved_base, func.attr)
                if method is None:
                    return None
                offset = 1 if "classmethod" in method.decorators else 0
                return CallTarget(method, offset=offset)
        return None

    def _as_target(
        self, resolved: Optional[Union[FunctionInfo, ClassInfo]]
    ) -> Optional[CallTarget]:
        if isinstance(resolved, FunctionInfo):
            return CallTarget(resolved, offset=0)
        if isinstance(resolved, ClassInfo):
            init = self.lookup_method(resolved, "__init__")
            if init is not None:
                return CallTarget(init, offset=1)
        return None

    # ------------------------------------------------------------------
    # traversal helpers
    # ------------------------------------------------------------------

    def iter_calls(self, fn: FunctionInfo) -> Iterator[ast.Call]:
        for node in ast.walk(fn.node):
            if isinstance(node, ast.Call):
                yield node

    def callees(self, fn: FunctionInfo) -> List[Tuple[ast.Call, CallTarget]]:
        out = []
        for call in self.iter_calls(fn):
            target = self.resolve_call(fn, call)
            if target is not None:
                out.append((call, target))
        return out
