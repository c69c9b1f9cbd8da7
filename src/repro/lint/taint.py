"""Determinism-taint analysis: sources, sinks, and the interpreter.

The repo's core contract is that a cell's result is a pure function of
its fingerprinted configuration.  The v1 D-rules ban nondeterminism
*sources* syntactically in the hot packages; this analysis instead
tracks where a source's value actually **flows**, across function and
module boundaries, and reports only flows that end in material the
contract covers.

Sources (label kinds):

- ``wall-clock`` — ``time.time()``/``perf_counter()``/``datetime.now``…
- ``global-rng`` — draws from process-global RNG state
- ``environ`` — ``os.environ``/``os.getenv``/``os.listdir``/
  ``os.scandir``/``os.urandom``/``uuid.uuid4`` (host state)
- ``set-order`` — iterating a set/frozenset, or float accumulation over
  one (``sum({...})``); laundered by the order-insensitive consumers
  ``sorted``/``len``/``min``/``max``/membership
- ``object-id`` — ``id(obj)`` (address-dependent)

Sinks (flow kinds, one N-rule each — see :mod:`repro.lint.flowrules`):

- ``stats-counter`` — a store to a ``*Stats`` counter field (names
  parsed from ``sim/stats.py`` exactly like the P-rules)
- ``trace-event``  — an argument of a registered trace-event
  constructor (registry parsed from ``obs/events.py``)
- ``metric``       — an argument of ``.inc()``/``.observe()``/``.set()``
- ``cache-key``    — an argument of a fingerprint/cache-key function
  (anything in ``cache/keys.py``, ``derive_seed``,
  ``config_fingerprint``, ``config_to_payload``)
- ``job-result``   — an argument of the ``JobResult`` constructor

The interpreter is field-sensitive through constant dict keys and
attribute names (see :mod:`repro.lint.dataflow`), so the worker's
result record can carry a diagnostic wall-clock duration in one field
without every other field it carries being reported.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.lint.callgraph import CallGraph, CallTarget, FunctionInfo
from repro.lint.core import Project
from repro.lint.dataflow import (
    EMPTY,
    Flow,
    FunctionInterpreter,
    Label,
    LabelSet,
    Summary,
    Value,
    analyse_project,
)
from repro.lint.determinism import (
    _ALLOWED_NP_RANDOM_ATTRS,
    _ALLOWED_RANDOM_ATTRS,
    _CLOCK_FUNCS,
    _DATETIME_CLOCK_METHODS,
    _ImportMap,
    _is_set_expr,
)
from repro.lint.registries import event_class_names, stats_counter_names

__all__ = [
    "TaintInterpreter",
    "run_taint_analysis",
]

#: ``os`` attributes whose value depends on host state.
_OS_STATE_FUNCS = frozenset({
    "getenv", "listdir", "scandir", "urandom", "getpid", "cpu_count",
})

#: methods whose single argument feeds a metric instrument.
_METRIC_METHODS = frozenset({"inc", "observe", "set"})

#: builtins that consume an unordered collection order-insensitively.
_ORDER_SANITIZERS = frozenset({"sorted", "len", "min", "max", "frozenset",
                               "set", "any", "all"})

#: functions whose arguments become cache-key / fingerprint material.
_KEY_FUNCTIONS = frozenset({
    "derive_seed", "config_fingerprint", "config_to_payload",
})

_KEYS_MODULE_SUFFIX = ("cache", "keys.py")

#: result classes whose constructor arguments are identity material.
_RESULT_CLASSES = frozenset({"JobResult"})


class _TaintEnvironment:
    """Project-wide context shared by every function interpretation."""

    def __init__(self, project: Project, graph: CallGraph) -> None:
        self.graph = graph
        self.counters = stats_counter_names(project)
        events = event_class_names(project)
        self.event_classes = events if events is not None else frozenset()
        self.import_maps: Dict[str, _ImportMap] = {}
        self.os_mods: Dict[str, Set[str]] = {}
        self.uuid_mods: Dict[str, Set[str]] = {}
        for module in project:
            self.import_maps[module.relpath] = _ImportMap(module.tree)
            os_names: Set[str] = set()
            uuid_names: Set[str] = set()
            for node in ast.walk(module.tree):
                if isinstance(node, ast.Import):
                    for alias in node.names:
                        local = alias.asname or alias.name.split(".")[0]
                        if alias.name == "os":
                            os_names.add(local)
                        elif alias.name == "uuid":
                            uuid_names.add(local)
            self.os_mods[module.relpath] = os_names
            self.uuid_mods[module.relpath] = uuid_names


class TaintInterpreter(FunctionInterpreter):
    """The determinism-taint instantiation of the dataflow framework."""

    def __init__(
        self,
        fn: FunctionInfo,
        graph: CallGraph,
        summaries: Dict[str, Summary],
        environment: _TaintEnvironment,
    ) -> None:
        super().__init__(fn, graph, summaries)
        self.ctx = environment
        self.imports = environment.import_maps[fn.module.relpath]
        self._os = environment.os_mods[fn.module.relpath]
        self._uuid = environment.uuid_mods[fn.module.relpath]

    # -- sources -------------------------------------------------------

    def _site(self, node: ast.AST, kind: str, detail: str = "") -> Label:
        return Label(
            kind=kind,
            path=self.fn.module.relpath,
            line=getattr(node, "lineno", self.fn.line),
            detail=detail,
        )

    def expr_sources(self, expr: ast.expr) -> LabelSet:
        if isinstance(expr, ast.Call):
            return self._call_sources(expr)
        if isinstance(expr, ast.Attribute):
            # os.environ (read as a mapping)
            if (
                isinstance(expr.value, ast.Name)
                and expr.value.id in self._os
                and expr.attr == "environ"
            ):
                return frozenset({self._site(expr, "environ", "os.environ")})
        return EMPTY

    def _call_sources(self, call: ast.Call) -> LabelSet:
        func = call.func
        imports = self.imports
        # wall clock ---------------------------------------------------
        if isinstance(func, ast.Name):
            origin = imports.from_time.get(func.id)
            if origin in _CLOCK_FUNCS:
                return frozenset(
                    {self._site(call, "wall-clock", f"{func.id}()")}
                )
            origin = imports.from_random.get(func.id)
            if origin is not None:
                plain = origin.split(":")[-1]
                if plain not in (
                    _ALLOWED_RANDOM_ATTRS | _ALLOWED_NP_RANDOM_ATTRS
                ):
                    return frozenset(
                        {self._site(call, "global-rng", f"{plain}()")}
                    )
            if func.id == "id" and call.args:
                return frozenset({self._site(call, "object-id", "id()")})
            if func.id == "sum" and call.args and _is_set_expr(call.args[0]):
                return frozenset({self._site(
                    call, "set-order", "float accumulation over a set"
                )})
        elif isinstance(func, ast.Attribute):
            target = func.value
            if isinstance(target, ast.Name):
                if (
                    target.id in imports.time_mods
                    and func.attr in _CLOCK_FUNCS
                ):
                    return frozenset({self._site(
                        call, "wall-clock", f"{target.id}.{func.attr}()"
                    )})
                if (
                    target.id in imports.random_mods
                    and func.attr not in _ALLOWED_RANDOM_ATTRS
                ):
                    return frozenset({self._site(
                        call, "global-rng", f"{target.id}.{func.attr}()"
                    )})
                if (
                    target.id in imports.numpy_random_mods
                    and func.attr not in _ALLOWED_NP_RANDOM_ATTRS
                ):
                    return frozenset({self._site(
                        call, "global-rng", f"{target.id}.{func.attr}()"
                    )})
                if target.id in self._os and func.attr in _OS_STATE_FUNCS:
                    return frozenset({self._site(
                        call, "environ", f"os.{func.attr}()"
                    )})
                if target.id in self._uuid and func.attr.startswith("uuid"):
                    return frozenset({self._site(
                        call, "environ", f"uuid.{func.attr}()"
                    )})
                if (
                    target.id in imports.datetime_classes
                    and func.attr in _DATETIME_CLOCK_METHODS
                ):
                    return frozenset({self._site(
                        call, "wall-clock", f"{target.id}.{func.attr}()"
                    )})
            # np.random.X(...)
            if (
                isinstance(target, ast.Attribute)
                and target.attr == "random"
                and isinstance(target.value, ast.Name)
                and target.value.id in imports.numpy_mods
                and func.attr not in _ALLOWED_NP_RANDOM_ATTRS
            ):
                return frozenset({self._site(
                    call, "global-rng", f"np.random.{func.attr}()"
                )})
            # os.environ.get(...)
            if (
                isinstance(target, ast.Attribute)
                and target.attr == "environ"
                and isinstance(target.value, ast.Name)
                and target.value.id in self._os
            ):
                return frozenset({self._site(
                    call, "environ", f"os.environ.{func.attr}()"
                )})
            # datetime.datetime.now(...)
            if (
                func.attr in _DATETIME_CLOCK_METHODS
                and isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id in imports.datetime_mods
            ):
                return frozenset({self._site(
                    call, "wall-clock", ast.unparse(func) + "()"
                )})
        return EMPTY

    # -- set-iteration order -------------------------------------------

    def iterated(self, iter_expr: ast.expr, iter_value: Value) -> Value:
        element = super().iterated(iter_expr, iter_value)
        if _is_set_expr(iter_expr):
            element = Value(
                direct=element.direct | {self._site(
                    iter_expr, "set-order", "iteration over a set"
                )},
                fields=dict(element.fields),
            )
        return element

    # -- sanitizers ----------------------------------------------------

    def unresolved_call(
        self,
        call: ast.Call,
        arg_values: Sequence[Value],
        kw_values: Dict[Optional[str], Value],
    ) -> Value:
        value = super().unresolved_call(call, arg_values, kw_values)
        func = call.func
        if isinstance(func, ast.Name) and func.id in _ORDER_SANITIZERS:
            return Value(direct=frozenset(
                label for label in value.direct
                if label.kind != "set-order"
            ))
        return value

    # -- sinks ---------------------------------------------------------

    def assign(self, target: ast.expr, value: Value) -> None:
        if (
            isinstance(target, ast.Attribute)
            and target.attr in self.ctx.counters
        ):
            labels = value.collapse()
            if labels:
                self.local_sink(
                    "stats-counter", target,
                    f"stats counter '{target.attr}'", labels,
                )
        super().assign(target, value)

    def observe_call(
        self,
        call: ast.Call,
        target: Optional[CallTarget],
        arg_values: Sequence[Value],
        kw_values: Dict[Optional[str], Value],
    ) -> None:
        func = call.func
        callee_name = None
        if isinstance(func, ast.Name):
            callee_name = func.id
        elif isinstance(func, ast.Attribute):
            callee_name = func.attr

        def each_argument():
            for position, value in enumerate(arg_values):
                yield call.args[position], f"argument {position + 1}", value
            for kw, value in zip(call.keywords, kw_values.values()):
                name = kw.arg if kw.arg else "**kwargs"
                yield kw.value, f"field '{name}'", value

        # trace-event constructor -------------------------------------
        if callee_name in self.ctx.event_classes:
            for node, where, value in each_argument():
                labels = value.collapse()
                if labels:
                    self.local_sink(
                        "trace-event", node,
                        f"trace event '{callee_name}' {where}", labels,
                    )
        # JobResult constructor ---------------------------------------
        if callee_name in _RESULT_CLASSES:
            for node, where, value in each_argument():
                labels = value.collapse()
                if labels:
                    self.local_sink(
                        "job-result", node,
                        f"'{callee_name}' {where}", labels,
                    )
        # metric emission ---------------------------------------------
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _METRIC_METHODS
            and (call.args or call.keywords)
        ):
            for node, where, value in each_argument():
                labels = value.collapse()
                if labels:
                    self.local_sink(
                        "metric", node,
                        f"metric .{func.attr}() {where}", labels,
                    )
        # cache-key material ------------------------------------------
        is_key_fn = callee_name in _KEY_FUNCTIONS or (
            target is not None
            and target.fn.module.ends_with(*_KEYS_MODULE_SUFFIX)
        )
        if is_key_fn:
            for node, where, value in each_argument():
                labels = value.collapse()
                if labels:
                    self.local_sink(
                        "cache-key", node,
                        f"cache-key function '{callee_name}' {where}",
                        labels,
                    )


def run_taint_analysis(
    project: Project, graph: CallGraph
) -> Tuple[Dict[str, Summary], List[Flow]]:
    """Interprocedural taint over every function of the project."""
    environment = _TaintEnvironment(project, graph)

    def factory(fn, g, summaries):
        return TaintInterpreter(fn, g, summaries, environment)

    return analyse_project(graph, factory)
