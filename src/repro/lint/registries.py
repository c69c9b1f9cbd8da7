"""R-rules: trace-event and metric-name registries.

Trace records and metrics snapshots are consumed downstream (``repro
report``, Prometheus scrapes, the regression harness), so their
vocabulary must be closed:

``R301``
    Every ``bus.emit(SomeEvent(...))`` call site must construct an
    event class registered in ``obs/events.py`` — a class carrying a
    ``kind = "..."`` tag.  Emitting an unregistered class (or an
    ad-hoc dict/string) would produce records ``repro report`` cannot
    replay.
``R302``
    Every ``MetricsRegistry.counter(...)`` / ``gauge`` / ``histogram``
    call site must name its metric via a constant declared in the
    canonical registry module ``obs/names.py``.  A string literal at
    the call site — even one that happens to match a declared name —
    is flagged: the spelling must live in exactly one place.
``R303``
    No stray metric-name *literal* (``repro_*`` / ``runner_*``)
    anywhere outside ``obs/names.py``.  This is the belt to R302's
    braces: it also catches names smuggled through intermediate
    variables or dict keys.
``R305``
    Every span-profiler call site (``profiler.span(...)``,
    ``profiler.add_ns(...)``, ``profiler.timed(...)``) must name its
    span via a ``SPAN_*`` constant declared in ``obs/names.py``.  A
    string literal or computed name at the call site is flagged, as is
    a ``SPAN_*`` reference that the registry does not declare — the
    profile schema (``repro profile``, the ``/profile`` endpoint, the
    span self-time metrics) is closed vocabulary exactly like events
    and metric names.  Lower-case variables pass through untouched so
    indirection like an engine's construction-time span choice stays
    legal.

All registries are parsed from module ASTs located by path suffix, so
the rules work identically on the real tree and on test fixtures, and
never import the code under analysis.  :func:`stats_counter_names`
reads the stats counters of ``sim/stats.py`` the same way, for the
N5xx taint rules.
"""

from __future__ import annotations

import ast
import re
from typing import FrozenSet, Iterator, Optional, Set

from repro.lint.core import ModuleSource, Project, Rule, Violation, register

__all__ = [
    "EmitRegistryRule",
    "MetricDeclarationRule",
    "MetricLiteralRule",
    "SpanRegistryRule",
]

_EVENTS_SUFFIX = ("obs", "events.py")
_NAMES_SUFFIX = ("obs", "names.py")
_SPANS_SUFFIX = ("obs", "spans.py")
_STATS_SUFFIX = ("sim", "stats.py")

_METRIC_FACTORIES = frozenset({"counter", "gauge", "histogram"})
_METRIC_LITERAL = re.compile(r"(repro|runner)_[a-z0-9_]+")

#: Profiler methods whose first argument is a span name.
_PROFILER_METHODS = frozenset({"span", "add_ns", "timed"})


def event_class_names(project: Project) -> Optional[FrozenSet[str]]:
    """Event classes registered in ``obs/events.py`` (``kind = ...``).

    Returns ``None`` when the project has no events module, which
    deactivates R301 (linting a subtree that does not vendor the
    registry is not an error).
    """
    module = project.find(*_EVENTS_SUFFIX)
    if module is None:
        return None
    names: Set[str] = set()
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.ClassDef):
            continue
        for stmt in node.body:
            is_plain = (
                isinstance(stmt, ast.Assign)
                and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
                and stmt.targets[0].id == "kind"
            )
            is_annotated = (
                isinstance(stmt, ast.AnnAssign)
                and isinstance(stmt.target, ast.Name)
                and stmt.target.id == "kind"
                and stmt.value is not None
            )
            if is_plain or is_annotated:
                names.add(node.name)
                break
    return frozenset(names)


def stats_counter_names(project: Project) -> FrozenSet[str]:
    """Integer counter fields of the ``*Stats`` dataclasses.

    Parsed statically from ``sim/stats.py``: an ``AnnAssign`` with a
    literal ``0`` default inside a class whose name ends in ``Stats``.
    Float energy-cost parameters (non-zero defaults) are excluded.
    """
    module = project.find(*_STATS_SUFFIX)
    if module is None:
        return frozenset()
    counters: Set[str] = set()
    for node in ast.walk(module.tree):
        if not (isinstance(node, ast.ClassDef) and node.name.endswith("Stats")):
            continue
        for stmt in node.body:
            if (
                isinstance(stmt, ast.AnnAssign)
                and isinstance(stmt.target, ast.Name)
                and isinstance(stmt.value, ast.Constant)
                and stmt.value.value == 0
                and not isinstance(stmt.value.value, bool)
            ):
                counters.add(stmt.target.id)
    return frozenset(counters)


def declared_span_constants(project: Project) -> Optional[FrozenSet[str]]:
    """``SPAN_*`` constant identifiers declared in ``obs/names.py``."""
    module = project.find(*_NAMES_SUFFIX)
    if module is None:
        return None
    names: Set[str] = set()
    for stmt in module.tree.body:
        if (
            isinstance(stmt, ast.Assign)
            and len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Name)
            and stmt.targets[0].id.startswith("SPAN_")
            and isinstance(stmt.value, ast.Constant)
            and isinstance(stmt.value.value, str)
        ):
            names.add(stmt.targets[0].id)
    return frozenset(names)


def declared_metric_names(project: Project) -> Optional[FrozenSet[str]]:
    """String constants assigned at module level in ``obs/names.py``."""
    module = project.find(*_NAMES_SUFFIX)
    if module is None:
        return None
    names: Set[str] = set()
    for stmt in module.tree.body:
        if isinstance(stmt, ast.Assign) and isinstance(stmt.value, ast.Constant):
            if isinstance(stmt.value.value, str):
                names.add(stmt.value.value)
    return frozenset(names)


@register
class EmitRegistryRule(Rule):
    id = "R301"
    summary = "bus.emit of an event type not registered in obs/events.py"
    family = "registry"

    def check_module(
        self, module: ModuleSource, project: Project
    ) -> Iterator[Violation]:
        registry = event_class_names(project)
        if registry is None or module.ends_with(*_EVENTS_SUFFIX):
            return
        for node in ast.walk(module.tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "emit"
                and node.args
            ):
                continue
            payload = node.args[0]
            if isinstance(payload, ast.Call):
                func = payload.func
                if isinstance(func, ast.Name):
                    cls_name: Optional[str] = func.id
                elif isinstance(func, ast.Attribute):
                    cls_name = func.attr
                else:
                    cls_name = None
                if cls_name is not None and cls_name not in registry:
                    yield module.violation(
                        self.id,
                        node,
                        f"emitted event type '{cls_name}' is not registered "
                        "in obs/events.py (no class with a kind tag)",
                    )
            elif isinstance(payload, (ast.Constant, ast.Dict, ast.JoinedStr)):
                yield module.violation(
                    self.id,
                    node,
                    "emit() payload is an ad-hoc literal; construct a "
                    "registered event class from obs/events.py",
                )


@register
class MetricDeclarationRule(Rule):
    id = "R302"
    summary = "metric instrument named by a literal instead of obs/names.py"
    family = "registry"

    def check_module(
        self, module: ModuleSource, project: Project
    ) -> Iterator[Violation]:
        registry = declared_metric_names(project)
        if registry is None or module.ends_with(*_NAMES_SUFFIX):
            return
        for node in ast.walk(module.tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _METRIC_FACTORIES
            ):
                continue
            name_arg: Optional[ast.expr] = None
            if node.args:
                name_arg = node.args[0]
            else:
                for keyword in node.keywords:
                    if keyword.arg == "name":
                        name_arg = keyword.value
                        break
            if name_arg is None:
                continue
            if isinstance(name_arg, ast.Constant) and isinstance(
                name_arg.value, str
            ):
                if name_arg.value in registry:
                    message = (
                        f"metric '{name_arg.value}' is declared in "
                        "obs/names.py but spelled as a literal here; "
                        "reference the constant instead"
                    )
                else:
                    message = (
                        f"metric name '{name_arg.value}' is not declared "
                        "in the canonical registry obs/names.py"
                    )
                yield module.violation(self.id, node, message)
            elif isinstance(name_arg, (ast.JoinedStr, ast.BinOp)):
                yield module.violation(
                    self.id,
                    node,
                    "metric name is computed at the call site; declare it "
                    "as a constant in obs/names.py and reference it",
                )


@register
class SpanRegistryRule(Rule):
    id = "R305"
    summary = "span named outside the SPAN_* registry in obs/names.py"
    family = "registry"

    def check_module(
        self, module: ModuleSource, project: Project
    ) -> Iterator[Violation]:
        registry = declared_span_constants(project)
        if (
            registry is None
            or module.ends_with(*_NAMES_SUFFIX)
            or module.ends_with(*_SPANS_SUFFIX)
        ):
            return
        for node in ast.walk(module.tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _PROFILER_METHODS
            ):
                continue
            name_arg: Optional[ast.expr] = None
            if node.args:
                name_arg = node.args[0]
            else:
                for keyword in node.keywords:
                    if keyword.arg == "name":
                        name_arg = keyword.value
                        break
            if name_arg is None:
                continue
            if isinstance(name_arg, ast.Constant) and isinstance(
                name_arg.value, str
            ):
                yield module.violation(
                    self.id,
                    node,
                    f"span name '{name_arg.value}' is a literal at the "
                    "call site; declare a SPAN_* constant in obs/names.py "
                    "and reference it",
                )
            elif isinstance(name_arg, (ast.JoinedStr, ast.BinOp)):
                yield module.violation(
                    self.id,
                    node,
                    "span name is computed at the call site; declare it "
                    "as a SPAN_* constant in obs/names.py",
                )
            else:
                constant: Optional[str] = None
                if isinstance(name_arg, ast.Attribute):
                    constant = name_arg.attr
                elif isinstance(name_arg, ast.Name):
                    constant = name_arg.id
                if (
                    constant is not None
                    and constant.startswith("SPAN_")
                    and constant not in registry
                ):
                    yield module.violation(
                        self.id,
                        node,
                        f"span constant '{constant}' is not declared in "
                        "the canonical registry obs/names.py",
                    )


@register
class MetricLiteralRule(Rule):
    id = "R303"
    summary = "metric-name literal outside the canonical registry module"
    family = "registry"

    def check_module(
        self, module: ModuleSource, project: Project
    ) -> Iterator[Violation]:
        if declared_metric_names(project) is None:
            return
        if module.ends_with(*_NAMES_SUFFIX):
            return
        for node in ast.walk(module.tree):
            if (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and _METRIC_LITERAL.fullmatch(node.value)
            ):
                yield module.violation(
                    self.id,
                    node,
                    f"ad-hoc metric-name literal '{node.value}'; spell "
                    "metric names only in obs/names.py and import the "
                    "constant",
                )
