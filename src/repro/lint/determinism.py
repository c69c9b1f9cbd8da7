"""D-rules: constructs that can break run-to-run bit identity.

The simulator's regression story (goldens, serial≡parallel batches,
cached≡uncached grids) assumes that a ``(config, seed)`` pair fully
determines every counter.  Four construct families silently break that
assumption, and each gets a rule:

``D101``
    Module-level RNG use — ``random.random()``, ``np.random.rand()``
    and friends draw from interpreter-global state that depends on
    import order and process history.  Only explicit generator
    construction (``random.Random(seed)``, ``np.random.default_rng``,
    ``SeedSequence`` …) is allowed; generators must be threaded through
    as arguments.
``D102``
    Wall-clock reads (``time.time``, ``perf_counter``,
    ``datetime.now`` …) inside the simulation hot packages
    (``sim``/``memory``/``offload``/``core``).  Timing the *runner* is
    fine; a clock value feeding a model decision is not.
``D103``
    ``hash()`` of ``str``/``bytes`` — randomised per process by
    PYTHONHASHSEED, so any derived quantity differs between workers.
    Use ``repro.runner.jobspec.derive_seed`` (SHA-256) instead.
``D104``
    Iterating a ``set``/``frozenset`` in the observability/analysis
    packages — set order is hash order, so emitted records would not
    be byte-stable.  Iterate ``sorted(...)`` instead.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Set, Tuple

from repro.lint.core import ModuleSource, Project, Rule, Violation, register

__all__ = [
    "UnseededRandomRule",
    "WallClockRule",
    "StringHashRule",
    "SetIterationRule",
]

#: attributes of ``random`` that construct or inspect explicit state
#: rather than drawing from the module-global generator.
_ALLOWED_RANDOM_ATTRS = frozenset({
    "Random",
    "SystemRandom",
    "getstate",
    "setstate",
})

#: attributes of ``numpy.random`` that construct explicit generators.
_ALLOWED_NP_RANDOM_ATTRS = frozenset({
    "default_rng",
    "Generator",
    "SeedSequence",
    "BitGenerator",
    "RandomState",
    "PCG64",
    "PCG64DXSM",
    "Philox",
    "MT19937",
    "SFC64",
})

_CLOCK_FUNCS = frozenset({
    "time",
    "time_ns",
    "monotonic",
    "monotonic_ns",
    "perf_counter",
    "perf_counter_ns",
    "process_time",
    "process_time_ns",
})

_DATETIME_CLASSES = frozenset({"datetime", "date"})
_DATETIME_CLOCK_METHODS = frozenset({"now", "utcnow", "today"})

#: packages whose code runs inside the simulated machine — the paper's
#: measured quantities all come from here.
_HOT_PACKAGES = ("sim", "memory", "offload", "core", "service")

#: packages that serialise records/stats, where iteration order is
#: part of the output.
_ORDERED_OUTPUT_PACKAGES = ("obs", "analysis")


class _ImportMap:
    """Names a module binds to the stdlib/numpy modules rules care about."""

    def __init__(self, tree: ast.Module) -> None:
        self.random_mods: Set[str] = set()
        self.numpy_mods: Set[str] = set()
        self.numpy_random_mods: Set[str] = set()
        self.time_mods: Set[str] = set()
        self.datetime_mods: Set[str] = set()
        #: local name -> original name, for ``from random import x as y``
        self.from_random: Dict[str, str] = {}
        self.from_time: Dict[str, str] = {}
        #: local names bound to the ``datetime.datetime``/``date`` classes
        self.datetime_classes: Set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    if alias.name == "random":
                        self.random_mods.add(local)
                    elif alias.name == "numpy":
                        self.numpy_mods.add(local)
                    elif alias.name == "numpy.random":
                        if alias.asname:
                            self.numpy_random_mods.add(alias.asname)
                        else:
                            self.numpy_mods.add("numpy")
                    elif alias.name == "time":
                        self.time_mods.add(local)
                    elif alias.name == "datetime":
                        self.datetime_mods.add(local)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                for alias in node.names:
                    local = alias.asname or alias.name
                    if node.module == "random":
                        self.from_random[local] = alias.name
                    elif node.module == "numpy" and alias.name == "random":
                        self.numpy_random_mods.add(local)
                    elif node.module == "numpy.random":
                        if alias.name not in _ALLOWED_NP_RANDOM_ATTRS:
                            self.from_random[local] = f"np:{alias.name}"
                    elif node.module == "time":
                        self.from_time[local] = alias.name
                    elif node.module == "datetime":
                        if alias.name in _DATETIME_CLASSES:
                            self.datetime_classes.add(local)


def _call_sites(tree: ast.Module) -> Iterator[ast.Call]:
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            yield node


@register
class UnseededRandomRule(Rule):
    id = "D101"
    summary = "module-level random/numpy.random call (unseeded global RNG)"
    family = "determinism"

    def check_module(
        self, module: ModuleSource, project: Project
    ) -> Iterator[Violation]:
        imports = _ImportMap(module.tree)
        for call in _call_sites(module.tree):
            func = call.func
            if isinstance(func, ast.Name):
                origin = imports.from_random.get(func.id)
                if origin is None:
                    continue
                plain = origin.split(":")[-1]
                if plain in _ALLOWED_RANDOM_ATTRS | _ALLOWED_NP_RANDOM_ATTRS:
                    continue
                yield module.violation(
                    self.id,
                    call,
                    f"call to module-level RNG '{plain}' imported from "
                    "random/numpy.random; construct an explicit "
                    "Random/default_rng instance and pass it through",
                )
            elif isinstance(func, ast.Attribute):
                target = func.value
                # random.X(...)
                if (
                    isinstance(target, ast.Name)
                    and target.id in imports.random_mods
                    and func.attr not in _ALLOWED_RANDOM_ATTRS
                ):
                    yield module.violation(
                        self.id,
                        call,
                        f"'{target.id}.{func.attr}()' draws from the "
                        "process-global random generator; use an explicit "
                        "random.Random(seed) instance",
                    )
                # nprandom.X(...) where nprandom is numpy.random
                elif (
                    isinstance(target, ast.Name)
                    and target.id in imports.numpy_random_mods
                    and func.attr not in _ALLOWED_NP_RANDOM_ATTRS
                ):
                    yield module.violation(
                        self.id,
                        call,
                        f"'{target.id}.{func.attr}()' draws from numpy's "
                        "global RNG; use numpy.random.default_rng(seed)",
                    )
                # np.random.X(...)
                elif (
                    isinstance(target, ast.Attribute)
                    and target.attr == "random"
                    and isinstance(target.value, ast.Name)
                    and target.value.id in imports.numpy_mods
                    and func.attr not in _ALLOWED_NP_RANDOM_ATTRS
                ):
                    yield module.violation(
                        self.id,
                        call,
                        f"'{target.value.id}.random.{func.attr}()' draws "
                        "from numpy's global RNG; use "
                        "numpy.random.default_rng(seed)",
                    )


@register
class WallClockRule(Rule):
    id = "D102"
    summary = "wall-clock read inside a simulation hot package"
    family = "determinism"

    def check_module(
        self, module: ModuleSource, project: Project
    ) -> Iterator[Violation]:
        if not module.in_package(*_HOT_PACKAGES):
            return
        imports = _ImportMap(module.tree)
        for call in _call_sites(module.tree):
            func = call.func
            if isinstance(func, ast.Name):
                origin = imports.from_time.get(func.id)
                if origin in _CLOCK_FUNCS:
                    yield module.violation(
                        self.id,
                        call,
                        f"'{func.id}()' reads the wall clock inside a "
                        "simulation hot path; simulated time must come "
                        "from cycle counters",
                    )
                continue
            if not isinstance(func, ast.Attribute):
                continue
            target = func.value
            if (
                isinstance(target, ast.Name)
                and target.id in imports.time_mods
                and func.attr in _CLOCK_FUNCS
            ):
                yield module.violation(
                    self.id,
                    call,
                    f"'{target.id}.{func.attr}()' reads the wall clock "
                    "inside a simulation hot path; simulated time must "
                    "come from cycle counters",
                )
            elif func.attr in _DATETIME_CLOCK_METHODS and (
                (
                    isinstance(target, ast.Name)
                    and target.id in imports.datetime_classes
                )
                or (
                    isinstance(target, ast.Attribute)
                    and target.attr in _DATETIME_CLASSES
                    and isinstance(target.value, ast.Name)
                    and target.value.id in imports.datetime_mods
                )
            ):
                yield module.violation(
                    self.id,
                    call,
                    f"'{ast.unparse(func)}()' reads the wall clock inside "
                    "a simulation hot path",
                )


def _is_stringy(node: ast.expr) -> bool:
    """Syntactically guaranteed (or strongly indicated) str/bytes value."""
    if isinstance(node, ast.Constant):
        return isinstance(node.value, (str, bytes))
    if isinstance(node, ast.JoinedStr):
        return True
    if isinstance(node, ast.BinOp):
        return _is_stringy(node.left) or _is_stringy(node.right)
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("str", "bytes", "repr", "format", "ascii")
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        return node.func.attr in ("format", "join", "encode", "decode")
    if isinstance(node, (ast.Tuple, ast.List)):
        return any(_is_stringy(element) for element in node.elts)
    return False


@register
class StringHashRule(Rule):
    id = "D103"
    summary = "hash() of str/bytes (PYTHONHASHSEED-dependent)"
    family = "determinism"

    def check_module(
        self, module: ModuleSource, project: Project
    ) -> Iterator[Violation]:
        for call in _call_sites(module.tree):
            func = call.func
            if (
                isinstance(func, ast.Name)
                and func.id == "hash"
                and len(call.args) == 1
                and not call.keywords
                and _is_stringy(call.args[0])
            ):
                yield module.violation(
                    self.id,
                    call,
                    "hash() of a str/bytes value varies per process "
                    "(PYTHONHASHSEED); derive stable seeds with "
                    "repro.runner.jobspec.derive_seed",
                )


def _iteration_targets(tree: ast.Module) -> Iterator[Tuple[ast.AST, ast.expr]]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.For, ast.AsyncFor)):
            yield node, node.iter
        elif isinstance(
            node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
        ):
            for generator in node.generators:
                yield node, generator.iter


def _is_set_expr(node: ast.expr) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitAnd, ast.BitOr, ast.BitXor, ast.Sub)
    ):
        # set algebra (a & b, a - b ...) only reaches a for-loop when
        # the operands are sets; flag it when either side is one.
        return _is_set_expr(node.left) or _is_set_expr(node.right)
    return False


@register
class SetIterationRule(Rule):
    id = "D104"
    summary = "iteration over a set in record/stats emission code"
    family = "determinism"

    def check_module(
        self, module: ModuleSource, project: Project
    ) -> Iterator[Violation]:
        if not module.in_package(*_ORDERED_OUTPUT_PACKAGES):
            return
        for node, iter_expr in _iteration_targets(module.tree):
            if _is_set_expr(iter_expr):
                yield module.violation(
                    self.id,
                    node,
                    "iterating a set here makes emitted record order "
                    "hash-dependent; iterate sorted(...) instead",
                )
