"""Interprocedural def-use/dataflow framework for simlint v2.

The determinism-taint analysis (:mod:`repro.lint.taint`) runs on the
machine built here:

- **labels** — the abstract facts tracked through assignments: a
  concrete *source* (``wall-clock`` read at ``worker.py:296``) or a
  *parameter placeholder* (``param 0``, optionally narrowed to one
  constant field of a dict/dataclass argument).  Each label carries the
  ``via`` chain of functions it has passed through, which is what lets
  a finding render a full ``source → via f → g → sink`` trace;
- **values** — a label set per local name, *field-sensitive* for
  constant-key subscript and attribute access (``record["metrics"]``
  stays clean while ``record["duration_s"]`` is tainted — without this
  the worker's result record would smear one diagnostic timestamp over
  every field it carries);
- an **abstract interpreter** (:class:`FunctionInterpreter`) that folds
  a function body to a fixpoint.  The environment only ever grows
  (weak updates, unions at joins) and ``via`` chains are length-capped,
  so termination is structural, not hoped for;
- **summaries** (:class:`Summary`) — what a function does with its
  parameters: which flow to its return value (and into which fields),
  which reach a sink inside it, and which concrete sources it
  introduces.  Summaries compose: the driver (:func:`analyse_project`)
  iterates interpretation over the call graph until every summary is
  stable, which is what makes the analysis interprocedural without
  per-call-site re-analysis;
- **flows** (:class:`Flow`) — a complete source→sink path, deduplicated
  on the (rule, source site, sink site) triple.

Analyses plug in by subclassing :class:`FunctionInterpreter` and
overriding the source/sink/call hooks; see :mod:`repro.lint.taint`.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field, replace
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.lint.callgraph import CallGraph, CallTarget, FunctionInfo
from repro.lint.core import FlowStep

__all__ = [
    "Label",
    "Value",
    "FlowStep",
    "Flow",
    "SinkHit",
    "Summary",
    "FunctionInterpreter",
    "analyse_project",
    "PARAM",
    "MAX_VIA",
]

#: label kind reserved for parameter placeholders.
PARAM = "param"

#: Hard cap on the ``via`` chain length.  Keeps the label universe
#: finite (guaranteeing the fixpoint terminates, recursion included)
#: and the rendered traces readable.
MAX_VIA = 6


@dataclass(frozen=True)
class Label:
    """One abstract fact attached to a value."""

    kind: str
    path: str = ""
    line: int = 0
    detail: str = ""
    index: int = -1
    field: Optional[str] = None
    via: Tuple[str, ...] = ()

    @property
    def is_param(self) -> bool:
        return self.kind == PARAM

    def through(self, fid: str) -> "Label":
        """The same label, observed after passing through ``fid``."""
        if len(self.via) >= MAX_VIA or (self.via and self.via[-1] == fid):
            return self
        return replace(self, via=self.via + (fid,))

    def narrowed(self, field_name: str) -> "Label":
        """Parameter placeholder narrowed to one constant field."""
        if self.is_param and self.field is None:
            return replace(self, field=field_name)
        return self


LabelSet = FrozenSet[Label]
EMPTY: LabelSet = frozenset()


def through_all(labels: Iterable[Label], fid: str) -> LabelSet:
    return frozenset(label.through(fid) for label in labels)


@dataclass
class Value:
    """Labels of one local, field-sensitive for constant keys."""

    direct: LabelSet = EMPTY
    fields: Dict[str, LabelSet] = field(default_factory=dict)

    def collapse(self) -> LabelSet:
        """Every label the value may carry, fields included."""
        out = set(self.direct)
        for labels in self.fields.values():
            out |= labels
        return frozenset(out)

    def read_field(self, name: Optional[str]) -> LabelSet:
        """Labels observable by reading ``value[name]`` / ``value.name``.

        A constant-key read sees that field plus the container's direct
        labels, with parameter placeholders *narrowed* to the field —
        that narrowing is what lets a callee summary report "param 0's
        field 'duration_s' reaches a sink" instead of smearing the
        whole argument.  An unknown key reads everything.
        """
        if name is None:
            return self.collapse()
        out = set(self.fields.get(name, EMPTY))
        out |= {label.narrowed(name) for label in self.direct}
        return frozenset(out)

    def merge(self, other: "Value") -> bool:
        """Union ``other`` in; True when anything changed."""
        changed = False
        if not other.direct <= self.direct:
            self.direct = self.direct | other.direct
            changed = True
        for key, labels in other.fields.items():
            have = self.fields.get(key, EMPTY)
            if not labels <= have:
                self.fields[key] = have | labels
                changed = True
        return changed

    @staticmethod
    def of(labels: Iterable[Label]) -> "Value":
        return Value(direct=frozenset(labels))


@dataclass(frozen=True)
class Flow:
    """A complete source→sink path through the program."""

    source: Label
    sink_kind: str
    sink_path: str
    sink_line: int
    sink_detail: str
    via: Tuple[str, ...] = ()

    def key(self) -> Tuple[str, str, int, str, str, int]:
        return (
            self.source.kind,
            self.source.path,
            self.source.line,
            self.sink_kind,
            self.sink_path,
            self.sink_line,
        )


@dataclass(frozen=True)
class SinkHit:
    """A sink inside a function, reachable when a parameter is tainted.

    ``param`` / ``param_field`` name the (index, constant-field) slice
    of the argument whose labels reach the sink; hits with a concrete
    source instead become :class:`Flow` records immediately.
    """

    param: int
    param_field: Optional[str]
    sink_kind: str
    path: str
    line: int
    detail: str
    via: Tuple[str, ...] = ()


@dataclass
class Summary:
    """Composable interprocedural behaviour of one function."""

    #: (param index, field | None) slices that flow to the return value.
    param_to_return: Set[Tuple[int, Optional[str]]] = field(default_factory=set)
    #: concrete source labels that reach the return value.
    return_labels: LabelSet = EMPTY
    #: constant-key structure of the return value, when known.
    return_fields: Dict[str, LabelSet] = field(default_factory=dict)
    #: (param, field) slices of the return-field structure.
    param_to_return_fields: Dict[str, Set[Tuple[int, Optional[str]]]] = field(
        default_factory=dict
    )
    #: sinks inside this function fed by a parameter.
    param_sinks: List[SinkHit] = field(default_factory=list)

    def snapshot(self) -> Tuple[object, ...]:
        return (
            frozenset(self.param_to_return),
            self.return_labels,
            tuple(sorted(
                (k, v) for k, v in self.return_fields.items()
            )),
            tuple(sorted(
                (k, frozenset(v))
                for k, v in self.param_to_return_fields.items()
            )),
            frozenset(self.param_sinks),
        )


class FunctionInterpreter:
    """Abstract interpretation of one function body to a fixpoint.

    Subclasses override the hooks at the bottom; the statement and
    expression walk is shared.  The walk is flow-insensitive within the
    function (every pass unions; passes repeat until the environment is
    stable), which over-approximates branch joins exactly the way a
    linter should.
    """

    #: extra fixpoint passes guard (each pass is O(body)).
    MAX_PASSES = 10

    def __init__(
        self,
        fn: FunctionInfo,
        graph: CallGraph,
        summaries: Dict[str, Summary],
    ) -> None:
        self.fn = fn
        self.graph = graph
        self.summaries = summaries
        self.env: Dict[str, Value] = {}
        self.summary = Summary()
        self.flows: List[Flow] = []
        self._return_value = Value()

    # ------------------------------------------------------------------
    # driver
    # ------------------------------------------------------------------

    def run(self) -> None:
        for index, name in enumerate(self.fn.param_names()):
            self._bind(name, Value.of([Label(kind=PARAM, index=index)]))
        for name in self.fn.keyword_only_names():
            # keyword-only params get a placeholder too; index them
            # after the positionals.
            index = len(self.fn.param_names()) + \
                self.fn.keyword_only_names().index(name)
            self._bind(name, Value.of([Label(kind=PARAM, index=index)]))
        for _ in range(self.MAX_PASSES):
            if not self._pass():
                break
        self._finish_summary()

    def _pass(self) -> bool:
        self._changed = False
        for stmt in self.fn.node.body:
            self.visit_stmt(stmt)
        return self._changed

    def _finish_summary(self) -> None:
        ret = self._return_value
        for label in ret.direct:
            if label.is_param:
                self.summary.param_to_return.add((label.index, label.field))
            else:
                self.summary.return_labels = (
                    self.summary.return_labels | {label}
                )
        for key, labels in ret.fields.items():
            for label in labels:
                if label.is_param:
                    self.summary.param_to_return_fields.setdefault(
                        key, set()
                    ).add((label.index, label.field))
                else:
                    have = self.summary.return_fields.get(key, EMPTY)
                    self.summary.return_fields[key] = have | {label}

    def _bind(self, name: str, value: Value) -> None:
        have = self.env.setdefault(name, Value())
        if have.merge(value):
            self._changed = True

    # changed-flag default for the binding done before the first pass
    _changed = False

    # ------------------------------------------------------------------
    # statements
    # ------------------------------------------------------------------

    def visit_stmt(self, stmt: ast.stmt) -> None:
        """Fold one statement into the environment.

        Statements that move no value (nested ``def``/``class``,
        imports, ``global``/``nonlocal``, ``assert``, ``del`` and the
        jumps) are skipped.
        """
        if isinstance(stmt, ast.Assign):
            value = self.eval_expr(stmt.value)
            for target in stmt.targets:
                self.assign(target, value)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self.assign(stmt.target, self.eval_expr(stmt.value))
        elif isinstance(stmt, ast.AugAssign):
            value = self.eval_expr(stmt.value)
            value.merge(Value(direct=self.read_target(stmt.target)))
            self.assign(stmt.target, value)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                value = self.eval_expr(stmt.value)
                if self._return_value.merge(value):
                    self._changed = True
        elif isinstance(stmt, ast.Expr):
            self.eval_expr(stmt.value)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            iter_value = self.eval_expr(stmt.iter)
            element = self.iterated(stmt.iter, iter_value)
            self.assign(stmt.target, element)
            for sub in stmt.body + stmt.orelse:
                self.visit_stmt(sub)
        elif isinstance(stmt, (ast.While, ast.If)):
            self.eval_expr(stmt.test)
            for sub in stmt.body + stmt.orelse:
                self.visit_stmt(sub)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                value = self.eval_expr(item.context_expr)
                if item.optional_vars is not None:
                    self.assign(item.optional_vars, value)
            for sub in stmt.body:
                self.visit_stmt(sub)
        elif isinstance(stmt, ast.Try):
            blocks = [stmt.body, stmt.orelse, stmt.finalbody]
            for block in blocks:
                for sub in block:
                    self.visit_stmt(sub)
            for handler in stmt.handlers:
                for sub in handler.body:
                    self.visit_stmt(sub)
        elif isinstance(stmt, ast.Raise):
            if stmt.exc is not None:
                self.eval_expr(stmt.exc)

    def assign(self, target: ast.expr, value: Value) -> None:
        if isinstance(target, ast.Name):
            self._bind(target.id, value)
        elif isinstance(target, ast.Starred):
            self.assign(target.value, value)
        elif isinstance(target, (ast.Tuple, ast.List)):
            # each unpacked name may see any element; keep the field
            # structure rather than collapsing it (container-of-dicts).
            spread = Value(direct=value.direct, fields=dict(value.fields))
            for element in target.elts:
                self.assign(element, spread)
        elif isinstance(target, ast.Subscript):
            key = _const_key(target.slice)
            self.eval_expr(target.slice)
            if isinstance(target.value, ast.Name):
                container = self.env.setdefault(target.value.id, Value())
                labels = value.collapse()
                slot = key if key is not None else "*"
                have = container.fields.get(slot, EMPTY)
                if not labels <= have:
                    container.fields[slot] = have | labels
                    self._changed = True
        elif isinstance(target, ast.Attribute):
            self.eval_expr(target.value)
            if isinstance(target.value, ast.Name):
                container = self.env.setdefault(target.value.id, Value())
                labels = value.collapse()
                have = container.fields.get(target.attr, EMPTY)
                if not labels <= have:
                    container.fields[target.attr] = have | labels
                    self._changed = True

    def read_target(self, target: ast.expr) -> LabelSet:
        return self.eval_expr(target).collapse()

    # ------------------------------------------------------------------
    # expressions
    # ------------------------------------------------------------------

    def eval_expr(self, expr: ast.expr) -> Value:
        sources = self.expr_sources(expr)
        value = self._eval(expr)
        if sources:
            value = Value(direct=value.collapse() | sources,
                          fields=dict(value.fields))
        return value

    def _eval(self, expr: ast.expr) -> Value:
        if isinstance(expr, ast.Name):
            return self.env.get(expr.id, Value())
        if isinstance(expr, ast.Constant):
            return Value()
        if isinstance(expr, ast.Call):
            return self.eval_call(expr)
        if isinstance(expr, ast.Subscript):
            base = self.eval_expr(expr.value)
            self.eval_expr(expr.slice)
            key = _const_key(expr.slice)
            if key is not None:
                labels = set(base.read_field(key))
                labels |= base.fields.get("*", EMPTY)
                return Value(direct=frozenset(labels))
            return Value(direct=base.collapse())
        if isinstance(expr, ast.Attribute):
            base = self.eval_expr(expr.value)
            return Value(direct=base.read_field(expr.attr))
        if isinstance(expr, ast.BinOp):
            left = self.eval_expr(expr.left).collapse()
            right = self.eval_expr(expr.right).collapse()
            return Value(direct=left | right)
        if isinstance(expr, ast.BoolOp):
            out: Set[Label] = set()
            for operand in expr.values:
                out |= self.eval_expr(operand).collapse()
            return Value(direct=frozenset(out))
        if isinstance(expr, ast.UnaryOp):
            return Value(direct=self.eval_expr(expr.operand).collapse())
        if isinstance(expr, ast.Compare):
            out = set(self.eval_expr(expr.left).collapse())
            for comparator in expr.comparators:
                out |= self.eval_expr(comparator).collapse()
            return Value(direct=frozenset(out))
        if isinstance(expr, ast.IfExp):
            self.eval_expr(expr.test)
            value = Value()
            value.merge(self.eval_expr(expr.body))
            value.merge(self.eval_expr(expr.orelse))
            return value
        if isinstance(expr, ast.Dict):
            value = Value()
            extra: Set[Label] = set()
            for key_node, value_node in zip(expr.keys, expr.values):
                item = self.eval_expr(value_node).collapse()
                key = _const_key(key_node) if key_node is not None else None
                if key is not None:
                    have = value.fields.get(key, EMPTY)
                    value.fields[key] = have | item
                else:
                    extra |= item
            value.direct = frozenset(extra)
            return value
        if isinstance(expr, (ast.Tuple, ast.List, ast.Set)):
            # merge element values field-wise: a list of records keeps
            # the records' constant-key structure instead of smearing
            # one tainted field over every other (execute_shard returns
            # ``[record, ...]`` and the consumer reads record["spec"]).
            value = Value()
            for element in expr.elts:
                if isinstance(element, ast.Starred):
                    element = element.value
                value.merge(self.eval_expr(element))
            return value
        if isinstance(expr, ast.JoinedStr):
            out = set()
            for part in expr.values:
                if isinstance(part, ast.FormattedValue):
                    out |= self.eval_expr(part.value).collapse()
            return Value(direct=frozenset(out))
        if isinstance(expr, ast.Starred):
            return self.eval_expr(expr.value)
        if isinstance(
            expr, (ast.ListComp, ast.SetComp, ast.GeneratorExp)
        ):
            return Value(direct=self._eval_comprehension(
                expr.generators, [expr.elt]
            ))
        if isinstance(expr, ast.DictComp):
            return Value(direct=self._eval_comprehension(
                expr.generators, [expr.key, expr.value]
            ))
        if isinstance(expr, (ast.Await, ast.YieldFrom)):
            return self.eval_expr(expr.value)
        if isinstance(expr, ast.Yield):
            if expr.value is not None:
                value = self.eval_expr(expr.value)
                if self._return_value.merge(value):
                    self._changed = True
            return Value()
        if isinstance(expr, ast.NamedExpr):
            value = self.eval_expr(expr.value)
            self.assign(expr.target, value)
            return value
        if isinstance(expr, ast.Slice):
            for part in (expr.lower, expr.upper, expr.step):
                if part is not None:
                    self.eval_expr(part)
            return Value()
        return Value()

    def _eval_comprehension(
        self,
        generators: Sequence[ast.comprehension],
        outputs: Sequence[ast.expr],
    ) -> LabelSet:
        for gen in generators:
            iter_value = self.eval_expr(gen.iter)
            element = self.iterated(gen.iter, iter_value)
            self.assign(gen.target, element)
            for cond in gen.ifs:
                self.eval_expr(cond)
        out: Set[Label] = set()
        for output in outputs:
            out |= self.eval_expr(output).collapse()
        return frozenset(out)

    # ------------------------------------------------------------------
    # calls
    # ------------------------------------------------------------------

    def eval_call(self, call: ast.Call) -> Value:
        arg_values = [self.eval_expr(arg) for arg in call.args]
        kw_values = {
            kw.arg: self.eval_expr(kw.value) for kw in call.keywords
        }
        target = self.graph.resolve_call(self.fn, call)
        self.observe_call(call, target, arg_values, kw_values)
        if target is not None:
            return self.apply_summary(call, target, arg_values, kw_values)
        return self.unresolved_call(call, arg_values, kw_values)

    def apply_summary(
        self,
        call: ast.Call,
        target: CallTarget,
        arg_values: Sequence[Value],
        kw_values: Dict[Optional[str], Value],
    ) -> Value:
        callee = target.fn
        summary = self.summaries.get(callee.fid)
        if summary is None:
            return self.unresolved_call(call, arg_values, kw_values)
        fid = callee.fid

        def slice_labels(index: int, fld: Optional[str]) -> LabelSet:
            value = self._argument(
                callee, target.offset, index, arg_values, kw_values
            )
            if value is None:
                return EMPTY
            return value.read_field(fld)

        result = Value()
        direct: Set[Label] = set(
            label.through(fid) for label in summary.return_labels
        )
        for index, fld in summary.param_to_return:
            direct |= through_all(slice_labels(index, fld), fid)
        result.direct = frozenset(direct)
        for key, labels in summary.return_fields.items():
            result.fields[key] = through_all(labels, fid)
        for key, slices in summary.param_to_return_fields.items():
            have = set(result.fields.get(key, EMPTY))
            for index, fld in slices:
                have |= through_all(slice_labels(index, fld), fid)
            result.fields[key] = frozenset(have)
        for hit in summary.param_sinks:
            for label in slice_labels(hit.param, hit.param_field):
                self.sink_reached(label, hit, call)
        return result

    def _argument(
        self,
        callee: FunctionInfo,
        offset: int,
        index: int,
        arg_values: Sequence[Value],
        kw_values: Dict[Optional[str], Value],
    ) -> Optional[Value]:
        """Map a callee parameter index back to a call-site value."""
        positional = index - offset
        if 0 <= positional < len(arg_values):
            return arg_values[positional]
        names = callee.param_names() + callee.keyword_only_names()
        if 0 <= index < len(names) and names[index] in kw_values:
            return kw_values[names[index]]
        if None in kw_values:  # **kwargs at the call site
            return kw_values[None]
        return None

    # ------------------------------------------------------------------
    # hooks for analyses
    # ------------------------------------------------------------------

    def expr_sources(self, expr: ast.expr) -> LabelSet:
        """Concrete source labels introduced by this expression."""
        return EMPTY

    def iterated(self, iter_expr: ast.expr, iter_value: Value) -> Value:
        """Value of the element produced by iterating ``iter_expr``.

        Field structure is preserved: iterating a list of records hands
        each record's constant-key fields through intact.
        """
        return Value(direct=iter_value.direct, fields=dict(iter_value.fields))

    def unresolved_call(
        self,
        call: ast.Call,
        arg_values: Sequence[Value],
        kw_values: Dict[Optional[str], Value],
    ) -> Value:
        """Default: external calls pass their arguments' labels through.

        ``receiver.get("const", default)`` is modelled as the
        field-sensitive read it is — without this the diagnostic
        ``record.get("duration_s")`` read would go unseen entirely.
        """
        func = call.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "get"
            and call.args
        ):
            key = _const_key(call.args[0])
            if key is not None:
                out = set(self.eval_expr(func.value).read_field(key))
                for value in arg_values[1:]:
                    out |= value.collapse()
                return Value(direct=frozenset(out))
        out = set()
        for value in arg_values:
            out |= value.collapse()
        for value in kw_values.values():
            out |= value.collapse()
        return Value(direct=frozenset(out))

    def observe_call(
        self,
        call: ast.Call,
        target: Optional[CallTarget],
        arg_values: Sequence[Value],
        kw_values: Dict[Optional[str], Value],
    ) -> None:
        """Sink detection hook; called for every call site."""

    def sink_reached(
        self, label: Label, hit: SinkHit, call: ast.Call
    ) -> None:
        """A callee's parameterised sink was fed by ``label`` here."""
        via = label.via + (self.fn.fid,) + hit.via
        if label.is_param:
            self.summary.param_sinks.append(
                SinkHit(
                    param=label.index,
                    param_field=label.field,
                    sink_kind=hit.sink_kind,
                    path=hit.path,
                    line=hit.line,
                    detail=hit.detail,
                    via=via[-MAX_VIA:],
                )
            )
        else:
            self.flows.append(
                Flow(
                    source=label,
                    sink_kind=hit.sink_kind,
                    sink_path=hit.path,
                    sink_line=hit.line,
                    sink_detail=hit.detail,
                    via=via[-MAX_VIA:],
                )
            )

    def local_sink(
        self, kind: str, node: ast.AST, detail: str, labels: LabelSet
    ) -> None:
        """Record a sink in *this* function fed by ``labels``."""
        path = self.fn.module.relpath
        line = getattr(node, "lineno", self.fn.line)
        for label in labels:
            if label.is_param:
                self.summary.param_sinks.append(
                    SinkHit(
                        param=label.index,
                        param_field=label.field,
                        sink_kind=kind,
                        path=path,
                        line=line,
                        detail=detail,
                    )
                )
            else:
                self.flows.append(
                    Flow(
                        source=label,
                        sink_kind=kind,
                        sink_path=path,
                        sink_line=line,
                        sink_detail=detail,
                        via=label.via,
                    )
                )


def _const_key(node: ast.expr) -> Optional[str]:
    """Constant str/int subscript key, as the field-map key string."""
    if isinstance(node, ast.Constant) and isinstance(
        node.value, (str, int)
    ) and not isinstance(node.value, bool):
        return str(node.value)
    return None


def analyse_project(
    graph: CallGraph,
    interpreter_factory,
    max_rounds: int = 12,
) -> Tuple[Dict[str, Summary], List[Flow]]:
    """Run an interpreter over every function until summaries stabilise.

    ``interpreter_factory(fn, graph, summaries)`` must return a
    :class:`FunctionInterpreter`.  Flows are collected from the final
    round only (earlier rounds see incomplete summaries) and
    deduplicated on their source/sink key.
    """
    summaries: Dict[str, Summary] = {
        fid: Summary() for fid in graph.functions
    }
    order = sorted(graph.functions)
    flows: List[Flow] = []
    for _ in range(max_rounds):
        changed = False
        flows = []
        for fid in order:
            fn = graph.functions[fid]
            interp = interpreter_factory(fn, graph, summaries)
            interp.run()
            if interp.summary.snapshot() != summaries[fid].snapshot():
                summaries[fid] = interp.summary
                changed = True
            flows.extend(interp.flows)
        if not changed:
            break
    unique: Dict[Tuple[object, ...], Flow] = {}
    for flow in flows:
        key = flow.key()
        if key not in unique or len(flow.via) < len(unique[key].via):
            unique[key] = flow
    return summaries, [unique[key] for key in sorted(unique, key=str)]
