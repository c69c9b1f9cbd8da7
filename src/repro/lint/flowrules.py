"""Flow-based rule families (N/W) over the dataflow engine.

These rules only run under ``repro lint --dataflow``.  They share one
:class:`FlowContext` per :class:`~repro.lint.core.Project` — the call
graph is built once and each analysis (taint fixpoint, purity
reachability) runs once per lint invocation, however many rule classes
consume its results.

Rule ids:

====== ============================================================
N501   nondeterministic value flows into a ``*Stats`` counter
N502   nondeterministic value flows into a trace-event constructor
N503   nondeterministic value flows into a metric emission
N504   nondeterministic value flows into cache-key material
N505   nondeterministic value flows into a ``JobResult`` field
W701   worker-reachable function re-binds a module global
W702   worker-reachable function mutates a module-level container
W703   worker-reachable function re-binds an enclosing-scope name
====== ============================================================

Every finding is anchored at its *sink* (or mutation site) and carries
the full flow trace in :attr:`Violation.flow`, so the text rendering
reads ``source at a.py:12 → via f → g → sink at b.py:40``.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from repro.lint.callgraph import CallGraph
from repro.lint.core import FlowStep, Project, Rule, Violation, register
from repro.lint.dataflow import Flow, Summary
from repro.lint.taint import run_taint_analysis
from repro.lint.workers import PurityFinding, run_worker_analysis

__all__ = ["FlowContext", "flow_context"]


class FlowContext:
    """All dataflow results for one project, computed lazily, once."""

    def __init__(self, project: Project) -> None:
        self.project = project
        self.graph = CallGraph(project)
        self._taint: Optional[Tuple[Dict[str, Summary], List[Flow]]] = None
        self._purity: Optional[List[PurityFinding]] = None

    @property
    def flows(self) -> List[Flow]:
        if self._taint is None:
            self._taint = run_taint_analysis(self.project, self.graph)
        return self._taint[1]

    @property
    def summaries(self) -> Dict[str, Summary]:
        if self._taint is None:
            self._taint = run_taint_analysis(self.project, self.graph)
        return self._taint[0]

    @property
    def purity(self) -> List[PurityFinding]:
        if self._purity is None:
            self._purity = run_worker_analysis(self.project, self.graph)
        return self._purity

    # -- trace construction --------------------------------------------

    def _fid_step(self, fid: str) -> FlowStep:
        fn = self.graph.functions.get(fid)
        path = fn.module.relpath if fn is not None else fid.split("::")[0]
        line = fn.line if fn is not None else 1
        return FlowStep(path, line, f"via {fid.split('::')[-1]}")

    def flow_trace(self, flow: Flow) -> Tuple[FlowStep, ...]:
        source = flow.source
        steps = [FlowStep(
            source.path, source.line,
            f"source ({source.kind}: {source.detail})",
        )]
        seen: set = set()
        for fid in source.via + flow.via:
            if fid not in seen:
                seen.add(fid)
                steps.append(self._fid_step(fid))
        steps.append(FlowStep(
            flow.sink_path, flow.sink_line, f"sink ({flow.sink_detail})"
        ))
        return tuple(steps)

    def chain_trace(
        self, finding: PurityFinding
    ) -> Tuple[FlowStep, ...]:
        steps = [self._fid_step(fid) for fid in finding.chain]
        if steps:
            entry = steps[0]
            steps[0] = FlowStep(
                entry.path, entry.line,
                entry.note.replace("via ", "worker entry ", 1),
            )
        steps.append(
            FlowStep(finding.path, finding.line, "mutation site")
        )
        return tuple(steps)


def flow_context(project: Project) -> FlowContext:
    """The per-project context, cached on the project object itself."""
    ctx = getattr(project, "_flow_context", None)
    if not isinstance(ctx, FlowContext):
        ctx = FlowContext(project)
        project._flow_context = ctx  # type: ignore[attr-defined]
    return ctx


class _TaintRule(Rule):
    """One N-rule per sink kind; the analysis runs once for all five."""

    family = "determinism-taint"
    severity = "error"
    flow = True
    sink_kind = ""

    def check_project(self, project: Project) -> Iterator[Violation]:
        ctx = flow_context(project)
        for flow in ctx.flows:
            if flow.sink_kind != self.sink_kind:
                continue
            source = flow.source
            via = tuple(
                fid.split("::")[-1] for fid in source.via + flow.via
            )
            hops = f" via {' → '.join(dict.fromkeys(via))}" if via else ""
            yield Violation(
                path=flow.sink_path,
                line=flow.sink_line,
                rule=self.id,
                message=(
                    f"nondeterministic value ({source.kind}: "
                    f"{source.detail}) flows into {flow.sink_detail} — "
                    f"source at {source.path}:{source.line}{hops}"
                ),
                severity=self.severity,
                flow=ctx.flow_trace(flow),
            )


@register
class StatsCounterTaintRule(_TaintRule):
    id = "N501"
    summary = "nondeterministic value flows into a *Stats counter"
    sink_kind = "stats-counter"


@register
class TraceEventTaintRule(_TaintRule):
    id = "N502"
    summary = "nondeterministic value flows into a trace-event constructor"
    sink_kind = "trace-event"


@register
class MetricTaintRule(_TaintRule):
    id = "N503"
    summary = "nondeterministic value flows into a metric emission"
    sink_kind = "metric"


@register
class CacheKeyTaintRule(_TaintRule):
    id = "N504"
    summary = "nondeterministic value flows into cache-key material"
    sink_kind = "cache-key"


@register
class JobResultTaintRule(_TaintRule):
    id = "N505"
    summary = "nondeterministic value flows into a JobResult field"
    sink_kind = "job-result"


class _PurityRule(Rule):
    family = "worker-purity"
    severity = "error"
    flow = True

    def check_project(self, project: Project) -> Iterator[Violation]:
        ctx = flow_context(project)
        for finding in ctx.purity:
            if finding.rule != self.id:
                continue
            chain = " → ".join(
                fid.split("::")[-1] for fid in finding.chain
            )
            yield Violation(
                path=finding.path,
                line=finding.line,
                rule=self.id,
                message=(
                    f"{finding.message} — reachable from worker entry "
                    f"'{finding.entry}' via {chain}"
                ),
                severity=self.severity,
                flow=ctx.chain_trace(finding),
            )


@register
class WorkerGlobalRebindRule(_PurityRule):
    id = "W701"
    summary = "worker-reachable function re-binds a module global"


@register
class WorkerContainerMutationRule(_PurityRule):
    id = "W702"
    summary = "worker-reachable function mutates a module-level container"
    severity = "warning"


@register
class WorkerNonlocalRebindRule(_PurityRule):
    id = "W703"
    summary = "worker-reachable function re-binds an enclosing-scope name"
    severity = "warning"
