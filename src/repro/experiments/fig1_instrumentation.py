"""Figure 1 — runtime overhead of dynamic software instrumentation.

The paper instruments *every* OS entry point with the software decision
stub and measures the slowdown when **no off-loading happens at all**:
the instrumentation cost is pure overhead, incurred "even when
instrumentation concludes that a specific OS invocation should not be
off-loaded".  Server workloads, which enter the OS every few thousand
cycles, lose noticeably; compute workloads barely register.

We reproduce it by running :class:`DynamicInstrumentation` with an
unreachable threshold (decisions always say "stay"), so every entry pays
the estimation cost and nothing else changes, and report throughput
relative to the uninstrumented baseline.  A secondary sweep varies the
per-entry cost across the "tens ... to hundreds of cycles" range the
paper quotes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.analysis.tables import render_table
from repro.core.instrumentation import InstrumentationCosts
from repro.core.policies import DynamicInstrumentation
from repro.experiments.common import (
    FULL_COMPUTE_GROUP,
    default_config,
    group_members,
)
from repro.offload.migration import FREE
from repro.sim.config import SimulatorConfig
from repro.sim.simulator import simulate, simulate_baseline
from repro.workloads.presets import get_workload

#: Never reached by any invocation: instrumentation-only execution.
UNREACHABLE_THRESHOLD = 10 ** 9

#: The "tens of cycles ... to hundreds of cycles" cost range (Section II).
COST_SWEEP: Tuple[int, ...] = (30, 120, 180, 300)


@dataclass
class Fig1Result:
    """Per-workload normalized throughput under instrumentation-only."""

    overhead_by_workload: Dict[str, float]
    cost_sweep: Dict[int, Dict[str, float]] = field(default_factory=dict)
    cost: int = 180

    def render(self) -> str:
        rows = [
            (name, f"{value:.3f}", f"{100 * (1 - value):.1f}%")
            for name, value in self.overhead_by_workload.items()
        ]
        main = render_table(
            ["Workload", "Normalized throughput", "Slowdown"],
            rows,
            title=(
                "Figure 1: overhead of dynamic software instrumentation at "
                f"all OS entry points ({self.cost}-cycle stub, no off-loading)"
            ),
        )
        if not self.cost_sweep:
            return main
        sweep_rows = []
        names = list(self.overhead_by_workload)
        for cost, values in sorted(self.cost_sweep.items()):
            sweep_rows.append([str(cost)] + [f"{values[n]:.3f}" for n in names])
        sweep = render_table(
            ["Stub cost (cycles)"] + names,
            sweep_rows,
            title="Cost sweep (normalized throughput)",
        )
        return main + "\n\n" + sweep


def _instrumented_throughput(
    spec_name: str, cost: int, config: SimulatorConfig, baseline: float
) -> float:
    spec = get_workload(spec_name)
    costs = InstrumentationCosts(dynamic=cost)
    policy = DynamicInstrumentation(threshold=UNREACHABLE_THRESHOLD, costs=costs)
    result = simulate(spec, policy, FREE, config)
    return result.throughput / baseline


def run_fig1(
    config: SimulatorConfig = None,
    workloads: Sequence[str] = ("apache", "specjbb2005", "derby") + FULL_COMPUTE_GROUP,
    cost: int = 180,
    sweep_costs: Sequence[int] = (),
) -> Fig1Result:
    """Measure instrumentation-only slowdowns.

    ``workloads`` may include the pseudo-group ``"compute"``; groups are
    expanded to their members and reported individually here, since the
    figure's point is the server/compute contrast.
    """
    config = config or default_config()
    expanded: List[str] = []
    for name in workloads:
        expanded.extend(group_members(name, FULL_COMPUTE_GROUP))
    baselines = {
        name: simulate_baseline(get_workload(name), config).throughput
        for name in expanded
    }
    overhead = {
        name: _instrumented_throughput(name, cost, config, baselines[name])
        for name in expanded
    }
    sweep: Dict[int, Dict[str, float]] = {}
    for swept_cost in sweep_costs:
        sweep[swept_cost] = {
            name: _instrumented_throughput(
                name, swept_cost, config, baselines[name]
            )
            for name in expanded
        }
    return Fig1Result(overhead_by_workload=overhead, cost_sweep=sweep, cost=cost)
