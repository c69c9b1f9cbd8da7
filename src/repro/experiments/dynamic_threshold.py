"""A2 — the Section III.B dynamic-N controller vs. the best static N.

The paper's full system does not know the optimal threshold a priori: an
epoch-based controller samples neighbouring grid values with L2-hit-rate
feedback and settles on one.  This experiment runs HI under the
controller and compares it with (a) HI at the best static N found by
exhaustive sweep (the oracle for this mechanism) and (b) HI at the
paper's OS-intensive default N=1,000, reporting how much of the best
static performance the controller retains and which N it converged to.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.tables import render_table
from repro.core.policies import HardwareInstrumentation
from repro.core.threshold import DynamicThresholdController
from repro.experiments.common import THRESHOLD_GRID, default_config
from repro.offload.migration import AGGRESSIVE, MigrationModel
from repro.sim.config import SimulatorConfig
from repro.sim.simulator import simulate, simulate_baseline
from repro.workloads.presets import SERVER_WORKLOADS, get_workload


@dataclass
class DynamicThresholdOutcome:
    workload: str
    dynamic_normalized: float
    best_static_normalized: float
    best_static_threshold: int
    default_normalized: float
    final_threshold: int
    adjustments: int
    threshold_trace: List[Tuple[int, int]]

    @property
    def retention(self) -> float:
        """Fraction of the best-static performance the controller kept."""
        if self.best_static_normalized == 0:
            return 0.0
        return self.dynamic_normalized / self.best_static_normalized


@dataclass
class DynamicThresholdResult:
    outcomes: Dict[str, DynamicThresholdOutcome]
    migration: MigrationModel

    def render(self) -> str:
        rows = [
            (
                o.workload,
                f"{o.dynamic_normalized:.3f}",
                f"{o.best_static_normalized:.3f} (N={o.best_static_threshold})",
                f"{o.default_normalized:.3f}",
                f"{100 * o.retention:.1f}%",
                o.final_threshold,
                o.adjustments,
            )
            for o in self.outcomes.values()
        ]
        return render_table(
            ["Workload", "Dynamic-N", "Best static", "Static N=1000",
             "Retention", "Final N", "Adjustments"],
            rows,
            title=(
                "Dynamic threshold controller vs. static thresholds "
                f"({self.migration.one_way_latency}-cycle migration)"
            ),
        )


def run_dynamic_threshold(
    config: Optional[SimulatorConfig] = None,
    workloads: Sequence[str] = SERVER_WORKLOADS,
    migration: MigrationModel = AGGRESSIVE,
    grid: Sequence[int] = THRESHOLD_GRID,
) -> DynamicThresholdResult:
    config = config or default_config()
    outcomes: Dict[str, DynamicThresholdOutcome] = {}
    for name in workloads:
        spec = get_workload(name)
        base = simulate_baseline(spec, config).throughput

        best_value, best_threshold = float("-inf"), grid[0]
        default_value = 0.0
        for threshold in grid:
            run = simulate(
                spec, HardwareInstrumentation(threshold=threshold), migration, config
            )
            value = run.throughput / base
            if value > best_value:
                best_value, best_threshold = value, threshold
            if threshold == 1000:
                default_value = value

        controller = DynamicThresholdController(config.profile, grid=grid)
        dynamic_run = simulate(
            spec,
            HardwareInstrumentation(threshold=1000),
            migration,
            config,
            controller=controller,
        )
        outcomes[name] = DynamicThresholdOutcome(
            workload=name,
            dynamic_normalized=dynamic_run.throughput / base,
            best_static_normalized=best_value,
            best_static_threshold=best_threshold,
            default_normalized=default_value,
            final_threshold=controller.threshold,
            adjustments=controller.adjustments,
            threshold_trace=dynamic_run.threshold_trace,
        )
    return DynamicThresholdResult(outcomes=outcomes, migration=migration)
