"""Figure 4 — normalized IPC vs. off-load threshold and migration latency.

The paper's central design-space sweep: for Apache, SPECjbb2005, Derby
and the compute group, plot throughput relative to the uni-processor
baseline with the hardware predictor making decisions, for every static
threshold N ∈ {0 ... 10,000} and one-way migration latency ∈
{0 ... 5,000} cycles.  Three claims hang off this figure:

1. **off-loading latency dominates** — curves are ordered by latency,
   and with an inefficient migration off-loading may never win;
2. **the threshold is critical** — performance peaks at a small N
   (≈100) and *falls* at N=0 because coherence invalidations/transfers
   on user/OS-shared data overwhelm the extra hit-rate relief;
3. **short OS sequences matter** — the optimum being at N≈100 implies a
   decision mechanism cheap enough to run on every entry point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Sequence, Tuple

from repro.analysis.metrics import arithmetic_mean
from repro.analysis.tables import render_series
from repro.experiments.common import (
    COMPUTE_SUBSET,
    LATENCY_GRID,
    REPORT_GROUPS,
    THRESHOLD_GRID,
    default_config,
    group_members,
    run_job_grid,
    sweep_specs,
)
from repro.runner import JobSpec
from repro.sim.config import SimulatorConfig

PanelData = Dict[int, Dict[int, float]]  # latency -> threshold -> normalized IPC


@dataclass
class Fig4Result:
    """One panel per report group: latency x threshold -> normalized IPC."""

    panels: Dict[str, PanelData]
    thresholds: Tuple[int, ...]
    latencies: Tuple[int, ...]
    compute_members: Tuple[str, ...]

    def render(self) -> str:
        blocks = []
        for group, panel in self.panels.items():
            series = {
                f"lat={latency}": [panel[latency][n] for n in self.thresholds]
                for latency in self.latencies
            }
            title = f"Figure 4 [{group}]: normalized IPC vs. threshold N"
            if group == "compute":
                title += f" (mean of {', '.join(self.compute_members)})"
            blocks.append(
                render_series(title, "latency\\N", self.thresholds, series)
            )
        return "\n\n".join(blocks)

    # -- shape probes used by integration tests and EXPERIMENTS.md -----

    def best_threshold(self, group: str, latency: int) -> int:
        panel = self.panels[group][latency]
        return max(panel, key=lambda n: panel[n])

    def value(self, group: str, latency: int, threshold: int) -> float:
        return self.panels[group][latency][threshold]

    def latency_dominance_holds(self, group: str, threshold: int = 100) -> bool:
        """Lowest-latency curve at or above the highest-latency curve."""
        lo, hi = min(self.latencies), max(self.latencies)
        return self.value(group, lo, threshold) >= self.value(group, hi, threshold)

    def n0_dip(self, group: str, latency: int = 0) -> float:
        """How much N=0 loses to N=100 (positive = the paper's dip)."""
        return self.value(group, latency, 100) - self.value(group, latency, 0)


def run_fig4(
    config: Optional[SimulatorConfig] = None,
    groups: Sequence[str] = REPORT_GROUPS,
    thresholds: Sequence[int] = THRESHOLD_GRID,
    latencies: Sequence[int] = LATENCY_GRID,
    compute_members: Sequence[str] = COMPUTE_SUBSET,
    **runner: Any,
) -> Fig4Result:
    """Run the full design-space sweep.

    The compute group uses ``compute_members`` (default: a documented
    3-code subset spanning the group's behaviour range) — the render
    titles state exactly which codes were averaged.

    The sweep executes as one batch through :func:`run_job_grid`, which
    passes ``runner`` (``jobs``, ``cache_dir``, ...) on to
    :class:`~repro.runner.BatchRunner`.  Cell results are independent of
    ``jobs``, so a parallel regeneration is bit-identical to a serial
    one.
    """
    config = config or default_config()
    members_by_group = {
        group: group_members(group, compute_members) for group in groups
    }
    all_members = sorted({m for ms in members_by_group.values() for m in ms})
    batch = run_job_grid(
        sweep_specs(all_members, thresholds, latencies, policy="HI"),
        config,
        **runner,
    )
    batch.raise_on_failures()

    def cell(name: str, latency: int, threshold: int) -> float:
        spec = JobSpec(name, "HI", threshold, latency).resolved(config.seed)
        return batch.normalized(spec)

    panels: Dict[str, PanelData] = {}
    for group, members in members_by_group.items():
        panels[group] = {
            latency: {
                threshold: arithmetic_mean(
                    cell(name, latency, threshold) for name in members
                )
                for threshold in thresholds
            }
            for latency in latencies
        }
    return Fig4Result(
        panels=panels,
        thresholds=tuple(thresholds),
        latencies=tuple(latencies),
        compute_members=tuple(compute_members),
    )
