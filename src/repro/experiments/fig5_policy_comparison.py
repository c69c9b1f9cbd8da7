"""Figure 5 — static vs. dynamic instrumentation vs. hardware prediction.

The paper's headline comparison: normalized throughput of the three
decision mechanisms at the two anchored migration latencies —
**conservative** (5,000 cycles, unmodified Linux) and **aggressive**
(100 cycles, Brown & Tullsen).  The claims:

- previous proposals left performance on the table by (i) ignoring short
  OS sequences and (ii) paying software instrumentation overheads;
- HI reaches up to **18 %** over the no-off-loading baseline, up to
  **13 %** over SI and up to **23 %** over DI.

Each threshold-driven policy (DI, HI) is evaluated at its best static N
from the Figure 4 grid — the deployment the paper's dynamic-N mechanism
converges to — and SI at its profile-derived static selection.  The
separate dynamic-threshold experiment (A2) evaluates the convergence
itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Sequence, Tuple

from repro.analysis.metrics import arithmetic_mean
from repro.analysis.tables import render_bars
from repro.experiments.common import (
    COMPUTE_SUBSET,
    REPORT_GROUPS,
    default_config,
    group_members,
    run_job_grid,
)
from repro.offload.migration import AGGRESSIVE, CONSERVATIVE, MigrationModel
from repro.runner import BatchResult, JobSpec
from repro.sim.config import SimulatorConfig

POLICIES: Tuple[str, ...] = ("SI", "DI", "HI")

#: Figure 5 lets the threshold-driven policies pick any N, including
#: values above the Figure 4 axis (relevant at the conservative latency,
#: where only the heavyweight fork/exec class amortises migration).
FIG5_THRESHOLDS: Tuple[int, ...] = (0, 100, 500, 1000, 5000, 10000, 15000, 25000)


@dataclass
class Fig5Result:
    """group -> migration name -> policy -> normalized throughput."""

    bars: Dict[str, Dict[str, Dict[str, float]]]
    best_thresholds: Dict[Tuple[str, str, str], int]
    compute_members: Tuple[str, ...]

    def render(self) -> str:
        blocks = []
        for group, by_migration in self.bars.items():
            flat = []
            for migration_name, by_policy in by_migration.items():
                for policy, value in by_policy.items():
                    flat.append((f"{migration_name}/{policy}", value))
            blocks.append(
                render_bars(
                    f"Figure 5 [{group}]: normalized throughput "
                    "(baseline = 1.0)",
                    flat,
                )
            )
        summary = (
            f"HI max over baseline: {self.max_hi_gain():+.1%}  |  "
            f"HI max over SI: {self.max_margin('SI'):+.1%}  |  "
            f"HI max over DI: {self.max_margin('DI'):+.1%}  "
            "(paper: +18% / +13% / +23%)"
        )
        return "\n\n".join(blocks) + "\n" + summary

    def value(self, group: str, migration: str, policy: str) -> float:
        return self.bars[group][migration][policy]

    def max_hi_gain(self) -> float:
        return max(
            by_policy["HI"] - 1.0
            for by_migration in self.bars.values()
            for by_policy in by_migration.values()
        )

    def max_margin(self, rival: str) -> float:
        return max(
            by_policy["HI"] - by_policy[rival]
            for by_migration in self.bars.values()
            for by_policy in by_migration.values()
        )


def _policy_grid(policy_name: str, thresholds: Sequence[int]) -> Sequence[int]:
    """SI has no threshold knob — one cell; DI/HI sweep the full grid."""
    return thresholds if policy_name != "SI" else thresholds[:1]


def _best_over_grid(
    batch: BatchResult,
    name: str,
    policy_name: str,
    migration: MigrationModel,
    root_seed: int,
    thresholds: Sequence[int],
) -> Tuple[float, int]:
    """Best normalized throughput over a policy's threshold grid."""
    best_value, best_threshold = float("-inf"), None
    for threshold in _policy_grid(policy_name, thresholds):
        spec = JobSpec(
            name, policy_name, threshold, migration.one_way_latency,
            tag=migration.name,
        ).resolved(root_seed)
        value = batch.normalized(spec)
        if value > best_value:
            best_value, best_threshold = value, threshold
    return best_value, best_threshold


def run_fig5(
    config: Optional[SimulatorConfig] = None,
    groups: Sequence[str] = REPORT_GROUPS,
    migrations: Sequence[MigrationModel] = (CONSERVATIVE, AGGRESSIVE),
    thresholds: Sequence[int] = FIG5_THRESHOLDS,
    compute_members: Sequence[str] = COMPUTE_SUBSET,
    **runner: Any,
) -> Fig5Result:
    config = config or default_config()
    members = sorted({
        name
        for group in groups
        for name in group_members(group, compute_members)
    })
    specs = [
        JobSpec(name, policy_name, threshold, migration.one_way_latency,
                tag=migration.name)
        for name in members
        for migration in migrations
        for policy_name in POLICIES
        for threshold in _policy_grid(policy_name, thresholds)
    ]
    batch = run_job_grid(specs, config, **runner)
    batch.raise_on_failures()

    bars: Dict[str, Dict[str, Dict[str, float]]] = {}
    best: Dict[Tuple[str, str, str], int] = {}
    for group in groups:
        bars[group] = {}
        for migration in migrations:
            by_policy: Dict[str, float] = {}
            for policy_name in POLICIES:
                values = []
                for name in group_members(group, compute_members):
                    value, threshold = _best_over_grid(
                        batch, name, policy_name, migration, config.seed,
                        thresholds,
                    )
                    values.append(value)
                    best[(name, migration.name, policy_name)] = threshold
                by_policy[policy_name] = arithmetic_mean(values)
            bars[group][migration.name] = by_policy
    return Fig5Result(
        bars=bars, best_thresholds=best, compute_members=tuple(compute_members)
    )
