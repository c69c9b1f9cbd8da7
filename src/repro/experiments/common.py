"""Shared infrastructure for the per-table / per-figure experiments.

Every experiment module follows the same pattern: a ``run_*`` function
that executes the simulations and returns a result dataclass, and a
``render()`` on the result that prints the paper-shaped table.  This
module centralises the pieces they share: the workload grouping the
paper reports (three servers plus one averaged compute group), the
default experiment configuration, and :func:`run_job_grid` — the
bridge from experiment grids to the :mod:`repro.runner` batch-execution
subsystem (``jobs`` worker processes, the cache root, metrics).
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.analysis.metrics import arithmetic_mean
from repro.runner import BatchResult, BatchRunner, JobSpec
from repro.sim.config import DEFAULT_SCALE, ScaleProfile, SimulatorConfig
from repro.workloads.base import WorkloadSpec
from repro.workloads.presets import (
    COMPUTE_WORKLOADS,
    SERVER_WORKLOADS,
    get_workload,
)

#: The four x-axis groups of the paper's Figure 4/5: the three servers
#: individually plus the compute codes "represent[ed] ... as a single
#: group".
REPORT_GROUPS: Tuple[str, ...] = SERVER_WORKLOADS + ("compute",)

#: Compute codes used when an experiment wants the full group.
FULL_COMPUTE_GROUP: Tuple[str, ...] = COMPUTE_WORKLOADS

#: Subset used by the expensive design-space sweeps.  Three codes span
#: the group's behaviour range (cache-resident, memory-bound, balanced);
#: experiments that use the subset say so in their output so the
#: truncation is never silent.
COMPUTE_SUBSET: Tuple[str, ...] = ("blackscholes", "mcf", "hmmer")

#: The threshold grid of the paper's Figure 4 sweeps.
THRESHOLD_GRID: Tuple[int, ...] = (0, 100, 500, 1000, 5000, 10000)

#: One-way migration latencies swept in Figure 4.
LATENCY_GRID: Tuple[int, ...] = (0, 100, 500, 1000, 5000)


def default_config(profile: Optional[ScaleProfile] = None, **overrides) -> SimulatorConfig:
    """The configuration experiments run with unless told otherwise."""
    return SimulatorConfig(profile=profile or DEFAULT_SCALE, **overrides)


def group_members(group: str, compute_members: Sequence[str] = COMPUTE_SUBSET) -> List[str]:
    """Workload names behind a report group label."""
    if group == "compute":
        return list(compute_members)
    return [group]


def average_group(values_by_workload: Dict[str, float], members: Sequence[str]) -> float:
    """Arithmetic mean across a group's members (paper averages the
    compute benchmarks arithmetically when reporting them as one bar)."""
    return arithmetic_mean(values_by_workload[name] for name in members)


def specs_for(names: Sequence[str]) -> List[WorkloadSpec]:
    return [get_workload(name) for name in names]


# ----------------------------------------------------------------------
# grid execution through the batch runner
# ----------------------------------------------------------------------

def sweep_specs(
    workloads: Sequence[str],
    thresholds: Sequence[int],
    latencies: Sequence[int],
    policy: str = "HI",
    tag: str = "",
) -> List[JobSpec]:
    """The Figure-4-shaped grid: workload x latency x threshold cells."""
    return [
        JobSpec(workload=name, policy=policy, threshold=threshold,
                latency=latency, tag=tag)
        for name in workloads
        for latency in latencies
        for threshold in thresholds
    ]


def run_job_grid(
    specs: Iterable[JobSpec],
    config: Optional[SimulatorConfig] = None,
    **runner: Any,
) -> BatchResult:
    """Execute a grid of cells through :class:`~repro.runner.BatchRunner`.

    This is the one entry point experiments and the CLI share: cells
    without an explicit seed inherit ``config.seed`` (so a whole grid
    divides by one shared baseline run, matching the paper's
    methodology), and duplicate cells are deduplicated rather than
    re-simulated.  ``runner`` holds :class:`~repro.runner.BatchRunner`'s
    keywords (``jobs``, ``cache_dir``, ``metrics``, ...), passed on
    unchanged; the grid experiments forward theirs the same way.
    """
    config = config or default_config()
    unique: Dict[str, JobSpec] = {}
    for spec in specs:
        unique.setdefault(spec.resolved(config.seed).job_id, spec)
    return BatchRunner(config=config, **runner).run(list(unique.values()))
