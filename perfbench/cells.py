"""The benchmark's three workloads over the paper's cells.

Each workload drives the simulator through its public entry points
only (``make_policy``, ``OffloadEngine(...).run()``, ``run_job_grid``
and ``run_latency``).  A *pass* simulates every cell of the workload
once.  Before each pass the workload restores the same starting state:
the runner's per-process baseline memo and trace-store handles are
emptied (forked grid workers inherit them), and the on-disk
``results/`` and ``baselines/`` cache sections are deleted while
``traces/`` stays warm.
"""

from __future__ import annotations

import dataclasses
import os
import shutil
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import repro.runner.worker as runner_worker
import repro.sim.simulator as simulator
from repro.cache.paths import BASELINES_SUBDIR, RESULTS_SUBDIR
from repro.cache.tracestore import TraceStore
from repro.experiments.common import run_job_grid
from repro.experiments.latency import run_latency
from repro.offload.engine import OffloadEngine
from repro.offload.migration import AGGRESSIVE, MigrationModel
from repro.runner import JobSpec
from repro.service.config import ServiceConfig
from repro.sim.config import SimulatorConfig
from repro.workloads.presets import get_workload

#: paper-cells: the three server presets plus the compute group's
#: miss-path code, each at HI/N=100 next to its NeverOffload baseline.
PAPER_WORKLOADS = ("apache", "specjbb2005", "derby", "mcf")
PAPER_THRESHOLD = 100

#: fig4-grid-warm: a Figure 4 slice from "off-load everything" (N=0) to
#: "off-load almost nothing" (N=10000), at free and slow migration.
FIG4_WORKLOADS = ("apache", "specjbb2005")
FIG4_THRESHOLDS = (0, 100, 1000, 10000)
FIG4_LATENCIES = (0, 1000)
FIG4_JOBS = min(2, os.cpu_count() or 1)

#: latency-open-loop: Section V.C's single-OS-core saturation cliff
#: against a 4-core pool, below (0.1) and past (0.3) the cliff.
LATENCY_WORKLOAD = "apache"
LATENCY_LOADS = (0.1, 0.3)
LATENCY_POOLS = (1, 4)
LATENCY_USER_CORES = 2

Stats = Dict[str, float]


@dataclass
class PassResult:
    """One pass over a workload's cells."""

    cells: Dict[str, Stats] = field(default_factory=dict)
    errors: Dict[str, str] = field(default_factory=dict)
    timed_s: float = 0.0
    sim_instructions: int = 0
    cache: Dict[str, int] = field(default_factory=dict)
    retries: int = 0
    #: Host-speed probe seconds around the pass (set by the harness).
    host_s: float = 0.0

    @property
    def attempted(self) -> int:
        return len(self.cells) + len(self.errors)

    @property
    def sim_minstr_per_s(self) -> float:
        return self.sim_instructions / self.timed_s / 1e6


def instruction_budget(config: SimulatorConfig) -> int:
    """Instructions one simulation retires: warm-up plus ROI per user core.

    The engine stops each user core once it has executed its budget
    (off-loaded instructions included, since they run on that core's
    thread), so this is the simulated work of one simulation up to the
    overshoot of the last event.
    """
    profile = config.profile
    per_core = profile.scaled_warmup + profile.scaled_roi
    return per_core * config.num_user_cores


def reset_runner_state(cache_dir: Optional[str] = None) -> None:
    """Forget everything a previous pass left behind except warm traces."""
    runner_worker._BASELINE_MEMO.clear()
    runner_worker._STORES.clear()
    if cache_dir is not None:
        for section in (RESULTS_SUBDIR, BASELINES_SUBDIR):
            shutil.rmtree(os.path.join(cache_dir, section), ignore_errors=True)


def _construct(
    cells: List[Tuple[str, str, int, MigrationModel, SimulatorConfig]],
    trace_store: Optional[TraceStore] = None,
) -> List[OffloadEngine]:
    """``make_policy`` plus the engine constructor for each cell."""
    engines = []
    for workload, policy, threshold, migration, config in cells:
        spec = get_workload(workload)
        built = simulator.make_policy(
            policy, threshold=threshold, migration=migration, spec=spec,
            config=config,
        )
        engines.append(OffloadEngine(
            spec, built, migration, config, trace_store=trace_store
        ))
    return engines


class Workload:
    """A named set of cells; see the module docstring."""

    name = ""

    def __init__(self, config: SimulatorConfig, work_dir: str):
        self.config = config
        self.work_dir = work_dir

    def setup(self) -> float:
        """Prepare the starting state; returns seconds of set-up work."""
        raise NotImplementedError

    def run_pass(self) -> PassResult:
        raise NotImplementedError


class PaperCells(Workload):
    """``repro run``-style single cells with live trace generation."""

    name = "paper-cells"

    def _cells(self) -> List[Tuple[str, str, int, MigrationModel, SimulatorConfig]]:
        return [
            (workload, policy, PAPER_THRESHOLD, AGGRESSIVE, self.config)
            for workload in PAPER_WORKLOADS
            for policy in ("NEVER", "HI")
        ]

    def setup(self) -> float:
        start = time.perf_counter()
        _construct(self._cells())
        return time.perf_counter() - start

    def run_pass(self) -> PassResult:
        result = PassResult()
        cells = self._cells()
        engines = _construct(cells)
        budget = instruction_budget(self.config)
        baseline: Dict[str, float] = {}
        for (workload, policy, *_), engine in zip(cells, engines):
            cell = f"{workload}/{policy}"
            start = time.perf_counter()
            try:
                stats = engine.run()
            except Exception as error:  # a failed cell is counted, not fatal
                result.timed_s += time.perf_counter() - start
                result.errors[cell] = f"{type(error).__name__}: {error}"
                continue
            result.timed_s += time.perf_counter() - start
            result.sim_instructions += budget
            values: Stats = {
                "throughput": stats.throughput,
                "offloads": stats.offload.offloads,
                "os_entries": stats.offload.os_entries,
                "cache_to_cache_transfers": stats.coherence.cache_to_cache_transfers,
                "invalidations": stats.coherence.invalidations,
            }
            if policy == "NEVER":
                baseline[workload] = stats.throughput
            elif workload in baseline:
                values["normalized_throughput"] = (
                    stats.throughput / baseline[workload]
                )
            result.cells[cell] = values
        return result


class Fig4GridWarm(Workload):
    """A Figure 4 slice through the batch runner over a warm trace store."""

    name = "fig4-grid-warm"

    def __init__(self, config: SimulatorConfig, work_dir: str):
        super().__init__(config, work_dir)
        self.cache_dir = os.path.join(work_dir, "cache")
        # Alternate workloads in submission order: the round-robin shards
        # then start each worker on a different workload, so each
        # baseline is simulated exactly once per pass instead of racing
        # on both workers.
        self.specs = [
            JobSpec(workload=workload, policy="HI", threshold=threshold,
                    latency=latency)
            for latency in FIG4_LATENCIES
            for threshold in FIG4_THRESHOLDS
            for workload in FIG4_WORKLOADS
        ]

    def _grid(self):
        return run_job_grid(
            self.specs, self.config, jobs=FIG4_JOBS, cache_dir=self.cache_dir
        )

    def setup(self) -> float:
        """Fill a fresh trace store with one cold pass, then construct."""
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        reset_runner_state()
        start = time.perf_counter()
        self._grid()
        store = TraceStore(self.cache_dir)
        cells = [
            (workload, "NEVER", 0, AGGRESSIVE, self.config)
            for workload in FIG4_WORKLOADS
        ] + [
            (spec.workload, spec.policy, spec.threshold,
             MigrationModel(f"runner-{spec.latency}", spec.latency),
             self.config)
            for spec in self.specs
        ]
        _construct(cells, trace_store=store)
        elapsed = time.perf_counter() - start
        reset_runner_state(self.cache_dir)
        return elapsed

    def run_pass(self) -> PassResult:
        reset_runner_state(self.cache_dir)
        result = PassResult()
        start = time.perf_counter()
        batch = self._grid()
        result.timed_s = time.perf_counter() - start
        result.retries = batch.retries
        budget = instruction_budget(self.config)
        result.sim_instructions = budget * (
            len(self.specs) + len(FIG4_WORKLOADS)
        )
        for job in batch:
            for name, delta in job.cache_counters.items():
                result.cache[name] = result.cache.get(name, 0) + delta
        invalid = ""
        if result.cache.get("trace_misses", 0) or result.cache.get("result_hits", 0):
            invalid = (
                "invalid pass: the timed region must replay every trace "
                f"and simulate every cell, saw {result.cache}"
            )
        for job in batch:
            spec = job.spec
            cell = f"{spec.workload}/N{spec.threshold}/L{spec.latency}"
            if not job.ok:
                result.errors[cell] = job.error or "failed"
            elif invalid:
                result.errors[cell] = invalid
            else:
                metrics = job.metrics
                result.cells[cell] = {
                    key: metrics[key]
                    for key in (
                        "normalized_throughput", "throughput",
                        "baseline_throughput", "offloads", "os_entries",
                        "cache_to_cache_transfers", "invalidations",
                    )
                }
        return result


class LatencyOpenLoop(Workload):
    """``run_latency``: Poisson load x OS-core pool, shortest dispatch."""

    name = "latency-open-loop"

    def __init__(self, config: SimulatorConfig, work_dir: str):
        super().__init__(config, work_dir)
        #: The shared closed-loop baseline's configuration.
        self.baseline = dataclasses.replace(
            config, num_user_cores=LATENCY_USER_CORES
        )

    def _config(self, load: float, pool: int) -> SimulatorConfig:
        service = ServiceConfig(
            arrivals="poisson", mean_interarrival_cycles=1000.0 / load,
            os_cores=pool, dispatch="shortest",
        )
        return dataclasses.replace(self.baseline, service=service)

    def setup(self) -> float:
        cells = [(LATENCY_WORKLOAD, "NEVER", 0, AGGRESSIVE, self.baseline)] + [
            (LATENCY_WORKLOAD, "HI", PAPER_THRESHOLD, AGGRESSIVE,
             self._config(load, pool))
            for pool in LATENCY_POOLS
            for load in LATENCY_LOADS
        ]
        start = time.perf_counter()
        _construct(cells)
        return time.perf_counter() - start

    def run_pass(self) -> PassResult:
        reset_runner_state()
        result = PassResult()
        start = time.perf_counter()
        try:
            sweep = run_latency(
                self.config, workload=LATENCY_WORKLOAD, arrivals="poisson",
                loads=LATENCY_LOADS, os_cores=LATENCY_POOLS,
                dispatch="shortest", policy="HI", threshold=PAPER_THRESHOLD,
                latency=AGGRESSIVE.one_way_latency,
                user_cores=LATENCY_USER_CORES, jobs=1,
            )
        except Exception as error:  # a failed sweep fails all its cells
            result.timed_s = time.perf_counter() - start
            for pool in LATENCY_POOLS:
                for load in LATENCY_LOADS:
                    result.errors[_latency_cell(load, pool)] = (
                        f"{type(error).__name__}: {error}"
                    )
            return result
        result.timed_s = time.perf_counter() - start
        # Four open-loop cells plus the shared closed-loop baseline.
        result.sim_instructions = instruction_budget(self.baseline) * (
            len(sweep.cells) + 1
        )
        for (load, pool), cell in sweep.cells.items():
            result.cells[_latency_cell(load, pool)] = {
                "normalized_throughput": cell.normalized_throughput,
                "requests": cell.requests,
                "drops": cell.drops,
                "p50": cell.p50,
                "p99": cell.p99,
                "p999": cell.p999,
                "mean": cell.mean,
                "max": cell.max,
            }
        return result


def _latency_cell(load: float, pool: int) -> str:
    return f"{LATENCY_WORKLOAD}/r{load:g}/x{pool}"


WORKLOADS: Dict[str, Callable[[SimulatorConfig, str], Workload]] = {
    cls.name: cls for cls in (PaperCells, Fig4GridWarm, LatencyOpenLoop)
}


def sim_summary(cells: Dict[str, Stats]) -> Dict[str, float]:
    """Simulated-clock outputs: mean normalized throughput and latency.

    Latency percentiles exist only for open-loop cells (kilocycles,
    mean over cells); closed-loop workloads report 0.
    """
    normalized = [
        stats["normalized_throughput"]
        for stats in cells.values()
        if "normalized_throughput" in stats
    ]
    open_loop = [stats for stats in cells.values() if "p50" in stats]
    return {
        "sim_norm_ipc": sum(normalized) / len(normalized) if normalized else 0.0,
        "sim_p50_kcycles": (
            sum(stats["p50"] for stats in open_loop) / len(open_loop) / 1e3
            if open_loop else 0.0
        ),
        "sim_p99_kcycles": (
            sum(stats["p99"] for stats in open_loop) / len(open_loop) / 1e3
            if open_loop else 0.0
        ),
    }
