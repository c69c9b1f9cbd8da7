"""High-level simulation entry points.

:func:`simulate` runs one (workload, policy, migration, config)
combination and returns a :class:`SimulationResult`; :func:`build_engine`
is the engine it runs, for callers that need the engine's state too;
:func:`simulate_baseline` runs the paper's no-off-loading uni-processor
baseline for the same workload and seed, which every normalized number in
the evaluation divides by.  :func:`make_policy` builds any of the paper's
policies by name, including the off-line profiling step SI requires.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional, Tuple

from repro.core.instrumentation import InstrumentationCosts, OfflineProfile
from repro.core.policies import (
    AlwaysOffload,
    DynamicInstrumentation,
    HardwareInstrumentation,
    NeverOffload,
    OffloadPolicy,
    OracleOffload,
    StaticInstrumentation,
)
from repro.core.predictor import RunLengthPredictor
from repro.core.threshold import DynamicThresholdController
from repro.errors import ConfigurationError
from repro.obs.bus import TraceBus
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import SpanProfiler
from repro.offload.engine import MemoryTape, OffloadEngine
from repro.offload.migration import AGGRESSIVE, MigrationModel
from repro.offload.smt import SMTOffloadEngine
from repro.service.latency import LatencyStats
from repro.sim.config import SimulatorConfig
from repro.sim.stats import SimulationStats
from repro.workloads.base import WorkloadSpec


@dataclass
class SimulationResult:
    """Outcome of one simulation run plus identifying metadata.

    ``latency`` carries the open-loop request-latency statistics when
    the run used a service arrival model, ``None`` for closed-loop runs.
    """

    workload: str
    policy: str
    migration: MigrationModel
    config: SimulatorConfig
    stats: SimulationStats
    threshold_trace: List[Tuple[int, int]] = field(default_factory=list)
    latency: Optional[LatencyStats] = None

    @property
    def throughput(self) -> float:
        """Aggregate instructions per wall cycle."""
        return self.stats.throughput

    @property
    def ipc(self) -> float:
        """Alias for throughput; identical for single-threaded runs."""
        return self.stats.throughput

    def normalized_to(self, baseline: "SimulationResult") -> float:
        """Throughput relative to a baseline run (the paper's y-axes)."""
        if baseline.throughput == 0:
            raise ConfigurationError("baseline run has zero throughput")
        return self.throughput / baseline.throughput


def build_engine(
    spec: WorkloadSpec,
    policy: OffloadPolicy,
    migration: MigrationModel = AGGRESSIVE,
    config: Optional[SimulatorConfig] = None,
    controller: Optional[DynamicThresholdController] = None,
    bus: Optional["TraceBus"] = None,
    metrics: Optional["MetricsRegistry"] = None,
    trace_store: Optional[Any] = None,
    profiler: Optional["SpanProfiler"] = None,
    memory_tape: Optional[MemoryTape] = None,
) -> OffloadEngine:
    """The engine :func:`simulate` runs for these arguments.

    Two or more threads per user core select the SMT scheduler
    (:class:`~repro.offload.smt.SMTOffloadEngine`); otherwise the
    single-threaded :class:`~repro.offload.engine.OffloadEngine`.
    """
    if config is None:
        config = SimulatorConfig()
    engine_class = (
        SMTOffloadEngine if config.threads_per_user_core > 1
        else OffloadEngine
    )
    return engine_class(
        spec, policy, migration, config, controller,
        bus=bus, metrics=metrics, trace_store=trace_store, profiler=profiler,
        memory_tape=memory_tape,
    )


def simulate(
    spec: WorkloadSpec,
    policy: OffloadPolicy,
    migration: MigrationModel = AGGRESSIVE,
    config: Optional[SimulatorConfig] = None,
    controller: Optional[DynamicThresholdController] = None,
    bus: Optional["TraceBus"] = None,
    metrics: Optional["MetricsRegistry"] = None,
    trace_store: Optional[Any] = None,
    profiler: Optional["SpanProfiler"] = None,
    memory_tape: Optional[MemoryTape] = None,
) -> SimulationResult:
    """Run one simulation; see the module docstring.

    ``bus`` (a :class:`repro.obs.TraceBus`) and ``metrics`` (a
    :class:`repro.obs.MetricsRegistry`) enable the observability layer;
    both default to off, which costs the hot loop one attribute check.
    ``trace_store`` (a :class:`repro.cache.TraceStore`) lets the engine
    replay materialized workload traces; replay is bit-identical to
    regeneration, so results do not depend on whether a store is given.
    ``profiler`` (a :class:`repro.obs.SpanProfiler`) attributes the
    run's wall-clock to simulation phases; like the bus, it defaults to
    a null object whose hot-loop cost is one attribute check, and it
    never feeds back into simulated time.  ``memory_tape`` (a
    :class:`~repro.offload.engine.MemoryTape`) records the run's memory
    side when empty and replays it when recorded; only runs that
    :func:`~repro.offload.engine.memory_tape_eligible` accepts take one,
    and a replay equals the live run of its latency twin.
    """
    if config is None:
        config = SimulatorConfig()
    engine = build_engine(
        spec, policy, migration, config, controller,
        bus=bus, metrics=metrics, trace_store=trace_store, profiler=profiler,
        memory_tape=memory_tape,
    )
    stats = engine.run()
    return SimulationResult(
        workload=spec.name,
        policy=policy.name,
        migration=migration,
        config=config,
        stats=stats,
        threshold_trace=engine.threshold_trace,
        latency=engine.latency_snapshot(),
    )


def simulate_baseline(
    spec: WorkloadSpec,
    config: Optional[SimulatorConfig] = None,
    trace_store: Optional[Any] = None,
) -> SimulationResult:
    """The paper's baseline: the whole program on a single core."""
    return simulate(
        spec, NeverOffload(), migration=AGGRESSIVE, config=config,
        trace_store=trace_store,
    )


#: The policies whose decisions read the migration model: SI instruments
#: only the routines long enough to repay the one-way latency.  Every
#: other policy decides identically at any latency, so cells that differ
#: only in latency may share one memory simulation (the runner's
#: latency-twin key keeps the latency for these).
READS_MIGRATION = frozenset({"SI"})


def make_policy(
    name: str,
    threshold: int = 1000,
    migration: MigrationModel = AGGRESSIVE,
    spec: Optional[WorkloadSpec] = None,
    config: Optional[SimulatorConfig] = None,
    costs: Optional[InstrumentationCosts] = None,
    predictor: Optional[RunLengthPredictor] = None,
) -> OffloadPolicy:
    """Construct one of the paper's policies by short name.

    ``"SI"`` requires ``spec`` (and optionally ``config``) because static
    instrumentation is built from an off-line profiling run of the
    workload; the profiling uses a seed distinct from evaluation runs.
    """
    key = name.upper()
    if key in ("BASELINE", "NEVER"):
        return NeverOffload()
    if key == "ALWAYS":
        return AlwaysOffload()
    if key == "ORACLE":
        return OracleOffload(threshold=threshold)
    if key == "DI":
        return DynamicInstrumentation(threshold=threshold, costs=costs)
    if key == "HI":
        return HardwareInstrumentation(
            threshold=threshold, predictor=predictor, costs=costs
        )
    if key == "SI":
        if spec is None:
            raise ConfigurationError("SI needs the workload spec for profiling")
        profile = (config or SimulatorConfig()).profile
        offline = OfflineProfile.collect(spec, profile)
        # The prior state of the art hand-instruments a handful of
        # typically-long-running routines (Section II); six matches the
        # sets Chakraborty/Mogul-style implementations describe.
        return StaticInstrumentation(
            offline, migration.one_way_latency, costs=costs, max_instrumented=6
        )
    raise ConfigurationError(
        f"unknown policy {name!r}; expected baseline/always/oracle/SI/DI/HI"
    )
