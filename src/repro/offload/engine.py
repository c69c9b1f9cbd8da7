"""The off-loading execution engine.

Drives one workload trace through the policy + migration + memory stack
and produces a :class:`~repro.sim.stats.SimulationStats`.  The engine
owns the simulation's *fairness discipline*: the trace generator's random
streams are consumed in an order independent of policy decisions (events
are generated, and each invocation's reference stream drawn, before the
off-load decision takes effect), so runs that differ only in policy or
migration latency replay identical workloads.

Topology: ``num_user_cores`` user cores plus one dedicated OS core, each
with private L1/L2, all coherent through one directory.  The paper's
baseline (everything on one core) is the :class:`NeverOffload` policy —
the OS core then sits idle and its untouched caches cannot influence the
user core, faithfully reducing the system to a uni-processor with a
single L2.

With several user cores (Section V.C) the engine interleaves cores by
local time and serialises their off-load requests through the
:class:`~repro.offload.oscore.OsCorePool`, which is the only channel by
which user cores interact (their working sets are disjoint by
construction, as separate workload threads).

Every event, single-threaded or SMT, runs through
:meth:`OffloadEngine._run_user_segment` and
:meth:`OffloadEngine._run_invocation`.  The SMT scheduler
(:mod:`repro.offload.smt`) overrides only two decisions of the off-load
step: when a request reaches the pool (:meth:`_arrival_time`) and who
blocks until it returns (:meth:`_wait_for_offload`).

Latency twins share one memory simulation.  In a run that
:func:`memory_tape_eligible` accepts, the migration latency moves only
the clocks: events, decisions and every reference stream reach the same
caches in the same order.  Such a run can record its memory side as a
:class:`MemoryTape` (each :meth:`OffloadEngine._replay_refs` stall plus
the memory counters it ends with), and a run that differs only in
migration latency replays the tape instead of driving the hierarchy.
Events, policy, OS-core pool, branch models and clocks still run live.
"""

from __future__ import annotations

import dataclasses
import logging
from array import array
from typing import Any, Iterator, List, Optional, Tuple

import numpy as np

from repro.core.astate import astate_hash
from repro.core.policies import OffloadPolicy
from repro.core.threshold import DynamicThresholdController
from repro.cpu.branch import BranchInterferenceModel
from repro.cpu.core import InOrderCore
from repro.cpu.tlb import TranslationBuffer
from repro.errors import ConfigurationError, SimulationError
from repro.memory.hierarchy import MemoryHierarchy
from repro.obs.bus import NULL_BUS, TraceBus
from repro.obs.events import (
    PHASE_ROI,
    PHASE_WARMUP,
    DecisionEvent,
    MigrationEvent,
    QueueEvent,
    RequestEvent,
)
from repro.obs import names
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import NULL_PROFILER, SpanProfiler
from repro.offload.migration import MigrationModel
from repro.offload.oscore import OsCorePool
from repro.service.arrivals import ArrivalSchedule
from repro.service.config import ServiceConfig
from repro.service.latency import LatencyAccumulator, LatencyStats
from repro.sim.config import SimulatorConfig
from repro.sim.stats import CoreStats, SimulationStats
from repro.workloads.base import OSInvocation, UserSegment, WorkloadSpec
from repro.workloads.generator import (
    TraceEvent,
    TraceGenerator,
    priming_invocations,
)

logger = logging.getLogger(__name__)

USER_MODE = 0
OS_MODE = 1

#: Fixed histogram boundaries (cycles) for OS-core queue delays; chosen
#: to straddle the paper's Section V.C landmarks (1,348-cycle average at
#: two user cores, >25,000 at four).
QUEUE_DELAY_BUCKETS = (0, 50, 100, 250, 500, 1000, 2500, 5000, 25000, 100000)

#: Fixed histogram boundaries (instructions) for OS invocation lengths;
#: aligned with the paper's Figure 4 threshold grid.
RUN_LENGTH_BUCKETS = (10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000, 50000)

#: Fixed histogram boundaries (cycles) for end-to-end request latency in
#: open-loop service mode; spans sub-queue-delay requests up to the
#: saturation-cliff tail.
LATENCY_BUCKETS = (
    100, 250, 500, 1000, 2500, 5000, 10000, 25000, 100000, 1000000,
)

#: One event's drawn reference streams: data lines, their write flags,
#: and the instruction-fetch lines (``None`` without L1I modelling).
_Refs = Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]


def _ref_count(refs: _Refs) -> int:
    """References in one event's streams: what a tape checks per call."""
    lines, _, code_lines = refs
    return len(lines) + (len(code_lines) if code_lines is not None else 0)


def memory_tape_eligible(
    config: SimulatorConfig,
    controller: Optional[DynamicThresholdController] = None,
) -> bool:
    """Whether a run's memory side is independent of its clocks.

    Only then may a latency twin replay its :class:`MemoryTape`.  Each
    condition rules out one way time reaches the memory side:

    - one user core: the multi-core interleave picks cores by clock;
    - one thread per user core: the SMT scheduler switches on blocked
      time;
    - the default (closed-loop) service: arrivals and admission read
      clocks;
    - no dynamic-N controller: it reads hierarchy counters mid-run.
    """
    return (
        config.num_user_cores == 1
        and config.threads_per_user_core == 1
        and config.service == ServiceConfig()
        and controller is None
    )


class MemoryTape:
    """The memory side of one run, recorded once, replayed by its twins.

    ``calls`` holds one ``(node id, reference count, stall sum)`` triple
    per :meth:`OffloadEngine._replay_refs` call, in call order;
    ``counters`` holds the memory counters the run ended with, in
    :meth:`OffloadEngine._memory_counters` order, and stays ``None``
    until the recording run finishes.  A replay only reads the tape, so
    one tape serves any number of twins.
    """

    __slots__ = ("calls", "counters")

    def __init__(self) -> None:
        self.calls = array("q")
        self.counters: Optional[Tuple[int, ...]] = None

    @property
    def recorded(self) -> bool:
        """Whether a run has finished recording this tape."""
        return self.counters is not None

    @property
    def nbytes(self) -> int:
        """Approximate in-memory size, for the tape cache's bound."""
        return self.calls.itemsize * len(self.calls) + 8 * len(
            self.counters or ()
        )


class _CoreContext:
    """Per-user-core simulation state.

    ``thread_id`` and ``generator`` belong to the hardware thread running
    on the core: fixed on a single-threaded core, rebound by the SMT
    scheduler at every step.
    """

    __slots__ = (
        "index",
        "node_id",
        "core",
        "thread_id",
        "generator",
        "events",
        "branch",
        "tlb",
        "executed",
        "done",
    )

    def __init__(
        self,
        index: int,
        node_id: int,
        core: InOrderCore,
        generator: TraceGenerator,
        events: Iterator[TraceEvent],
        branch: Optional[BranchInterferenceModel],
        tlb: Optional[TranslationBuffer],
    ):
        self.index = index
        self.node_id = node_id
        self.core = core
        self.thread_id = index
        self.generator = generator
        self.events = events
        self.branch = branch
        self.tlb = tlb
        self.executed = 0
        self.done = False


class OffloadEngine:
    """Executes one (workload, policy, migration, config) combination."""

    def __init__(
        self,
        spec: WorkloadSpec,
        policy: OffloadPolicy,
        migration: MigrationModel,
        config: SimulatorConfig,
        controller: Optional[DynamicThresholdController] = None,
        bus: Optional[TraceBus] = None,
        metrics: Optional[MetricsRegistry] = None,
        trace_store: Optional[Any] = None,
        profiler: Optional[SpanProfiler] = None,
        memory_tape: Optional[MemoryTape] = None,
    ):
        if memory_tape is not None and not memory_tape_eligible(
            config, controller
        ):
            raise ConfigurationError(
                "a memory tape needs a closed-loop run on one single-threaded "
                "user core without a dynamic-N controller"
            )
        self.spec = spec
        self.policy = policy
        self.migration = migration
        self.config = config
        self.controller = controller
        # A recorded tape is replayed; an empty one records this run.
        self._replay_tape: Optional[MemoryTape] = None
        self._record_tape: Optional[MemoryTape] = None
        if memory_tape is not None and memory_tape.recorded:
            self._replay_tape = memory_tape
        else:
            self._record_tape = memory_tape
        self._tape_position = 0
        # Duck-typed repro.cache.TraceStore (or None): the engine only
        # asks it for trace sources, priming events and primed policy
        # states, so it stays ignorant of cache keys and storage.
        self._trace_store = trace_store
        self.bus = bus if bus is not None else NULL_BUS
        self.metrics = metrics
        self.profiler = profiler if profiler is not None else NULL_PROFILER
        # Generation time is attributed to replay vs. regeneration by
        # store presence, fixed at construction.
        self._gen_span = (
            names.SPAN_GEN_REPLAY if trace_store is not None
            else names.SPAN_GEN_GENERATE
        )
        if controller is not None and controller.bus is NULL_BUS:
            controller.bus = self.bus
        # Confidence introspection for decision events: present on the
        # HI policy's run-length predictor, absent elsewhere.
        self._confidence_of = getattr(
            getattr(policy, "predictor", None), "confidence_for", None
        )
        self._phase_label = PHASE_WARMUP
        self._open_loop = config.service.open_loop
        if metrics is not None:
            self._queue_hist = metrics.histogram(
                names.QUEUE_DELAY_CYCLES, QUEUE_DELAY_BUCKETS,
                help="OS-core queue delay per off-loaded invocation",
                exist_ok=True,
            )
            self._length_hist = metrics.histogram(
                names.OS_INVOCATION_LENGTH_INSTRUCTIONS, RUN_LENGTH_BUCKETS,
                help="Actual run length per decided OS invocation",
                exist_ok=True,
            )
        else:
            self._queue_hist = None
            self._length_hist = None
        if metrics is not None and self._open_loop:
            self._latency_hist = metrics.histogram(
                names.REPRO_SERVICE_LATENCY_CYCLES, LATENCY_BUCKETS,
                help="End-to-end request latency per decided OS entry",
                exist_ok=True,
            )
        else:
            self._latency_hist = None

        n_user = config.num_user_cores
        labels = [f"user{i}" for i in range(n_user)] + ["os"]
        self.stats = SimulationStats(cores=[CoreStats() for _ in range(n_user)])
        energy = self.stats.energy if config.track_energy else None
        self.hierarchy = MemoryHierarchy(
            config.effective_memory(), labels, self.stats.coherence, energy,
            with_icache=config.enable_icache,
        )
        self.stats.l1 = self.hierarchy.l1_stats
        self.stats.l1i = self.hierarchy.l1i_stats
        self.stats.l2 = self.hierarchy.l2_stats
        self.os_node_id = n_user
        service = config.service
        self.oscore = OsCorePool(
            self.stats.offload,
            cores=service.os_cores,
            contexts=config.os_core_contexts,
            dispatch=service.dispatch,
            admission=service.admission,
            admission_backlog_cycles=service.admission_backlog_cycles,
        )
        self._admission_enabled = service.admission != "none"
        # Open-loop service mode: a per-thread arrival schedule gates
        # when decided OS entries may begin, and a latency accumulator
        # collects the queue/migration/execution decomposition of every
        # request.  Arrivals are timed on each core's absolute clock,
        # which the warm-up counter reset leaves alone.
        if self._open_loop:
            self.arrivals: Optional[ArrivalSchedule] = ArrivalSchedule(
                service, seed=config.seed, threads=n_user
            )
            self.latency: Optional[LatencyAccumulator] = LatencyAccumulator()
        else:
            self.arrivals = None
            self.latency = None
        self.os_branch = BranchInterferenceModel() if config.enable_branch_model else None
        self.os_tlb = (
            TranslationBuffer(config.core.tlb_entries) if config.enable_tlb else None
        )

        # Let the run's predictor statistics surface in the run's stats.
        predictor = getattr(policy, "predictor", None)
        if predictor is not None:
            self.stats.predictor = predictor.stats

        budget_per_core = config.profile.scaled_warmup + config.profile.scaled_roi
        # Generate with slack; phase accounting stops the run.
        self._slack_budget = budget_per_core * 2 + 1
        self.contexts: List[_CoreContext] = []
        for index in range(n_user):
            generator, events = self._core_trace(index)
            core = InOrderCore(config.core, self.stats.cores[index])
            self.contexts.append(
                _CoreContext(
                    index=index,
                    node_id=index,
                    core=core,
                    generator=generator,
                    events=events,
                    branch=BranchInterferenceModel() if config.enable_branch_model else None,
                    tlb=TranslationBuffer(config.core.tlb_entries) if config.enable_tlb else None,
                )
            )
        self.threshold_trace: List[Tuple[int, int]] = []
        self._epoch_executed = 0
        self._epoch_l2_snapshot = (0, 0)
        self._epoch_settled_snapshot: Optional[Tuple[int, int]] = None

    def _core_trace(self, index: int) -> Tuple[Any, Iterator[TraceEvent]]:
        """The trace source user core ``index`` starts on, and its events."""
        generator = self._trace_source(index)
        return generator, generator.events(self._slack_budget)

    def _trace_source(self, thread_id: int) -> Any:
        """One hardware thread's trace: replayed from the store, or live."""
        if self._trace_store is not None:
            return self._trace_store.trace_source(
                self.spec, self.config, thread_id, self._slack_budget
            )
        return TraceGenerator(
            self.spec, self.config.profile, seed=self.config.seed,
            thread_id=thread_id,
        )

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def run(self) -> SimulationStats:
        """Prime, warm up, then simulate the region of interest."""
        profile = self.config.profile
        logger.debug(
            "run start: workload=%s policy=%s latency=%d cores=%d",
            self.spec.name, self.policy.name,
            self.migration.one_way_latency, self.config.num_user_cores,
        )
        with self.profiler.span(names.SPAN_SIM_PRIME):
            self._prime_policy()
        self._phase_label = PHASE_WARMUP
        with self.profiler.span(names.SPAN_SIM_WARMUP):
            warm_instructions, warm_os = self._run_phase(
                profile.scaled_warmup, epochs=False
            )
        self.stats.reset_counters()
        if self.latency is not None:
            self.latency.reset()
        self._phase_label = PHASE_ROI
        if self.controller is not None:
            priv_fraction = warm_os / warm_instructions if warm_instructions else 0.0
            self.controller.begin(priv_fraction)
            self._apply_threshold()
            self._snapshot_epoch()
        with self.profiler.span(names.SPAN_SIM_ROI):
            self._run_phase(profile.scaled_roi, epochs=self.controller is not None)
        self._close_tape()
        self.stats.energy.core_cycles = (
            sum(c.busy_cycles for c in self.stats.cores)
            + self.stats.os_core.busy_cycles
        )
        self._publish_metrics()
        logger.debug(
            "run done: throughput=%.4f offloads=%d/%d",
            self.stats.throughput, self.stats.offload.offloads,
            self.stats.offload.os_entries,
        )
        return self.stats

    # ------------------------------------------------------------------
    # phase machinery
    # ------------------------------------------------------------------

    def _prime_policy(self) -> None:
        """Train learning policies on an invocation stream before timing.

        Stands in for the bulk of the paper's 50 M-instruction warm-up:
        the predictor (HI) and the software shim's history (DI) reach
        steady state without paying for memory simulation.  A dedicated
        generator seed keeps the timed trace untouched.  Policies that
        learn nothing (``policy.learns`` false) skip the pass: their
        decisions do not depend on history.  The stream, replayed or
        live, is :func:`~repro.workloads.generator.priming_invocations`.

        With a trace store, an untrained policy that has a
        :meth:`~repro.core.policies.OffloadPolicy.learning_shape` is
        primed once per priming stream and shape: the first run primes
        live and leaves a snapshot in the store, later runs load it
        without reading the stream.  The load leaves the policy's stats
        untouched; the warm-up reset zeroes the live pass's counts too.
        """
        config = self.config
        policy = self.policy
        if config.policy_priming_invocations <= 0 or not policy.learns:
            return
        store = self._trace_store
        shape = policy.learning_shape() if store is not None else None
        if shape is not None:
            primed = store.primed_state(self.spec, config, shape)
            if primed is not None:
                policy.load(primed)
                return
        if store is not None:
            stream: Iterator[OSInvocation] = store.priming_events(
                self.spec, config
            )
        else:
            stream = priming_invocations(
                self.spec, config.profile, config.seed,
                config.policy_priming_invocations, config.include_window_traps,
            )
        for invocation in stream:
            policy.observe(invocation, policy.decide(invocation))
        if shape is not None:
            store.keep_primed_state(self.spec, config, shape, policy.snapshot())

    def _run_phase(self, budget: int, epochs: bool) -> Tuple[int, int]:
        """Interleave cores until each has executed ``budget`` instructions.

        Returns ``(total_instructions, os_instructions)`` executed in the
        phase across all cores.
        """
        if budget <= 0:
            return 0, 0
        total = 0
        os_total = 0
        for ctx in self.contexts:
            ctx.executed = 0
            ctx.done = False
        active = [ctx for ctx in self.contexts]
        while active:
            ctx = min(active, key=lambda c: c.core.now)
            event = next(ctx.events, None)
            if event is None:
                raise SimulationError(
                    "trace generator exhausted before the phase budget; "
                    "increase the generation slack"
                )
            executed = self._execute(ctx, event)
            ctx.executed += executed
            total += executed
            if isinstance(event, OSInvocation):
                os_total += event.length
            if epochs:
                self._epoch_executed += executed
                self._maybe_end_epoch()
            if ctx.executed >= budget:
                ctx.done = True
                active = [c for c in self.contexts if not c.done]
        return total, os_total

    def _execute(self, ctx: _CoreContext, event: TraceEvent) -> int:
        if isinstance(event, UserSegment):
            self._run_user_segment(ctx, event)
            return event.instructions
        self._run_invocation(ctx, event)
        return event.length

    # ------------------------------------------------------------------
    # event execution
    # ------------------------------------------------------------------

    def _draw(self, ctx: _CoreContext, event: TraceEvent) -> _Refs:
        """Draw one event's reference streams from the running thread."""
        prof = self.profiler
        t0 = prof.t() if prof.enabled else 0
        generator = ctx.generator
        icache = self.config.enable_icache
        if isinstance(event, UserSegment):
            lines, writes = generator.user_accesses(event.instructions)
            code_lines = (
                generator.user_code_accesses(event.instructions)
                if icache else None
            )
        else:
            lines, writes = generator.os_accesses(event)
            code_lines = generator.os_code_accesses(event) if icache else None
        if prof.enabled:
            prof.add_ns(self._gen_span, prof.t() - t0)
        return lines, writes, code_lines

    def _replay_refs(
        self, node_id: int, refs: _Refs, tlb: Optional[TranslationBuffer]
    ) -> int:
        """Replay drawn streams through one node's caches; sum the stalls.

        The TLB translates the data stream after the hierarchy has
        replayed it instead of reference by reference, which is
        unobservable: the two structures share no state and nothing
        reads counters mid-event.  With a memory tape the call is
        recorded, or answered from the tape without touching the
        hierarchy or the TLBs; either way it is charged to
        ``sim.mem.batched`` once, as a live call is.
        """
        prof = self.profiler
        t0 = prof.t() if prof.enabled else 0
        replay = self._replay_tape
        if replay is not None:
            stalls = self._stall_from_tape(replay, node_id, _ref_count(refs))
        else:
            lines, writes, code_lines = refs
            stalls = self.hierarchy.access_batch(node_id, lines, writes)
            if tlb is not None:
                stalls += tlb.access_batch(lines)
            if code_lines is not None:
                stalls += self.hierarchy.access_code_batch(node_id, code_lines)
            record = self._record_tape
            if record is not None:
                record.calls.extend((node_id, _ref_count(refs), stalls))
        if prof.enabled:
            prof.add_ns(names.SPAN_MEM_BATCHED, prof.t() - t0)
        return stalls

    def _stall_from_tape(self, tape: MemoryTape, node_id: int, count: int) -> int:
        """The recorded stall of the next call, checked against the call."""
        position = self._tape_position
        calls = tape.calls
        if (
            position + 3 > len(calls)
            or calls[position] != node_id
            or calls[position + 1] != count
        ):
            recorded = tuple(calls[position:position + 2]) or "nothing"
            raise SimulationError(
                f"memory tape mismatch at call {position // 3}: node "
                f"{node_id} with {count} references, tape has {recorded}"
            )
        self._tape_position = position + 3
        return calls[position + 2]

    def _memory_counters(self) -> List[Tuple[Any, str]]:
        """Every counter the memory side of a run bumps, in a fixed order.

        These are what a :class:`MemoryTape` carries from its recording
        run to its replays: the L1/L1I/L2 and coherence counters (every
        field, so a counter added there is carried too), the energy
        model's memory accesses, DRAM traffic and the TLBs' hits and
        misses.  A memory counter kept anywhere else must be added here.
        """
        stats = self.stats
        owners = [
            *stats.l1.values(), *stats.l1i.values(), *stats.l2.values(),
            stats.coherence,
        ]
        pairs = [
            (owner, field.name)
            for owner in owners
            for field in dataclasses.fields(owner)
        ]
        pairs += [
            (stats.energy, name)
            for name in ("l1_accesses", "l2_accesses", "dram_accesses")
        ]
        dram = self.hierarchy.dram
        pairs += [(dram, "fetches"), (dram, "writebacks")]
        for tlb in [ctx.tlb for ctx in self.contexts] + [self.os_tlb]:
            if tlb is not None:
                pairs += [(tlb, "hits"), (tlb, "misses")]
        return pairs

    def _close_tape(self) -> None:
        """End of run: finish recording the tape, or check that the
        replay used all of it and set the counters it recorded."""
        record, replay = self._record_tape, self._replay_tape
        if record is not None:
            record.counters = tuple(
                getattr(owner, name) for owner, name in self._memory_counters()
            )
        if replay is None or replay.counters is None:
            return
        left = len(replay.calls) - self._tape_position
        if left:
            raise SimulationError(
                f"memory tape has {left // 3} calls left over after the run"
            )
        counters = self._memory_counters()
        if len(replay.counters) != len(counters):
            raise SimulationError(
                f"memory tape holds {len(replay.counters)} counters, the run "
                f"has {len(counters)}"
            )
        for (owner, name), value in zip(counters, replay.counters):
            setattr(owner, name, value)

    def _retire_local(
        self, ctx: _CoreContext, refs: _Refs, instructions: int, mode: int
    ) -> None:
        """Execute drawn streams on the requesting core and retire them."""
        stalls = self._replay_refs(ctx.node_id, refs, ctx.tlb)
        if ctx.branch is not None:
            stalls += ctx.branch.execute(instructions, mode)
        ctx.core.retire(instructions, stalls)

    def _run_user_segment(self, ctx: _CoreContext, segment: UserSegment) -> None:
        self._retire_local(
            ctx, self._draw(ctx, segment), segment.instructions, USER_MODE
        )

    def _arrival_time(self, ctx: _CoreContext) -> int:
        """When an off-load from ``ctx`` reaches the OS-core pool.

        Open-loop runs use the absolute clock, so arrivals and the pool's
        horizons share one clock.  Closed-loop runs keep the legacy local
        time, which the warm-up counter reset restarts while the pool's
        horizons persist: the first region-of-interest off-load therefore
        waits out the horizon the warm-up left behind.
        """
        return ctx.core.clock if self._open_loop else ctx.core.now

    def _wait_for_offload(
        self,
        ctx: _CoreContext,
        arrival: int,
        finish: int,
        queue_delay: int,
        migration_cycles: int,
    ) -> None:
        """Block until the off-load that reached the pool at ``arrival``
        returns at ``finish``: a single-threaded core waits it out."""
        ctx.core.wait_for_offload(
            finish - arrival,
            queue_cycles=queue_delay,
            migration_cycles=migration_cycles,
        )

    def _run_invocation(self, ctx: _CoreContext, invocation: OSInvocation) -> None:
        prof = self.profiler
        offload_stats = self.stats.offload
        offload_stats.os_instructions += invocation.length
        if invocation.is_window_trap and not self.config.include_window_traps:
            # The paper's graphs treat register-window traps the way an
            # x86-style ISA would: in-place privileged work, never an
            # off-load candidate (Section IV).
            self._retire_local(
                ctx, self._draw(ctx, invocation), invocation.length, OS_MODE
            )
            return
        offload_stats.os_entries += 1
        core = ctx.core
        # Open-loop gating: the decided OS entry is a service request
        # that may not begin before its scheduled arrival.  An early
        # core idles until the arrival; a late core has a backlog — the
        # time the request already spent waiting for the core — which
        # counts toward its queueing latency.
        backlog = 0
        request_arrival = 0
        queue_before = migration_before = started_at = 0
        if self.latency is not None:
            request_arrival = self.arrivals.next_arrival(ctx.thread_id)
            if request_arrival > core.clock:
                core.idle(request_arrival - core.clock)
            else:
                backlog = core.clock - request_arrival
            queue_before = core.stats.queue_cycles
            migration_before = core.stats.migration_cycles
            started_at = core.clock
        t0 = prof.t() if prof.enabled else 0
        decision = self.policy.decide(invocation)
        if prof.enabled:
            prof.add_ns(names.SPAN_POLICY_DECIDE, prof.t() - t0)
        if decision.overhead_cycles:
            core.pay_decision(decision.overhead_cycles)
        # The reference streams are drawn before the decision takes
        # effect so RNG consumption is identical across policies.
        refs = self._draw(ctx, invocation)

        # Admission control (open-loop pools): a rejected invocation
        # retires on the requesting core instead.  Drawing and replaying
        # the streams never advances core time, so the probe sees the
        # same arrival instant ``serve`` does.
        arrival = self._arrival_time(ctx)
        do_offload = decision.offload
        if do_offload and self._admission_enabled:
            if not self.oscore.admit(arrival, thread=ctx.thread_id):
                offload_stats.admission_drops += 1
                do_offload = False
        migration_cycles = 0
        if do_offload:
            offload_stats.offloads += 1
            offload_stats.offloaded_instructions += invocation.length
            one_way = self.migration.one_way_latency
            stalls = self._replay_refs(self.os_node_id, refs, self.os_tlb)
            if self.os_branch is not None:
                stalls += self.os_branch.execute(invocation.length, OS_MODE)
            # The OS core is occupied for the migration-in window too: it
            # is interrupted, saves its state, and reads the migrating
            # thread's architected state (Section II) — so its service
            # window is receive + execute, and that is also what queued
            # requests wait behind.
            service = (
                one_way
                + int(invocation.length * self.config.core.base_cpi)
                + stalls
            )
            t0 = prof.t() if prof.enabled else 0
            start, queue_delay = self.oscore.serve(
                arrival, service, thread=ctx.thread_id
            )
            if prof.enabled:
                prof.add_ns(names.SPAN_QUEUE, prof.t() - t0)
            self.stats.os_core.instructions += invocation.length
            self.stats.os_core.busy_cycles += service
            migration_cycles = 2 * one_way
            self._wait_for_offload(
                ctx, arrival, start + service + one_way, queue_delay,
                migration_cycles,
            )
            if self.bus.enabled:
                self.bus.emit(MigrationEvent(
                    core=ctx.index, phase=self._phase_label,
                    vector=invocation.vector, length=invocation.length,
                    one_way_latency=one_way, service_cycles=service,
                ))
                self.bus.emit(QueueEvent(
                    core=ctx.index, phase=self._phase_label,
                    arrival=arrival, start=start, queue_delay=queue_delay,
                    service_cycles=service,
                ))
            if self._queue_hist is not None:
                self._queue_hist.observe(queue_delay)
        else:
            self._retire_local(ctx, refs, invocation.length, OS_MODE)
        if self.latency is not None:
            queue = backlog + (core.stats.queue_cycles - queue_before)
            migration = core.stats.migration_cycles - migration_before
            total = backlog + (core.clock - started_at)
            execution = total - queue - migration
            total = self.latency.record(queue, migration, execution)
            if self._latency_hist is not None:
                self._latency_hist.observe(total)
            if self.bus.enabled:
                self.bus.emit(RequestEvent(
                    core=ctx.index, phase=self._phase_label,
                    arrival=request_arrival,
                    queue_cycles=queue, migration_cycles=migration,
                    execution_cycles=execution, total_cycles=total,
                    offloaded=do_offload,
                ))
        # Emit before observe() so the recorded confidence is the one
        # that backed this decision, not the post-training value.
        if self.bus.enabled:
            self._emit_decision(ctx.index, invocation, decision, migration_cycles)
        if self._length_hist is not None:
            self._length_hist.observe(invocation.length)
        t0 = prof.t() if prof.enabled else 0
        self.policy.observe(invocation, decision)
        if prof.enabled:
            prof.add_ns(names.SPAN_POLICY_DECIDE, prof.t() - t0)

    def _emit_decision(
        self,
        core_index: int,
        invocation: OSInvocation,
        decision,
        migration_cycles: int,
    ) -> None:
        """Build and emit one :class:`DecisionEvent` (bus already enabled)."""
        confidence = (
            self._confidence_of(invocation.astate)
            if self._confidence_of is not None
            else -1
        )
        self.bus.emit(DecisionEvent(
            core=core_index,
            phase=self._phase_label,
            vector=invocation.vector,
            name=invocation.name,
            astate=astate_hash(invocation.astate),
            predicted=decision.predicted_length,
            actual=invocation.length,
            confidence=confidence,
            threshold=self.policy.threshold,
            offload=decision.offload,
            overhead_cycles=decision.overhead_cycles,
            migration_cycles=migration_cycles,
        ))

    def _publish_metrics(self) -> None:
        """Fold the run's end-of-run counters into the metrics registry.

        Counters accumulate across runs sharing one registry (sweeps);
        gauges reflect the most recent run.
        """
        registry = self.metrics
        if registry is None:
            return
        stats = self.stats

        def add(name: str, amount: int, help: str) -> None:
            registry.counter(name, help, exist_ok=True).inc(amount)

        def set_gauge(name: str, value: float, help: str) -> None:
            registry.gauge(name, help, exist_ok=True).set(value)

        offload = stats.offload
        add(names.OS_ENTRIES_TOTAL, offload.os_entries,
            "Decided OS entries in the region of interest")
        add(names.OFFLOADS_TOTAL, offload.offloads,
            "OS entries off-loaded to the OS core")
        add(names.OS_INSTRUCTIONS_TOTAL, offload.os_instructions,
            "Privileged instructions simulated")
        add(names.OFFLOADED_INSTRUCTIONS_TOTAL,
            offload.offloaded_instructions,
            "Privileged instructions executed on the OS core")
        add(names.INSTRUCTIONS_TOTAL, stats.total_instructions,
            "Instructions retired across all cores")
        add(names.PREDICTOR_PREDICTIONS_TOTAL, stats.predictor.predictions,
            "Run-length predictions issued")
        add(names.PREDICTOR_GLOBAL_FALLBACKS_TOTAL,
            stats.predictor.global_fallbacks,
            "Predictions served by the global fallback")
        add(names.COHERENCE_C2C_TRANSFERS_TOTAL,
            stats.coherence.cache_to_cache_transfers,
            "Cache-to-cache transfers")
        add(names.COHERENCE_INVALIDATIONS_TOTAL,
            stats.coherence.invalidations, "Coherence invalidations")
        set_gauge(names.THROUGHPUT_IPC, stats.throughput,
                  "Aggregate instructions per wall cycle of the last run")
        set_gauge(names.OFFLOAD_RATE, offload.offload_rate,
                  "Fraction of decided entries off-loaded in the last run")
        set_gauge(names.MEAN_QUEUE_DELAY_CYCLES, offload.mean_queue_delay,
                  "Mean OS-core queue delay of the last run")
        set_gauge(names.OS_CORE_BUSY_FRACTION,
                  stats.os_core_time_fraction(),
                  "Fraction of wall time the OS core was busy")
        set_gauge(names.PREDICTOR_BINARY_ACCURACY,
                  stats.predictor.binary_accuracy,
                  "Off-load decision accuracy at the active threshold")
        set_gauge(names.MEAN_L2_HIT_RATE, stats.mean_l2_hit_rate(),
                  "Averaged L2 hit rate (dynamic-N feedback metric)")
        snapshot = self.latency_snapshot()
        if snapshot is not None:
            add(names.REPRO_SERVICE_REQUESTS_TOTAL, snapshot.requests,
                "Open-loop service requests completed")
            add(names.REPRO_SERVICE_DROPS_TOTAL, snapshot.drops,
                "Off-loads rejected by admission control")
            add(names.REPRO_SERVICE_QUEUE_CYCLES_TOTAL,
                snapshot.queue_cycles,
                "Request cycles spent queued (backlog + OS-core queue)")
            add(names.REPRO_SERVICE_MIGRATION_CYCLES_TOTAL,
                snapshot.migration_cycles,
                "Request cycles spent migrating to/from the OS core")
            add(names.REPRO_SERVICE_EXECUTION_CYCLES_TOTAL,
                snapshot.execution_cycles,
                "Request cycles spent executing (incl. decision overhead)")
            set_gauge(names.REPRO_SERVICE_LATENCY_P50_CYCLES, snapshot.p50,
                      "Median request latency of the last run")
            set_gauge(names.REPRO_SERVICE_LATENCY_P99_CYCLES, snapshot.p99,
                      "99th-percentile request latency of the last run")
            set_gauge(names.REPRO_SERVICE_LATENCY_P999_CYCLES, snapshot.p999,
                      "99.9th-percentile request latency of the last run")
            set_gauge(names.REPRO_SERVICE_OS_CORES, self.oscore.cores,
                      "OS cores in the off-load pool of the last run")

    def latency_snapshot(self) -> Optional[LatencyStats]:
        """The run's request-latency statistics (``None`` closed-loop)."""
        if self.latency is None:
            return None
        return self.latency.snapshot(
            drops=self.stats.offload.admission_drops
        )

    # ------------------------------------------------------------------
    # dynamic-N epochs
    # ------------------------------------------------------------------

    def _apply_threshold(self) -> None:
        assert self.controller is not None
        self.policy.threshold = self.controller.threshold
        self.threshold_trace.append(
            (self._total_executed(), self.controller.threshold)
        )

    def _total_executed(self) -> int:
        return sum(ctx.executed for ctx in self.contexts)

    def _l2_counters(self) -> Tuple[int, int]:
        accesses = sum(s.accesses for s in self.stats.l2.values())
        return accesses, self.hierarchy.dram.fetches

    def _snapshot_epoch(self) -> None:
        self._epoch_l2_snapshot = self._l2_counters()
        self._epoch_settled_snapshot = None
        self._epoch_executed = 0

    def _maybe_end_epoch(self) -> None:
        """Feed the controller the finished epoch's L2 hit rate.

        Two departures from a naive per-epoch counter read, both needed
        because our scaled epochs are only a few cache turnovers long
        (the paper's 25 M-instruction epochs dwarf its cache warm-up):

        - the rate counts only misses serviced by *memory*: an L2 miss
          filled by a peer cache costs a fraction of a DRAM fetch, and
          real L2-miss counter events distinguish the two.  Counting peer
          fills as misses would punish exactly the coherence traffic that
          profitable off-loading necessarily creates;
        - the first half of each epoch is a settling window — after a
          threshold change the caches hold the previous configuration's
          working sets — so the rate is measured over the second half.
        """
        controller = self.controller
        if controller is None:
            return
        if (
            self._epoch_settled_snapshot is None
            and self._epoch_executed >= controller.epoch_length // 2
        ):
            self._epoch_settled_snapshot = self._l2_counters()
        if self._epoch_executed < controller.epoch_length:
            return
        base = (
            self._epoch_settled_snapshot
            if self._epoch_settled_snapshot is not None
            else self._epoch_l2_snapshot
        )
        accesses_now, fetches_now = self._l2_counters()
        accesses = accesses_now - base[0]
        memory_misses = fetches_now - base[1]
        rate = 1.0 - memory_misses / accesses if accesses else 1.0
        prof = self.profiler
        t0 = prof.t() if prof.enabled else 0
        controller.on_epoch_end(rate)
        self._apply_threshold()
        self._snapshot_epoch()
        if prof.enabled:
            prof.add_ns(names.SPAN_POLICY_DECIDE, prof.t() - t0)
