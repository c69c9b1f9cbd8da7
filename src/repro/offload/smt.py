"""SMT user cores: the paper's 2-threads-per-core server mapping.

Section II: "Our server benchmarks map two threads per core ... This
2:1 mapping allows workloads that might stall on I/O operations to
continue making progress, if possible."  In an off-loading system the
same mechanism hides migration and OS-core time: while one hardware
thread is blocked on an off-loaded invocation, the core executes its
sibling.

This module only schedules.  :class:`SMTOffloadEngine` gives each user
core ``threads_per_user_core`` thread contexts, runs one at a time, and
switches when the running thread blocks on an off-load; every event it
picks executes through the base engine's
:meth:`~repro.offload.engine.OffloadEngine._run_user_segment` and
:meth:`~repro.offload.engine.OffloadEngine._run_invocation`.  It
overrides the two decisions that differ from a single-threaded core: an
off-load reaches the pool at the core's absolute clock, and it blocks
the *thread* (``blocked_until``) instead of the core.

The core idles only when *every* thread is blocked.  Per-core wall time
therefore satisfies

``wall = executed cycles + decision cycles + idle``

and the idle component is charged through the existing
``offload_wait_cycles`` bucket so all downstream throughput accounting
(:class:`~repro.sim.stats.SimulationStats`) works unchanged.  Queue and
migration cycles are accounted in the off-load statistics only — with
overlap they are no longer core-blocking quantities.

The single-threaded base engine remains the calibrated configuration;
``simulate`` picks this engine automatically when
``config.threads_per_user_core > 1``.
"""

from __future__ import annotations

from typing import Any, Iterator, List, Optional, Tuple

from repro.errors import SimulationError
from repro.offload.engine import OffloadEngine, _CoreContext
from repro.workloads.base import OSInvocation
from repro.workloads.generator import TraceEvent


class _ThreadState:
    """One hardware thread's trace position and blocking state."""

    __slots__ = ("thread_id", "generator", "events", "executed",
                 "blocked_until", "done")

    def __init__(self, thread_id: int, generator: Any,
                 events: Iterator[TraceEvent]):
        self.thread_id = thread_id
        self.generator = generator
        self.events = events
        self.executed = 0
        self.blocked_until = 0
        self.done = False


class SMTOffloadEngine(OffloadEngine):
    """Off-loading engine with multi-threaded user cores."""

    def __init__(self, spec, policy, migration, config, controller=None,
                 bus=None, metrics=None, trace_store=None, profiler=None,
                 memory_tape=None):
        if config.threads_per_user_core < 2:
            raise SimulationError(
                "SMTOffloadEngine requires threads_per_user_core >= 2; "
                "use OffloadEngine for the single-threaded configuration"
            )
        # Per user core: a list of thread states with globally unique
        # thread ids (disjoint address regions per thread), opened by
        # :meth:`_core_trace` as the base engine builds each core.
        self._threads: List[List[_ThreadState]] = []
        super().__init__(spec, policy, migration, config, controller,
                         bus=bus, metrics=metrics, trace_store=trace_store,
                         profiler=profiler, memory_tape=memory_tape)
        self._running: Optional[_ThreadState] = None

    def _core_trace(self, index: int) -> Tuple[Any, Iterator[TraceEvent]]:
        """Open every thread of core ``index``; the core starts on its first."""
        threads = self.config.threads_per_user_core
        group: List[_ThreadState] = []
        for slot in range(threads):
            thread_id = index * threads + slot
            generator = self._trace_source(thread_id)
            group.append(_ThreadState(
                thread_id, generator, generator.events(self._slack_budget)
            ))
        self._threads.append(group)
        return group[0].generator, group[0].events

    # ------------------------------------------------------------------
    # phase machinery (blocked-switch scheduling)
    # ------------------------------------------------------------------

    def _run_phase(self, budget: int, epochs: bool) -> Tuple[int, int]:
        if budget <= 0:
            return 0, 0
        total = 0
        os_total = 0
        for group in self._threads:
            for thread in group:
                thread.executed = 0
                thread.done = False

        active = list(self.contexts)
        while active:
            ctx = min(active, key=lambda c: c.core.clock)
            executed, os_executed = self._step_core(ctx, budget)
            total += executed
            os_total += os_executed
            if epochs and executed:
                self._epoch_executed += executed
                self._maybe_end_epoch()
            if all(t.done for t in self._threads[ctx.index]):
                active.remove(ctx)

        # A core's phase ends when its last outstanding off-load returns;
        # like every all-blocked stretch, that tail is off-load idle.
        for ctx in self.contexts:
            outstanding = max(t.blocked_until for t in self._threads[ctx.index])
            if outstanding > ctx.core.clock:
                ctx.core.wait_for_offload(outstanding - ctx.core.clock)
        return total, os_total

    def _step_core(self, ctx: _CoreContext, budget: int) -> Tuple[int, int]:
        """Advance one core by one event (or one idle skip).

        Returns ``(instructions_executed, os_instructions_executed)``.
        """
        group = self._threads[ctx.index]
        core = ctx.core
        runnable = [
            t for t in group if not t.done and t.blocked_until <= core.clock
        ]
        if not runnable:
            # Every live thread is blocked: idle until the earliest one
            # returns from its off-load.
            next_ready = min(t.blocked_until for t in group if not t.done)
            core.wait_for_offload(next_ready - core.clock)
            return 0, 0

        # Round-robin flavour: least-recently-ready thread first.
        thread = min(runnable, key=lambda t: t.blocked_until)
        event = next(thread.events, None)
        if event is None:
            raise SimulationError("trace exhausted before the phase budget")
        ctx.thread_id = thread.thread_id
        ctx.generator = thread.generator
        self._running = thread
        executed = self._execute(ctx, event)
        thread.executed += executed
        if thread.executed >= budget:
            thread.done = True
        return executed, executed if isinstance(event, OSInvocation) else 0

    # ------------------------------------------------------------------
    # off-load step overrides
    # ------------------------------------------------------------------

    def _arrival_time(self, ctx: _CoreContext) -> int:
        return ctx.core.clock

    def _wait_for_offload(
        self,
        ctx: _CoreContext,
        arrival: int,
        finish: int,
        queue_delay: int,
        migration_cycles: int,
    ) -> None:
        # The thread blocks; the core stays free for its siblings.
        assert self._running is not None
        self._running.blocked_until = finish
