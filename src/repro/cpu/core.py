"""In-order core timing accumulator.

The paper models in-order UltraSPARC cores, chosen because OS-intensive
server workloads are "best handled by in-order cores" and because in-order
timing is simple enough to simulate long executions.  An in-order core's
cycle count decomposes cleanly:

``cycles = instructions * base_cpi + memory stalls + branch/TLB stalls``

so the core model is an accumulator rather than a pipeline simulator.
The memory stalls come from :class:`repro.memory.hierarchy.MemoryHierarchy`;
branch and TLB stalls from the statistical models in this package.
"""

from __future__ import annotations

from repro.sim.config import CoreConfig
from repro.sim.stats import CoreStats


class InOrderCore:
    """Cycle accounting for one hardware context.

    ``retire`` is the only hot-path method: it credits a block of
    instructions plus the stall cycles the caller measured for them.
    Off-load bookkeeping (waiting on migration or on the OS core) is
    charged through the dedicated methods so the stats can attribute time
    to the right bucket.

    The core keeps two views of time.  :attr:`now` is the local time the
    counters measure, so the warm-up counter reset restarts it;
    :attr:`clock` is absolute, advanced by every charge and never reset,
    so timestamps taken across the reset stay monotone.
    """

    __slots__ = ("config", "stats", "clock", "_unit_cpi")

    def __init__(self, config: CoreConfig, stats: CoreStats):
        self.config = config
        self.stats = stats
        self.clock = 0
        # With the paper's base CPI of exactly 1.0, int(n * 1.0) == n for
        # every representable instruction count, so retire() can skip the
        # float round-trip without changing a single cycle.
        self._unit_cpi = config.base_cpi == 1.0

    def retire(self, instructions: int, stall_cycles: int = 0) -> int:
        """Execute ``instructions`` locally; returns cycles consumed."""
        if self._unit_cpi:
            cycles = instructions + stall_cycles
        else:
            cycles = int(instructions * self.config.base_cpi) + stall_cycles
        self.stats.instructions += instructions
        self.stats.busy_cycles += cycles
        self.clock += cycles
        return cycles

    def stall(self, cycles: int) -> None:
        """Stall on local work (e.g. a TLB fill) without retiring."""
        self.stats.busy_cycles += cycles
        self.clock += cycles

    def idle(self, cycles: int) -> None:
        """Advance local time without work (open-loop arrival gating).

        The core sits idle until its thread's next request arrives;
        the cycles land in their own bucket so throughput accounting
        can distinguish "no demand" from "blocked on the OS core".
        """
        self.stats.idle_cycles += cycles
        self.clock += cycles

    def pay_decision(self, cycles: int) -> None:
        """Charge off-load decision overhead (instrumentation/predictor)."""
        self.stats.decision_cycles += cycles
        self.clock += cycles

    def wait_for_offload(self, cycles: int, queue_cycles: int = 0, migration_cycles: int = 0) -> None:
        """Block while the thread runs remotely.

        ``cycles`` is the full blocked interval (migration out + queuing +
        remote execution + migration back); the queue and migration
        components are recorded separately for the scalability study.
        """
        self.stats.offload_wait_cycles += cycles
        self.stats.queue_cycles += queue_cycles
        self.stats.migration_cycles += migration_cycles
        self.clock += cycles

    @property
    def now(self) -> int:
        """The core's local time in cycles (restarts at a counter reset)."""
        return self.stats.total_cycles
