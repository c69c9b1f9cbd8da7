"""Statistics collection for simulation runs.

Counters are intentionally plain integer attributes (not a dict of
counters) so that the hot simulation loop can bump them without hashing,
and so that typos fail loudly as ``AttributeError`` instead of silently
creating new keys.

Mutation discipline: the memory hierarchy's replay loop *folds* many
per-reference bumps into one ``+= n`` (``Cache.record_batch``, its
per-batch energy updates), and every fold lands on the counter one
reference would bump — never a new shadow counter.  So a batch's
counters equal those of its one-element batches, attribute by attribute
(``tests/test_prop_engine_equivalence.py``), and the exhaustive MESI
walk checks every counter a one-element batch moves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List


@dataclass
class CacheStats:
    """Hit/miss counters for one cache instance."""

    hits: int = 0
    misses: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hit rate in [0, 1]; defined as 1.0 for an untouched cache.

        The untouched-cache convention keeps the dynamic-N controller's
        averaged L2 feedback metric well-defined early in a run.
        """
        if self.accesses == 0:
            return 1.0
        return self.hits / self.accesses

    def reset(self) -> None:
        self.hits = 0
        self.misses = 0

    def snapshot(self) -> "CacheStats":
        return CacheStats(self.hits, self.misses)


@dataclass
class CoreStats:
    """Per-core cycle and instruction accounting.

    ``busy_cycles`` counts cycles the core spent executing or stalled on
    its own memory accesses; ``offload_wait_cycles`` counts cycles a user
    core spent blocked while its thread ran on the OS core (including
    migration and queuing); ``queue_cycles`` isolates the queuing component
    for the Section V.C scalability study.  ``idle_cycles`` counts cycles
    an open-loop core spent waiting for its next request to arrive
    (always zero in closed-loop runs).
    """

    instructions: int = 0
    busy_cycles: int = 0
    offload_wait_cycles: int = 0
    queue_cycles: int = 0
    decision_cycles: int = 0
    migration_cycles: int = 0
    idle_cycles: int = 0

    @property
    def total_cycles(self) -> int:
        return (
            self.busy_cycles + self.offload_wait_cycles
            + self.decision_cycles + self.idle_cycles
        )

    @property
    def ipc(self) -> float:
        """Instructions per cycle attributed to this core's thread."""
        if self.total_cycles == 0:
            return 0.0
        return self.instructions / self.total_cycles

    def reset(self) -> None:
        self.instructions = 0
        self.busy_cycles = 0
        self.offload_wait_cycles = 0
        self.queue_cycles = 0
        self.decision_cycles = 0
        self.migration_cycles = 0
        self.idle_cycles = 0


@dataclass
class CoherenceStats:
    """Directory / coherence event counters."""

    cache_to_cache_transfers: int = 0
    invalidations: int = 0
    directory_lookups: int = 0

    def reset(self) -> None:
        self.cache_to_cache_transfers = 0
        self.invalidations = 0
        self.directory_lookups = 0


@dataclass
class PredictorStats:
    """Run-length predictor accuracy accounting (Fig. 2 / Fig. 3 data).

    *exact* predictions match the actual run length; *close* predictions
    land within ±5 % (the paper's accuracy buckets: 73.6 % exact, +24.8 %
    within ±5 %).  ``binary_correct``/``binary_total`` track the derived
    off-load decision accuracy at the active threshold (Fig. 3).
    """

    predictions: int = 0
    exact: int = 0
    close: int = 0
    global_fallbacks: int = 0
    binary_correct: int = 0
    binary_total: int = 0

    @property
    def exact_rate(self) -> float:
        return self.exact / self.predictions if self.predictions else 0.0

    @property
    def close_rate(self) -> float:
        return self.close / self.predictions if self.predictions else 0.0

    @property
    def binary_accuracy(self) -> float:
        if self.binary_total == 0:
            return 1.0
        return self.binary_correct / self.binary_total

    def reset(self) -> None:
        self.predictions = 0
        self.exact = 0
        self.close = 0
        self.global_fallbacks = 0
        self.binary_correct = 0
        self.binary_total = 0


@dataclass
class OffloadStats:
    """Off-loading activity counters."""

    os_entries: int = 0
    offloads: int = 0
    os_instructions: int = 0
    offloaded_instructions: int = 0
    os_core_busy_cycles: int = 0
    queue_delay_total: int = 0
    queue_delay_events: int = 0
    admission_drops: int = 0

    @property
    def offload_rate(self) -> float:
        return self.offloads / self.os_entries if self.os_entries else 0.0

    @property
    def mean_queue_delay(self) -> float:
        if self.queue_delay_events == 0:
            return 0.0
        return self.queue_delay_total / self.queue_delay_events

    def reset(self) -> None:
        self.os_entries = 0
        self.offloads = 0
        self.os_instructions = 0
        self.offloaded_instructions = 0
        self.os_core_busy_cycles = 0
        self.queue_delay_total = 0
        self.queue_delay_events = 0
        self.admission_drops = 0


@dataclass
class EnergyStats:
    """Simple per-event energy accounting (paper's future-work hook).

    Energies are in arbitrary units per event; totals let examples compute
    relative energy-delay products between configurations.
    """

    l1_access_energy: float = 1.0
    l2_access_energy: float = 6.0
    dram_access_energy: float = 120.0
    core_cycle_energy: float = 0.4
    l1_accesses: int = 0
    l2_accesses: int = 0
    dram_accesses: int = 0
    core_cycles: int = 0

    @property
    def total(self) -> float:
        return (
            self.l1_accesses * self.l1_access_energy
            + self.l2_accesses * self.l2_access_energy
            + self.dram_accesses * self.dram_access_energy
            + self.core_cycles * self.core_cycle_energy
        )

    def reset(self) -> None:
        self.l1_accesses = 0
        self.l2_accesses = 0
        self.dram_accesses = 0
        self.core_cycles = 0


@dataclass
class SimulationStats:
    """Everything a single simulation run measured.

    ``cores`` holds one :class:`CoreStats` per user core, ``os_core`` the
    dedicated OS core (present even when no off-loading happened, with zero
    counters).  ``l1``/``l2`` are keyed by a core label such as ``"user0"``
    or ``"os"``.
    """

    cores: List[CoreStats] = field(default_factory=list)
    os_core: CoreStats = field(default_factory=CoreStats)
    l1: Dict[str, CacheStats] = field(default_factory=dict)
    l1i: Dict[str, CacheStats] = field(default_factory=dict)
    l2: Dict[str, CacheStats] = field(default_factory=dict)
    coherence: CoherenceStats = field(default_factory=CoherenceStats)
    predictor: PredictorStats = field(default_factory=PredictorStats)
    offload: OffloadStats = field(default_factory=OffloadStats)
    energy: EnergyStats = field(default_factory=EnergyStats)

    @property
    def total_instructions(self) -> int:
        return sum(c.instructions for c in self.cores) + self.os_core.instructions

    @property
    def wall_cycles(self) -> int:
        """Makespan of the run: the longest per-core timeline."""
        timelines = [c.total_cycles for c in self.cores]
        if not timelines:
            return self.os_core.total_cycles
        return max(timelines)

    @property
    def throughput(self) -> float:
        """Aggregate instructions per wall cycle (equals IPC single-thread)."""
        wall = self.wall_cycles
        if wall == 0:
            return 0.0
        return self.total_instructions / wall

    def mean_l2_hit_rate(self) -> float:
        """Average of per-cache L2 hit rates over caches that saw traffic.

        This is the feedback metric the paper's dynamic-N controller uses:
        "the L2 cache hit rate of both the OS and user processors,
        averaged together".
        """
        rates = [s.hit_rate for s in self.l2.values() if s.accesses > 0]
        if not rates:
            return 1.0
        return sum(rates) / len(rates)

    def os_core_time_fraction(self) -> float:
        """Fraction of wall time the OS core was busy (Table III metric)."""
        wall = self.wall_cycles
        if wall == 0:
            return 0.0
        return min(1.0, self.offload.os_core_busy_cycles / wall)

    def reset_counters(self) -> None:
        """Zero every counter in place (used at the end of warm-up).

        Cache, core and predictor *state* (contents, training) is
        untouched — only the measured counts restart, exactly like
        clearing performance counters after a warm-up region.
        """
        for core in self.cores:
            core.reset()
        self.os_core.reset()
        for group in (self.l1, self.l1i, self.l2):
            for cache_stats in group.values():
                cache_stats.reset()
        self.coherence.reset()
        self.predictor.reset()
        self.offload.reset()
        self.energy.reset()
