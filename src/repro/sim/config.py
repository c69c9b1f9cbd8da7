"""Simulator configuration: the paper's Table II parameters plus scaling.

The paper (Table II) models in-order UltraSPARC III cores at 3.5 GHz with:

==========================  =======================================
L1 I-cache                  32 KB / 2-way, 1-cycle
L1 D-cache                  32 KB / 2-way, 1-cycle
L2 cache                    1 MB / 16-way, dual banked, 12-cycle
Line size                   64 bytes
TLB                         128-entry fully associative
Coherence                   directory-based MESI
Main memory                 350-cycle uniform latency
==========================  =======================================

Those numbers are the defaults here.  Because the paper simulates hundreds
of millions of instructions on a native-code simulator and we run in
CPython, :class:`ScaleProfile` scales *instruction counts* (region of
interest, warm-up, controller epochs) and optionally cache capacities down
together, preserving the ratio of working-set size to cache size that the
paper's cache-interference effects depend on.  All headline results in the
paper are normalized (relative IPC / throughput), so proportional scaling
preserves the shapes being reproduced.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict

from repro.errors import ConfigurationError
from repro.service.config import ServiceConfig

KB = 1024
MB = 1024 * 1024


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and latency of one cache level.

    ``hit_latency`` is the additional stall contributed by a hit at this
    level beyond the pipelined L1 access (the paper charges 1 cycle for L1
    hits, which we fold into the base CPI, and 12 cycles for L2 hits).
    """

    size_bytes: int
    associativity: int
    line_size: int = 64
    hit_latency: int = 1

    def __post_init__(self) -> None:
        if self.size_bytes <= 0 or self.associativity <= 0 or self.line_size <= 0:
            raise ConfigurationError(
                f"cache dimensions must be positive, got {self}"
            )
        if self.size_bytes % (self.line_size * self.associativity) != 0:
            raise ConfigurationError(
                "cache size must be a multiple of line_size * associativity: "
                f"{self.size_bytes} % {self.line_size * self.associativity} != 0"
            )
        if self.hit_latency < 0:
            raise ConfigurationError("hit_latency must be non-negative")

    @property
    def num_lines(self) -> int:
        """Total number of cache lines."""
        return self.size_bytes // self.line_size

    @property
    def num_sets(self) -> int:
        """Number of sets (lines / associativity)."""
        return self.num_lines // self.associativity


@dataclass(frozen=True)
class MemorySystemConfig:
    """The full memory-system parameter set from Table II.

    Coherence latencies break out the directory lookup, cache-to-cache
    transfer, and invalidation costs, which the paper states are modelled
    independently.
    """

    l1: CacheConfig = field(
        default_factory=lambda: CacheConfig(32 * KB, 2, hit_latency=0)
    )
    #: The separate L1 instruction cache of Table II (32 KB / 2-way).
    l1i: CacheConfig = field(
        default_factory=lambda: CacheConfig(32 * KB, 2, hit_latency=0)
    )
    l2: CacheConfig = field(
        default_factory=lambda: CacheConfig(1 * MB, 16, hit_latency=12)
    )
    dram_latency: int = 350
    directory_latency: int = 20
    cache_to_cache_latency: int = 30
    invalidation_latency: int = 12
    line_size: int = 64

    def __post_init__(self) -> None:
        for name in (
            "dram_latency",
            "directory_latency",
            "cache_to_cache_latency",
            "invalidation_latency",
        ):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be non-negative")
        if self.l1.line_size != self.line_size or self.l2.line_size != self.line_size:
            raise ConfigurationError("L1/L2 line sizes must match line_size")
        if self.l1i.line_size != self.line_size:
            raise ConfigurationError("L1I line size must match line_size")
        if self.l1.size_bytes > self.l2.size_bytes:
            raise ConfigurationError("L1 must not be larger than L2")
        if self.l1i.size_bytes > self.l2.size_bytes:
            raise ConfigurationError("L1I must not be larger than L2")


@dataclass(frozen=True)
class CoreConfig:
    """In-order core parameters.

    ``base_cpi`` is the no-stall cycles-per-instruction (1.0 for the
    paper's in-order pipeline).  ``memory_ratio`` is the fraction of
    instructions that reference data memory; it is a property of the
    workload stream but carries a sane default for tests.
    """

    frequency_ghz: float = 3.5
    base_cpi: float = 1.0
    tlb_entries: int = 128

    def __post_init__(self) -> None:
        if self.frequency_ghz <= 0:
            raise ConfigurationError("frequency must be positive")
        if self.base_cpi < 1.0:
            raise ConfigurationError("in-order base CPI cannot be below 1.0")
        if self.tlb_entries <= 0:
            raise ConfigurationError("TLB must have at least one entry")


@dataclass(frozen=True)
class ScaleProfile:
    """Scales the paper's instruction-count parameters to CPython speeds.

    ``scale`` divides every instruction-count quantity: the paper's 50 M
    warm-up, 25 M sampling epochs, and 100 M stable-run epochs.  A scale of
    1 reproduces the paper's literal counts; the default profiles divide by
    1,000 so a full design-space sweep runs in seconds.

    ``cache_scale`` divides the L2 capacity and the workload working-set
    sizes together, preserving the pressure ratio that the paper's
    cache-interference effects depend on.  ``l1_scale`` (0 = use
    ``cache_scale``) divides the L1s separately: the L1 must stay large
    enough relative to a *single hot set* to keep its filtering role, so
    the default profiles shrink it much less than the L2.
    """

    name: str = "default"
    scale: int = 1000
    cache_scale: int = 32
    l1_scale: int = 0
    region_of_interest: int = 200_000_000
    warmup_instructions: int = 50_000_000

    def __post_init__(self) -> None:
        if self.scale <= 0 or self.cache_scale <= 0 or self.l1_scale < 0:
            raise ConfigurationError("scale factors must be positive")
        if self.region_of_interest <= 0 or self.warmup_instructions < 0:
            raise ConfigurationError("instruction counts must be positive")

    @property
    def effective_l1_scale(self) -> int:
        return self.l1_scale if self.l1_scale else self.cache_scale

    @property
    def scaled_roi(self) -> int:
        """Region-of-interest instruction count after scaling."""
        return max(1, self.region_of_interest // self.scale)

    @property
    def scaled_warmup(self) -> int:
        """Warm-up instruction count after scaling."""
        return self.warmup_instructions // self.scale

    def scale_instructions(self, count: int) -> int:
        """Scale an arbitrary paper-level instruction count."""
        return max(1, count // self.scale)

    def scale_cache(self, cache: CacheConfig, factor: int = 0) -> CacheConfig:
        """Shrink a cache config by ``factor`` (default ``cache_scale``)."""
        factor = factor if factor else self.cache_scale
        size = cache.size_bytes // factor
        min_size = cache.line_size * cache.associativity
        size = max(min_size, (size // min_size) * min_size)
        return dataclasses.replace(cache, size_bytes=size)


#: Paper-fidelity profile: literal Table II / Section IV instruction counts.
FULL_SCALE = ScaleProfile(name="full", scale=1, cache_scale=1)

#: Default laptop profile used by the benchmarks (seconds per run).
#: Warm-up shrinks faster than the region of interest because the scaled
#: caches (cache_scale=32) fill in far fewer accesses than the full-size
#: caches the paper warmed for 50 M instructions.
DEFAULT_SCALE = ScaleProfile(
    name="default",
    scale=320,
    cache_scale=32,
    l1_scale=4,
    region_of_interest=200_000_000,
    warmup_instructions=16_000_000,
)

#: Fast profile for unit tests (sub-second runs).
TEST_SCALE = ScaleProfile(
    name="test",
    scale=2000,
    cache_scale=32,
    l1_scale=4,
    region_of_interest=200_000_000,
    warmup_instructions=8_000_000,
)


@dataclass(frozen=True)
class SimulatorConfig:
    """Top-level configuration consumed by :class:`repro.sim.Simulator`.

    ``num_user_cores`` above 1 enables the Section V.C scalability study in
    which several user cores share one OS core.  ``scaled`` caches are
    derived once at construction via :meth:`effective_memory`.
    """

    core: CoreConfig = field(default_factory=CoreConfig)
    memory: MemorySystemConfig = field(default_factory=MemorySystemConfig)
    profile: ScaleProfile = field(default_factory=lambda: DEFAULT_SCALE)
    num_user_cores: int = 1
    #: Hardware threads per user core.  The paper maps two threads per
    #: core on its server benchmarks so that "workloads that might
    #: stall on I/O operations ... continue making progress" — with >1,
    #: a core keeps executing its sibling thread while one thread is
    #: blocked on an off-load (blocked-switch semantics).  The
    #: calibrated headline runs use 1; the SMT-user-core ablation bench
    #: evaluates 2.
    threads_per_user_core: int = 1
    #: SMT hardware contexts on the OS core (1 = the paper's non-SMT
    #: core; >1 models the multi-threaded OS core its conclusion hints
    #: at for 1:N provisioning).
    os_core_contexts: int = 1
    seed: int = 2010
    enable_branch_model: bool = True
    enable_tlb: bool = False
    #: Model instruction fetch through a separate per-node L1I (Table
    #: II's I-cache).  Off by default: the calibrated headline numbers
    #: in EXPERIMENTS.md were fixed with data caches only; the I-cache
    #: ablation bench shows the shapes are robust to enabling it.
    enable_icache: bool = False
    track_energy: bool = False
    #: Invocations used to prime learning policies before the timed
    #: region.  The paper warms every run for 50 M instructions, which
    #: trains its predictor on thousands of invocations; replaying the
    #: invocation stream (without memory simulation) reproduces that
    #: steady state at negligible cost.  Applied identically to every
    #: policy; non-learning policies ignore it.
    policy_priming_invocations: int = 3000
    #: Whether SPARC register-window spill/fill traps are off-load
    #: candidates.  They are the bulk of the sub-100-instruction
    #: invocations whose off-loading produces the paper's N=0 coherence
    #: dip in Figure 4, so the default includes them; accuracy-style
    #: experiments can exclude them (the paper omits them "from our
    #: graphs where they skew results substantially from what would be
    #: seen on an alternative architecture", Section IV).
    include_window_traps: bool = True
    #: Open-loop service mode: arrival model, offered load, OS-core
    #: pool size/dispatch, and admission control (see
    #: :class:`repro.service.config.ServiceConfig`).  The default is
    #: closed-loop with a single OS core — the historical behaviour the
    #: golden traces pin.  Every service knob is part of the config
    #: payload and fingerprint, so open-loop cells cache like any other.
    service: ServiceConfig = field(default_factory=ServiceConfig)

    def __post_init__(self) -> None:
        if self.num_user_cores < 1:
            raise ConfigurationError("need at least one user core")
        if self.threads_per_user_core < 1:
            raise ConfigurationError("need at least one thread per user core")
        if self.os_core_contexts < 1:
            raise ConfigurationError("the OS core needs at least one context")
        if self.threads_per_user_core > 1 and self.service.open_loop:
            raise ConfigurationError(
                "open-loop service arrivals require single-threaded user "
                "cores (the SMT engine's blocked-switch scheduler has no "
                "arrival gating)"
            )

    @property
    def engine(self) -> str:
        """Always ``"batched"``: the memory engine is no longer selectable.

        Kept only because perfbench/run.py records it (the next benchmark
        change can drop it).
        """
        return "batched"

    def effective_memory(self) -> MemorySystemConfig:
        """Memory config with the profile's cache scaling applied."""
        return dataclasses.replace(
            self.memory,
            l1=self.profile.scale_cache(
                self.memory.l1, self.profile.effective_l1_scale
            ),
            l1i=self.profile.scale_cache(
                self.memory.l1i, self.profile.effective_l1_scale
            ),
            l2=self.profile.scale_cache(self.memory.l2),
        )


def table2_parameters() -> Dict[str, str]:
    """Render the paper's Table II as an ordered name -> value mapping.

    Used by the Table II benchmark to print the simulator parameters in the
    same shape the paper reports them.
    """
    mem = MemorySystemConfig()
    core = CoreConfig()
    return {
        "ISA": "UltraSPARC III ISA (abstracted)",
        "Core Frequency": f"{core.frequency_ghz} GHz @ 32nm",
        "Processor Pipeline": "In-Order",
        "TLB": f"{core.tlb_entries} Entry Fully Associative",
        "Coherence Protocol": "Directory Based MESI",
        "L1 I-cache": "32 KB/2-way, 1-cycle",
        "L1 D-cache": "32 KB/2-way, 1-cycle",
        "L2 Cache": f"{mem.l2.size_bytes // MB} MB/{mem.l2.associativity}-way, dual banked, {mem.l2.hit_latency}-cycle",
        "L1 and L2 Cache Line Size": f"{mem.line_size} Bytes",
        "Main Memory": f"{mem.dram_latency} Cycle Uniform Latency",
    }
