"""Software instrumentation cost models and offline profiling.

Section II quantifies what software-based off-load decisions cost:

- instrumenting OpenSolaris ``getpid`` with a *single static threshold
  branch* grows it from 17 to 33 instructions — roughly 16 extra
  instructions on every invocation of an instrumented routine;
- "examining multiple register values, or accessing internal data
  structures can easily bloat this overhead to hundreds of cycles", which
  is what a dynamic all-entry-points instrumentation (the software
  equivalent of the paper's hardware engine) must pay;
- the proposed hardware predictor decides in a **single cycle**.

This module also provides the *offline profiling* step that static
instrumentation (Chakraborty-style) relies on: run a training trace and
record each OS entry point's mean run length.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from types import MappingProxyType
from typing import Dict, Mapping

from repro.errors import ConfigurationError
from repro.sim.config import ScaleProfile
from repro.workloads.base import WorkloadSpec
from repro.workloads.generator import invocation_stream

#: Decision cost of the hardware predictor (Section III: single cycle).
HARDWARE_DECISION_COST = 1

#: Decision cost of a simple static threshold branch (getpid: 17 -> 33).
STATIC_BRANCH_COST = 16

#: Decision cost of full software estimation at an OS entry point.
DYNAMIC_ESTIMATION_COST = 180


@dataclass(frozen=True)
class InstrumentationCosts:
    """Cycle costs charged at a privileged-mode entry by each approach.

    ``dynamic`` spans "tens of cycles in basic implementations to
    hundreds of cycles in complex implementations"; Figure 1 sweeps it.
    """

    hardware: int = HARDWARE_DECISION_COST
    static_branch: int = STATIC_BRANCH_COST
    dynamic: int = DYNAMIC_ESTIMATION_COST

    def __post_init__(self) -> None:
        if self.hardware < 0 or self.static_branch < 0 or self.dynamic < 0:
            raise ConfigurationError("instrumentation costs must be non-negative")


@dataclass(frozen=True)
class OfflineProfile:
    """Per-entry-point mean run lengths from a profiling run.

    This is the artefact the static-instrumentation flow consumes: the
    set of OS routines (identified by trap/syscall vector) whose profiled
    mean run length justifies instrumentation.  It is immutable, because
    :meth:`collect` hands one instance to every caller that asks for the
    same profile.
    """

    mean_lengths: Mapping[int, float]
    invocations: int

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "mean_lengths", MappingProxyType(dict(self.mean_lengths))
        )

    @classmethod
    @functools.lru_cache(maxsize=8)
    def collect(
        cls,
        spec: WorkloadSpec,
        profile: ScaleProfile,
        seed: int = 77,
        num_invocations: int = 4000,
    ) -> "OfflineProfile":
        """Profile a workload off-line: mean run length per vector.

        Uses a *different seed* than evaluation runs by default, exactly
        as off-line profiling in practice observes a different execution
        than the one being optimised — one of the inaccuracies the paper
        attributes to the approach.  The profile depends only on the
        arguments, so the last few are memoized: every SI cell of a grid
        shares its workload's profile.
        """
        totals: Dict[int, float] = {}
        counts: Dict[int, int] = {}
        seen = 0
        for event in invocation_stream(
            spec, profile, seed, num_invocations, include_window_traps=True
        ):
            totals[event.vector] = totals.get(event.vector, 0.0) + event.length
            counts[event.vector] = counts.get(event.vector, 0) + 1
            seen += 1
        means = {vector: totals[vector] / counts[vector] for vector in totals}
        return cls(means, seen)

    def mean_length(self, vector: int) -> float:
        """Profiled mean run length of ``vector`` (0.0 when never seen)."""
        return self.mean_lengths.get(vector, 0.0)

    def instrumented_vectors(self, migration_latency: int) -> Dict[int, float]:
        """Vectors whose mean run length is at least twice the migration latency.

        This is the paper's SI selection rule: "statically instrument
        only those OS routines that are determined to have a run-length
        that is twice the off-loading (migration) latency".
        """
        cutoff = 2.0 * migration_latency
        return {
            vector: mean
            for vector, mean in self.mean_lengths.items()
            if mean >= cutoff
        }
