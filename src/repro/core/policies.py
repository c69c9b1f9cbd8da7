"""Off-load decision policies: Baseline, SI, DI, HI, and Oracle.

Every policy answers the same question at every privileged-mode entry:
*should this OS invocation execute on the OS core?* — and charges the
user core whatever deciding costs:

=========  =======================================================
Baseline   never off-load; zero decision cost (no instrumentation)
SI         static instrumentation (Chakraborty et al. [10] style):
           off-line profiling selects routines with mean run length
           ≥ 2× the migration latency; only those carry the
           16-cycle threshold branch and they always off-load
DI         dynamic instrumentation (Mogul et al. [17] extended to
           all entry points): every entry pays the full software
           estimation cost, estimates the run length from the
           argument registers, and off-loads iff estimate > N
HI         the paper's hardware predictor: 1-cycle decision from
           the AState-indexed run-length table, off-load iff
           prediction > N
Oracle     perfect knowledge of the actual run length (bound)
=========  =======================================================

DI's estimate is the best a register-inspecting software stub can do: the
deterministic fast-path length given the argument registers.  It cannot
see bimodal slow paths (cache-dependent) or device-interrupt extensions —
the structural inaccuracies Section II attributes to instrumentation.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro.core.instrumentation import InstrumentationCosts, OfflineProfile
from repro.core.predictor import PredictorSnapshot, RunLengthPredictor
from repro.errors import ConfigurationError
from repro.os_model.runlength import deterministic_length
from repro.os_model.syscalls import CATALOGUE, Syscall
from repro.os_model.traps import (
    FILL_LENGTH,
    FILL_TRAP_VECTOR,
    SPILL_LENGTH,
    SPILL_TRAP_VECTOR,
)
from repro.workloads.base import OSInvocation


@dataclass(frozen=True)
class Decision:
    """Outcome of one off-load decision."""

    offload: bool
    overhead_cycles: int
    predicted_length: int


class OffloadPolicy(abc.ABC):
    """Interface every decision policy implements.

    ``threshold`` is the trigger N (instructions); policies that do not
    use a threshold (baseline, SI) ignore writes to it, which lets the
    dynamic-N controller drive any policy uniformly.

    ``learns`` declares whether :meth:`observe` feeds history into later
    decisions.  The engine primes only policies that learn: for the
    others a priming pass would generate a trace and change nothing.
    A learning policy may also keep a :meth:`snapshot`/:meth:`load`
    pair, which lets a trace store prime it once per priming stream.
    """

    name: str = "abstract"
    learns: bool = True

    def __init__(self, threshold: int = 1000) -> None:
        if threshold < 0:
            raise ConfigurationError("threshold N must be non-negative")
        self.threshold = threshold

    @abc.abstractmethod
    def decide(self, invocation: OSInvocation) -> Decision:
        """Decide whether to off-load ``invocation``."""

    def observe(self, invocation: OSInvocation, decision: Decision) -> None:
        """Feedback after the invocation completed (default: none)."""

    def learning_shape(self) -> Optional[Tuple[Any, ...]]:
        """Key of what priming teaches this policy, or ``None`` to prime live.

        Two untrained policies of equal shape learn the same state from
        one priming stream, so a :meth:`snapshot` of one, taken once it
        is primed, may be loaded into the other.  ``None`` where that
        does not hold: the policy keeps no snapshot, or it has already
        learned something (say, from a caller-shared predictor) that a
        load would overwrite.
        """
        return None

    def snapshot(self) -> Any:
        """An immutable copy of what :meth:`observe` has taught the policy."""
        raise NotImplementedError(f"policy {self.name} keeps no snapshot")

    def load(self, snapshot: Any) -> None:
        """Replace the learned state with fresh state built from ``snapshot``."""
        raise NotImplementedError(f"policy {self.name} keeps no snapshot")


class NeverOffload(OffloadPolicy):
    """The paper's baseline: everything runs on the user core."""

    name = "baseline"
    learns = False

    def decide(self, invocation: OSInvocation) -> Decision:
        return Decision(offload=False, overhead_cycles=0, predicted_length=0)


class AlwaysOffload(OffloadPolicy):
    """Off-load every privileged entry (the N=0 corner of Figure 4)."""

    name = "always"
    learns = False

    def decide(self, invocation: OSInvocation) -> Decision:
        return Decision(offload=True, overhead_cycles=0, predicted_length=invocation.length)


class StaticInstrumentation(OffloadPolicy):
    """SI: profile-guided static instrumentation of long routines.

    ``max_instrumented`` models the manual-effort reality the paper
    emphasises: with hundreds of syscalls per OS (Table I), the prior
    state of the art hand-instrumented only a handful of routines
    identified by "off-line profiling and developer intuition ... as
    typically long-running system calls".  When set, only the
    ``max_instrumented`` qualifying routines with the longest profiled
    means carry instrumentation.
    """

    name = "SI"
    learns = False

    def __init__(
        self,
        profile: OfflineProfile,
        migration_latency: int,
        costs: Optional[InstrumentationCosts] = None,
        max_instrumented: Optional[int] = None,
    ) -> None:
        super().__init__(threshold=2 * migration_latency)
        self.costs = costs if costs is not None else InstrumentationCosts()
        instrumented = profile.instrumented_vectors(migration_latency)
        if max_instrumented is not None and len(instrumented) > max_instrumented:
            keep = sorted(instrumented, key=lambda vec: instrumented[vec], reverse=True)
            instrumented = {v: instrumented[v] for v in keep[:max_instrumented]}
        self._instrumented = instrumented

    @property
    def instrumented_count(self) -> int:
        """Number of entry points that carry instrumentation."""
        return len(self._instrumented)

    def decide(self, invocation: OSInvocation) -> Decision:
        mean = self._instrumented.get(invocation.vector)
        if mean is None:
            # Uninstrumented routines pay nothing and never off-load.
            return Decision(offload=False, overhead_cycles=0, predicted_length=0)
        return Decision(
            offload=True,
            overhead_cycles=self.costs.static_branch,
            predicted_length=int(mean),
        )


def _syscall_by_vector() -> Dict[int, Syscall]:
    return {syscall.number: syscall for syscall in CATALOGUE.values()}


class DynamicInstrumentation(OffloadPolicy):
    """DI: software estimation at **all** OS entry points.

    The estimate is the fast-path deterministic length implied by the
    argument registers.  For entry points with no argument relationship
    (device interrupts), the stub falls back to a software-maintained
    last-observed length per vector — the best a generic software shim
    can do without hardware history.
    """

    name = "DI"

    def __init__(
        self,
        threshold: int = 1000,
        costs: Optional[InstrumentationCosts] = None,
    ) -> None:
        super().__init__(threshold=threshold)
        self.costs = costs if costs is not None else InstrumentationCosts()
        self._by_vector = _syscall_by_vector()
        self._last_seen: Dict[int, int] = {}

    def estimate(self, invocation: OSInvocation) -> int:
        """Software run-length estimate from the architected registers."""
        vector = invocation.vector
        if vector == SPILL_TRAP_VECTOR:
            return SPILL_LENGTH
        if vector == FILL_TRAP_VECTOR:
            return FILL_LENGTH
        syscall = self._by_vector.get(vector)
        if syscall is not None:
            # The stub reads the argument registers directly — including
            # the size operand the AState hash does not cover.
            return deterministic_length(
                syscall,
                invocation.astate.i0,
                invocation.size_units,
                slow_path=False,
            )
        return self._last_seen.get(vector, 0)

    def decide(self, invocation: OSInvocation) -> Decision:
        estimate = self.estimate(invocation)
        return Decision(
            offload=estimate > self.threshold,
            overhead_cycles=self.costs.dynamic,
            predicted_length=estimate,
        )

    def observe(self, invocation: OSInvocation, decision: Decision) -> None:
        self._last_seen[invocation.vector] = invocation.length

    def learning_shape(self) -> Optional[Tuple[Any, ...]]:
        return None if self._last_seen else (type(self),)

    def snapshot(self) -> Tuple[Tuple[int, int], ...]:
        return tuple(self._last_seen.items())

    def load(self, snapshot: Tuple[Tuple[int, int], ...]) -> None:
        self._last_seen = dict(snapshot)


class HardwareInstrumentation(OffloadPolicy):
    """HI: the paper's predictor-directed hardware decision engine."""

    name = "HI"

    def __init__(
        self,
        threshold: int = 1000,
        predictor: Optional[RunLengthPredictor] = None,
        costs: Optional[InstrumentationCosts] = None,
    ) -> None:
        super().__init__(threshold=threshold)
        self.predictor = predictor if predictor is not None else RunLengthPredictor()
        self.costs = costs if costs is not None else InstrumentationCosts()

    def decide(self, invocation: OSInvocation) -> Decision:
        predicted = self.predictor.predict(invocation.astate)
        return Decision(
            offload=predicted > self.threshold,
            overhead_cycles=self.costs.hardware,
            predicted_length=predicted,
        )

    def observe(self, invocation: OSInvocation, decision: Decision) -> None:
        actual = invocation.length
        self.predictor.observe(invocation.astate, decision.predicted_length, actual)
        stats = self.predictor.stats
        stats.binary_total += 1
        if (decision.predicted_length > self.threshold) == (actual > self.threshold):
            stats.binary_correct += 1

    def learning_shape(self) -> Optional[Tuple[Any, ...]]:
        predictor = self.predictor
        return None if predictor.trained else (type(self),) + predictor.shape

    def snapshot(self) -> PredictorSnapshot:
        return self.predictor.snapshot()

    def load(self, snapshot: PredictorSnapshot) -> None:
        self.predictor.load(snapshot)


class OracleOffload(OffloadPolicy):
    """Perfect-knowledge policy: an upper bound for ablation studies.

    It sees the invocation's true length (including interrupt
    extensions), pays no decision cost, and applies the same threshold
    rule as HI.
    """

    name = "oracle"
    learns = False

    def decide(self, invocation: OSInvocation) -> Decision:
        return Decision(
            offload=invocation.length > self.threshold,
            overhead_cycles=0,
            predicted_length=invocation.length,
        )
