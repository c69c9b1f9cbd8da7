"""Figure 2 companion — run-length predictor accuracy and storage.

Section III.A reports that the 200-entry predictor "is able to precisely
predict the run length of 73.6 % of all privileged instruction
invocations, and predict within ±5 % the actual run length an additional
24.8 % of the time", with the residual errors concentrated in
interrupt-disturbed invocations that underestimate the true length.  It
also quotes ~2 KB of storage for the CAM organisation and ~3.3 KB for
the 1,500-entry direct-mapped one.

This experiment drives the predictor over large invocation streams
(tens of thousands of invocations — no memory simulation needed) and
reports the same decomposition, plus the underestimation skew.  Window
traps are excluded to match the paper's practice of omitting them where
they would skew SPARC-specific statistics (their near-constant lengths
would inflate the exact rate).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Sequence

from repro.analysis.tables import render_table
from repro.core.astate import astate_hash
from repro.core.predictor import RunLengthPredictor, is_close
from repro.sim.config import DEFAULT_SCALE, ScaleProfile
from repro.workloads.base import OSInvocation
from repro.workloads.generator import invocation_stream
from repro.workloads.presets import SERVER_WORKLOADS, COMPUTE_WORKLOADS, get_workload


@dataclass
class AccuracyStats:
    """Prediction accuracy decomposition over one invocation stream.

    ``binary_correct[n]`` counts the invocations whose binary off-load
    decision at threshold ``n`` (predicted > n) matched the actual one.
    """

    invocations: int
    exact: int
    close: int
    underestimates: int
    large_errors: int
    binary_correct: Dict[int, int]

    @property
    def exact_rate(self) -> float:
        return self.exact / self.invocations if self.invocations else 0.0

    @property
    def close_rate(self) -> float:
        return self.close / self.invocations if self.invocations else 0.0

    @property
    def large_error_rate(self) -> float:
        return self.large_errors / self.invocations if self.invocations else 0.0

    @property
    def underestimate_share(self) -> float:
        """Fraction of large errors that underestimate the actual length.

        The paper observes interrupts "almost never" shorten invocations,
        so mispredictions should skew toward underestimation.
        """
        if self.large_errors == 0:
            return 0.0
        return self.underestimates / self.large_errors

    def binary_accuracy(self, threshold: int) -> float:
        """Share of binary decisions at ``threshold`` that were right."""
        if not self.invocations:
            return 0.0
        return self.binary_correct[threshold] / self.invocations


@dataclass
class PredictorAccuracyResult:
    per_workload: Dict[str, AccuracyStats]
    cam_storage_bytes: int
    direct_mapped_storage_bytes: int

    def average_exact_rate(self) -> float:
        rates = [s.exact_rate for s in self.per_workload.values()]
        return sum(rates) / len(rates)

    def average_close_rate(self) -> float:
        rates = [s.close_rate for s in self.per_workload.values()]
        return sum(rates) / len(rates)

    def render(self) -> str:
        rows = []
        for name, stats in self.per_workload.items():
            rows.append(
                (
                    name,
                    stats.invocations,
                    f"{100 * stats.exact_rate:.1f}%",
                    f"{100 * stats.close_rate:.1f}%",
                    f"{100 * stats.large_error_rate:.1f}%",
                    f"{100 * stats.underestimate_share:.0f}%",
                )
            )
        rows.append(
            (
                "average",
                "",
                f"{100 * self.average_exact_rate():.1f}%",
                f"{100 * self.average_close_rate():.1f}%",
                "",
                "",
            )
        )
        table = render_table(
            ["Workload", "Invocations", "Exact", "Within ±5%", "Large error",
             "Underestimates"],
            rows,
            title=(
                "Predictor accuracy (paper: 73.6% exact, +24.8% within ±5%; "
                "errors skew toward underestimation)"
            ),
        )
        storage = (
            f"storage: {self.cam_storage_bytes} B for the 200-entry CAM "
            f"(paper ~2 KB), {self.direct_mapped_storage_bytes} B for the "
            "1,500-entry direct-mapped table (paper ~3.3 KB)"
        )
        return table + "\n" + storage


def score_predictor(
    predictor: RunLengthPredictor,
    stream: Iterable[OSInvocation],
    thresholds: Sequence[int] = (),
) -> AccuracyStats:
    """Predict each invocation of ``stream`` in order, score the
    prediction, then train ``predictor`` on the actual length.

    One pass scores every threshold in ``thresholds`` at once: the
    prediction does not depend on the threshold.
    """
    seen = exact = close = under = large = 0
    binary = {n: 0 for n in thresholds}
    for event in stream:
        astate = astate_hash(event.astate)
        predicted = predictor.predict_hash(astate)
        actual = event.length
        if predicted == actual:
            exact += 1
        elif is_close(predicted, actual):
            close += 1
        else:
            large += 1
            if predicted < actual:
                under += 1
        for threshold in binary:
            if (predicted > threshold) == (actual > threshold):
                binary[threshold] += 1
        predictor.observe_hash(astate, predicted, actual)
        seen += 1
    return AccuracyStats(
        invocations=seen,
        exact=exact,
        close=close,
        underestimates=under,
        large_errors=large,
        binary_correct=binary,
    )


def measure_accuracy(
    workload: str,
    invocations: int = 20000,
    profile: ScaleProfile = DEFAULT_SCALE,
    seed: int = 404,
) -> AccuracyStats:
    """Stream ``invocations`` through a fresh 200-entry predictor and score it."""
    stream = invocation_stream(
        get_workload(workload), profile, seed, invocations,
        include_window_traps=False,
    )
    return score_predictor(RunLengthPredictor(), stream)


def run_predictor_accuracy(
    workloads: Sequence[str] = SERVER_WORKLOADS + COMPUTE_WORKLOADS,
    invocations: int = 20000,
    profile: ScaleProfile = DEFAULT_SCALE,
) -> PredictorAccuracyResult:
    per_workload = {
        name: measure_accuracy(name, invocations=invocations, profile=profile)
        for name in workloads
    }
    cam = RunLengthPredictor()
    dm = RunLengthPredictor(entries=1500, organisation="direct")
    return PredictorAccuracyResult(
        per_workload=per_workload,
        cam_storage_bytes=cam.storage_bits() // 8,
        direct_mapped_storage_bytes=dm.storage_bits() // 8,
    )
