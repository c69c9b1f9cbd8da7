"""Figure 3 — binary prediction hit rate vs. core-migration threshold.

The off-load decision distils the discrete run-length prediction into a
binary one: *will this invocation run longer than N?*  Figure 3 plots
the accuracy of that binary prediction for N ∈ {100 ... 10,000} on
Apache, SPECjbb2005, Derby, and the compute-benchmark average; at N=500
the paper quotes 94.8 %, 93.4 %, 96.8 % and 99.6 % respectively.

One pass of the predictor over an invocation stream scores every
threshold simultaneously (the prediction is threshold-independent), so
this experiment is cheap even with tens of thousands of invocations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

from repro.analysis.metrics import arithmetic_mean
from repro.analysis.tables import render_series
from repro.core.predictor import RunLengthPredictor
from repro.experiments.common import FULL_COMPUTE_GROUP, REPORT_GROUPS, group_members
from repro.experiments.predictor_accuracy import score_predictor
from repro.sim.config import DEFAULT_SCALE, ScaleProfile
from repro.workloads.generator import invocation_stream
from repro.workloads.presets import get_workload

#: Thresholds of the paper's Figure 3 x-axis.
FIG3_THRESHOLDS: Tuple[int, ...] = (100, 500, 1000, 5000, 10000)


@dataclass
class Fig3Result:
    """Binary accuracy per report group per threshold."""

    accuracy: Dict[str, Dict[int, float]]
    thresholds: Tuple[int, ...]
    invocations: int

    def render(self) -> str:
        series = {
            group: [self.accuracy[group][n] for n in self.thresholds]
            for group in self.accuracy
        }
        return render_series(
            "Figure 3: binary prediction hit rate vs. trigger threshold N "
            "(paper @500: apache 94.8%, specjbb 93.4%, derby 96.8%, "
            "compute 99.6%)",
            "group\\N",
            self.thresholds,
            series,
            fmt="{:.1%}",
        )

    def at(self, group: str, threshold: int) -> float:
        return self.accuracy[group][threshold]


def binary_accuracy_for(
    workload: str,
    thresholds: Sequence[int] = FIG3_THRESHOLDS,
    invocations: int = 20000,
    profile: ScaleProfile = DEFAULT_SCALE,
    seed: int = 4096,
) -> Dict[int, float]:
    """Score the binary off-load decision at every threshold in one pass."""
    stream = invocation_stream(
        get_workload(workload), profile, seed, invocations,
        include_window_traps=False,
    )
    stats = score_predictor(RunLengthPredictor(), stream, thresholds)
    return {n: stats.binary_accuracy(n) for n in thresholds}


def run_fig3(
    thresholds: Sequence[int] = FIG3_THRESHOLDS,
    invocations: int = 20000,
    profile: ScaleProfile = DEFAULT_SCALE,
) -> Fig3Result:
    """Reproduce Figure 3 for the paper's four report groups."""
    accuracy: Dict[str, Dict[int, float]] = {}
    for group in REPORT_GROUPS:
        members = group_members(group, FULL_COMPUTE_GROUP)
        per_member = [
            binary_accuracy_for(
                name, thresholds=thresholds, invocations=invocations, profile=profile
            )
            for name in members
        ]
        accuracy[group] = {
            n: arithmetic_mean(member[n] for member in per_member)
            for n in thresholds
        }
    return Fig3Result(
        accuracy=accuracy, thresholds=tuple(thresholds), invocations=invocations
    )
