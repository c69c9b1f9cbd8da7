"""A3 — predictor organisation ablation.

Section III.A makes several design claims about the predictor that this
ablation checks directly on the invocation streams:

- a **200-entry fully-associative** table performs close to an
  infinite-history predictor (we sweep CAM sizes 25...3,200);
- a **1,500-entry tag-less direct-mapped** table "provides similar
  accuracy" at ~3.3 KB;
- the **2-bit confidence** counter and the **global last-3 fallback**
  both earn their area (we toggle each off).

The metric is the Figure 3 binary accuracy at the paper's N=500 plus the
exact/close decomposition, averaged over the server workloads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.analysis.metrics import arithmetic_mean
from repro.analysis.tables import render_table
from repro.core.predictor import (
    DIRECT_MAPPED,
    FULLY_ASSOCIATIVE,
    RunLengthPredictor,
)
from repro.experiments.predictor_accuracy import score_predictor
from repro.sim.config import DEFAULT_SCALE, ScaleProfile
from repro.workloads.generator import invocation_stream
from repro.workloads.presets import SERVER_WORKLOADS, get_workload

#: Seed of the invocation streams every variant is scored on.
STREAM_SEED = 31


@dataclass
class VariantScore:
    label: str
    exact_rate: float
    close_rate: float
    binary_accuracy_500: float
    storage_bytes: int


@dataclass
class PredictorAblationResult:
    scores: List[VariantScore]

    def render(self) -> str:
        rows = [
            (
                s.label,
                f"{100 * s.exact_rate:.1f}%",
                f"{100 * s.close_rate:.1f}%",
                f"{100 * s.binary_accuracy_500:.1f}%",
                f"{s.storage_bytes} B",
            )
            for s in self.scores
        ]
        return render_table(
            ["Variant", "Exact", "Within ±5%", "Binary@500", "Storage"],
            rows,
            title="Predictor organisation ablation (server-workload mean)",
        )

    def score_for(self, label: str) -> VariantScore:
        for score in self.scores:
            if score.label == label:
                return score
        raise KeyError(label)


def run_predictor_ablation(
    workloads: Sequence[str] = SERVER_WORKLOADS,
    invocations: int = 12000,
    profile: ScaleProfile = DEFAULT_SCALE,
    cam_sizes: Sequence[int] = (25, 50, 100, 200, 800, 3200),
) -> PredictorAblationResult:
    variants: Dict[str, callable] = {}
    for size in cam_sizes:
        variants[f"CAM-{size}"] = (
            lambda size=size: RunLengthPredictor(
                entries=size, organisation=FULLY_ASSOCIATIVE
            )
        )
    variants["DM-1500 (tag-less)"] = lambda: RunLengthPredictor(
        entries=1500, organisation=DIRECT_MAPPED
    )
    variants["CAM-200 no confidence"] = lambda: RunLengthPredictor(
        use_confidence=False
    )
    variants["CAM-200 no fallback"] = lambda: RunLengthPredictor(
        use_global_fallback=False
    )
    # Every variant is scored on the same streams, so draw each once.
    streams = [
        list(invocation_stream(
            get_workload(name), profile, STREAM_SEED, invocations,
            include_window_traps=False,
        ))
        for name in workloads
    ]
    scores: List[VariantScore] = []
    for label, factory in variants.items():
        per_stream = [
            score_predictor(factory(), stream, (500,)) for stream in streams
        ]
        scores.append(
            VariantScore(
                label=label,
                exact_rate=arithmetic_mean(s.exact_rate for s in per_stream),
                close_rate=arithmetic_mean(s.close_rate for s in per_stream),
                binary_accuracy_500=arithmetic_mean(
                    s.binary_accuracy(500) for s in per_stream
                ),
                storage_bytes=factory().storage_bits() // 8,
            )
        )
    return PredictorAblationResult(scores=scores)
