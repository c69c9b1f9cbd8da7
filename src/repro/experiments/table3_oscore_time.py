"""Table III — fraction of execution time spent on the OS core.

For the three server workloads under selective migration with a
5,000-cycle off-loading overhead, the paper reports the percentage of
total execution time the OS core was active at each threshold:

=============  ======  ======  ======  ========
Benchmark       N=100  N=1000  N=5000  N=10000+
=============  ======  ======  ======  ========
Apache         45.75%  37.96%  17.83%  17.68%
SPECjbb2005    34.48%  33.15%  21.28%  14.79%
Derby           8.2%    5.4%    1.2%    0.2%
=============  ======  ======  ======  ========

The shape this experiment must reproduce: occupancy falls as N rises,
Apache ≫ SPECjbb ≫ Derby at every threshold, and at the optimal small
thresholds the OS core is busy enough that "it is unlikely that multiple
user-cores will be able to share a single OS core successfully" — the
setup for the Section V.C scalability study.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro.analysis.tables import render_table
from repro.core.policies import HardwareInstrumentation
from repro.experiments.common import default_config
from repro.offload.migration import CONSERVATIVE, MigrationModel
from repro.sim.config import SimulatorConfig
from repro.sim.simulator import simulate
from repro.workloads.presets import SERVER_WORKLOADS, get_workload

TABLE3_THRESHOLDS: Tuple[int, ...] = (100, 1000, 5000, 10000)

#: The paper's Table III, for side-by-side rendering.
PAPER_TABLE3: Dict[str, Dict[int, float]] = {
    "apache": {100: 0.4575, 1000: 0.3796, 5000: 0.1783, 10000: 0.1768},
    "specjbb2005": {100: 0.3448, 1000: 0.3315, 5000: 0.2128, 10000: 0.1479},
    "derby": {100: 0.082, 1000: 0.054, 5000: 0.012, 10000: 0.002},
}


@dataclass
class Table3Result:
    occupancy: Dict[str, Dict[int, float]]
    thresholds: Tuple[int, ...]
    migration: MigrationModel

    def render(self) -> str:
        rows = []
        for name, by_threshold in self.occupancy.items():
            rows.append(
                [name]
                + [f"{100 * by_threshold[n]:.2f}%" for n in self.thresholds]
                + [
                    " / ".join(
                        f"{100 * PAPER_TABLE3[name][n]:.1f}"
                        for n in self.thresholds
                    )
                    if name in PAPER_TABLE3
                    else ""
                ]
            )
        return render_table(
            ["Benchmark"] + [f"N={n}" for n in self.thresholds] + ["paper (%)"],
            rows,
            title=(
                "Table III: % of execution time on the OS core "
                f"({self.migration.one_way_latency}-cycle off-load overhead)"
            ),
        )

    def value(self, workload: str, threshold: int) -> float:
        return self.occupancy[workload][threshold]


def run_table3(
    config: Optional[SimulatorConfig] = None,
    workloads: Sequence[str] = SERVER_WORKLOADS,
    thresholds: Sequence[int] = TABLE3_THRESHOLDS,
    migration: MigrationModel = CONSERVATIVE,
) -> Table3Result:
    config = config or default_config()
    occupancy: Dict[str, Dict[int, float]] = {}
    for name in workloads:
        spec = get_workload(name)
        occupancy[name] = {}
        for threshold in thresholds:
            policy = HardwareInstrumentation(threshold=threshold)
            run = simulate(spec, policy, migration, config)
            occupancy[name][threshold] = run.stats.os_core_time_fraction()
    return Table3Result(
        occupancy=occupancy, thresholds=tuple(thresholds), migration=migration
    )
