"""Open-loop tail latency vs. offered load and OS-core provisioning.

The paper's Section V.C measures the cost of funnelling several user
cores' OS work through one OS core as a *mean* queueing delay, and
closes with "1:1, or possibly 1:N, may be the appropriate ratio of
provisioning OS cores".  This experiment asks the service-operator's
version of that question: drive the simulator **open loop** — requests
arrive on a seeded schedule whether or not the core is ready — and
report request latency percentiles (exact nearest-rank p50/p99/p999)
as offered load rises, for a single OS core and for
:class:`~repro.offload.oscore.OsCorePool` pools.

The shape to look for: at low load every column agrees (latency is
migration + service); as load approaches the single OS core's service
capacity its p99 explodes — the saturation cliff — while pools with
two or four OS cores hold the tail flat for another factor of N.

Each (load, pool-size) combination is one single-cell batch through
:func:`~repro.experiments.common.run_job_grid` (a batch shares one
simulator configuration, and the service knobs *are* configuration),
so every cell is independently cacheable and bit-identical between ``--jobs 1`` and ``--jobs 2`` and from a warm
cache.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Sequence, Tuple

from repro.analysis.tables import render_table
from repro.errors import ConfigurationError
from repro.experiments.common import default_config, run_job_grid
from repro.runner import JobSpec
from repro.service.config import ServiceConfig
from repro.sim.config import SimulatorConfig

#: Offered loads swept by default, in requests per 1,000 cycles per
#: thread (the reciprocal of the mean interarrival time in kilocycles).
#: Chosen to bracket the single-OS-core saturation cliff at the default
#: profile: apache/HI@100 p50 sits in the hundreds of cycles at 0.05,
#: then climbs two orders of magnitude between 0.1 and 0.3 with one OS
#: core while a 4-core pool stays in the low thousands.
DEFAULT_LOADS: Tuple[float, ...] = (0.05, 0.1, 0.2, 0.3)

#: Pool sizes swept by default: the paper's single OS core plus the
#: 1:1-leaning provisioning its conclusion points at.
DEFAULT_OS_CORES: Tuple[int, ...] = (1, 2, 4)


def service_tag(arrivals: str, load: float, os_cores: int) -> str:
    """The job tag identifying one (arrival model, load, pool) combo."""
    return f"svc-{arrivals}-r{load:g}-x{os_cores}"


@dataclass
class LatencyCell:
    """Measured latency distribution of one (load, pool-size) cell."""

    load: float
    os_cores: int
    requests: int
    drops: int
    p50: int
    p99: int
    p999: int
    mean: float
    max: int
    normalized_throughput: float

    @property
    def table_entry(self) -> str:
        return f"{self.p50:,}/{self.p99:,}/{self.p999:,}"


@dataclass
class LatencySweepResult:
    """Latency percentiles across the load x pool-size grid."""

    workload: str
    arrivals: str
    dispatch: str
    policy: str
    threshold: int
    user_cores: int
    loads: Tuple[float, ...]
    os_cores: Tuple[int, ...]
    cells: Dict[Tuple[float, int], LatencyCell] = field(default_factory=dict)

    def cell(self, load: float, os_cores: int) -> LatencyCell:
        return self.cells[(load, os_cores)]

    def render(self) -> str:
        header = ["Load (req/kcycle)"] + [
            f"{n} OS core{'s' if n > 1 else ''}" for n in self.os_cores
        ]
        rows = [
            [f"{load:g}"] + [
                self.cells[(load, n)].table_entry for n in self.os_cores
            ]
            for load in self.loads
        ]
        return render_table(
            header,
            rows,
            title=(
                f"Request latency p50/p99/p999 cycles ({self.workload}, "
                f"{self.arrivals} arrivals, {self.user_cores} user cores, "
                f"{self.policy}@N={self.threshold}, "
                f"dispatch={self.dispatch})"
            ),
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "workload": self.workload,
            "arrivals": self.arrivals,
            "dispatch": self.dispatch,
            "policy": self.policy,
            "threshold": self.threshold,
            "user_cores": self.user_cores,
            "loads": list(self.loads),
            "os_cores": list(self.os_cores),
            "cells": [
                {
                    "load": cell.load,
                    "os_cores": cell.os_cores,
                    "requests": cell.requests,
                    "drops": cell.drops,
                    "p50": cell.p50,
                    "p99": cell.p99,
                    "p999": cell.p999,
                    "mean": cell.mean,
                    "max": cell.max,
                    "normalized_throughput": cell.normalized_throughput,
                }
                for cell in self.cells.values()
            ],
        }


def run_latency(
    config: Optional[SimulatorConfig] = None,
    workload: str = "apache",
    arrivals: str = "poisson",
    loads: Sequence[float] = DEFAULT_LOADS,
    os_cores: Sequence[int] = DEFAULT_OS_CORES,
    dispatch: str = "shortest",
    policy: str = "HI",
    threshold: int = 100,
    latency: int = 100,
    user_cores: int = 2,
    **runner: Any,
) -> LatencySweepResult:
    """Sweep request-latency percentiles over load and pool size.

    ``loads`` are offered loads in requests per 1,000 cycles per user
    thread; ``latency`` is the one-way migration latency in cycles (the
    grid axis name the rest of the CLI uses).  The per-combination
    simulator configurations differ only in their ``service`` block, so
    the (closed-loop, service-stripped) baseline is shared by every
    cell of the sweep.
    """
    if not loads:
        raise ConfigurationError("run_latency needs at least one load")
    if not os_cores:
        raise ConfigurationError("run_latency needs at least one pool size")
    base = config or default_config()
    base = dataclasses.replace(base, num_user_cores=user_cores)

    result = LatencySweepResult(
        workload=workload,
        arrivals=arrivals,
        dispatch=dispatch,
        policy=policy,
        threshold=threshold,
        user_cores=user_cores,
        loads=tuple(loads),
        os_cores=tuple(os_cores),
    )
    for cores in os_cores:
        for load in loads:
            if load <= 0:
                raise ConfigurationError(
                    f"offered load must be positive, got {load!r}"
                )
            service = ServiceConfig(
                arrivals=arrivals,
                mean_interarrival_cycles=1000.0 / load,
                os_cores=cores,
                dispatch=dispatch,
            )
            combo_config = dataclasses.replace(base, service=service)
            tag = service_tag(arrivals, load, cores)
            spec = JobSpec(
                workload=workload, policy=policy, threshold=threshold,
                latency=latency, tag=tag,
            )
            # One single-cell batch per combination: a batch runs one
            # configuration, and the service knobs are configuration.
            # The baseline is service-stripped, so every combination
            # shares it.
            batch = run_job_grid([spec], combo_config, **runner)
            batch.raise_on_failures()
            cell_metrics = batch.get(spec.resolved(combo_config.seed)).metrics
            result.cells[(load, cores)] = LatencyCell(
                load=load,
                os_cores=cores,
                requests=int(cell_metrics["requests"]),
                drops=int(cell_metrics["admission_drops"]),
                p50=int(cell_metrics["latency_p50_cycles"]),
                p99=int(cell_metrics["latency_p99_cycles"]),
                p999=int(cell_metrics["latency_p999_cycles"]),
                mean=float(cell_metrics["latency_mean_cycles"]),
                max=int(cell_metrics["latency_max_cycles"]),
                normalized_throughput=float(
                    cell_metrics["normalized_throughput"]
                ),
            )
    return result
