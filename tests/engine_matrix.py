"""Engine matrix: whole cells across the model's features, checked.

Each cell is simulated once, through
:func:`~repro.sim.simulator.build_engine` exactly as
:func:`~repro.sim.simulator.simulate` builds it (so a cell with
``threads_per_user_core > 1`` runs the SMT scheduler), and its memory
hierarchy must then pass the MESI/fast-map invariant checker
(:meth:`~repro.memory.hierarchy.MemoryHierarchy.check_invariants`:
M/E exclusivity, sharer sets matching the caches, inclusion, the L1/L2
state mirror, the fast maps).  Cells also assert their shape, so a cell
that stopped exercising what it is for fails: a closed-loop cell
reports no latency, an open-loop cell records requests, the admission
cell drops off-loads, and the cold-start cell is miss-dominated.

The per-reference walk these cells drive is checked against the
hierarchy's latency table by ``tests/test_mesi_exhaustive.py``; the
goldens pin whole-cell counters.

The default tier runs three smoke cells; ``--runslow`` unlocks the full
matrix — every golden preset, every service golden cell, an SMT cell,
a miss-heavy cold-start cell, and a Hypothesis property that draws
random cells across workloads, policies, model features and open-loop
service configurations (arrival model × OS-core pool size × dispatch ×
admission).
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Union

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.offload.migration import AGGRESSIVE
from repro.os_model.interrupts import InterruptModel
from repro.os_model.traps import WindowTrapModel
from repro.service.config import ServiceConfig
from repro.sim.config import (
    CacheConfig,
    MemorySystemConfig,
    SimulatorConfig,
    TEST_SCALE,
)
from repro.sim.simulator import build_engine, make_policy
from repro.workloads.base import MemoryBehavior, WorkloadSpec
from repro.workloads.presets import get_workload

from tests.goldens.regen import GOLDEN_CELLS, SERVICE_CELLS, SERVICE_SEEDS


def _service_config(tag: str) -> ServiceConfig:
    """The ServiceConfig of a service-golden cell (by its tag)."""
    arrivals, os_cores, dispatch = next(
        (a, c, d) for t, a, c, d in SERVICE_CELLS if t == tag
    )
    return ServiceConfig(
        arrivals=arrivals,
        mean_interarrival_cycles=10_000.0,
        os_cores=os_cores,
        dispatch=dispatch,
    )


def run_matrix_cell(
    *,
    workload: Union[str, WorkloadSpec] = "apache",
    policy_name: str = "HI",
    threshold: int = 100,
    seed: int = 2010,
    service: ServiceConfig = None,
    **config_kwargs: Any,
) -> Dict[str, Any]:
    """Run one cell and check its invariants; return stats and latency.

    ``workload`` is a preset name or a literal :class:`WorkloadSpec`,
    so purpose-built cells (e.g. the miss-heavy cold-start spec below)
    can ride the same harness as the presets.
    """
    config = SimulatorConfig(
        profile=TEST_SCALE,
        seed=seed,
        service=service if service is not None else ServiceConfig(),
        **config_kwargs,
    )
    spec = get_workload(workload) if isinstance(workload, str) else workload
    policy = make_policy(
        policy_name, threshold=threshold, spec=spec, config=config
    )
    sim = build_engine(spec, policy, AGGRESSIVE, config)
    stats = sim.run()
    sim.hierarchy.check_invariants()
    latency = sim.latency_snapshot()
    return {
        "stats": dataclasses.asdict(stats),
        "latency": latency.to_dict() if latency is not None else None,
    }


# ----------------------------------------------------------------------
# default tier: smoke cells (one closed-loop, one open-loop, one
# feature-loaded) so every CI lane exercises the harness
# ----------------------------------------------------------------------


def test_matrix_default_cell():
    cell = run_matrix_cell()
    assert cell["latency"] is None  # closed loop reports no latency


def test_matrix_open_loop_pool_cell():
    cell = run_matrix_cell(
        num_user_cores=2,
        service=ServiceConfig(
            arrivals="poisson",
            mean_interarrival_cycles=10_000.0,
            os_cores=2,
            dispatch="steal",
        ),
    )
    assert cell["latency"]["requests"] > 0


def test_matrix_feature_loaded_cell():
    run_matrix_cell(
        seed=7,
        enable_icache=True,
        enable_tlb=True,
        track_energy=True,
        num_user_cores=2,
    )


# ----------------------------------------------------------------------
# --runslow tier: the full matrix
# ----------------------------------------------------------------------


@pytest.mark.slow
@pytest.mark.parametrize("workload,seed", GOLDEN_CELLS)
def test_matrix_golden_presets(workload, seed):
    run_matrix_cell(workload=workload, seed=seed)


@pytest.mark.slow
@pytest.mark.parametrize(
    "tag,seed",
    [(tag, seed) for tag, _, _, _ in SERVICE_CELLS for seed in SERVICE_SEEDS],
)
def test_matrix_service_cells(tag, seed):
    cell = run_matrix_cell(
        seed=seed, num_user_cores=2, service=_service_config(tag)
    )
    assert cell["latency"]["requests"] > 0


@pytest.mark.slow
def test_matrix_smt_admission_cell():
    """Two threads per user core, with every off-load that would queue
    behind another demoted to local execution by admission control."""
    cell = run_matrix_cell(
        num_user_cores=2,
        threads_per_user_core=2,
        enable_icache=True,
        enable_tlb=True,
        service=ServiceConfig(admission="backlog", admission_backlog_cycles=0),
    )
    assert cell["stats"]["offload"]["admission_drops"] > 0


_MB = 1024 * 1024

#: Cold-start, miss-heavy cell: the working set is drawn almost
#: uniformly from far more lines than the run can touch twice, so
#: nearly every batch is dominated by first-touch misses and the
#: miss path carries the run (with a sprinkle of user/OS sharing so
#: peer transfers are exercised too).
#: Working-set lines are full-scale; the profile divides them by 32.
MISS_HEAVY_SPEC = WorkloadSpec(
    name="matrix-miss-heavy",
    description="cold-start cell: wide uniform working set, batches "
                "dominated by first-touch misses",
    syscall_mix=(("getpid", 1.0), ("read", 0.5)),
    os_fraction=0.03,
    memory=MemoryBehavior(
        memory_ratio=0.60,
        write_fraction=0.30,
        user_ws_lines=1_600_000,
        os_ws_lines=64_000,
        shared_ws_lines=6_400,
        hot_fraction=0.02,
        hot_probability=0.05,
        user_shared_fraction=0.05,
    ),
    window_traps=WindowTrapModel(rate=0.0),
    interrupts=InterruptModel(standalone_rate=0.0, extension_probability=0.0),
)

#: Caches big enough that the cold stream never evicts: every first
#: touch stays resident for the whole run.
MISS_HEAVY_MEMORY = MemorySystemConfig(
    l1=CacheConfig(16 * _MB, 16, hit_latency=0),
    l1i=CacheConfig(64 * 1024, 4, hit_latency=0),
    l2=CacheConfig(256 * _MB, 16, hit_latency=12),
)


@pytest.mark.slow
def test_matrix_miss_heavy_cold_start_cell():
    cell = run_matrix_cell(
        workload=MISS_HEAVY_SPEC,
        num_user_cores=2,
        enable_icache=True,
        enable_tlb=True,
        track_energy=True,
        memory=MISS_HEAVY_MEMORY,
    )
    # Cell shape: data-side L1 traffic must be miss-dominated.
    user_l1 = [
        s for label, s in cell["stats"]["l1"].items()
        if label.startswith("user")
    ]
    assert sum(s["misses"] for s in user_l1) > sum(s["hits"] for s in user_l1)


MATRIX_CELLS = st.fixed_dictionaries(
    {
        "workload": st.sampled_from(["apache", "specjbb2005", "derby"]),
        "policy_name": st.sampled_from(["HI", "DI", "ALWAYS", "BASELINE"]),
        "seed": st.integers(min_value=0, max_value=2**31 - 1),
        "enable_tlb": st.booleans(),
        "enable_icache": st.booleans(),
        "track_energy": st.booleans(),
        "num_user_cores": st.integers(min_value=1, max_value=2),
        "service": st.one_of(
            st.just(ServiceConfig()),
            st.builds(
                ServiceConfig,
                arrivals=st.sampled_from(["poisson", "bursty", "diurnal"]),
                mean_interarrival_cycles=st.sampled_from(
                    [5_000.0, 10_000.0, 20_000.0]
                ),
                os_cores=st.integers(min_value=1, max_value=3),
                dispatch=st.sampled_from(["shard", "shortest", "steal"]),
                admission=st.sampled_from(["none", "backlog"]),
                admission_backlog_cycles=st.sampled_from([0, 20_000]),
            ),
        ),
    }
)


@pytest.mark.slow
@given(cell=MATRIX_CELLS)
@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_matrix_on_random_cells(cell):
    run_matrix_cell(**cell)
