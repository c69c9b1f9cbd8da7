"""Property-based differential tests: batched ≡ spec methods.

The batch entry points of :class:`repro.memory.hierarchy.MemoryHierarchy`
claim *bit identity* with folding their one-reference spec methods.
The golden suite pins fixed cells; this module lets Hypothesis pick the
cell — workload, policy, seed, model features, core counts — and then
demands that a run under :func:`~tests.goldens.regen.spec_methods` and
an unmodified run agree on

- every counter in ``SimulationStats`` (compared as nested dicts),
- the full decision/trace event stream, record for record,
- final MESI directory state (owner + sharer sets per line),
- throughput, and the MESI/fast-map invariants at end of run.

A lower-level property drives random reference arrays straight
through ``access_batch`` against a fold of ``access`` on a replica
hierarchy, where shrinking produces minimal counterexample streams.
"""

from __future__ import annotations

import dataclasses

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.memory.hierarchy import MemoryHierarchy
from repro.obs.bus import TraceBus
from repro.sim.config import CacheConfig, MemorySystemConfig, SimulatorConfig, TEST_SCALE
from repro.sim.simulator import make_policy, simulate
from repro.workloads.presets import get_workload

from tests.goldens.regen import engine_context


class _ListSink:
    def __init__(self):
        self.records = []

    def write(self, record):
        self.records.append(record)

    def close(self):
        pass


def _run(engine, workload, policy_name, seed, **config_kwargs):
    config = SimulatorConfig(profile=TEST_SCALE, seed=seed, **config_kwargs)
    spec = get_workload(workload)
    policy = make_policy(policy_name, threshold=100, spec=spec, config=config)
    sink = _ListSink()
    with engine_context(engine):
        result = simulate(spec, policy, config=config, bus=TraceBus(sink))
    return result, sink.records


CELLS = st.fixed_dictionaries(
    {
        "workload": st.sampled_from(["apache", "specjbb2005", "derby"]),
        "policy_name": st.sampled_from(["HI", "DI", "ALWAYS", "BASELINE"]),
        "seed": st.integers(min_value=0, max_value=2**31 - 1),
        "enable_tlb": st.booleans(),
        "enable_icache": st.booleans(),
        "track_energy": st.booleans(),
        "num_user_cores": st.integers(min_value=1, max_value=2),
    }
)


@given(cell=CELLS)
@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_engines_bit_identical_on_random_cells(cell):
    cell = dict(cell)
    workload = cell.pop("workload")
    policy_name = cell.pop("policy_name")
    seed = cell.pop("seed")
    scalar, scalar_events = _run(
        "scalar", workload, policy_name, seed, **cell
    )
    batched, batched_events = _run(
        "batched", workload, policy_name, seed, **cell
    )
    assert (
        dataclasses.asdict(scalar.stats) == dataclasses.asdict(batched.stats)
    ), "batched stats diverged from scalar"
    assert scalar_events == batched_events, "batched events diverged"
    assert scalar.throughput == batched.throughput


# ---------------------------------------------------------------------------
# hierarchy-level differential property (shrinks to minimal streams)
# ---------------------------------------------------------------------------

_TINY_MEMORY = MemorySystemConfig(
    l1=CacheConfig(4 * 64, 2, hit_latency=0),
    l1i=CacheConfig(4 * 64, 2, hit_latency=0),
    l2=CacheConfig(16 * 64, 4, hit_latency=12),
)

BATCHES = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=1),  # node
        st.lists(  # (line, is_write) references
            st.tuples(
                st.integers(min_value=0, max_value=47),
                st.booleans(),
            ),
            max_size=60,
        ),
    ),
    max_size=20,
)


def _state(hierarchy: MemoryHierarchy):
    caches = []
    for node in hierarchy.nodes:
        caches.append(list(node.l1.resident_lines()))
        caches.append(list(node.l2.resident_lines()))
    stats = [
        (s.hits, s.misses)
        for group in (hierarchy.l1_stats, hierarchy.l2_stats)
        for s in group.values()
    ]
    return caches, stats, hierarchy.directory.snapshot()


@given(batches=BATCHES)
@settings(max_examples=200, deadline=None)
def test_access_batch_equals_access_fold(batches):
    scalar = MemoryHierarchy(_TINY_MEMORY, ["a", "b"])
    batched = MemoryHierarchy(_TINY_MEMORY, ["a", "b"])
    for node, refs in batches:
        lines = np.array([line for line, _ in refs], dtype=np.int64)
        writes = np.array([w for _, w in refs], dtype=bool)
        scalar_total = 0
        for line, is_write in refs:
            scalar_total += scalar.access(node, line, is_write)
        batched_total = batched.access_batch(node, lines, writes)
        assert scalar_total == batched_total
    assert _state(scalar) == _state(batched)
    scalar.check_invariants()
    batched.check_invariants()
