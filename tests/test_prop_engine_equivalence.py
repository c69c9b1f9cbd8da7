"""The left-fold property: a batch equals its one-element batches.

:meth:`MemoryHierarchy.access` and :meth:`MemoryHierarchy.access_code`
are one-element calls of the loop behind
:meth:`MemoryHierarchy.access_batch` and
:meth:`MemoryHierarchy.access_code_batch`.
``tests/test_mesi_exhaustive.py`` checks every one-element batch from
every reachable state of small hierarchies against the latency table,
and that covers every batch only if a batch is the left fold of its
one-element batches.  This property checks that premise: Hypothesis
draws interleaved data and instruction-fetch batches over two nodes,
and replaying each batch whole must equal replaying it one reference at
a time on a replica hierarchy — the same stall totals, per-set LRU
order of every L1, L1I and L2 (the directory's answers are read from
the L2s), hit/miss counters, coherence, DRAM and energy counters.
Shrinking yields minimal counterexample streams.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory.hierarchy import MemoryHierarchy
from repro.sim.config import CacheConfig, MemorySystemConfig
from repro.sim.stats import CoherenceStats, EnergyStats

_TINY_MEMORY = MemorySystemConfig(
    l1=CacheConfig(4 * 64, 2, hit_latency=0),
    l1i=CacheConfig(4 * 64, 2, hit_latency=0),
    l2=CacheConfig(16 * 64, 4, hit_latency=12),
)

BATCHES = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=1),  # node
        st.booleans(),  # an instruction-fetch batch (writes ignored)
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


def _build() -> MemoryHierarchy:
    return MemoryHierarchy(
        _TINY_MEMORY,
        ["a", "b"],
        CoherenceStats(),
        EnergyStats(),
        with_icache=True,
    )


def _state(hierarchy: MemoryHierarchy):
    caches = [
        cache.lru_snapshot()
        for node in hierarchy.nodes
        for cache in (node.l1, node.l1i, node.l2)
    ]
    stats = [
        vars(s)
        for group in (
            hierarchy.l1_stats, hierarchy.l1i_stats, hierarchy.l2_stats
        )
        for s in group.values()
    ]
    return (
        caches,
        stats,
        vars(hierarchy.coherence),
        vars(hierarchy.energy),
        (hierarchy.dram.fetches, hierarchy.dram.writebacks),
    )


@given(batches=BATCHES)
@settings(max_examples=200, deadline=None)
def test_access_batch_equals_access_fold(batches):
    folded = _build()
    batched = _build()
    for node, fetch, refs in batches:
        lines = np.array([line for line, _ in refs], dtype=np.int64)
        if fetch:
            expected = sum(folded.access_code(node, line) for line, _ in refs)
            assert batched.access_code_batch(node, lines) == expected
        else:
            writes = np.array([w for _, w in refs], dtype=bool)
            expected = sum(folded.access(node, line, w) for line, w in refs)
            assert batched.access_batch(node, lines, writes) == expected
    assert _state(batched) == _state(folded)
    folded.check_invariants()
    batched.check_invariants()
