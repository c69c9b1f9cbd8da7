"""Small-scope exhaustive check of the MESI hierarchy.

The hierarchy is shrunk until its whole reachable state space fits in a
test: every node has a one-line L1 and L1I over a one-set, two-way L2,
so a handful of lines already forces L1 conflicts, L2 evictions and
back-invalidation.  A one-line L1 has no LRU order to get wrong, so
further scopes give the data L1 two ways.  Starting from the empty
hierarchy, a breadth-first
walk applies every operation — each (node, line, read/write/fetch) —
to every reachable state, twice:

- through the spec method (:meth:`MemoryHierarchy.access` /
  :meth:`MemoryHierarchy.access_code`) on one copy of the state, and
- through a one-element :meth:`MemoryHierarchy.access_batch` /
  :meth:`MemoryHierarchy.access_code_batch` on another copy.

The two copies must agree on the stall cycles, the successor state
(per-set LRU order of every cache plus the directory) and every cache,
coherence, DRAM and energy counter, and both must pass
:meth:`MemoryHierarchy.check_invariants` (M/E exclusivity, sharer sets
matching the caches, inclusion, the L1/L2 state mirror, the fast maps).

A batch entry point is a left fold of per-reference steps over the
same state, so agreeing on every one-element batch from every reachable
state covers every batch within the scope.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from typing import Any, Dict, List, Tuple

import numpy as np
import pytest

from repro.memory.hierarchy import MemoryHierarchy
from repro.sim.config import CacheConfig, MemorySystemConfig
from repro.sim.stats import CoherenceStats, EnergyStats

#: One-line L1 and L1I over a one-set, two-way L2.
ONE_WAY_L1 = MemorySystemConfig(
    l1=CacheConfig(64, 1, hit_latency=0),
    l1i=CacheConfig(64, 1, hit_latency=0),
    l2=CacheConfig(128, 2, hit_latency=12),
)
#: The same with a one-set, two-way data L1, whose LRU order matters.
TWO_WAY_L1 = dataclasses.replace(
    ONE_WAY_L1, l1=CacheConfig(128, 2, hit_latency=0)
)

READ, WRITE, FETCH = "read", "write", "fetch"


def _build(memory: MemorySystemConfig, nodes: int) -> MemoryHierarchy:
    return MemoryHierarchy(
        memory,
        [f"n{i}" for i in range(nodes)],
        CoherenceStats(),
        EnergyStats(),
        with_icache=True,
    )


def state_key(hierarchy: MemoryHierarchy) -> Tuple[Any, ...]:
    """Every cache's per-set LRU order plus the directory, hashable."""
    caches = tuple(
        tuple(
            tuple(tuple(cache_set) for cache_set in cache.lru_snapshot())
            for cache in (node.l1, node.l1i, node.l2)
        )
        for node in hierarchy.nodes
    )
    return caches, tuple(sorted(hierarchy.directory.snapshot().items()))


def clone(
    memory: MemorySystemConfig, key: Tuple[Any, ...], nodes: int
) -> MemoryHierarchy:
    """A fresh hierarchy (all counters zero) in the state ``key`` names."""
    hierarchy = _build(memory, nodes)
    caches, directory = key
    for node, node_caches in zip(hierarchy.nodes, caches):
        for cache, sets in zip((node.l1, node.l1i, node.l2), node_caches):
            for cache_set in sets:
                for line, state in cache_set:  # LRU first, MRU last
                    cache.fill(line, state)
    for line, (owner, sharers) in directory:
        entry = hierarchy.directory.peek(line)
        entry.owner = owner
        entry.sharers = set(sharers)
    return hierarchy


def counters(hierarchy: MemoryHierarchy) -> Dict[str, Any]:
    # vars(), not dataclasses.asdict(): the stats are flat, and asdict
    # would dominate the walk's run time.
    return {
        "caches": [
            dict(vars(stats))
            for group in (
                hierarchy.l1_stats, hierarchy.l1i_stats, hierarchy.l2_stats
            )
            for stats in group.values()
        ],
        "coherence": dict(vars(hierarchy.coherence)),
        "dram": (hierarchy.dram.fetches, hierarchy.dram.writebacks),
        "energy": dict(vars(hierarchy.energy)),
    }


def apply_spec(hierarchy: MemoryHierarchy, node: int, line: int, kind: str) -> int:
    if kind == FETCH:
        return hierarchy.access_code(node, line)
    return hierarchy.access(node, line, kind == WRITE)


def apply_batch(hierarchy: MemoryHierarchy, node: int, line: int, kind: str) -> int:
    lines = np.array([line], dtype=np.int64)
    if kind == FETCH:
        return hierarchy.access_code_batch(node, lines)
    return hierarchy.access_batch(node, lines, np.array([kind == WRITE]))


def explore(
    memory: MemorySystemConfig, nodes: int, lines: int, kinds: Tuple[str, ...]
) -> int:
    """Walk every reachable state; return how many there are.

    Fails on the first (state, op) where the spec method and the
    one-element batch disagree or either breaks an invariant.
    """
    ops: List[Tuple[int, int, str]] = [
        (node, line, kind)
        for node in range(nodes)
        for line in range(lines)
        for kind in kinds
    ]
    start = state_key(_build(memory, nodes))
    seen = {start}
    frontier = deque([start])
    while frontier:
        key = frontier.popleft()
        for op in ops:
            spec = clone(memory, key, nodes)
            batch = clone(memory, key, nodes)
            spec_stalls = apply_spec(spec, *op)
            batch_stalls = apply_batch(batch, *op)
            spec.check_invariants()
            batch.check_invariants()
            successor = state_key(spec)
            assert batch_stalls == spec_stalls, f"stalls: {op} from {key}"
            assert state_key(batch) == successor, f"state: {op} from {key}"
            assert counters(batch) == counters(spec), f"counters: {op} from {key}"
            if successor not in seen:
                seen.add(successor)
                frontier.append(successor)
    return len(seen)


def test_clone_reproduces_state():
    hierarchy = _build(TWO_WAY_L1, 2)
    for node, line, kind in [
        (0, 0, WRITE), (1, 0, READ), (1, 1, FETCH), (0, 2, READ),
        (1, 2, WRITE), (0, 1, READ),
    ]:
        apply_spec(hierarchy, node, line, kind)
    key = state_key(hierarchy)
    copy = clone(TWO_WAY_L1, key, 2)
    assert state_key(copy) == key
    copy.check_invariants()


RW = (READ, WRITE)
RWF = (READ, WRITE, FETCH)


@pytest.mark.parametrize(
    "memory,nodes,lines,kinds,states",
    [
        (ONE_WAY_L1, 3, 2, RW, 371),
        (ONE_WAY_L1, 2, 3, RW, 1_060),
        (ONE_WAY_L1, 2, 2, RWF, 1_703),
        (TWO_WAY_L1, 2, 2, RW, 99),
    ],
    ids=["3n2l-rw", "2n3l-rw", "2n2l-rwf", "2n2l-rw-l1x2"],
)
def test_spec_and_batch_agree_on_every_reachable_state(
    memory, nodes, lines, kinds, states
):
    assert explore(memory, nodes, lines, kinds) == states


@pytest.mark.slow
@pytest.mark.parametrize(
    "memory,nodes,lines,kinds,states",
    [
        (ONE_WAY_L1, 2, 3, RWF, 41_971),
        (ONE_WAY_L1, 3, 2, RWF, 44_979),
        (TWO_WAY_L1, 2, 3, RW, 1_636),
    ],
    ids=["2n3l-rwf", "3n2l-rwf", "2n3l-rw-l1x2"],
)
def test_spec_and_batch_agree_on_larger_scopes(memory, nodes, lines, kinds, states):
    assert explore(memory, nodes, lines, kinds) == states
