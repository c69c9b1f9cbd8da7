"""Small-scope exhaustive check of the MESI hierarchy against its table.

The hierarchy is shrunk until its whole reachable state space fits in a
test: every node has a one-line L1 and L1I over a one-set, two-way L2,
so a handful of lines already forces L1 conflicts, L2 evictions and
back-invalidation.  A one-line L1 has no LRU order to get wrong, so
further scopes give the data L1 two ways.  Starting from the empty
hierarchy, a breadth-first walk applies every operation — each (node,
line, read/write/fetch) — to every reachable state once, as the
simulator does: a one-element :meth:`MemoryHierarchy.access_batch` or
:meth:`MemoryHierarchy.access_code_batch`.

The specification each outcome is checked against is the latency table
in :mod:`repro.memory.hierarchy`'s docstring.  :func:`expect` classifies
the pre-state from the cache contents (:meth:`Cache.peek` and
:meth:`Cache.lru_snapshot`, never the fast map the batch loop probes):
an L1 hit, an L2 hit, an E/M copy in a peer, S copies in peers only, or
no cached copy, where a write to an S line is an upgrade.  From the
class alone it derives

- the stall cycles;
- the line's state afterwards in the requester and in every peer;
- LRU order: the line is MRU in the requester's L1; an L1 hit leaves
  the requester's L2 order alone, and an L1 miss makes the line MRU
  there, after evicting the LRU line of a full set from the L2 and
  both L1s;
- every counter delta: L1, L1I and L2 hits and misses, directory
  lookups, cache-to-cache transfers, invalidations, DRAM fetches,
  writebacks of an M supplier or an M L2 victim, and energy accesses.

Every successor must also pass :meth:`MemoryHierarchy.check_invariants`
(M/E exclusivity, inclusion, the L1/L2 state mirror, the fast maps).
The walk's latencies are distinct powers of two, so a stall names
exactly the terms it charged.

A batch is the left fold of its one-element batches
(``tests/test_prop_engine_equivalence.py`` checks that), so agreeing
with the table on every one-element batch from every reachable state
covers every batch within the scope.
"""

from __future__ import annotations

import dataclasses
from collections import Counter, deque
from typing import Any, Dict, List, Optional, Tuple

import numpy as np
import pytest

from repro.memory.cache import EXCLUSIVE, INVALID, MODIFIED, SHARED
from repro.memory.hierarchy import MemoryHierarchy
from repro.sim.config import CacheConfig, MemorySystemConfig
from repro.sim.stats import CoherenceStats, EnergyStats

#: One-line L1 and L1I over a one-set, two-way L2.
ONE_WAY_L1 = MemorySystemConfig(
    l1=CacheConfig(64, 1, hit_latency=0),
    l1i=CacheConfig(64, 1, hit_latency=0),
    l2=CacheConfig(128, 2, hit_latency=1),
    directory_latency=2,
    cache_to_cache_latency=4,
    invalidation_latency=8,
    dram_latency=16,
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
    """Every cache's per-set LRU order, hashable.

    The caches are the hierarchy's whole state: its directory reads
    the L2s.
    """
    return tuple(
        tuple(
            tuple(tuple(cache_set) for cache_set in cache.lru_snapshot())
            for cache in (node.l1, node.l1i, node.l2)
        )
        for node in hierarchy.nodes
    )


def clone(
    memory: MemorySystemConfig, key: Tuple[Any, ...], nodes: int
) -> MemoryHierarchy:
    """A fresh hierarchy (all counters zero) in the state ``key`` names."""
    hierarchy = _build(memory, nodes)
    for node, node_caches in zip(hierarchy.nodes, key):
        for cache, sets in zip((node.l1, node.l1i, node.l2), node_caches):
            for cache_set in sets:
                for line, state in cache_set:  # LRU first, MRU last
                    cache.fill(line, state)
    return hierarchy


def counters(hierarchy: MemoryHierarchy) -> Dict[str, int]:
    """Every non-zero counter the hierarchy keeps, by name."""
    values = {}
    for level, group in (
        ("l1", hierarchy.l1_stats),
        ("l1i", hierarchy.l1i_stats),
        ("l2", hierarchy.l2_stats),
    ):
        for label, stats in group.items():
            values[f"{level}.{label}.hits"] = stats.hits
            values[f"{level}.{label}.misses"] = stats.misses
    values.update(vars(hierarchy.coherence))
    values["dram.fetches"] = hierarchy.dram.fetches
    values["dram.writebacks"] = hierarchy.dram.writebacks
    for name, value in vars(hierarchy.energy).items():
        if isinstance(value, int):  # not the per-event energy costs
            values[f"energy.{name}"] = value
    return {name: value for name, value in values.items() if value}


def apply(hierarchy: MemoryHierarchy, node: int, line: int, kind: str) -> int:
    """One reference as a one-element batch; return its stall cycles."""
    lines = np.array([line], dtype=np.int64)
    if kind == FETCH:
        return hierarchy.access_code_batch(node, lines)
    return hierarchy.access_batch(node, lines, np.array([kind == WRITE]))


@dataclasses.dataclass
class Expected:
    """What the latency table says one reference does."""

    stall: int
    #: Counter deltas, as :func:`counters` names them.
    counters: Dict[str, int]
    #: The requester's L2 state for the line afterwards.
    state: int
    #: The requester's L1 (or L1I) entry for the line afterwards.
    l1_entry: Tuple[int, int]
    #: The lines of the requester's L2 home set afterwards, LRU first.
    l2_order: List[int]
    #: The requester's L2 victim, or ``None``.
    victim: Optional[int]
    #: Peers' ``{node id: (L2 state, L1 state)}`` for the line afterwards.
    peers: Dict[int, Tuple[int, int]]


def expect(
    hierarchy: MemoryHierarchy, node_id: int, line: int, kind: str
) -> Expected:
    """Derive a reference's outcome from the table and the cache contents."""
    memory = hierarchy.config
    write = kind == WRITE
    me = hierarchy.nodes[node_id]
    l1, level = (me.l1i, "l1i") if kind == FETCH else (me.l1, "l1")
    l1_state = l1.peek(line)
    state = me.l2.peek(line)
    home = me.l2.lru_snapshot()[line % me.l2.num_sets]
    peers = {
        node.node_id: (node.l2.peek(line), node.l1.peek(line))
        for node in hierarchy.nodes
        if node is not me
    }
    holders = [peer for peer, (l2, _) in peers.items() if l2 != INVALID]
    owner = [peer for peer in holders if peers[peer][0] in (EXCLUSIVE, MODIFIED)]
    deltas = Counter({"energy.l1_accesses": 1})
    losers: List[int] = []  # peers whose copies the reference invalidates
    victim = None
    l1_miss = l1_state == INVALID
    deltas[f"{level}.{me.label}.{'misses' if l1_miss else 'hits'}"] += 1
    if l1_miss:
        deltas["energy.l2_accesses"] += 1
    if state != INVALID:  # L1 hit, or L2 hit
        stall = memory.l2.hit_latency if l1_miss else 0
        deltas[f"l2.{me.label}.hits"] += l1_miss
        if write and state == SHARED:  # upgrade
            stall += memory.directory_latency
            deltas["directory_lookups"] += 1
            losers = holders
        if write:
            state = MODIFIED
    else:  # L2 miss: the directory answers
        stall = memory.l2.hit_latency + memory.directory_latency
        deltas[f"l2.{me.label}.misses"] += 1
        deltas["directory_lookups"] += 1
        if holders:
            stall += memory.cache_to_cache_latency
            deltas["cache_to_cache_transfers"] += 1
            if owner and peers[owner[0]][0] == MODIFIED:
                deltas["dram.writebacks"] += 1
            if write:
                losers = holders
            else:
                for peer in owner:
                    l1_copy = peers[peer][1]
                    peers[peer] = (SHARED, SHARED if l1_copy else INVALID)
            state = MODIFIED if write else SHARED
        else:
            stall += memory.dram_latency
            deltas["dram.fetches"] += 1
            deltas["energy.dram_accesses"] += 1
            state = MODIFIED if write else EXCLUSIVE
        if len(home) == me.l2.associativity:
            victim = home[0][0]
            deltas["dram.writebacks"] += home[0][1] == MODIFIED
    if losers:
        stall += memory.invalidation_latency
        deltas["invalidations"] += len(losers)
        for peer in losers:
            peers[peer] = (INVALID, INVALID)
    # A fetch that hits the L1I leaves its entry's state alone.
    l1_entry = (line, state if l1_miss or kind != FETCH else l1_state)
    # An L1 hit leaves the L2's LRU order alone; an L1 miss makes the
    # line MRU there, after evicting the LRU line of a full set.
    l2_order = [entry[0] for entry in home]
    if l1_miss:
        l2_order = [x for x in l2_order if x not in (line, victim)] + [line]
    return Expected(stall, +deltas, state, l1_entry, l2_order, victim, peers)


def check(
    hierarchy: MemoryHierarchy, op: Tuple[int, int, str], expected: Expected
) -> None:
    """Compare the hierarchy after ``op`` with the table's expectation."""
    node_id, line, kind = op
    me = hierarchy.nodes[node_id]
    l1 = me.l1i if kind == FETCH else me.l1
    assert counters(hierarchy) == expected.counters, "counters"
    assert me.l2.peek(line) == expected.state, "requester's L2 state"
    assert l1.lru_snapshot()[line % l1.num_sets][-1] == expected.l1_entry, (
        "requester's L1 entry is not MRU in the expected state"
    )
    home = me.l2.lru_snapshot()[line % me.l2.num_sets]
    assert [entry[0] for entry in home] == expected.l2_order, "L2 LRU order"
    if expected.victim is not None:
        for cache in (me.l1, me.l1i):
            assert not cache.contains(expected.victim), "L2 victim in an L1"
    for peer, states in expected.peers.items():
        other = hierarchy.nodes[peer]
        assert (other.l2.peek(line), other.l1.peek(line)) == states, (
            f"peer {peer}'s line state"
        )
        if states[0] == INVALID:
            assert not other.l1i.contains(line), f"peer {peer}'s L1I copy"
    hierarchy.check_invariants()


def explore(
    memory: MemorySystemConfig, nodes: int, lines: int, kinds: Tuple[str, ...]
) -> int:
    """Walk every reachable state; return how many there are.

    Fails on the first (state, op) whose outcome differs from what the
    latency table says, or that breaks an invariant.
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
            node_id, line, kind = op
            hierarchy = clone(memory, key, nodes)
            expected = expect(hierarchy, node_id, line, kind)
            stall = apply(hierarchy, node_id, line, kind)
            assert stall == expected.stall, f"stall: {op} from {key}"
            try:
                check(hierarchy, op, expected)
            except AssertionError as error:
                raise AssertionError(f"{error}: {op} from {key}") from error
            successor = state_key(hierarchy)
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
        apply(hierarchy, node, line, kind)
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
        # One node, three lines: an L2 eviction while the L1I holds code.
        (ONE_WAY_L1, 1, 3, RWF, 157),
        # Four nodes: a requester's answer combines three peers' L2s.
        (ONE_WAY_L1, 4, 2, RW, 2_105),
    ],
    ids=[
        "3n2l-rw", "2n3l-rw", "2n2l-rwf", "2n2l-rw-l1x2", "1n3l-rwf",
        "4n2l-rw",
    ],
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
