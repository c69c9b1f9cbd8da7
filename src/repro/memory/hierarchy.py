"""Multi-node cache hierarchy with directory-based MESI coherence.

This is the heart of the memory substrate.  Each *node* (a core) has a
private L1 and a private, inclusive L2.  Nodes are kept coherent by a
full-map directory, with independently charged directory-lookup,
cache-to-cache transfer, and invalidation latencies, mirroring the
paper's Section IV model.  The interconnect has no latency of its own:
its cost is inside those three terms.

The directory keeps no state of its own.  Its answer for a line, which
L2s hold it and which one holds it in E or M, is read from the line's
home set in every node's L2 (all L2s share one geometry), and each
lookup is counted and charged the directory latency.  The L2s
hold the MESI state, and the protocol keeps two invariants on it:

- a line in M or E in one L2 is in no other L2;
- a line in S may be in several L2s, all in S.

The simulator replays whole reference arrays through
:meth:`MemoryHierarchy.access_batch` / :meth:`access_code_batch`, which
return the summed *stall cycles* beyond the base CPI.  The one-reference
:meth:`access` / :meth:`access_code` are one-element batches, so every
reference, simulated or tested, takes the same walk.  Its latency
schedule, where ``L2`` is ``l2.hit_latency`` and the other terms are
:class:`~repro.sim.config.MemorySystemConfig` latencies:

=========================================  ============================
reference                                  stall cycles
=========================================  ============================
L1 hit: read, fetch, or write to E/M line  0 (folded into base CPI)
L1 hit: write to an S line (upgrade)       directory [+ inv]
L2 hit: read, fetch, or write to E/M line  L2
L2 hit: write to an S line (upgrade)       L2 + directory [+ inv]
L2 miss, E/M copy in a peer                L2 + directory + c2c [+ inv]
L2 miss, S copies in peers only            L2 + directory + c2c [+ inv]
L2 miss, no cached copy                    L2 + directory + DRAM
=========================================  ============================

``[+ inv]`` is one invalidation latency, charged when a write takes the
line from at least one peer.  A write leaves the line M in the requester
and uncached everywhere else.  A read or fetch that misses the L2 fills
E from DRAM, or S from peers; an E/M owner drops to S.  An M supplier
and an M L2 victim are written back off the critical path.
``tests/test_mesi_exhaustive.py`` checks every reachable (state,
reference) of small hierarchies against this table.

Inclusion is enforced: an L2 eviction back-invalidates the node's L1, so
an L1-resident line is always L2-resident, which lets the L1 act as a
presence filter while all MESI state transitions are tracked in the L2.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import SimulationError
from repro.memory.cache import Cache, EXCLUSIVE, INVALID, MODIFIED, SHARED
from repro.memory.dram import MainMemory
from repro.sim.config import MemorySystemConfig
from repro.sim.stats import CacheStats, CoherenceStats, EnergyStats


class CoherenceNode:
    """One core-private cache group participating in coherence.

    ``l1i`` is present only when the hierarchy was built with
    instruction-cache modelling; like the data L1 it is a presence
    filter above the unified private L2, which tracks the MESI state.
    """

    __slots__ = ("node_id", "label", "l1", "l1i", "l2")

    def __init__(
        self,
        node_id: int,
        label: str,
        config: MemorySystemConfig,
        l1_stats: CacheStats,
        l2_stats: CacheStats,
        l1i_stats: Optional[CacheStats] = None,
    ):
        self.node_id = node_id
        self.label = label
        self.l1 = Cache(config.l1, l1_stats)
        self.l1i = Cache(config.l1i, l1i_stats) if l1i_stats is not None else None
        self.l2 = Cache(config.l2, l2_stats)


class MemoryHierarchy:
    """Private L1/L2 per node, kept coherent by a full-map MESI directory."""

    def __init__(
        self,
        config: MemorySystemConfig,
        node_labels: Sequence[str],
        coherence_stats: Optional[CoherenceStats] = None,
        energy_stats: Optional[EnergyStats] = None,
        with_icache: bool = False,
    ):
        if not node_labels:
            raise SimulationError("hierarchy needs at least one node")
        self.config = config
        self.coherence = coherence_stats if coherence_stats is not None else CoherenceStats()
        self.energy = energy_stats
        # Miss-path constants, hoisted once: the attribute chains
        # (config -> cache config -> int) otherwise cost more than the
        # additions they feed on every L1 miss.
        self._l2_hit_latency = config.l2.hit_latency
        self._l2_dir_latency = config.l2.hit_latency + config.directory_latency
        self._l2_num_sets = config.l2.num_sets
        self.dram = MainMemory(config.dram_latency)
        self.l1_stats: Dict[str, CacheStats] = {}
        self.l1i_stats: Dict[str, CacheStats] = {}
        self.l2_stats: Dict[str, CacheStats] = {}
        self.nodes: List[CoherenceNode] = []
        for node_id, label in enumerate(node_labels):
            l1_stats = CacheStats()
            l2_stats = CacheStats()
            l1i_stats = CacheStats() if with_icache else None
            self.l1_stats[label] = l1_stats
            self.l2_stats[label] = l2_stats
            if l1i_stats is not None:
                self.l1i_stats[label] = l1i_stats
            self.nodes.append(
                CoherenceNode(node_id, label, config, l1_stats, l2_stats, l1i_stats)
            )

    # ------------------------------------------------------------------
    # hot path
    # ------------------------------------------------------------------

    def access(self, node_id: int, line: int, is_write: bool) -> int:
        """Perform one data access; return stall cycles beyond base CPI.

        A one-element :meth:`access_batch`: the access key's low bit is
        set only for a write.
        """
        node = self.nodes[node_id]
        return self._replay_keys(node, node.l1, [(line << 1) | bool(is_write)])

    def access_code(self, node_id: int, line: int) -> int:
        """Fetch one instruction line; return stall cycles.

        Instruction fetch probes the node's L1I; a miss walks the same
        unified-L2/directory/DRAM path as a data read (code lines are
        read-shared, so they settle into S/E states and never generate
        invalidation traffic).  Requires the hierarchy to have been
        built ``with_icache=True``.  A one-element
        :meth:`access_code_batch`.
        """
        node = self.nodes[node_id]
        return self._replay_keys(node, self._l1i(node), [line << 1])

    @staticmethod
    def _l1i(node: CoherenceNode) -> Cache:
        if node.l1i is None:
            raise SimulationError("hierarchy built without instruction caches")
        return node.l1i

    def _write_hit(self, node: CoherenceNode, line: int) -> int:
        """Write to an L1-resident line: handle the MESI state change.

        The L1 acts as a presence filter, so the authoritative state
        lives in the L2; an S-state write needs a directory upgrade, an
        E-state write transitions silently, and an M-state write is
        free.
        """
        l2_state = node.l2.peek(line)
        if l2_state == SHARED:
            latency = self._upgrade_to_modified(node, line)
            node.l1.set_state(line, MODIFIED)
            return latency
        if l2_state == EXCLUSIVE:
            # Silent E -> M transition: no traffic required.
            node.l2.set_state(line, MODIFIED)
            node.l1.set_state(line, MODIFIED)
        return 0

    def _miss_fill(
        self, node: CoherenceNode, line: int, is_write: bool, l1: Cache
    ) -> int:
        """Everything after an L1 miss: L2 probe, directory, fills.

        ``l1`` is the cache that missed — the node's data L1, or its L1I
        for an instruction fetch (which never writes, so code lines
        settle into S/E states).  Returns the access's stall latency.

        The L2 probe reads the home set directly, counting the hit or
        miss and doing the LRU touch itself — what :meth:`Cache.lookup`
        does, without a method call on every L1 miss.
        """
        energy = self.energy
        if energy is not None:
            energy.l2_accesses += 1
        l2 = node.l2
        l2_set = l2.sets[line % l2.num_sets]
        l2_state = l2_set.get(line, INVALID)
        if l2_state != INVALID:
            l2.stats.hits += 1
            l2_set.move_to_end(line)
            latency = self._l2_hit_latency
            if is_write and l2_state == SHARED:
                latency += self._upgrade_to_modified(node, line)
                l2_state = MODIFIED
            elif is_write:
                l2_state = MODIFIED
                l2.set_state(line, MODIFIED)
            l1.fill(line, l2_state)
            return latency
        l2.stats.misses += 1

        # L2 miss: consult the directory.  This node's L2 just missed,
        # so every sharer is a peer.
        latency = self._l2_dir_latency
        owner, sharers = self._directory_lookup(line)
        new_state: int
        if sharers:
            latency += self._serve_from_peers(line, is_write, owner, sharers)
            new_state = MODIFIED if is_write else SHARED
        else:
            latency += self.dram.fetch()
            if energy is not None:
                energy.dram_accesses += 1
            new_state = MODIFIED if is_write else EXCLUSIVE

        self._fill_l2(node, line, new_state)
        l1.fill(line, new_state)
        return latency

    def access_batch(
        self, node_id: int, lines: np.ndarray, writes: np.ndarray
    ) -> int:
        """Replay a whole data reference stream; return the summed stalls.

        ``tests/test_prop_engine_equivalence.py`` checks that a batch
        equals the left fold of its one-element batches (:meth:`access`).
        """
        node = self.nodes[node_id]
        return self._replay_keys(node, node.l1, ((lines << 1) | writes).tolist())

    def access_code_batch(self, node_id: int, lines: np.ndarray) -> int:
        """Replay a whole instruction-fetch stream; return summed stalls.

        Code fetches never write, so their access keys are read keys.
        """
        node = self.nodes[node_id]
        return self._replay_keys(node, self._l1i(node), (lines << 1).tolist())

    def _replay_keys(
        self, node: CoherenceNode, l1: Cache, keys: List[int]
    ) -> int:
        """Replay access keys ``(line << 1) | is_write`` through ``l1``.

        ``l1`` is the node's data L1 or its L1I.  Every reference, batched
        or one at a time, runs this loop:

        - the batch entry points compute the keys for the whole array
          with one vectorized shift/or and convert them to Python ints
          once (``.tolist()``) instead of boxing one numpy scalar per
          iteration;
        - the dominant fast cases — a read to any L1-resident line, or a
          write to a MODIFIED one, neither of which takes any coherence
          action — collapse into a single probe of the L1's
          :attr:`Cache.fast_map` that yields the home set's bound
          ``move_to_end``, the LRU touch, with hit/miss counts
          accumulated in locals and folded in once per batch
          (:meth:`Cache.record_batch`);
        - a write to a resident S/E line gets its LRU touch and then
          :meth:`_write_hit`, and an L1 miss goes to :meth:`_miss_fill`.

        The write fast path leans on a protocol invariant: an
        L1-resident line's L1 state always mirrors its L2 state (every
        transition site updates both levels), so an L1 write-key —
        maintained from L1 fills and state changes — implies the L2 line
        is MODIFIED and :meth:`_write_hit` would be a no-op.
        :meth:`check_invariants` verifies both the mirror and the map.
        """
        n = len(keys)
        if n == 0:
            return 0
        fast_get = l1.fast_map.get
        write_hit = self._write_hit
        miss_fill = self._miss_fill
        misses = 0
        total = 0
        for key in keys:
            move = fast_get(key)
            if move is not None:
                move(key >> 1)
                continue
            line = key >> 1
            if key & 1:
                read_move = fast_get(line << 1)
                if read_move is not None:
                    # Resident but not MODIFIED: the LRU touch, then the
                    # S/E write transition.
                    read_move(line)
                    total += write_hit(node, line)
                    continue
            misses += 1
            total += miss_fill(node, line, key & 1, l1)
        l1.record_batch(n - misses, misses)
        if self.energy is not None:
            self.energy.l1_accesses += n
        return total

    # ------------------------------------------------------------------
    # protocol actions
    # ------------------------------------------------------------------

    def _directory_lookup(self, line: int) -> Tuple[int, int]:
        """The directory's ``(owner, sharer mask)`` for ``line``.

        Bit ``n`` of the mask is set when node ``n``'s L2 holds the
        line; the owner is the node holding it in E or M, or ``-1``.
        Read from each L2's home set, which one index names in every
        L2.  Counts a directory lookup; the caller charges its latency.
        """
        self.coherence.directory_lookups += 1
        index = line % self._l2_num_sets
        owner = -1
        sharers = 0
        for node in self.nodes:
            state = node.l2.sets[index].get(line, INVALID)
            if state != INVALID:
                sharers |= 1 << node.node_id
                if state != SHARED:
                    owner = node.node_id
        return owner, sharers

    def _upgrade_to_modified(self, node: CoherenceNode, line: int) -> int:
        """S -> M upgrade: invalidate all other sharers via the directory."""
        _, sharers = self._directory_lookup(line)
        latency = self.config.directory_latency
        others = sharers & ~(1 << node.node_id)
        if others:
            self._invalidate_copies(line, others)
            latency += self.config.invalidation_latency
        node.l2.set_state(line, MODIFIED)
        return latency

    def _serve_from_peers(
        self, line: int, is_write: bool, owner: int, sharers: int
    ) -> int:
        """Source a line from peer caches; returns added latency.

        ``owner`` and the non-empty ``sharers`` bitmask are the
        directory's answer to the lookup the L2 miss just made, so
        neither names the requester.
        """
        latency = 0
        if owner != -1:
            # A single E/M owner supplies the data.
            supplier = self.nodes[owner]
            supplier_state = supplier.l2.peek(line)
            latency += self.config.cache_to_cache_latency
            self.coherence.cache_to_cache_transfers += 1
            if is_write:
                self._invalidate_copies(line, sharers)
                latency += self.config.invalidation_latency
                if supplier_state == MODIFIED:
                    self.dram.writeback()
            else:
                if supplier_state == MODIFIED:
                    self.dram.writeback()
                supplier.l2.set_state(line, SHARED)
                supplier.l1.set_state(line, SHARED)
            return latency

        # Shared copies only.
        latency += self.config.cache_to_cache_latency
        self.coherence.cache_to_cache_transfers += 1
        if is_write:
            self._invalidate_copies(line, sharers)
            latency += self.config.invalidation_latency
        return latency

    def _invalidate_copies(self, line: int, sharers: int) -> None:
        """Invalidate ``line`` in each ``sharers`` node's L2, L1 and L1I.

        Every node counts as one coherence invalidation, whichever of its
        caches held the line.
        """
        for other in self.nodes:
            if sharers >> other.node_id & 1:
                other.l2.invalidate(line)
                other.l1.invalidate(line)
                if other.l1i is not None:
                    other.l1i.invalidate(line)
                self.coherence.invalidations += 1

    def _fill_l2(self, node: CoherenceNode, line: int, state: int) -> None:
        victim_line, victim_state = node.l2.fill(line, state)
        if victim_line >= 0:
            # Inclusion: the L1 (and L1I) copies must go too.
            node.l1.invalidate(victim_line)
            if node.l1i is not None:
                node.l1i.invalidate(victim_line)
            if victim_state == MODIFIED:
                self.dram.writeback()

    # ------------------------------------------------------------------
    # invariant checking (used by property tests)
    # ------------------------------------------------------------------

    def check_invariants(self) -> None:
        """Raise :class:`SimulationError` if any MESI invariant is broken.

        Checked invariants:

        1. A line in M or E anywhere is resident in exactly one L2.
        2. L1 contents are a subset of the same node's L2 (inclusion).
        3. An L1-resident line's state mirrors its L2 state (the
           invariant the batched write fast path leans on).
        4. Every cache's fast map mirrors its residency and M states.
        """
        residency: Dict[int, List[int]] = {}
        for node in self.nodes:
            for line, _ in node.l2.resident_lines():
                residency.setdefault(line, []).append(node.node_id)
            for line, state in node.l1.resident_lines():
                if not node.l2.contains(line):
                    raise SimulationError(
                        f"L1 of node {node.node_id} holds line {line} "
                        "absent from its L2 (inclusion violated)"
                    )
                if state != node.l2.peek(line):
                    raise SimulationError(
                        f"L1 of node {node.node_id} holds line {line} in "
                        f"state {state} but its L2 says {node.l2.peek(line)} "
                        "(state mirror violated)"
                    )
            if node.l1i is not None:
                for line, _ in node.l1i.resident_lines():
                    if not node.l2.contains(line):
                        raise SimulationError(
                            f"L1I of node {node.node_id} holds line {line} "
                            "absent from its L2 (inclusion violated)"
                        )
            caches = [node.l1, node.l2]
            if node.l1i is not None:
                caches.append(node.l1i)
            for cache in caches:
                cache.check_fast_map()
        for line, holders in residency.items():
            states = [self.nodes[n].l2.peek(line) for n in holders]
            exclusive_holders = [
                n for n, s in zip(holders, states) if s in (MODIFIED, EXCLUSIVE)
            ]
            if exclusive_holders and len(holders) > 1:
                raise SimulationError(
                    f"line {line} is exclusive in {exclusive_holders} while "
                    f"also cached by {set(holders) - set(exclusive_holders)}"
                )
