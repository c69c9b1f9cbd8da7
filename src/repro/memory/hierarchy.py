"""Multi-node cache hierarchy with directory-based MESI coherence.

This is the heart of the memory substrate.  Each *node* (a core) has a
private L1 and a private, inclusive L2.  Nodes are kept coherent by a
full-map :class:`~repro.memory.mesi.Directory` over a point-to-point
fabric, with independently charged directory-lookup, cache-to-cache
transfer, and invalidation latencies, mirroring the paper's Section IV
model.

The simulator replays whole reference arrays through
:meth:`MemoryHierarchy.access_batch` / :meth:`access_code_batch`, which
return the summed *stall cycles* beyond the base CPI.  The one-reference
spec methods :meth:`access` / :meth:`access_code` are the executable
specification: each batch entry point is bit-identical to folding its
spec method over the array (same stalls, statistics and final
cache/directory state).  The latency schedule is:

=====================================  ==============================
L1 hit                                 0 (folded into base CPI)
L2 hit                                 ``l2.hit_latency`` (12)
L2 miss, clean copy in a peer          directory + cache-to-cache
L2 miss, dirty/exclusive copy in peer  directory + cache-to-cache
write to a line shared by peers        directory + invalidation
L2 miss, no cached copy                directory + DRAM (350)
=====================================  ==============================

Inclusion is enforced: an L2 eviction back-invalidates the node's L1, so
an L1-resident line is always L2-resident, which lets the L1 act as a
presence filter while all MESI state transitions are tracked in the L2.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.errors import SimulationError
from repro.memory.cache import Cache, EXCLUSIVE, INVALID, MODIFIED, SHARED
from repro.memory.dram import MainMemory
from repro.memory.interconnect import PointToPointFabric
from repro.memory.mesi import Directory
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
    """Private L1/L2 per node, kept coherent by a MESI directory."""

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
        self.directory = Directory(self.coherence)
        self.fabric = PointToPointFabric()
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
        """Perform one data access; return stall cycles beyond base CPI."""
        node = self.nodes[node_id]
        return self._access(node, node.l1, line, is_write)

    def access_code(self, node_id: int, line: int) -> int:
        """Fetch one instruction line; return stall cycles.

        Instruction fetch probes the node's L1I; a miss walks the same
        unified-L2/directory/DRAM path as a data read (code lines are
        read-shared, so they settle into S/E states and never generate
        invalidation traffic).  Requires the hierarchy to have been
        built ``with_icache=True``.
        """
        node = self.nodes[node_id]
        return self._access(node, self._l1i(node), line, False)

    def _access(
        self, node: CoherenceNode, l1: Cache, line: int, is_write: bool
    ) -> int:
        """One reference through ``l1`` (the data L1 or the L1I)."""
        if self.energy is not None:
            self.energy.l1_accesses += 1
        if l1.lookup(line) != INVALID:
            if is_write:
                return self._write_hit(node, line)
            return 0
        return self._miss_fill(node, line, is_write, l1)

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
        free.  Shared by :meth:`_access` and :meth:`_replay_keys`.
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
        settle into S/E states).  Shared by :meth:`_access` and
        :meth:`_replay_keys` so the two cannot drift; returns the access's
        stall latency.
        """
        energy = self.energy
        if energy is not None:
            energy.l2_accesses += 1
        l2_state = node.l2.lookup(line)
        if l2_state != INVALID:
            latency = self._l2_hit_latency
            if is_write and l2_state == SHARED:
                latency += self._upgrade_to_modified(node, line)
                l2_state = MODIFIED
            elif is_write:
                l2_state = MODIFIED
                node.l2.set_state(line, MODIFIED)
            l1.fill(line, l2_state)
            return latency

        # L2 miss: consult the directory.
        node_id = node.node_id
        latency = self._l2_dir_latency
        entry = self.directory.lookup(line)
        others = entry.sharers
        new_state: int
        if others and (len(others) > 1 or node_id not in others):
            latency += self._serve_from_peers(node, line, is_write, entry.owner)
            new_state = MODIFIED if is_write else SHARED
        else:
            latency += self.dram.fetch()
            if energy is not None:
                energy.dram_accesses += 1
            new_state = MODIFIED if is_write else EXCLUSIVE
            self.directory.record_fill(line, node_id, exclusive=True)

        self._fill_l2(node, line, new_state)
        l1.fill(line, new_state)
        return latency

    def access_batch(
        self, node_id: int, lines: np.ndarray, writes: np.ndarray
    ) -> int:
        """Replay a whole data reference stream; return the summed stalls.

        Bit-identical to folding :meth:`access` over ``(lines, writes)``
        — same stall total, hit/miss/coherence/energy counters, LRU
        orders and directory state.
        """
        node = self.nodes[node_id]
        return self._replay_keys(node, node.l1, ((lines << 1) | writes).tolist())

    def access_code_batch(self, node_id: int, lines: np.ndarray) -> int:
        """Replay a whole instruction-fetch stream; return summed stalls.

        Bit-identical to folding :meth:`access_code` over ``lines``.
        Code fetches never write, so their access keys are read keys.
        """
        node = self.nodes[node_id]
        return self._replay_keys(node, self._l1i(node), (lines << 1).tolist())

    def _replay_keys(
        self, node: CoherenceNode, l1: Cache, keys: List[int]
    ) -> int:
        """Fold :meth:`_access` over access keys ``(line << 1) | is_write``.

        Faster than calling :meth:`_access` per reference:

        - the keys are computed for the whole array with one vectorized
          shift/or and converted to Python ints once (``.tolist()``)
          instead of boxing one numpy scalar per iteration;
        - the dominant fast cases — a read to any L1-resident line, or a
          write to a MODIFIED one, neither of which takes any coherence
          action — collapse into a single probe of the L1's
          :attr:`Cache.fast_map` that yields the home set's bound
          ``move_to_end``, i.e. exactly the LRU touch :meth:`_access`
          performs, with hit/miss counts accumulated in locals and
          folded in once per batch (:meth:`Cache.record_batch`);
        - every other reference reuses the helpers :meth:`_access`
          calls (:meth:`_write_hit` / :meth:`_miss_fill`), so the
          protocol has one encoding.

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

    def _upgrade_to_modified(self, node: CoherenceNode, line: int) -> int:
        """S -> M upgrade: invalidate all other sharers via the directory."""
        entry = self.directory.lookup(line)
        latency = self.config.directory_latency
        others = [n for n in entry.sharers if n != node.node_id]
        if others:
            self._invalidate_copies(line, others)
            latency += self.config.invalidation_latency
            latency += self.fabric.broadcast_latency(node.node_id, len(others))
        self.directory.set_owner(line, node.node_id)
        node.l2.set_state(line, MODIFIED)
        return latency

    def _serve_from_peers(
        self, node: CoherenceNode, line: int, is_write: bool, owner: int
    ) -> int:
        """Source a line from peer caches; returns added latency."""
        latency = 0
        entry = self.directory.peek(line)
        if owner != -1 and owner != node.node_id:
            # A single E/M owner supplies the data.
            supplier = self.nodes[owner]
            supplier_state = supplier.l2.peek(line)
            latency += self.config.cache_to_cache_latency
            latency += self.fabric.latency(owner, node.node_id)
            self.coherence.cache_to_cache_transfers += 1
            if is_write:
                self._invalidate_copies(line, (owner,))
                latency += self.config.invalidation_latency
                if supplier_state == MODIFIED:
                    self.dram.writeback()
                self.directory.set_owner(line, node.node_id)
            else:
                if supplier_state == MODIFIED:
                    self.dram.writeback()
                supplier.l2.set_state(line, SHARED)
                supplier.l1.set_state(line, SHARED)
                self.directory.downgrade_owner(line)
                self.directory.record_fill(line, node.node_id, exclusive=False)
            return latency

        # Shared copies only.
        sharers = [n for n in entry.sharers if n != node.node_id]
        if not sharers:
            raise SimulationError(
                f"directory entry for line {line} inconsistent: "
                f"sharers={entry.sharers}, requester={node.node_id}"
            )
        supplier_id = sharers[0]
        latency += self.config.cache_to_cache_latency
        latency += self.fabric.latency(supplier_id, node.node_id)
        self.coherence.cache_to_cache_transfers += 1
        if is_write:
            self._invalidate_copies(line, sharers)
            latency += self.config.invalidation_latency
            latency += self.fabric.broadcast_latency(node.node_id, len(sharers))
            self.directory.set_owner(line, node.node_id)
        else:
            self.directory.record_fill(line, node.node_id, exclusive=False)
        return latency

    def _invalidate_copies(self, line: int, node_ids: Sequence[int]) -> None:
        """Invalidate ``line`` in each listed node's L2, L1 and L1I.

        Every node counts as one coherence invalidation, whichever of its
        caches held the line.
        """
        for node_id in node_ids:
            other = self.nodes[node_id]
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
            self.directory.record_eviction(victim_line, node.node_id)
            if victim_state == MODIFIED:
                self.dram.writeback()

    # ------------------------------------------------------------------
    # invariant checking (used by property tests)
    # ------------------------------------------------------------------

    def check_invariants(self) -> None:
        """Raise :class:`SimulationError` if any MESI invariant is broken.

        Checked invariants:

        1. Directory sharer sets exactly match L2 residency.
        2. A line in M or E anywhere is resident in exactly one L2.
        3. L1 contents are a subset of the same node's L2 (inclusion).
        4. An L1-resident line's state mirrors its L2 state (the
           invariant the batched write fast path leans on).
        5. Every cache's fast map mirrors its residency and M states.
        """
        residency: Dict[int, List[int]] = {}
        for node in self.nodes:
            for line, state in node.l2.resident_lines():
                residency.setdefault(line, []).append(node.node_id)
                if state in (MODIFIED, EXCLUSIVE):
                    entry = self.directory.peek(line)
                    if entry.owner != node.node_id:
                        raise SimulationError(
                            f"line {line} is E/M in node {node.node_id} but "
                            f"directory owner is {entry.owner}"
                        )
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
            entry = self.directory.peek(line)
            if set(holders) != entry.sharers:
                raise SimulationError(
                    f"directory sharers for line {line} are {entry.sharers} "
                    f"but caches holding it are {set(holders)}"
                )
            states = [self.nodes[n].l2.peek(line) for n in holders]
            exclusive_holders = [
                n for n, s in zip(holders, states) if s in (MODIFIED, EXCLUSIVE)
            ]
            if exclusive_holders and len(holders) > 1:
                raise SimulationError(
                    f"line {line} is exclusive in {exclusive_holders} while "
                    f"also cached by {set(holders) - set(exclusive_holders)}"
                )
