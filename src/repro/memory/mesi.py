"""Directory-based MESI coherence protocol state.

The paper keeps two (or more) private L2 caches coherent with a
directory-based MESI protocol over a point-to-point interconnect, and
models "directory lookup, cache-to-cache transfers, and coherence
invalidation overheads independently".

This module holds the *directory* side of the protocol: for every line
that is cached anywhere it tracks the set of sharer nodes (as a bitmask,
bit ``n`` for node ``n``) and whether one of them holds the line
exclusively (E or M).  The per-cache line states
live inside :class:`repro.memory.cache.Cache`; the
:class:`repro.memory.hierarchy.MemoryHierarchy` drives both in lock-step
and enforces the protocol invariants:

- a line in M or E in one cache is in no other cache;
- a line in S may be in several caches, all in S;
- the directory's sharer set exactly matches the caches holding the line.

The interconnect has no model of its own: its cost is inside the
directory, cache-to-cache and invalidation latencies the hierarchy
charges.  Every reference reaches the directory through the
hierarchy's miss and upgrade helpers, so every protocol transition has
one encoding, which ``tests/test_mesi_exhaustive.py`` checks against
the hierarchy's latency table on every reachable state of small
hierarchies.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.errors import SimulationError
from repro.sim.stats import CoherenceStats


def nodes_of(mask: int) -> List[int]:
    """The node ids whose bits are set in a sharer ``mask``, ascending."""
    return [node for node in range(mask.bit_length()) if mask >> node & 1]


class Directory:
    """Full-map directory over the private L2 caches.

    The directory is accessed on every L2 miss and on upgrade (S->M)
    requests.  It answers "who has this line" so the hierarchy can charge
    the right latency (cache-to-cache transfer vs. DRAM fetch) and send
    the right invalidations.

    State is two int maps, with no per-line object: ``_sharers`` maps a
    line with at least one cached copy to its sharer bitmask (the
    exclusive owner included), and ``_owner`` maps a line held in E or M
    to that node.  A line absent from ``_owner`` is shared or uncached
    (owner ``-1``); every line in ``_owner`` is in ``_sharers``.  Only
    the protocol transitions below write them, so probing a line never
    makes the directory track it.
    """

    def __init__(self, stats: CoherenceStats):
        self.stats = stats
        self._owner: Dict[int, int] = {}
        self._sharers: Dict[int, int] = {}

    def lookup(self, line: int) -> Tuple[int, int]:
        """``(owner, sharer mask)`` of ``line``: ``(-1, 0)`` if uncached.

        Counts a directory lookup; latency is charged by the hierarchy.
        """
        self.stats.directory_lookups += 1
        return self._owner.get(line, -1), self._sharers.get(line, 0)

    def peek(self, line: int) -> Tuple[int, int]:
        """:meth:`lookup` without counting a lookup (checks/tests)."""
        return self._owner.get(line, -1), self._sharers.get(line, 0)

    def record_fill(self, line: int, node: int, exclusive: bool) -> None:
        """Note that ``node`` now holds ``line``.

        ``exclusive`` marks an E/M fill; the caller must already have
        invalidated or downgraded other copies.
        """
        bit = 1 << node
        mask = self._sharers.get(line, 0)
        if exclusive:
            if mask & ~bit:
                raise SimulationError(
                    f"exclusive fill of line {line} by node {node} while "
                    f"sharers {nodes_of(mask)} still hold it"
                )
            self._owner[line] = node
        else:
            self._owner.pop(line, None)
        self._sharers[line] = mask | bit

    def record_eviction(self, line: int, node: int) -> None:
        """Note that ``node`` dropped its copy of ``line``."""
        mask = self._sharers.get(line)
        if mask is None:
            return
        mask &= ~(1 << node)
        if mask:
            self._sharers[line] = mask
            if self._owner.get(line) == node:
                del self._owner[line]
        else:
            del self._sharers[line]
            self._owner.pop(line, None)

    def downgrade_owner(self, line: int) -> None:
        """Owner moves from E/M to S (another node read the line)."""
        self._owner.pop(line, None)

    def set_owner(self, line: int, node: int) -> None:
        """Promote ``node`` to exclusive owner (after invalidating others)."""
        self._owner[line] = node
        self._sharers[line] = 1 << node

    def owner_of(self, line: int) -> int:
        """Exclusive (E/M) owner of ``line``, or ``-1``; no lookup counted."""
        return self._owner.get(line, -1)

    def sharers_of(self, line: int) -> Set[int]:
        """Current sharer set (empty when uncached); no lookup counted."""
        return set(nodes_of(self._sharers.get(line, 0)))

    def tracked_lines(self) -> Set[int]:
        """All lines with at least one cached copy (for invariant checks)."""
        return set(self._sharers)

    def snapshot(self) -> Dict[int, Tuple[int, Tuple[int, ...]]]:
        """Deterministic ``{line: (owner, sorted sharers)}`` view.

        The exhaustive MESI walk keys its states on it, and the
        left-fold property asserts that a batch and its one-element
        batches end with *equal snapshots* — a stronger check than
        comparing counters alone.
        """
        return {
            line: (self._owner.get(line, -1), tuple(nodes_of(mask)))
            for line, mask in self._sharers.items()
        }
