"""Set-associative, LRU-replacement cache model at line granularity.

Addresses handled by this module are *line numbers*, not byte addresses:
every structure in the simulator works on 64-byte-line granularity (the
paper's line size), so byte offsets carry no information.  A line maps to
set ``line % num_sets``.

The cache stores only presence and a per-line MESI state byte; data values
are never modelled.  Each set is an ``OrderedDict`` used as an LRU list:
a hit moves the line to the MRU end, a fill evicts the LRU end.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.sim.config import CacheConfig
from repro.sim.stats import CacheStats

# MESI states, kept as module-level ints for hot-loop speed.
INVALID = 0
SHARED = 1
EXCLUSIVE = 2
MODIFIED = 3

STATE_NAMES = {INVALID: "I", SHARED: "S", EXCLUSIVE: "E", MODIFIED: "M"}


class Cache:
    """One set-associative cache with LRU replacement and MESI line states.

    The class exposes the minimal operations the hierarchy needs:

    - :meth:`lookup` — probe and update LRU, returning the line state.
    - :meth:`fill` — insert a line in a given state, returning any victim.
    - :meth:`invalidate` — remove a line (coherence back-invalidation).
    - :meth:`set_state` — change the MESI state of a resident line.

    Statistics are recorded in an externally supplied :class:`CacheStats`
    so that several structural caches can share one counter group if a
    caller wants aggregated numbers.
    """

    def __init__(self, config: CacheConfig, stats: Optional[CacheStats] = None):
        self.config = config
        self.num_sets = config.num_sets
        self.associativity = config.associativity
        self.stats = stats if stats is not None else CacheStats()
        # One OrderedDict per set: {line: mesi_state}, LRU at the front.
        self._sets: List["OrderedDict[int, int]"] = [
            OrderedDict() for _ in range(self.num_sets)
        ]
        # Fast-path map for the batched replay loop, maintained on the (rare)
        # membership/state-changing paths below.  Keys are
        # ``line << 1`` (present iff the line is resident) and
        # ``(line << 1) | 1`` (present iff resident *and* MODIFIED);
        # values are the home set's bound ``move_to_end``.  One probe of
        # this dict therefore answers "is this access a pure LRU touch?"
        # for both reads (any resident line) and writes (an M line needs
        # no coherence action) and hands back the touch operation itself
        # — collapsing the spec path's modulo, set index, state probe
        # and statistics updates into two dict operations per reference.
        self._fast: Dict[int, Callable[[int], None]] = {}

    def lookup(self, line: int, update_lru: bool = True) -> int:
        """Probe the cache for ``line``.

        Returns the MESI state (``INVALID`` on miss) and counts a hit or a
        miss.  On a hit with ``update_lru`` the line becomes MRU.
        """
        cache_set = self._sets[line % self.num_sets]
        state = cache_set.get(line, INVALID)
        if state != INVALID:
            self.stats.hits += 1
            if update_lru:
                cache_set.move_to_end(line)
        else:
            self.stats.misses += 1
        return state

    def peek(self, line: int) -> int:
        """Probe without touching LRU order or statistics."""
        return self._sets[line % self.num_sets].get(line, INVALID)

    # ------------------------------------------------------------------
    # batched fast-path support
    # ------------------------------------------------------------------
    #
    # The batched replay loop (:meth:`MemoryHierarchy.access_batch`)
    # drives whole reference arrays through the per-set ``OrderedDict``
    # structures directly.  The cache contributes the :attr:`fast_map`
    # (see ``_fast`` above) and a bulk statistics sink so the driver can
    # accumulate hit/miss counts in locals and fold them in once per
    # batch — the counters end up exactly where the spec path puts
    # them, just without a Python-level attribute bump per reference.

    @property
    def fast_map(self) -> Dict[int, Callable[[int], None]]:
        """The batched replay loop's ``{access key: LRU touch}`` map."""
        return self._fast

    def record_batch(self, hits: int, misses: int) -> None:
        """Fold a batch's locally accumulated hit/miss counts in."""
        self.stats.hits += hits
        self.stats.misses += misses

    def fill(self, line: int, state: int) -> Tuple[int, int]:
        """Insert ``line`` in ``state``; return ``(victim_line, victim_state)``.

        The victim is ``(-1, INVALID)`` when no eviction was necessary.
        Filling a line that is already resident just updates its state and
        LRU position.
        """
        cache_set = self._sets[line % self.num_sets]
        key = line << 1
        fast = self._fast
        if line in cache_set:
            cache_set[line] = state
            cache_set.move_to_end(line)
            if state == MODIFIED:
                fast[key | 1] = fast[key]
            else:
                fast.pop(key | 1, None)
            return -1, INVALID
        victim_line, victim_state = -1, INVALID
        if len(cache_set) >= self.associativity:
            victim_line, victim_state = cache_set.popitem(last=False)
            victim_key = victim_line << 1
            del fast[victim_key]
            fast.pop(victim_key | 1, None)
        cache_set[line] = state
        move = cache_set.move_to_end
        fast[key] = move
        if state == MODIFIED:
            fast[key | 1] = move
        return victim_line, victim_state

    def invalidate(self, line: int) -> int:
        """Remove ``line`` if resident; return its previous state."""
        cache_set = self._sets[line % self.num_sets]
        state = cache_set.pop(line, INVALID)
        if state != INVALID:
            key = line << 1
            del self._fast[key]
            self._fast.pop(key | 1, None)
        return state

    def set_state(self, line: int, state: int) -> None:
        """Change the MESI state of a resident line (no LRU update)."""
        cache_set = self._sets[line % self.num_sets]
        if line in cache_set:
            cache_set[line] = state
            key = line << 1
            if state == MODIFIED:
                self._fast[key | 1] = self._fast[key]
            else:
                self._fast.pop(key | 1, None)

    def contains(self, line: int) -> bool:
        return line in self._sets[line % self.num_sets]

    def resident_lines(self) -> Iterator[Tuple[int, int]]:
        """Yield ``(line, state)`` for every resident line (for checks)."""
        for cache_set in self._sets:
            yield from cache_set.items()

    def lru_snapshot(self) -> List[List[Tuple[int, int]]]:
        """Per-set ``[(line, state), ...]`` lists in LRU→MRU order.

        The engine matrix compares these lists between the spec-method
        and batched runs of a cell: *order* equality is a stronger check
        than residency, because two caches that agree here will also
        agree on every future victim.
        """
        return [list(cache_set.items()) for cache_set in self._sets]

    def occupancy(self) -> int:
        """Number of resident lines."""
        return sum(len(s) for s in self._sets)

    def check_fast_map(self) -> None:
        """Verify the fast map mirrors residency and MODIFIED states.

        Raises ``AssertionError`` on any divergence; called from the
        hierarchy's invariant checker (and thus the property suites) so
        a maintenance bug in one of the mutation paths above cannot
        silently turn batched hits into spec-path misses or vice versa.
        """
        expected = {}
        for cache_set in self._sets:
            for line, state in cache_set.items():
                expected[line << 1] = cache_set
                if state == MODIFIED:
                    expected[(line << 1) | 1] = cache_set
        assert set(self._fast) == set(expected), (
            "fast map keys diverged from residency: "
            f"extra={set(self._fast) - set(expected)}, "
            f"missing={set(expected) - set(self._fast)}"
        )
        for key, move in self._fast.items():
            assert move.__self__ is expected[key], (
                f"fast map key {key} bound to the wrong set"
            )

    def flush(self) -> None:
        """Drop all contents (used between warm-up phases in tests)."""
        for cache_set in self._sets:
            cache_set.clear()
        self._fast.clear()
