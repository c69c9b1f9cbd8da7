"""Property-based tests for the cache against a reference LRU model."""

from collections import OrderedDict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory.cache import Cache, EXCLUSIVE, INVALID, MODIFIED, SHARED
from repro.sim.config import CacheConfig

LINES = st.integers(min_value=0, max_value=63)
STATES = st.sampled_from([SHARED, EXCLUSIVE, MODIFIED])
#: Long op sequences over four lines per set of the 4-set, 2-way cache
#: under test, so most examples evict a MODIFIED line (short lists over
#: 64 lines almost never do).
OPS = st.lists(
    st.tuples(
        st.sampled_from(["lookup", "fill", "invalidate", "set_state"]),
        st.integers(min_value=0, max_value=15),
        STATES,
    ),
    min_size=50,
    max_size=200,
)


class ReferenceLRU:
    """Straightforward per-set LRU model (with line states) to check against."""

    def __init__(self, num_sets, associativity):
        self.num_sets = num_sets
        self.associativity = associativity
        self.sets = [OrderedDict() for _ in range(num_sets)]

    def lookup(self, line):
        cache_set = self.sets[line % self.num_sets]
        if line in cache_set:
            cache_set.move_to_end(line)
            return cache_set[line]
        return INVALID

    def fill(self, line, state):
        cache_set = self.sets[line % self.num_sets]
        victim = (-1, INVALID)
        if line not in cache_set and len(cache_set) >= self.associativity:
            victim = cache_set.popitem(last=False)
        cache_set[line] = state
        cache_set.move_to_end(line)
        return victim

    def invalidate(self, line):
        return self.sets[line % self.num_sets].pop(line, INVALID)

    def set_state(self, line, state):
        cache_set = self.sets[line % self.num_sets]
        if line in cache_set:
            cache_set[line] = state

    def lru_order(self):
        return [list(cache_set.items()) for cache_set in self.sets]


def apply(cache, op, line, state):
    """One op on a :class:`Cache` or a :class:`ReferenceLRU`."""
    if op == "lookup":
        return cache.lookup(line)
    if op == "fill":
        return cache.fill(line, state)
    if op == "invalidate":
        return cache.invalidate(line)
    return cache.set_state(line, state)


@given(ops=OPS)
@settings(max_examples=100, deadline=None)
def test_cache_matches_reference_lru(ops):
    cache = Cache(CacheConfig(8 * 64, 2))
    reference = ReferenceLRU(cache.num_sets, cache.associativity)
    for op, line, state in ops:
        assert apply(cache, op, line, state) == apply(reference, op, line, state)
        assert cache.lru_snapshot() == reference.lru_order()
        cache.check_fast_map()


@given(ops=OPS)
@settings(max_examples=100, deadline=None)
def test_occupancy_never_exceeds_capacity(ops):
    cache = Cache(CacheConfig(8 * 64, 2))
    for op, line, state in ops:
        apply(cache, op, line, state)
        assert cache.occupancy() <= cache.config.num_lines


@given(lines=st.lists(LINES, min_size=1, max_size=100))
@settings(max_examples=100, deadline=None)
def test_stats_count_every_access(lines):
    cache = Cache(CacheConfig(8 * 64, 2))
    for line in lines:
        state = cache.lookup(line)
        if state == INVALID:
            cache.fill(line, SHARED)
    assert cache.stats.accesses == len(lines)
    assert cache.stats.hits + cache.stats.misses == len(lines)
