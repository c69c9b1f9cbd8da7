"""Unit tests for the set-associative LRU cache."""

import pytest

from repro.errors import ConfigurationError
from repro.memory.cache import Cache, EXCLUSIVE, INVALID, MODIFIED, SHARED
from repro.sim.config import CacheConfig


def make_cache(lines=8, assoc=2):
    return Cache(CacheConfig(lines * 64, assoc, hit_latency=0))


class TestGeometry:
    def test_num_lines_and_sets(self):
        cache = make_cache(lines=8, assoc=2)
        assert cache.config.num_lines == 8
        assert cache.num_sets == 4

    def test_rejects_non_multiple_size(self):
        with pytest.raises(ConfigurationError):
            CacheConfig(100, 3)

    def test_rejects_negative_latency(self):
        with pytest.raises(ConfigurationError):
            CacheConfig(1024, 2, hit_latency=-1)


class TestLookupAndFill:
    def test_miss_then_hit(self):
        cache = make_cache()
        assert cache.lookup(5) == INVALID
        cache.fill(5, SHARED)
        assert cache.lookup(5) == SHARED
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_fill_returns_no_victim_when_room(self):
        cache = make_cache()
        assert cache.fill(1, EXCLUSIVE) == (-1, INVALID)

    def test_fill_existing_updates_state(self):
        cache = make_cache()
        cache.fill(1, SHARED)
        victim = cache.fill(1, MODIFIED)
        assert victim == (-1, INVALID)
        assert cache.peek(1) == MODIFIED
        assert cache.occupancy() == 1

    def test_lru_eviction_order(self):
        cache = make_cache(lines=4, assoc=2)  # 2 sets
        # Lines 0, 2, 4 all map to set 0 (line % 2 == 0).
        cache.fill(0, SHARED)
        cache.fill(2, SHARED)
        cache.lookup(0)  # 0 becomes MRU; 2 is LRU
        victim_line, victim_state = cache.fill(4, SHARED)
        assert victim_line == 2
        assert victim_state == SHARED
        assert cache.contains(0)
        assert not cache.contains(2)

    def test_peek_does_not_touch_lru_or_stats(self):
        cache = make_cache(lines=4, assoc=2)
        cache.fill(0, SHARED)
        cache.fill(2, SHARED)
        cache.peek(0)  # must NOT refresh line 0
        hits, misses = cache.stats.hits, cache.stats.misses
        victim_line, _ = cache.fill(4, SHARED)
        assert victim_line == 0  # 0 was still LRU
        assert (cache.stats.hits, cache.stats.misses) == (hits, misses)


class TestInvalidateAndState:
    def test_invalidate_returns_previous_state(self):
        cache = make_cache()
        cache.fill(3, MODIFIED)
        assert cache.invalidate(3) == MODIFIED
        assert cache.invalidate(3) == INVALID
        assert not cache.contains(3)

    def test_set_state_only_when_resident(self):
        cache = make_cache()
        cache.set_state(9, MODIFIED)  # absent: no-op
        assert cache.peek(9) == INVALID
        cache.fill(9, SHARED)
        cache.set_state(9, MODIFIED)
        assert cache.peek(9) == MODIFIED

    def test_resident_lines_enumerates_all(self):
        cache = make_cache()
        cache.fill(1, SHARED)
        cache.fill(2, MODIFIED)
        resident = dict(cache.resident_lines())
        assert resident == {1: SHARED, 2: MODIFIED}


class TestOccupancyBounds:
    def test_never_exceeds_capacity(self):
        cache = make_cache(lines=8, assoc=2)
        for line in range(100):
            cache.fill(line, SHARED)
        assert cache.occupancy() <= 8

    def test_set_never_exceeds_associativity(self):
        cache = make_cache(lines=8, assoc=2)
        # All multiples of 4 map to the same set.
        for line in range(0, 64, 4):
            cache.fill(line, SHARED)
        per_set = {}
        for line, _ in cache.resident_lines():
            per_set.setdefault(line % cache.num_sets, []).append(line)
        assert all(len(lines) <= 2 for lines in per_set.values())
