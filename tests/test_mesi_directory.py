"""Unit tests for the MESI directory bookkeeping."""

import pytest

from repro.errors import SimulationError
from repro.memory.mesi import Directory
from repro.sim.stats import CoherenceStats


@pytest.fixture()
def directory():
    return Directory(CoherenceStats())


class TestLookup:
    def test_lookup_counts_and_returns_owner_and_mask(self, directory):
        assert directory.lookup(7) == (-1, 0)
        directory.record_fill(7, node=0, exclusive=False)
        directory.record_fill(7, node=2, exclusive=False)
        assert directory.lookup(7) == (-1, 0b101)
        directory.set_owner(7, node=1)
        assert directory.lookup(7) == (1, 0b010)
        assert directory.stats.directory_lookups == 3

    def test_peek_does_not_count(self, directory):
        directory.peek(7)
        assert directory.stats.directory_lookups == 0

    def test_probes_do_not_track_uncached_lines(self, directory):
        directory.lookup(7)
        directory.peek(9)
        directory.sharers_of(11)
        assert directory.tracked_lines() == set()
        assert directory.snapshot() == {}

    def test_owner_of_untracked_line(self, directory):
        assert directory.owner_of(5) == -1
        assert directory.tracked_lines() == set()


class TestFills:
    def test_exclusive_fill_sets_owner(self, directory):
        directory.record_fill(1, node=0, exclusive=True)
        assert directory.owner_of(1) == 0
        assert directory.sharers_of(1) == {0}

    def test_shared_fill_clears_owner(self, directory):
        directory.record_fill(1, node=0, exclusive=True)
        directory.downgrade_owner(1)
        directory.record_fill(1, node=1, exclusive=False)
        assert directory.owner_of(1) == -1
        assert directory.sharers_of(1) == {0, 1}

    def test_exclusive_fill_with_other_sharers_is_error(self, directory):
        directory.record_fill(1, node=0, exclusive=False)
        with pytest.raises(SimulationError):
            directory.record_fill(1, node=1, exclusive=True)

    def test_exclusive_refill_by_same_node_ok(self, directory):
        directory.record_fill(1, node=0, exclusive=True)
        directory.record_fill(1, node=0, exclusive=True)
        assert directory.owner_of(1) == 0


class TestEvictions:
    def test_eviction_removes_sharer(self, directory):
        directory.record_fill(1, node=0, exclusive=False)
        directory.record_fill(1, node=1, exclusive=False)
        directory.record_eviction(1, node=0)
        assert directory.sharers_of(1) == {1}

    def test_last_eviction_deletes_entry(self, directory):
        directory.record_fill(1, node=0, exclusive=True)
        directory.record_eviction(1, node=0)
        assert 1 not in directory.tracked_lines()

    def test_owner_eviction_clears_owner(self, directory):
        directory.record_fill(1, node=0, exclusive=True)
        directory.record_fill(1, node=0, exclusive=True)
        directory.record_eviction(1, node=0)
        assert directory.owner_of(1) == -1

    def test_eviction_of_untracked_line_is_noop(self, directory):
        directory.record_eviction(42, node=3)  # must not raise


class TestOwnership:
    def test_set_owner_replaces_sharers(self, directory):
        directory.record_fill(1, node=0, exclusive=False)
        directory.record_fill(1, node=1, exclusive=False)
        directory.set_owner(1, node=2)
        assert directory.owner_of(1) == 2
        assert directory.sharers_of(1) == {2}

    def test_downgrade_owner(self, directory):
        directory.record_fill(1, node=0, exclusive=True)
        directory.downgrade_owner(1)
        assert directory.owner_of(1) == -1
        assert directory.sharers_of(1) == {0}

    def test_sharers_of_untracked_is_empty(self, directory):
        assert directory.sharers_of(99) == set()
