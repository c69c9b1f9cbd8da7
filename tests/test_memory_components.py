"""Unit tests for the DRAM endpoint."""

import pytest

from repro.errors import ConfigurationError
from repro.memory.dram import MainMemory


class TestDram:
    def test_fetch_latency_and_count(self):
        dram = MainMemory(latency=350)
        assert dram.fetch() == 350
        assert dram.fetches == 1

    def test_writeback_off_critical_path(self):
        dram = MainMemory()
        assert dram.writeback() == 0
        assert dram.writebacks == 1

    def test_rejects_negative_latency(self):
        with pytest.raises(ConfigurationError):
            MainMemory(latency=-5)
