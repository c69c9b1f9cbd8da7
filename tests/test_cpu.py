"""Unit tests for the CPU substrate: registers, core, TLB, branches."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cpu.branch import BranchInterferenceModel
from repro.cpu.core import InOrderCore
from repro.cpu.registers import MASK64, ArchitectedState, PState
from repro.cpu.tlb import LINES_PER_PAGE, TranslationBuffer
from repro.errors import ConfigurationError
from repro.sim.config import CoreConfig
from repro.sim.stats import CoreStats, SimulationStats


class TestPState:
    def test_privileged_bit(self):
        pstate = PState()
        assert not pstate.privileged
        pstate.privileged = True
        assert pstate.privileged
        pstate.privileged = False
        assert not pstate.privileged

    def test_factories(self):
        user = PState.user_mode()
        priv = PState.privileged_mode()
        assert not user.privileged and priv.privileged
        assert user.fp_enabled and not priv.fp_enabled

    def test_interrupt_masking_encodes_in_value(self):
        enabled = PState.privileged_mode(interrupts_enabled=True)
        masked = PState.privileged_mode(interrupts_enabled=False)
        assert enabled.value != masked.value

    def test_equality_and_hash(self):
        assert PState.user_mode() == PState.user_mode()
        assert hash(PState.user_mode()) == hash(PState.user_mode())

    def test_value_stays_64_bit(self):
        pstate = PState(2 ** 70)
        assert pstate.value <= MASK64


class TestArchitectedState:
    def test_g0_defaults_to_zero(self):
        assert ArchitectedState(pstate=1).g0 == 0

    def test_masked_truncates(self):
        state = ArchitectedState(pstate=2 ** 70, i0=2 ** 65)
        masked = state.masked()
        assert masked.pstate <= MASK64
        assert masked.i0 <= MASK64

    def test_frozen(self):
        state = ArchitectedState(pstate=1)
        with pytest.raises(AttributeError):
            state.pstate = 2


class TestInOrderCore:
    def _core(self):
        return InOrderCore(CoreConfig(), CoreStats())

    def test_retire_accumulates(self):
        core = self._core()
        cycles = core.retire(100, stall_cycles=40)
        assert cycles == 140
        assert core.stats.instructions == 100
        assert core.now == 140

    def test_decision_and_wait_buckets(self):
        core = self._core()
        core.pay_decision(5)
        core.wait_for_offload(1000, queue_cycles=200, migration_cycles=100)
        assert core.stats.decision_cycles == 5
        assert core.stats.offload_wait_cycles == 1000
        assert core.stats.queue_cycles == 200
        assert core.stats.migration_cycles == 100
        assert core.now == 1005

    def test_stall_adds_busy(self):
        core = self._core()
        core.stall(7)
        assert core.stats.busy_cycles == 7
        assert core.stats.instructions == 0

    def test_clock_survives_counter_reset(self):
        stats = SimulationStats(cores=[CoreStats()])
        core = InOrderCore(CoreConfig(), stats.cores[0])
        core.retire(100, stall_cycles=40)
        core.stall(7)
        core.idle(50)
        core.pay_decision(5)
        core.wait_for_offload(1000, queue_cycles=200, migration_cycles=100)
        assert core.clock == core.now == 1202
        stats.reset_counters()
        assert core.now == 0
        assert core.clock == 1202
        core.retire(10)
        assert core.now == 10
        assert core.clock == 1212


class TestTLB:
    def test_hit_after_fill(self):
        tlb = TranslationBuffer(entries=2, miss_penalty=60)
        assert tlb.access_page(1) == 60
        assert tlb.access_page(1) == 0
        assert tlb.hit_rate == 0.5

    def test_lru_replacement(self):
        tlb = TranslationBuffer(entries=2, miss_penalty=60)
        tlb.access_page(1)
        tlb.access_page(2)
        tlb.access_page(1)  # refresh 1; 2 is now LRU
        tlb.access_page(3)  # evicts 2
        assert tlb.access_page(1) == 0
        assert tlb.access_page(2) == 60

    def test_access_batch_maps_lines_to_pages(self):
        tlb = TranslationBuffer(entries=4, miss_penalty=60)
        # Lines 0 and LINES_PER_PAGE - 1 share page 0: one miss, one hit.
        assert tlb.access_batch(np.array([0, LINES_PER_PAGE - 1])) == 60
        assert tlb.access_batch(np.array([LINES_PER_PAGE])) == 60  # page 1
        assert (tlb.hits, tlb.misses) == (1, 2)

    @given(
        entries=st.integers(min_value=1, max_value=3),
        batches=st.lists(
            st.lists(  # one batch: runs of same-page references
                st.tuples(
                    st.integers(min_value=0, max_value=5),  # page
                    st.lists(  # line offsets within the page
                        st.integers(min_value=0, max_value=LINES_PER_PAGE - 1),
                        min_size=1,
                        max_size=4,
                    ),
                ),
                max_size=12,
            ),
            max_size=4,
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_access_batch_equals_access_page_fold(self, entries, batches):
        # Six pages over at most three entries: the draws evict.
        batched = TranslationBuffer(entries=entries, miss_penalty=60)
        reference = TranslationBuffer(entries=entries, miss_penalty=60)
        for runs in batches:
            lines = [
                page * LINES_PER_PAGE + offset
                for page, offsets in runs
                for offset in offsets
            ]
            stalls = batched.access_batch(np.array(lines, dtype=np.int64))
            assert stalls == sum(
                reference.access_page(line // LINES_PER_PAGE) for line in lines
            )
        assert (batched.hits, batched.misses) == (
            reference.hits, reference.misses
        )
        assert list(batched._table) == list(reference._table)

    def test_flush(self):
        tlb = TranslationBuffer(entries=4, miss_penalty=10)
        tlb.access_page(1)
        tlb.flush()
        assert tlb.access_page(1) == 10

    def test_rejects_bad_params(self):
        with pytest.raises(ConfigurationError):
            TranslationBuffer(entries=0)
        with pytest.raises(ConfigurationError):
            TranslationBuffer(miss_penalty=-1)


class TestBranchModel:
    def test_steady_state_cost_scales_with_instructions(self):
        model = BranchInterferenceModel()
        small = model.execute(1000, 0)
        model.reset()
        large = model.execute(10000, 0)
        assert large > small

    def test_mode_switch_adds_pollution(self):
        base = BranchInterferenceModel()
        base.execute(5000, 0)
        steady = base.execute(2000, 0)

        switched = BranchInterferenceModel()
        switched.execute(5000, 0)
        switched.execute(500, 1)  # OS burst pollutes
        polluted = switched.execute(2000, 0)
        assert polluted > steady

    def test_pollution_decays(self):
        model = BranchInterferenceModel()
        model.execute(5000, 0)
        model.execute(500, 1)
        just_after = model.execute(500, 0)
        much_later = model.execute(500, 0)
        # Per-instruction cost falls as pollution decays.
        assert much_later <= just_after

    def test_zero_instructions_is_free(self):
        assert BranchInterferenceModel().execute(0, 0) == 0

    def test_rejects_bad_fractions(self):
        with pytest.raises(ConfigurationError):
            BranchInterferenceModel(branch_fraction=1.5)
        with pytest.raises(ConfigurationError):
            BranchInterferenceModel(pollution_halflife=0)
