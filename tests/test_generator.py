"""Unit tests for the synthetic trace generator."""

import pytest

from repro.errors import WorkloadError
from repro.os_model.traps import FILL_TRAP_VECTOR, SPILL_TRAP_VECTOR
from repro.sim.config import DEFAULT_SCALE, TEST_SCALE
from repro.workloads.base import OSInvocation, UserSegment
from repro.workloads.generator import (
    OS_BASE,
    REGION_STRIDE,
    SHARED_BASE,
    TraceGenerator,
    invocation_stream,
)
from repro.workloads.presets import get_workload


def events_list(name="derby", budget=60_000, seed=9, thread_id=0, profile=TEST_SCALE):
    generator = TraceGenerator(get_workload(name), profile, seed=seed,
                               thread_id=thread_id)
    return generator, list(generator.events(budget))


class TestDeterminism:
    def test_same_seed_same_trace(self):
        _, a = events_list(seed=5)
        _, b = events_list(seed=5)
        assert a == b

    def test_different_seed_different_trace(self):
        _, a = events_list(seed=5)
        _, b = events_list(seed=6)
        assert a != b

    def test_threads_get_distinct_streams(self):
        _, a = events_list(thread_id=0)
        _, b = events_list(thread_id=1)
        assert a != b


class TestInvocationStream:
    @staticmethod
    def _inline(spec, seed, count, traps):
        expected = []
        for event in TraceGenerator(spec, TEST_SCALE, seed=seed).events(2 ** 62):
            if len(expected) == count:
                break
            if isinstance(event, OSInvocation) and (
                traps or not event.is_window_trap
            ):
                expected.append(event)
        return expected

    @pytest.mark.parametrize("traps", [True, False])
    @pytest.mark.parametrize("count", [0, 1, 300])
    def test_matches_inline_filter_of_events(self, traps, count):
        spec = get_workload("apache")
        stream = list(invocation_stream(spec, TEST_SCALE, 9, count, traps))
        assert stream == self._inline(spec, 9, count, traps)
        assert len(stream) == count
        if count == 300:
            assert any(event.is_window_trap for event in stream) == traps


class TestBudget:
    def test_budget_covered(self):
        _, events = events_list(budget=60_000)
        total = sum(
            e.instructions if isinstance(e, UserSegment) else e.length
            for e in events
        )
        assert total >= 60_000

    def test_overshoot_is_at_most_one_event(self):
        _, events = events_list(budget=60_000)
        total = sum(
            e.instructions if isinstance(e, UserSegment) else e.length
            for e in events
        )
        last = events[-1]
        last_size = last.instructions if isinstance(last, UserSegment) else last.length
        assert total - last_size < 60_000

    def test_zero_budget_yields_nothing(self):
        generator = TraceGenerator(get_workload("derby"), TEST_SCALE)
        assert list(generator.events(0)) == []


class TestEventContents:
    def test_all_lengths_positive(self):
        _, events = events_list()
        for event in events:
            if isinstance(event, UserSegment):
                assert event.instructions >= 1
            else:
                assert event.length >= 1
                assert event.pre_interrupt_length >= 1
                assert 0.0 <= event.shared_fraction <= 1.0

    def test_window_traps_have_trap_vectors(self):
        _, events = events_list(name="apache", budget=200_000)
        traps = [e for e in events if isinstance(e, OSInvocation) and e.is_window_trap]
        assert traps, "apache must generate window traps"
        for trap in traps:
            assert trap.vector in (SPILL_TRAP_VECTOR, FILL_TRAP_VECTOR)
            assert trap.pre_interrupt_length < 25
            assert not trap.interrupts_enabled

    def test_syscalls_carry_pointer_like_i1(self):
        _, events = events_list(name="apache", budget=200_000)
        reads = [e for e in events
                 if isinstance(e, OSInvocation) and e.name == "read"]
        assert reads
        for read in reads:
            assert read.astate.i1 >= 0x7F80_0000_0000  # buffer pointer
            assert read.size_units > 0

    def test_extended_invocations_marked(self):
        spec = get_workload("apache")
        generator = TraceGenerator(spec, TEST_SCALE, seed=11)
        extended = [
            e for e in generator.events(400_000)
            if isinstance(e, OSInvocation) and e.was_extended
        ]
        assert extended  # apache's 2% extension rate must show up
        for inv in extended:
            assert inv.length > inv.pre_interrupt_length

    def test_os_fraction_roughly_matches_spec(self):
        spec = get_workload("specjbb2005")
        generator = TraceGenerator(spec, DEFAULT_SCALE, seed=3)
        os_instr = user_instr = 0
        for event in generator.events(3_000_000):
            if isinstance(event, OSInvocation):
                if not event.is_window_trap and not event.is_interrupt:
                    os_instr += event.length
            else:
                user_instr += event.instructions
        realised = os_instr / (os_instr + user_instr)
        # Heavy-tailed lengths make this loose, but it must be in range.
        assert 0.5 * spec.os_fraction < realised < 2.2 * spec.os_fraction


class TestAddressStreams:
    def test_user_addresses_in_user_or_shared_region(self):
        generator, _ = events_list(thread_id=1)
        lines, writes = generator.user_accesses(5000)
        assert len(lines) == len(writes)
        user_lo = REGION_STRIDE  # thread 1
        for line in lines:
            in_user = user_lo <= line < user_lo + generator.user_ws
            in_shared = (
                SHARED_BASE + REGION_STRIDE
                <= line
                < SHARED_BASE + REGION_STRIDE + generator.shared_ws
            )
            assert in_user or in_shared

    def test_os_addresses_in_os_or_shared_region(self):
        generator, events = events_list(name="apache", budget=100_000)
        invocations = [e for e in events if isinstance(e, OSInvocation)]
        for inv in invocations[:20]:
            lines, writes = generator.os_accesses(inv)
            assert len(lines) == len(writes)
            for line in lines:
                in_os = OS_BASE <= line < OS_BASE + generator.os_ws
                in_shared = SHARED_BASE <= line < SHARED_BASE + generator.shared_ws
                assert in_os or in_shared

    def test_window_trap_accesses_hit_the_stack(self):
        generator, events = events_list(name="apache", budget=200_000)
        traps = [e for e in events if isinstance(e, OSInvocation) and e.is_window_trap]
        lines, writes = generator.os_accesses(traps[0])
        stack_hi = SHARED_BASE + generator._stack_lines
        assert all(SHARED_BASE <= line < stack_hi for line in lines)
        # Spills are store-dominated over many traps.
        total_writes = total = 0
        for trap in traps:
            lines, writes = generator.os_accesses(trap)
            total_writes += int(writes.sum())
            total += len(writes)
        assert total_writes / total > 0.5

    def test_short_call_footprint_smaller_than_long(self):
        generator, events = events_list(name="apache", budget=300_000)
        invocations = [e for e in events
                       if isinstance(e, OSInvocation) and not e.is_window_trap]
        short = min(invocations, key=lambda e: e.length)
        long = max(invocations, key=lambda e: e.length)
        short_lines = set(generator.os_accesses(short)[0].tolist())
        long_lines = set(generator.os_accesses(long)[0].tolist())
        assert len(short_lines) < len(long_lines)

    def test_empty_access_stream_for_tiny_segment(self):
        generator, _ = events_list()
        lines, writes = generator.user_accesses(1)
        assert len(lines) == 0 and len(writes) == 0


class TestValidation:
    def test_rejects_negative_thread(self):
        with pytest.raises(WorkloadError):
            TraceGenerator(get_workload("derby"), TEST_SCALE, thread_id=-1)

    def test_working_sets_scale_with_profile(self):
        spec = get_workload("apache")
        small = TraceGenerator(spec, TEST_SCALE)
        full = TraceGenerator(spec, DEFAULT_SCALE)
        assert small.user_ws <= full.user_ws or TEST_SCALE.cache_scale == DEFAULT_SCALE.cache_scale
        assert small.user_ws == max(16, spec.memory.user_ws_lines // TEST_SCALE.cache_scale)
