"""Unit tests for the off-load decision policies."""

import pytest

from repro.core.instrumentation import InstrumentationCosts, OfflineProfile
from repro.core.policies import (
    AlwaysOffload,
    DynamicInstrumentation,
    HardwareInstrumentation,
    NeverOffload,
    OffloadPolicy,
    OracleOffload,
    StaticInstrumentation,
)
from repro.cpu.registers import ArchitectedState, PState
from repro.errors import ConfigurationError
from repro.offload.engine import OffloadEngine
from repro.offload.migration import AGGRESSIVE
from repro.os_model.syscalls import get_syscall
from repro.os_model.traps import SPILL_LENGTH, SPILL_TRAP_VECTOR
from repro.sim.config import TEST_SCALE, SimulatorConfig
from repro.workloads.base import OSInvocation
from repro.workloads.presets import get_workload


def invocation(vector=3, name="read", length=1500, i0=4, i1=0, size_units=64,
               is_window_trap=False):
    astate = ArchitectedState(
        pstate=PState.privileged_mode().value, g1=vector, i0=i0, i1=i1
    )
    return OSInvocation(
        vector=vector,
        name=name,
        astate=astate,
        length=length,
        pre_interrupt_length=length,
        shared_fraction=0.2,
        is_window_trap=is_window_trap,
        size_units=size_units,
    )


class TestBaselinePolicies:
    def test_never_offload(self):
        decision = NeverOffload().decide(invocation())
        assert not decision.offload
        assert decision.overhead_cycles == 0

    def test_always_offload(self):
        decision = AlwaysOffload().decide(invocation())
        assert decision.offload

    def test_threshold_must_be_non_negative(self):
        with pytest.raises(ConfigurationError):
            NeverOffload(threshold=-1)


class TestStaticInstrumentation:
    def _profile(self):
        return OfflineProfile(
            {3: 1500.0, 20: 90.0, 11: 30000.0, 2: 16000.0}, invocations=100
        )

    def test_selection_rule_is_twice_latency(self):
        si = StaticInstrumentation(self._profile(), migration_latency=5000)
        assert si.instrumented_count == 2  # 30000 and 16000 >= 10000

    def test_instrumented_calls_always_offload_with_branch_cost(self):
        si = StaticInstrumentation(self._profile(), migration_latency=5000)
        decision = si.decide(invocation(vector=11, length=29000))
        assert decision.offload
        assert decision.overhead_cycles == InstrumentationCosts().static_branch

    def test_uninstrumented_calls_are_free_and_stay(self):
        si = StaticInstrumentation(self._profile(), migration_latency=5000)
        decision = si.decide(invocation(vector=20, length=90))
        assert not decision.offload
        assert decision.overhead_cycles == 0

    def test_max_instrumented_keeps_longest(self):
        si = StaticInstrumentation(
            self._profile(), migration_latency=40, max_instrumented=1
        )
        assert si.instrumented_count == 1
        assert si.decide(invocation(vector=11)).offload  # longest mean kept
        assert not si.decide(invocation(vector=3)).offload

    def test_si_policies_of_one_workload_share_one_profiling_run(
        self, monkeypatch
    ):
        import dataclasses

        from repro.core import instrumentation
        from repro.sim.simulator import make_policy

        streams = []
        real = instrumentation.invocation_stream

        def counted(*args, **kwargs):
            streams.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(instrumentation, "invocation_stream", counted)
        # A spec no other test profiles, so the memo starts cold.
        spec = dataclasses.replace(get_workload("apache"), name="si-memo")
        config = SimulatorConfig(profile=TEST_SCALE)
        first = make_policy("SI", spec=spec, config=config)
        second = make_policy("SI", spec=spec, config=config)
        assert len(streams) == 1
        assert first._instrumented == second._instrumented
        assert first.instrumented_count > 0

    def test_offline_profile_is_read_only(self):
        profile = self._profile()
        with pytest.raises(TypeError):
            profile.mean_lengths[3] = 1.0
        with pytest.raises(AttributeError):
            profile.invocations = 5


class TestDynamicInstrumentation:
    def test_pays_cost_at_every_entry(self):
        di = DynamicInstrumentation(threshold=10 ** 9)
        decision = di.decide(invocation())
        assert not decision.offload
        assert decision.overhead_cycles == InstrumentationCosts().dynamic

    def test_estimate_uses_size_operand(self):
        di = DynamicInstrumentation()
        read = get_syscall("read")
        inv = invocation(vector=read.number, size_units=100)
        expected = read.base_length + int(read.per_unit * 100)
        assert di.estimate(inv) == expected

    def test_estimate_misses_bimodal_slow_path(self):
        di = DynamicInstrumentation(threshold=1000)
        open_call = get_syscall("open")
        # A slow-path open (3,800 instr) is estimated at the fast path
        # (900) and wrongly kept local — the paper's DI inaccuracy.
        inv = invocation(vector=open_call.number, name="open",
                         length=open_call.slow_length, size_units=0)
        assert di.estimate(inv) == open_call.base_length
        assert not di.decide(inv).offload

    def test_window_trap_estimate(self):
        di = DynamicInstrumentation()
        trap = invocation(vector=SPILL_TRAP_VECTOR, name="window_trap",
                          length=SPILL_LENGTH, is_window_trap=True)
        assert di.estimate(trap) == SPILL_LENGTH

    def test_unknown_vector_uses_last_seen(self):
        di = DynamicInstrumentation()
        inv = invocation(vector=0x60, name="device_interrupt", length=1800)
        assert di.estimate(inv) == 0
        di.observe(inv, di.decide(inv))
        assert di.estimate(inv) == 1800


class TestHardwareInstrumentation:
    def test_single_cycle_decision(self):
        hi = HardwareInstrumentation(threshold=100)
        assert hi.decide(invocation()).overhead_cycles == 1

    def test_threshold_rule(self):
        hi = HardwareInstrumentation(threshold=1000)
        inv = invocation(length=1500)
        first = hi.decide(inv)
        hi.observe(inv, first)  # trains: 1500
        assert hi.decide(inv).offload
        hi.threshold = 2000
        assert not hi.decide(inv).offload

    def test_binary_stats_recorded(self):
        hi = HardwareInstrumentation(threshold=100)
        inv = invocation(length=1500)
        decision = hi.decide(inv)  # predicted 0 -> stay; actual 1500 -> wrong
        hi.observe(inv, decision)
        assert hi.predictor.stats.binary_total == 1
        assert hi.predictor.stats.binary_correct == 0
        decision = hi.decide(inv)  # now predicts 1500 -> offload; correct
        hi.observe(inv, decision)
        assert hi.predictor.stats.binary_correct == 1


class TestOracle:
    def test_oracle_uses_actual_length(self):
        oracle = OracleOffload(threshold=1000)
        assert oracle.decide(invocation(length=1500)).offload
        assert not oracle.decide(invocation(length=900)).offload
        assert oracle.decide(invocation(length=1500)).overhead_cycles == 0


PRIMING_INVOCATIONS = 300


class _WarmupReached(Exception):
    pass


def observed_before_warmup(spec, policy, config, trace_store=None):
    """Run an engine until warm-up starts; return what ``policy`` observed."""
    engine = OffloadEngine(
        spec, policy, AGGRESSIVE, config, trace_store=trace_store
    )
    calls = []
    observe = policy.observe

    def counted(invocation, decision):
        calls.append(invocation)
        observe(invocation, decision)

    def stop(budget, epochs):
        raise _WarmupReached

    policy.observe = counted
    engine._run_phase = stop
    with pytest.raises(_WarmupReached):
        engine.run()
    return calls


def _observes_before_warmup(policy):
    """Count the ``observe`` calls before warm-up on a derby engine."""
    config = SimulatorConfig(
        profile=TEST_SCALE, policy_priming_invocations=PRIMING_INVOCATIONS
    )
    return len(observed_before_warmup(get_workload("derby"), policy, config))


class TestLearning:
    def test_policies_that_do_not_learn_inherit_observe(self):
        built_in = [
            cls for cls in OffloadPolicy.__subclasses__()
            if cls.__module__ == OffloadPolicy.__module__
        ]
        learners = {cls for cls in built_in if cls.learns}
        assert learners == {DynamicInstrumentation, HardwareInstrumentation}
        for cls in built_in:
            if not cls.learns:
                assert cls.observe is OffloadPolicy.observe, cls.__name__

    @pytest.mark.parametrize(
        "policy", [HardwareInstrumentation, DynamicInstrumentation]
    )
    def test_learners_are_primed(self, policy):
        observed = _observes_before_warmup(policy(threshold=100))
        assert observed == PRIMING_INVOCATIONS

    def test_non_learners_skip_priming(self):
        assert _observes_before_warmup(NeverOffload()) == 0
