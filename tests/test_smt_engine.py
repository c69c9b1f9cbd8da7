"""Tests for the SMT user-core engine."""

import dataclasses

import pytest

from repro.core.policies import AlwaysOffload, HardwareInstrumentation, NeverOffload
from repro.errors import SimulationError
from repro.offload import engine
from repro.offload.migration import AGGRESSIVE, CONSERVATIVE, FREE
from repro.offload.smt import SMTOffloadEngine
from repro.sim.config import SimulatorConfig, TEST_SCALE
from repro.sim.simulator import simulate, simulate_baseline
from repro.workloads.generator import TraceGenerator
from repro.workloads.presets import get_workload

BASE = SimulatorConfig(profile=TEST_SCALE, policy_priming_invocations=300)
SMT = dataclasses.replace(BASE, threads_per_user_core=2)


class TestConstruction:
    def test_requires_two_threads(self):
        with pytest.raises(SimulationError):
            SMTOffloadEngine(
                get_workload("derby"), NeverOffload(), AGGRESSIVE, BASE
            )

    def test_builds_each_thread_source_once(self, monkeypatch):
        """Two user cores of two threads build four timed generators."""
        built = []

        class Counted(TraceGenerator):
            def __init__(self, spec, profile, seed=2010, thread_id=0):
                built.append(thread_id)
                super().__init__(spec, profile, seed=seed, thread_id=thread_id)

        monkeypatch.setattr(engine, "TraceGenerator", Counted)
        config = dataclasses.replace(SMT, num_user_cores=2)
        simulate(get_workload("derby"), NeverOffload(), AGGRESSIVE, config)
        assert built == [0, 1, 2, 3]

    def test_simulate_routes_by_config(self):
        run = simulate(get_workload("derby"), NeverOffload(), AGGRESSIVE, SMT)
        # Two threads each execute the ROI: double the instructions.
        single = simulate(get_workload("derby"), NeverOffload(), AGGRESSIVE, BASE)
        assert run.stats.total_instructions > 1.5 * single.stats.total_instructions


class TestSemantics:
    def test_threads_have_disjoint_streams(self):
        engine = SMTOffloadEngine(
            get_workload("derby"), NeverOffload(), AGGRESSIVE, SMT
        )
        ids = [t.thread_id for group in engine._threads for t in group]
        assert len(ids) == len(set(ids))

    def test_offload_wait_is_idle_only(self):
        """With two threads, reported off-load idle is far below the
        serial sum of off-load windows."""
        run = simulate(get_workload("apache"), AlwaysOffload(), CONSERVATIVE, SMT)
        core = run.stats.cores[0]
        serial_window = 2 * CONSERVATIVE.one_way_latency * run.stats.offload.offloads
        assert core.offload_wait_cycles < serial_window

    def test_wall_covers_outstanding_offloads(self):
        run = simulate(get_workload("derby"), AlwaysOffload(), CONSERVATIVE, SMT)
        stats = run.stats
        assert stats.wall_cycles >= stats.cores[0].busy_cycles

    def test_deterministic(self):
        a = simulate(get_workload("derby"),
                     HardwareInstrumentation(threshold=500), AGGRESSIVE, SMT)
        b = simulate(get_workload("derby"),
                     HardwareInstrumentation(threshold=500), AGGRESSIVE, SMT)
        assert a.stats.wall_cycles == b.stats.wall_cycles

    def test_mesi_invariants_hold(self):
        engine = SMTOffloadEngine(
            get_workload("apache"), AlwaysOffload(), FREE, SMT
        )
        engine.run()
        engine.hierarchy.check_invariants()


class TestLatencyHiding:
    def test_sibling_hides_conservative_migration(self):
        spec = get_workload("apache")
        base_1t = simulate_baseline(spec, BASE)
        base_2t = simulate_baseline(spec, SMT)
        one = simulate(spec, HardwareInstrumentation(threshold=100),
                       CONSERVATIVE, BASE)
        two = simulate(spec, HardwareInstrumentation(threshold=100),
                       CONSERVATIVE, SMT)
        assert (
            two.throughput / base_2t.throughput
            > one.throughput / base_1t.throughput
        )
