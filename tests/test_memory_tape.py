"""Tests for memory tapes: latency twins share one memory simulation.

A run that :func:`memory_tape_eligible` accepts can record its memory
side, and a run that differs only in migration latency can replay it.
The load-bearing property is identity: a replayed run equals a fresh
run at its own latency in every observable output (stats, threshold
trace, trace-bus events, metrics).  Around it: which runs may take a
tape, how a damaged tape fails, and how the batch worker keys, keeps
and counts tapes.
"""

from __future__ import annotations

import ast
import dataclasses
import inspect
from array import array

import pytest

from repro.cache import TapeStore, tapestore
from repro.core.threshold import DynamicThresholdController
from repro.errors import ConfigurationError, SimulationError
from repro.experiments.common import run_job_grid
from repro.obs.bus import TraceBus
from repro.obs.metrics import MetricsRegistry
from repro.offload.engine import MemoryTape, memory_tape_eligible
from repro.offload.migration import MigrationModel
from repro.runner import JobSpec, worker
from repro.service.config import ServiceConfig
from repro.sim import simulator
from repro.sim.config import SimulatorConfig, TEST_SCALE
from repro.sim.simulator import READS_MIGRATION, build_engine, make_policy
from repro.workloads.generator import priming_invocations
from repro.workloads.presets import get_workload

#: Configurations the identity must hold under: the default, the
#: instruction cache, TLB plus energy, and window traps kept local.
CONFIGS = {
    "default": {},
    "icache": {"enable_icache": True},
    "tlb-energy": {"enable_tlb": True, "track_energy": True},
    "no-window-traps": {"include_window_traps": False},
}

#: Configurations whose memory side depends on the clocks.
INELIGIBLE = {
    "two-user-cores": {"num_user_cores": 2},
    "two-threads": {"threads_per_user_core": 2},
    "open-loop": {"service": ServiceConfig(arrivals="poisson")},
    "admission": {"service": ServiceConfig(admission="backlog")},
}


@pytest.fixture(autouse=True)
def _fresh_worker_state():
    """Isolate the worker's per-process memos from other tests."""
    worker._BASELINE_MEMO.clear()
    worker._STORES.clear()
    yield
    worker._BASELINE_MEMO.clear()
    worker._STORES.clear()


class _ListSink:
    def __init__(self):
        self.records = []

    def write(self, record):
        self.records.append(record)

    def close(self):
        pass


def _config(**overrides) -> SimulatorConfig:
    return SimulatorConfig(profile=TEST_SCALE, seed=2010, **overrides)


def _observed_run(config, policy, threshold, latency, tape=None):
    """Everything a run shows: stats, threshold trace, events, metrics,
    and the DRAM and TLB counters that live outside the stats."""
    spec = get_workload("apache")
    sink = _ListSink()
    registry = MetricsRegistry()
    engine = build_engine(
        spec,
        make_policy(policy, threshold=threshold, spec=spec, config=config),
        MigrationModel(f"L{latency}", latency),
        config,
        bus=TraceBus(sink),
        metrics=registry,
        memory_tape=tape,
    )
    stats = engine.run()
    tlbs = [ctx.tlb for ctx in engine.contexts] + [engine.os_tlb]
    return {
        "stats": dataclasses.asdict(stats),
        "threshold_trace": engine.threshold_trace,
        "events": sink.records,
        "metrics": registry.snapshot(),
        "devices": (
            engine.hierarchy.dram.fetches,
            engine.hierarchy.dram.writebacks,
            [(tlb.hits, tlb.misses) for tlb in tlbs if tlb is not None],
        ),
    }


def _recorded_tape(config=None, latency=0) -> MemoryTape:
    tape = MemoryTape()
    _observed_run(config or _config(), "HI", 100, latency, tape)
    return tape


# ----------------------------------------------------------------------
# identity
# ----------------------------------------------------------------------


@pytest.mark.parametrize("policy", ["NEVER", "ALWAYS", "ORACLE", "DI", "HI"])
@pytest.mark.parametrize("overrides", CONFIGS.values(), ids=CONFIGS.keys())
def test_replayed_twin_equals_a_fresh_run(policy, overrides):
    config = _config(**overrides)
    for threshold in (100, 1000):
        tape = MemoryTape()
        _observed_run(config, policy, threshold, 0, tape)
        assert tape.recorded and len(tape.calls) > 0
        replayed = _observed_run(config, policy, threshold, 5000, tape)
        fresh = _observed_run(config, policy, threshold, 5000)
        for facet in fresh:
            assert replayed[facet] == fresh[facet], (
                f"{policy}/N{threshold} replay drifted on {facet!r}"
            )


def test_replay_touches_neither_hierarchy_nor_tlbs():
    config = _config(enable_tlb=True)
    tape = _recorded_tape(config)
    spec = get_workload("apache")
    engine = build_engine(
        spec, make_policy("HI", threshold=100), MigrationModel("L1000", 1000),
        config, memory_tape=tape,
    )
    calls = []
    engine.hierarchy.access_batch = lambda *args: calls.append(args)
    engine.hierarchy.access_code_batch = lambda *args: calls.append(args)
    engine.contexts[0].tlb.access_batch = lambda *args: calls.append(args)
    engine.os_tlb.access_batch = lambda *args: calls.append(args)
    stats = engine.run()
    assert calls == []
    assert stats.l1["user0"].accesses > 0
    assert engine.contexts[0].tlb.hits + engine.contexts[0].tlb.misses > 0


# ----------------------------------------------------------------------
# eligibility
# ----------------------------------------------------------------------


@pytest.mark.parametrize("overrides", INELIGIBLE.values(), ids=INELIGIBLE.keys())
def test_clock_dependent_runs_refuse_a_tape(overrides):
    config = _config(**overrides)
    assert not memory_tape_eligible(config)
    spec = get_workload("apache")
    with pytest.raises(ConfigurationError, match="memory tape"):
        build_engine(
            spec, make_policy("HI", threshold=100), MigrationModel("L0", 0),
            config, memory_tape=MemoryTape(),
        )


def test_dynamic_n_run_refuses_a_tape():
    config = _config()
    controller = DynamicThresholdController(config.profile)
    assert not memory_tape_eligible(config, controller)
    with pytest.raises(ConfigurationError, match="memory tape"):
        build_engine(
            get_workload("apache"), make_policy("DI", threshold=100),
            MigrationModel("L0", 0), config, controller=controller,
            memory_tape=MemoryTape(),
        )


def _tape_counters(batch):
    totals = {}
    for result in batch:
        for name in ("tape_hits", "tape_misses"):
            totals[name] = totals.get(name, 0) + result.cache_counters.get(name, 0)
    return totals


@pytest.mark.parametrize(
    "overrides", list(INELIGIBLE.values()), ids=list(INELIGIBLE)
)
def test_runner_never_tapes_ineligible_cells(overrides, tmp_path):
    config = _config(**overrides)
    specs = [JobSpec("derby", "HI", 100, latency) for latency in (0, 5000)]
    batch = run_job_grid(specs, config, cache_dir=str(tmp_path / "cache"))
    batch.raise_on_failures()
    assert _tape_counters(batch) == {"tape_hits": 0, "tape_misses": 0}


def test_si_twins_get_two_keys_and_others_one():
    config = _config()
    keys = {
        policy: {
            worker._twin_key(
                JobSpec("apache", policy, 100, latency).resolved(2010).to_payload(),
                config,
            )
            for latency in (0, 5000)
        }
        for policy in ("SI", "HI", "si")
    }
    assert len(keys["SI"]) == 2 and len(keys["si"]) == 2
    assert len(keys["HI"]) == 1
    tagged = JobSpec("apache", "HI", 100, 0, tag="x").resolved(2010)
    assert worker._twin_key(tagged.to_payload(), config) in keys["HI"]


def test_runner_replays_twins_but_not_si(tmp_path):
    config = _config()
    specs = [
        JobSpec("derby", policy, 100, latency)
        for policy in ("HI", "SI")
        for latency in (0, 5000)
    ]
    plain = run_job_grid(specs, config)
    cached = run_job_grid(specs, config, cache_dir=str(tmp_path / "cache"))
    assert {r.job_id: r.metrics for r in cached} == {
        r.job_id: r.metrics for r in plain
    }
    hits = {r.spec.policy: r.cache_counters.get("tape_hits", 0) for r in cached
            if r.spec.latency == 5000}
    assert hits == {"HI": 1, "SI": 0}
    assert _tape_counters(cached) == {"tape_hits": 1, "tape_misses": 3}


# ----------------------------------------------------------------------
# damaged tapes
# ----------------------------------------------------------------------


def _damaged(tape: MemoryTape, edit) -> MemoryTape:
    copy = MemoryTape()
    copy.calls = array("q", tape.calls)
    copy.counters = tape.counters
    edit(copy.calls)
    return copy


@pytest.mark.parametrize(
    ("edit", "message"),
    [
        (lambda calls: calls.__setitem__(0, calls[0] + 1), "mismatch"),
        (lambda calls: calls.__setitem__(1, calls[1] + 1), "mismatch"),
        (lambda calls: calls.extend((0, 0, 0)), "left over"),
        (lambda calls: calls.__delitem__(slice(-3, None)), "mismatch"),
    ],
    ids=["node-id", "reference-count", "entries-left-over", "truncated"],
)
def test_damaged_tape_raises(edit, message):
    tape = _damaged(_recorded_tape(), edit)
    with pytest.raises(SimulationError, match=message):
        _observed_run(_config(), "HI", 100, 1000, tape)


def test_failed_recording_leaves_no_tape(tmp_path, monkeypatch):
    config = _config()
    specs = [JobSpec("derby", "HI", 100, latency) for latency in (0, 5000)]
    original = simulator.OffloadEngine._close_tape
    # With a cache root and without one.
    for cache_dir in (str(tmp_path / "cache"), None):
        failures = iter([True])

        def fail_first_recording(engine, failures=failures):
            if engine._record_tape is not None and next(failures, False):
                raise SimulationError("injected failure at the end of the run")
            original(engine)

        monkeypatch.setattr(
            simulator.OffloadEngine, "_close_tape", fail_first_recording
        )
        batch = run_job_grid(specs, config, cache_dir=cache_dir)
        assert [result.ok for result in batch] == [False, True]
        # The failed first twin kept no tape: the second recorded its own.
        assert _tape_counters(batch) == {"tape_hits": 0, "tape_misses": 2}


def test_tape_store_is_a_byte_bounded_lru(monkeypatch):
    tapes = {name: _recorded_tape() for name in "abc"}
    monkeypatch.setattr(tapestore, "DEFAULT_TAPE_BYTES", 2 * tapes["a"].nbytes)
    store = TapeStore()
    store.put("a", tapes["a"])
    store.put("b", tapes["b"])
    assert store.get("a") is tapes["a"]
    store.put("c", tapes["c"])  # evicts "b", the least recently used
    assert store.get("b") is None
    assert store.get("a") is tapes["a"] and store.get("c") is tapes["c"]
    assert store.counters == {"tape_hits": 3, "tape_misses": 1}


# ----------------------------------------------------------------------
# which policies read the migration model
# ----------------------------------------------------------------------


def _names_make_policy_accepts():
    """The policy names ``make_policy`` compares its key against, read
    from its source so that a policy added there is covered here."""
    tree = ast.parse(inspect.getsource(make_policy))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare) and getattr(node.left, "id", "") == "key":
            for constant in ast.walk(node.comparators[0]):
                if isinstance(constant, ast.Constant):
                    found.add(constant.value)
    return sorted(found)


def test_policies_reading_migration_are_policies():
    names = _names_make_policy_accepts()
    assert {"NEVER", "ALWAYS", "ORACLE", "DI", "HI", "SI"} <= set(names)
    assert READS_MIGRATION <= set(names)


@pytest.mark.parametrize("name", _names_make_policy_accepts())
def test_policy_reads_migration_only_if_recorded(name):
    if name in READS_MIGRATION:
        return
    spec = get_workload("apache")
    config = _config()
    stream = list(priming_invocations(spec, config.profile, 7, 500, True))
    decisions = []
    for latency in (0, 5000):
        policy = make_policy(
            name, threshold=100, migration=MigrationModel(f"L{latency}", latency),
            spec=spec, config=config,
        )
        made = []
        for invocation in stream:
            decision = policy.decide(invocation)
            policy.observe(invocation, decision)
            made.append(decision)
        decisions.append(made)
    assert decisions[0] == decisions[1]
