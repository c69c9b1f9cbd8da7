"""Tests for primed policy states shared through a trace level.

What priming teaches a learning policy (HI's run-length predictor, DI's
last-seen history) depends only on the priming stream and on how the
policy learns, so a trace store keeps one snapshot per priming key and
learning shape, and later runs load it instead of priming live.  The
load-bearing property is identity: a run that loads the snapshot equals
a live-primed run in every observable output (stats, threshold trace,
trace-bus events, metrics, open-loop latencies).  Around it: what keys
an entry, which policies bypass the memo, and how failures leave it.
"""

from __future__ import annotations

import copy
import dataclasses

import pytest

from repro.cache import TraceStore
from repro.cache.tracestore import TraceRecordings
from repro.core.astate import astate_hash
from repro.core.policies import DynamicInstrumentation, HardwareInstrumentation
from repro.core.predictor import DIRECT_MAPPED, RunLengthPredictor
from repro.errors import PredictorError
from repro.experiments.common import run_job_grid
from repro.obs.bus import TraceBus
from repro.obs.metrics import MetricsRegistry
from repro.offload.migration import MigrationModel
from repro.runner import JobSpec, worker
from repro.service.config import ServiceConfig
from repro.sim.config import SimulatorConfig, TEST_SCALE
from repro.sim.simulator import build_engine, make_policy
from repro.sim.stats import PredictorStats
from repro.workloads.generator import priming_invocations
from repro.workloads.presets import get_workload

#: The learning policies, HI under the predictor shapes it ships with.
POLICIES = {
    "HI-cam200": lambda n: make_policy("HI", threshold=n),
    "HI-dm1500": lambda n: make_policy(
        "HI", threshold=n,
        predictor=RunLengthPredictor(entries=1500, organisation=DIRECT_MAPPED),
    ),
    "HI-no-confidence": lambda n: make_policy(
        "HI", threshold=n, predictor=RunLengthPredictor(use_confidence=False)
    ),
    "HI-no-fallback": lambda n: make_policy(
        "HI", threshold=n,
        predictor=RunLengthPredictor(use_global_fallback=False),
    ),
    "DI": lambda n: make_policy("DI", threshold=n),
}

#: One core; one SMT core with two threads; two open-loop cores.
TOPOLOGIES = {
    "one-core": {},
    "smt": {"threads_per_user_core": 2},
    "open-loop": {
        "num_user_cores": 2, "service": ServiceConfig(arrivals="poisson"),
    },
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


def _observed_run(config, policy, store=None):
    """Everything a run shows: stats, threshold trace, events, metrics
    and the open-loop latency record."""
    spec = get_workload("apache")
    sink = _ListSink()
    registry = MetricsRegistry()
    engine = build_engine(
        spec, policy, MigrationModel("L100", 100), config,
        bus=TraceBus(sink), metrics=registry, trace_store=store,
    )
    stats = engine.run()
    return {
        "stats": dataclasses.asdict(stats),
        "threshold_trace": engine.threshold_trace,
        "events": sink.records,
        "metrics": registry.snapshot(),
        "latency": engine.latency_snapshot(),
    }


def _assert_same_run(loaded, live, label):
    for facet in live:
        assert loaded[facet] == live[facet], f"{label} drifted on {facet!r}"


def _primed_policy(build, config, store=None):
    """A policy built by ``build`` and primed by an engine on ``config``."""
    policy = build(100)
    engine = build_engine(
        get_workload("apache"), policy, MigrationModel("L100", 100), config,
        trace_store=store,
    )
    engine._prime_policy()
    return policy


# ----------------------------------------------------------------------
# identity
# ----------------------------------------------------------------------


@pytest.mark.parametrize("topology", TOPOLOGIES.values(), ids=TOPOLOGIES.keys())
@pytest.mark.parametrize("build", POLICIES.values(), ids=POLICIES.keys())
def test_loaded_run_equals_a_live_primed_run(build, topology, tmp_path):
    for traps in (True, False):
        config = _config(include_window_traps=traps, **topology)
        store = TraceStore(str(tmp_path / f"traps-{traps}"))
        recording = _observed_run(config, build(0), store)
        _assert_same_run(recording, _observed_run(config, build(0)), "record")
        for threshold in (0, 100, 1000):
            loaded = _observed_run(config, build(threshold), store)
            live = _observed_run(config, build(threshold))
            _assert_same_run(loaded, live, f"N{threshold}/traps={traps}")
        assert store.counters["primed_misses"] == 1
        assert store.counters["primed_hits"] == 3


@pytest.mark.parametrize("build", POLICIES.values(), ids=POLICIES.keys())
def test_a_load_restores_exactly_what_priming_taught(build, tmp_path):
    config = _config()
    store = TraceStore(str(tmp_path))
    live = _primed_policy(build, config, store)
    loaded = _primed_policy(build, config, store)
    assert store.counters["primed_misses"] == store.counters["primed_hits"] == 1
    assert loaded.snapshot() == live.snapshot()
    assert len(live.snapshot()) > 0


def test_two_loads_from_one_snapshot_give_equal_runs(tmp_path):
    config = _config()
    store = TraceStore(str(tmp_path))
    _observed_run(config, make_policy("HI", threshold=100), store)
    (snapshot,) = store._primed.values()
    kept = copy.deepcopy(snapshot)
    first = _observed_run(config, make_policy("HI", threshold=100), store)
    second = _observed_run(config, make_policy("HI", threshold=100), store)
    _assert_same_run(second, first, "second load")
    # The runs trained their own fresh entries, not the snapshot's.
    assert snapshot == kept
    assert store.counters["primed_hits"] == 2


# ----------------------------------------------------------------------
# the snapshot/load pair
# ----------------------------------------------------------------------


def _trained_predictor(**shape):
    """A predictor trained on apache's priming stream, and the AState
    hash it observed last (so it is in the table)."""
    predictor = RunLengthPredictor(**shape)
    spec = get_workload("apache")
    for invocation in priming_invocations(spec, TEST_SCALE, 2010, 500, True):
        predicted = predictor.predict(invocation.astate)
        predictor.observe(invocation.astate, predicted, invocation.length)
    return predictor, astate_hash(invocation.astate)


@pytest.mark.parametrize(
    "shape", [{"entries": 8}, {"entries": 64, "organisation": DIRECT_MAPPED}],
    ids=["cam-8", "direct-64"],
)
def test_predictor_load_rebuilds_table_order_and_history(shape):
    source, last = _trained_predictor(**shape)
    snapshot = source.snapshot()
    target = RunLengthPredictor(**shape)
    stats = target.stats
    assert not target.trained
    target.load(snapshot)
    # Equal snapshots: same entries, CAM replacement order and history.
    assert target.trained and target.snapshot() == snapshot
    assert target._recent.maxlen == source._recent.maxlen
    assert target.stats is stats and stats == PredictorStats()
    assert target.confidence_for_hash(last) == source.confidence_for_hash(last)
    # Fresh entries: training the loaded table leaves the source alone.
    target.observe_hash(last, 0, 10**6)
    assert source.snapshot() == snapshot


def test_engine_confidence_reads_the_loaded_table(tmp_path):
    config = _config()
    store = TraceStore(str(tmp_path))
    live = _primed_policy(POLICIES["HI-cam200"], config, store)
    policy = make_policy("HI", threshold=100)
    engine = build_engine(
        get_workload("apache"), policy, MigrationModel("L100", 100), config,
        trace_store=store,
    )
    bound = engine._confidence_of
    engine._prime_policy()
    assert store.counters["primed_hits"] == 1
    assert engine._confidence_of == bound
    stream = list(priming_invocations(
        get_workload("apache"), TEST_SCALE, 2010, 3000, True
    ))
    confidences = [engine._confidence_of(inv.astate) for inv in stream[-50:]]
    assert confidences == [
        live.predictor.confidence_for(inv.astate) for inv in stream[-50:]
    ]
    assert max(confidences) >= 0


def test_load_rejects_a_differently_shaped_snapshot():
    snapshot = _trained_predictor(entries=8)[0].snapshot()
    with pytest.raises(PredictorError, match="differently shaped"):
        RunLengthPredictor(entries=16).load(snapshot)
    with pytest.raises(PredictorError, match="differently shaped"):
        RunLengthPredictor(entries=8, use_confidence=False).load(snapshot)


# ----------------------------------------------------------------------
# keys and bypasses
# ----------------------------------------------------------------------


def test_shapes_counts_and_trap_settings_get_separate_entries(tmp_path):
    store = TraceStore(str(tmp_path))
    configs = [
        _config(),
        _config(policy_priming_invocations=1000),
        _config(include_window_traps=False),
    ]
    states = {}
    for config in configs:
        for name, build in POLICIES.items():
            policy = _primed_policy(build, config, store)
            states[(config, name)] = policy.snapshot()
    entries = len(configs) * len(POLICIES)
    assert store.counters["primed_misses"] == entries
    assert store.counters["primed_hits"] == 0
    assert len(store._primed) == entries
    # Each kept state is the one its own shape and stream primed.
    for (config, name), state in states.items():
        assert _primed_policy(POLICIES[name], config, store).snapshot() == state
    assert store.counters["primed_hits"] == entries
    assert states[(configs[0], "HI-cam200")] != states[(configs[1], "HI-cam200")]
    assert states[(configs[0], "DI")] != states[(configs[2], "DI")]


def test_a_trained_policy_primes_live_and_is_never_overwritten(tmp_path):
    config = _config()
    store = TraceStore(str(tmp_path))
    _primed_policy(POLICIES["HI-cam200"], config, store)
    (kept,) = store._primed.values()
    counters = dict(store.counters)

    def shared_predictor():
        predictor = RunLengthPredictor()
        predictor.observe_hash(12345, 0, 777)
        return predictor

    with_store = HardwareInstrumentation(100, predictor=shared_predictor())
    assert with_store.learning_shape() is None
    run = _observed_run(config, with_store, store)
    live = _observed_run(
        config, HardwareInstrumentation(100, predictor=shared_predictor())
    )
    _assert_same_run(run, live, "caller-trained predictor")
    assert store.counters["primed_hits"] == counters["primed_hits"]
    assert store.counters["primed_misses"] == counters["primed_misses"]
    assert list(store._primed.values()) == [kept]
    di = DynamicInstrumentation(100)
    first = next(priming_invocations(
        get_workload("apache"), TEST_SCALE, 2010, 1, True
    ))
    di.observe(first, di.decide(first))
    assert di.learning_shape() is None


def test_store_less_runs_never_consult_a_memo(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a store-less run consulted a primed state")

    monkeypatch.setattr(TraceRecordings, "primed_state", refuse)
    monkeypatch.setattr(TraceRecordings, "keep_primed_state", refuse)
    for build in POLICIES.values():
        _observed_run(_config(), build(100))


def test_policies_that_do_not_learn_have_no_shape(tmp_path):
    store = TraceStore(str(tmp_path))
    for name in ("NEVER", "ALWAYS", "ORACLE"):
        policy = make_policy(name, threshold=100)
        assert policy.learning_shape() is None
        _observed_run(_config(), policy, store)
    assert store.counters["primed_hits"] == store.counters["primed_misses"] == 0


def test_a_priming_pass_that_raises_leaves_no_entry(tmp_path):
    config = _config()
    live = _observed_run(config, make_policy("HI", threshold=100))
    # A cache root's store and the level a worker keeps without one.
    for store in (TraceStore(str(tmp_path)), TraceRecordings()):
        policy = make_policy("HI", threshold=100)
        seen = []
        observe = policy.observe

        def fail_midway(invocation, decision, seen=seen, observe=observe):
            seen.append(invocation)
            if len(seen) == 100:
                raise RuntimeError("priming interrupted")
            observe(invocation, decision)

        policy.observe = fail_midway
        with pytest.raises(RuntimeError, match="priming interrupted"):
            _observed_run(config, policy, store)
        assert store._primed == {}
        assert store.counters["primed_misses"] == 1
        retried = _observed_run(config, make_policy("HI", threshold=100), store)
        _assert_same_run(retried, live, "retry after a failed priming pass")
        assert store.counters["primed_misses"] == 2 and len(store._primed) == 1


# ----------------------------------------------------------------------
# the batch runner
# ----------------------------------------------------------------------


def _primed_counters(batch):
    totals = {}
    for result in batch:
        for name in ("primed_hits", "primed_misses"):
            totals[name] = totals.get(name, 0) + result.cache_counters.get(name, 0)
    return totals


def test_sweep_primes_once_per_store_and_exports_the_counts(tmp_path):
    config = _config()
    specs = [
        JobSpec("apache", "HI", threshold, latency)
        for latency in (0, 1000)
        for threshold in (100, 1000)
    ]
    runs = {}
    # With a cache root and without one, the worker's level primes once.
    for label, cache_dir in (("cached", str(tmp_path)), ("plain", None)):
        worker._BASELINE_MEMO.clear()
        worker._STORES.clear()
        registry = MetricsRegistry()
        runs[label] = run_job_grid(
            specs, config, cache_dir=cache_dir, metrics=registry
        )
        assert _primed_counters(runs[label]) == {
            "primed_hits": 3, "primed_misses": 1,
        }, label
        prometheus = registry.to_prometheus()
        assert "repro_cache_primed_hits_total 3" in prometheus
        assert "repro_cache_primed_misses_total 1" in prometheus
    assert {r.job_id: r.metrics for r in runs["cached"]} == {
        r.job_id: r.metrics for r in runs["plain"]
    }
