"""Tests for the in-memory trace level every batch worker keeps.

A worker records each thread's stream the first time a run draws it
and replays the recording in every later run of the process
(:class:`repro.cache.tracestore.TraceRecordings`; a cache root's
:class:`~repro.cache.TraceStore` is the same level backed by disk).
The load-bearing property is the same as the trace store's: a run that
records and a run that replays are both indistinguishable from a
store-less run, so the committed goldens must come out byte for byte
either way.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.cache import TraceStore, tracestore
from repro.cache.tracestore import DEFAULT_LRU_ENTRIES, TraceRecordings
from repro.errors import JobTimeout
from repro.experiments.common import run_job_grid
from repro.offload.migration import MigrationModel
from repro.runner import JobSpec, worker
from repro.service.config import ServiceConfig
from repro.sim.config import SimulatorConfig, TEST_SCALE
from repro.sim.simulator import make_policy, simulate, simulate_baseline
from repro.workloads.generator import TraceGenerator
from repro.workloads.presets import get_workload

from tests.goldens.regen import (
    GOLDEN_CELLS,
    SERVICE_CELLS,
    SERVICE_SEEDS,
    SMT_CELLS,
    SMT_SEEDS,
    golden_path,
    run_cell,
    run_service_cell,
    run_smt_cell,
    service_golden_path,
    smt_golden_path,
)


@pytest.fixture(autouse=True)
def _fresh_worker_state():
    """Isolate the worker's per-process memos from other tests."""
    worker._BASELINE_MEMO.clear()
    worker._STORES.clear()
    yield
    worker._BASELINE_MEMO.clear()
    worker._STORES.clear()


@pytest.fixture
def built(monkeypatch):
    """``(workload, thread)`` of every generator the recorder builds.

    Live priming streams build their generators in
    ``repro.workloads.generator`` and are not counted."""
    calls = []

    class Counted(TraceGenerator):
        def __init__(self, spec, profile, seed=2010, thread_id=0):
            calls.append((spec.name, thread_id))
            super().__init__(spec, profile, seed=seed, thread_id=thread_id)

    monkeypatch.setattr(tracestore, "TraceGenerator", Counted)
    return calls


# ----------------------------------------------------------------------
# bit-identity against the committed goldens
# ----------------------------------------------------------------------


_GOLDENS = (
    [
        (f"closed-{workload}-{seed}", run_cell, golden_path, workload, seed, 1)
        for workload, seed in GOLDEN_CELLS
    ]
    + [
        (f"open-{tag}-{seed}", run_service_cell, service_golden_path, tag,
         seed, 2)
        for tag, _, _, _ in SERVICE_CELLS
        for seed in SERVICE_SEEDS
    ]
    + [
        (f"smt-{tag}-{seed}", run_smt_cell, smt_golden_path, tag, seed,
         cores * 2)
        for tag, _, cores, _ in SMT_CELLS
        for seed in SMT_SEEDS
    ]
)


@pytest.mark.parametrize(
    ("run", "path", "name", "seed", "threads"),
    [cell[1:] for cell in _GOLDENS],
    ids=[cell[0] for cell in _GOLDENS],
)
def test_recorded_and_replayed_runs_reproduce_goldens(
    run, path, name, seed, threads, built
):
    committed = path(name, seed).read_text()
    level = TraceRecordings()
    for _ in range(2):  # the first run records, the second replays
        stats = run(name, seed, trace_store=level)
        assert json.dumps(stats, indent=2, sort_keys=True) + "\n" == committed
        assert len(built) == threads


def _stats(config: SimulatorConfig, trace_store=None):
    spec = get_workload("apache")
    policy = make_policy("HI", threshold=100, spec=spec, config=config)
    result = simulate(spec, policy, config=config, trace_store=trace_store)
    return dataclasses.asdict(result.stats)


def test_icache_runs_record_and_replay_the_live_stream(built):
    config = SimulatorConfig(profile=TEST_SCALE, seed=7, enable_icache=True)
    reference = _stats(config)
    level = TraceRecordings()
    assert _stats(config, level) == reference
    assert _stats(config, level) == reference
    assert built == [("apache", 0)]


# ----------------------------------------------------------------------
# the runner's level without a cache root
# ----------------------------------------------------------------------


def _counter_totals(batch):
    totals = {}
    for result in batch:
        for name, delta in result.cache_counters.items():
            totals[name] = totals.get(name, 0) + delta
    return totals


def test_cacheless_grid_records_each_trace_once_per_process(built):
    config = SimulatorConfig(profile=TEST_SCALE, seed=2010, num_user_cores=2)
    specs = [
        JobSpec(workload, "HI", threshold, latency)
        for workload in ("apache", "derby")
        for threshold in (100, 1000)
        for latency in (0, 1000)
    ]
    expected = [(w, t) for w in ("apache", "derby") for t in (0, 1)]
    first = run_job_grid(specs, config, jobs=1)
    first.raise_on_failures()
    assert sorted(built) == expected
    # Each workload's baseline records its two threads; its four cells
    # replay them and prime once.  Two user cores take no tapes.
    assert _counter_totals(first) == {
        "trace_misses": 4, "trace_hits": 16,
        "primed_misses": 2, "primed_hits": 6,
    }
    worker._STORES.clear()
    second = run_job_grid(specs, config, jobs=1)
    assert sorted(built) == sorted(expected * 2)
    assert {r.job_id: r.metrics for r in second} == {
        r.job_id: r.metrics for r in first
    }


def test_open_loop_cells_replay_the_closed_loop_baselines_recording(built):
    service = ServiceConfig(
        arrivals="poisson", mean_interarrival_cycles=10_000.0, os_cores=2,
    )
    config = SimulatorConfig(
        profile=TEST_SCALE, seed=2010, num_user_cores=2, service=service
    )
    spec = get_workload("apache")
    migration = MigrationModel("runner-100", 100)
    policy = make_policy(
        "HI", threshold=100, migration=migration, spec=spec, config=config
    )
    live = simulate(spec, policy, migration, config)
    closed = dataclasses.replace(config, service=ServiceConfig())
    baseline = simulate_baseline(spec, closed).throughput

    (cell,) = run_job_grid([JobSpec("apache", "HI", 100, 100)], config)
    assert cell.ok
    assert built == [("apache", 0), ("apache", 1)]  # recorded by the baseline
    assert cell.metrics["baseline_throughput"] == baseline
    assert cell.metrics["throughput"] == live.stats.throughput
    assert cell.metrics["latency_p99_cycles"] == live.latency.p99


def test_a_timeout_mid_recording_forgets_the_recording(monkeypatch):
    config = SimulatorConfig(profile=TEST_SCALE, seed=2010)
    spec = get_workload("derby")
    migration = MigrationModel("runner-1000", 1000)
    policy = make_policy(
        "HI", threshold=100, migration=migration, spec=spec, config=config
    )
    throughput = simulate(spec, policy, migration, config).stats.throughput
    baseline = simulate_baseline(spec, config).throughput

    original = TraceGenerator.os_accesses
    calls = iter(range(1, 10**9))

    def time_out_on_the_40th_draw(generator, invocation):
        drawn = original(generator, invocation)
        if next(calls) == 40:
            # The draw moved the RNG, then the alarm fired: the result
            # is lost, as when a timeout lands between two draws.
            raise JobTimeout("injected timeout inside os_accesses")
        return drawn

    monkeypatch.setattr(TraceGenerator, "os_accesses", time_out_on_the_40th_draw)
    specs = [JobSpec("derby", "HI", 100, latency) for latency in (0, 1000)]
    batch = run_job_grid(specs, config, jobs=1)
    failed, finished = list(batch)
    assert not failed.ok and failed.error.startswith("JobTimeout")
    assert finished.ok
    assert finished.metrics["throughput"] == throughput
    assert finished.metrics["baseline_throughput"] == baseline


def test_the_level_never_holds_more_than_its_bound():
    config = SimulatorConfig(profile=TEST_SCALE, seed=2010)
    spec = get_workload("apache")
    level = TraceRecordings()
    threads = DEFAULT_LRU_ENTRIES + 2
    cursors = {}
    for thread in range(threads):
        cursors[thread] = level.trace_source(spec, config, thread, 1000)
        assert len(level._lru) == min(thread + 1, DEFAULT_LRU_ENTRIES)
    # The level holds threads 2..9.  Reading 2 again leaves 3 the least
    # recently used, so starting thread 0 drops 3 and keeps 2.
    again = level.trace_source(spec, config, 2, 1000)
    assert again._data is cursors[2]._data
    level.trace_source(spec, config, 0, 1000)
    assert len(level._lru) == DEFAULT_LRU_ENTRIES
    assert level.trace_source(spec, config, 2, 1000)._data is cursors[2]._data
    assert level.trace_source(spec, config, 3, 1000)._data is not cursors[3]._data


def test_a_recording_past_its_byte_bound_is_dropped_as_it_is_read(
    monkeypatch, tmp_path, built
):
    monkeypatch.setattr(tracestore, "RECORDING_BYTES", 20_000)
    config = SimulatorConfig(profile=TEST_SCALE, seed=7, enable_icache=True)
    reference = _stats(config)
    level = TraceRecordings()
    assert _stats(config, level) == reference
    (recording,) = level._lru.values()
    assert not recording.kept
    assert recording.nbytes > 20_000
    assert len(recording.events) == len(recording.lines) == 1
    # The next run records afresh and runs on live in the same way.
    assert _stats(config, level) == reference
    assert built == [("apache", 0)] * 2
    # A trace store entry keeps its whole stream whatever the bound.
    assert _stats(config, TraceStore(str(tmp_path))) == reference
