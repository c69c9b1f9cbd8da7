"""Tests for repro.cache: the content-addressed trace & result cache.

The load-bearing property is bit-identity: a simulation that replays a
materialized trace must be indistinguishable — golden stats included —
from one that generates the trace live.  Everything else (corruption
fallback, schema invalidation, concurrent writers, counters, CLI) is
the operational envelope around that guarantee.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import os
import pathlib
import shutil
import time

import pytest

from repro.cache import (
    CACHE_SCHEMA_VERSION,
    ResultStore,
    TraceStore,
    baselines_dir,
    cache_clear,
    cache_gc,
    cache_stats,
    resolve_cache_root,
)
from repro.cache.keys import prime_key
from repro.cache import tracestore
from repro.cache.paths import CACHE_ENV_VAR, RESULTS_SUBDIR, TRACES_SUBDIR
from repro.cache.tracestore import _decode, _encode, _materialize_trace
from repro.experiments.common import run_job_grid
from repro.obs.metrics import MetricsRegistry
from repro.runner import JobSpec, worker
from repro.runner.jobspec import config_to_payload
from repro.sim.config import SimulatorConfig, TEST_SCALE
from repro.sim.simulator import make_policy, simulate
from repro.workloads.presets import get_workload

from tests.goldens.regen import GOLDEN_CELLS, golden_path, run_cell
from tests.test_policies import observed_before_warmup


@pytest.fixture(autouse=True)
def _fresh_worker_state():
    """Isolate the worker's per-process memos from other tests."""
    worker._BASELINE_MEMO.clear()
    worker._STORES.clear()
    yield
    worker._BASELINE_MEMO.clear()
    worker._STORES.clear()


def _store_root(tmp_path: pathlib.Path) -> str:
    return str(tmp_path / "cache")


# ----------------------------------------------------------------------
# bit-identity against the committed goldens
# ----------------------------------------------------------------------


@pytest.mark.parametrize(("workload", "seed"), GOLDEN_CELLS)
def test_cached_replay_reproduces_goldens(workload, seed, tmp_path):
    committed = json.loads(golden_path(workload, seed).read_text())
    root = _store_root(tmp_path)
    # Cold pass materializes; warm pass replays from the same store's
    # LRU; a fresh store instance replays from disk.
    cold_store = TraceStore(root)
    assert run_cell(workload, seed, trace_store=cold_store) == committed
    assert run_cell(workload, seed, trace_store=cold_store) == committed
    disk_store = TraceStore(root)
    assert run_cell(workload, seed, trace_store=disk_store) == committed
    assert disk_store.counters["trace_misses"] == 0
    assert disk_store.counters["trace_hits"] > 0


def _run_stats(config: SimulatorConfig, trace_store=None):
    spec = get_workload("apache")
    policy = make_policy("HI", threshold=100, spec=spec, config=config)
    result = simulate(spec, policy, config=config, trace_store=trace_store)
    return dataclasses.asdict(result.stats)


@pytest.mark.parametrize(
    "overrides",
    [
        {"threads_per_user_core": 2, "num_user_cores": 2},
        {"enable_icache": True},
        {"include_window_traps": False},
    ],
    ids=["smt", "icache", "window-traps"],
)
def test_replay_identical_across_configs(overrides, tmp_path):
    config = SimulatorConfig(profile=TEST_SCALE, seed=7, **overrides)
    reference = _run_stats(config)
    root = _store_root(tmp_path)
    assert _run_stats(config, TraceStore(root)) == reference  # materialize
    assert _run_stats(config, TraceStore(root)) == reference  # disk replay


def test_trace_store_reads_back_the_bytes_it_wrote(tmp_path):
    config = SimulatorConfig(profile=TEST_SCALE, seed=7)
    root = _store_root(tmp_path)
    writer = TraceStore(root)
    reference = _run_stats(config, writer)
    reader = TraceStore(root)
    assert _run_stats(config, reader) == reference
    assert reader.counters["trace_misses"] == 0
    assert reader.counters["bytes_read"] == writer.counters["bytes_written"] > 0


def test_lru_eviction_keeps_replay_correct(tmp_path):
    store = TraceStore(_store_root(tmp_path), max_entries=1)
    for workload, seed in GOLDEN_CELLS[:2]:
        committed = json.loads(golden_path(workload, seed).read_text())
        assert run_cell(workload, seed, trace_store=store) == committed
    assert len(store._lru) == 1


# ----------------------------------------------------------------------
# priming entries
# ----------------------------------------------------------------------


def _primed_invocations(config: SimulatorConfig, trace_store=None):
    """Every invocation an HI policy observes before the warm-up starts."""
    spec = get_workload("specjbb2005")
    policy = make_policy("HI", threshold=100, spec=spec, config=config)
    return observed_before_warmup(spec, policy, config, trace_store)


@pytest.mark.parametrize(
    "include_traps", [True, False], ids=["default", "no-window-traps"]
)
def test_priming_entry_is_the_stream_the_policy_is_primed_on(
    include_traps, tmp_path
):
    config = SimulatorConfig(
        profile=TEST_SCALE, seed=7, include_window_traps=include_traps
    )
    target = config.policy_priming_invocations
    live = _primed_invocations(config)
    assert len(live) == target
    # specjbb2005 enters the OS mostly through window traps, so the two
    # settings prime on visibly different streams.
    assert any(inv.is_window_trap for inv in live) == include_traps
    root = _store_root(tmp_path)
    assert _primed_invocations(config, TraceStore(root)) == live  # record
    disk = TraceStore(root)
    entry = list(disk.priming_events(get_workload("specjbb2005"), config))
    assert disk.counters["trace_hits"] == 1
    assert disk.counters["trace_misses"] == 0
    assert entry == live


def test_trap_settings_prime_from_their_own_entries(tmp_path):
    with_traps = SimulatorConfig(profile=TEST_SCALE, seed=7)
    without_traps = SimulatorConfig(
        profile=TEST_SCALE, seed=7, include_window_traps=False
    )
    spec = get_workload("apache")
    assert prime_key(spec, config_to_payload(with_traps)) != prime_key(
        spec, config_to_payload(without_traps)
    )
    references = [_run_stats(with_traps), _run_stats(without_traps)]
    assert references[0] != references[1]
    root = _store_root(tmp_path)
    for _ in ("record", "replay"):
        for config, reference in zip((with_traps, without_traps), references):
            assert _run_stats(config, TraceStore(root)) == reference


def test_decode_is_the_inverse_of_encode():
    spec = get_workload("apache")
    data = _materialize_trace(
        spec, TEST_SCALE, seed=7, thread_id=0, instruction_budget=200_000,
        icache=False,
    )
    arrays, manifest = _encode(data)
    assert _decode(manifest, arrays).events == data.events
    # An event stream that disagrees with the invocation columns is
    # rejected, as a truncated column is.
    kinds = arrays["kinds"].copy()
    kinds[kinds.nonzero()[0][0]] = 0
    with pytest.raises(ValueError, match="invocation array"):
        _decode(manifest, dict(arrays, kinds=kinds))


# ----------------------------------------------------------------------
# corruption, truncation, schema invalidation
# ----------------------------------------------------------------------


def _trace_files(root: str, suffix: str):
    directory = pathlib.Path(root) / TRACES_SUBDIR
    return sorted(directory.glob(f"*{suffix}"))


def test_corrupt_npz_falls_back_with_warning(tmp_path, caplog):
    workload, seed = GOLDEN_CELLS[0]
    committed = json.loads(golden_path(workload, seed).read_text())
    root = _store_root(tmp_path)
    run_cell(workload, seed, trace_store=TraceStore(root))
    for npz in _trace_files(root, ".npz"):
        npz.write_bytes(npz.read_bytes()[:100])
    store = TraceStore(root)
    with caplog.at_level(logging.WARNING, logger="repro.cache"):
        assert run_cell(workload, seed, trace_store=store) == committed
    assert any("corrupt trace-cache entry" in r.message for r in caplog.records)
    assert store.counters["trace_misses"] > 0
    # The regenerated entries were written back and are readable again.
    fresh = TraceStore(root)
    assert run_cell(workload, seed, trace_store=fresh) == committed
    assert fresh.counters["trace_misses"] == 0


def test_unreadable_manifest_falls_back_with_warning(tmp_path, caplog):
    workload, seed = GOLDEN_CELLS[0]
    committed = json.loads(golden_path(workload, seed).read_text())
    root = _store_root(tmp_path)
    run_cell(workload, seed, trace_store=TraceStore(root))
    for manifest in _trace_files(root, ".json"):
        manifest.write_text("{ not json")
    store = TraceStore(root)
    with caplog.at_level(logging.WARNING, logger="repro.cache"):
        assert run_cell(workload, seed, trace_store=store) == committed
    assert any(
        "unreadable trace-cache manifest" in r.message for r in caplog.records
    )


def test_manifest_schema_stamp_invalidates_entry(tmp_path, caplog):
    workload, seed = GOLDEN_CELLS[0]
    committed = json.loads(golden_path(workload, seed).read_text())
    root = _store_root(tmp_path)
    run_cell(workload, seed, trace_store=TraceStore(root))
    for path in _trace_files(root, ".json"):
        manifest = json.loads(path.read_text())
        manifest["schema"] = CACHE_SCHEMA_VERSION + 1
        path.write_text(json.dumps(manifest))
    store = TraceStore(root)
    with caplog.at_level(logging.WARNING, logger="repro.cache"):
        assert run_cell(workload, seed, trace_store=store) == committed
    assert store.counters["trace_misses"] > 0


def test_schema_bump_changes_every_key(tmp_path, monkeypatch):
    workload, seed = GOLDEN_CELLS[0]
    root = _store_root(tmp_path)
    run_cell(workload, seed, trace_store=TraceStore(root))
    before = {p.name for p in _trace_files(root, ".json")}
    import repro.cache.keys as keys

    monkeypatch.setattr(keys, "CACHE_SCHEMA_VERSION", CACHE_SCHEMA_VERSION + 1)
    store = TraceStore(root)
    run_cell(workload, seed, trace_store=store)
    after = {p.name for p in _trace_files(root, ".json")}
    assert store.counters["trace_hits"] == 0
    assert before and before.isdisjoint(after - before)
    assert len(after) > len(before)


# ----------------------------------------------------------------------
# level 2: result memoization
# ----------------------------------------------------------------------


def test_result_store_roundtrip_and_keying(tmp_path):
    store = ResultStore(_store_root(tmp_path))
    metrics = {"normalized_throughput": 1.25, "offloads": 42}
    store.put("apache/HI/N100/L100/s1", "fp-one", metrics)
    assert store.get("apache/HI/N100/L100/s1", "fp-one") == metrics
    # A different fingerprint or job id is a different outcome.
    assert store.get("apache/HI/N100/L100/s1", "fp-two") is None
    assert store.get("derby/HI/N100/L100/s1", "fp-one") is None
    assert store.counters["result_hits"] == 1
    assert store.counters["result_misses"] == 2


def test_result_store_ignores_corrupt_entries(tmp_path, caplog):
    root = _store_root(tmp_path)
    store = ResultStore(root)
    store.put("job", "fp", {"throughput": 1.0})
    for path in pathlib.Path(store.directory).glob("*.json"):
        path.write_text("{ nope")
    fresh = ResultStore(root)
    with caplog.at_level(logging.WARNING, logger="repro.cache"):
        assert fresh.get("job", "fp") is None
    assert any(
        "unreadable result-cache entry" in r.message for r in caplog.records
    )


def test_execute_job_memoizes_whole_cells(tmp_path):
    config = SimulatorConfig(profile=TEST_SCALE, seed=2010)
    spec = JobSpec("apache", "HI", 100, 100).resolved(config.seed)
    payload = {
        "job": spec.to_payload(),
        "config": config_to_payload(config),
        "timeout_s": None,
        "cache_dir": _store_root(tmp_path),
    }
    first = worker.execute_job(payload)
    assert first["status"] == "ok"
    assert first["cache_counters"]["result_misses"] == 1
    assert first["cache_counters"]["trace_misses"] > 0
    # A cold process (fresh memos) re-running the same cell hits level 2
    # and never touches the simulator's trace machinery.
    worker._BASELINE_MEMO.clear()
    worker._STORES.clear()
    second = worker.execute_job(payload)
    assert second["status"] == "ok"
    assert second["metrics"] == first["metrics"]
    assert second["cache_counters"]["result_hits"] == 1
    assert "trace_misses" not in second["cache_counters"]


def _cell_payload(root, timeout_s=None):
    config = SimulatorConfig(profile=TEST_SCALE, seed=2010)
    spec = JobSpec("apache", "HI", 100, 0).resolved(config.seed)
    return {
        "job": spec.to_payload(),
        "config": config_to_payload(config),
        "timeout_s": timeout_s,
        "cache_dir": root,
    }


def _sleep_past_the_alarm(*args, **kwargs):
    time.sleep(5)
    raise AssertionError("the job's alarm did not fire")


@pytest.mark.parametrize(
    "stage", ["cold-materialization", "warm-load"]
)
def test_a_timeout_inside_the_trace_store_fails_the_cell(
    stage, tmp_path, monkeypatch
):
    root = _store_root(tmp_path)
    if stage == "warm-load":
        assert worker.execute_job(_cell_payload(root))["status"] == "ok"
        worker._BASELINE_MEMO.clear()
        worker._STORES.clear()
        shutil.rmtree(os.path.join(root, RESULTS_SUBDIR))
        monkeypatch.setattr(tracestore, "_decode", _sleep_past_the_alarm)
    else:
        monkeypatch.setattr(
            tracestore, "_materialize_trace", _sleep_past_the_alarm
        )
    started = time.perf_counter()
    record = worker.execute_job(_cell_payload(root, timeout_s=0.2))
    assert record["status"] == "failed"
    assert record["error"].startswith("JobTimeout")
    assert time.perf_counter() - started < 4


# ----------------------------------------------------------------------
# batch runner integration
# ----------------------------------------------------------------------


def _grid_metrics(batch):
    return {result.job_id: result.metrics for result in batch}


def test_concurrent_workers_share_one_cache(tmp_path):
    config = SimulatorConfig(profile=TEST_SCALE, seed=2010)
    specs = [
        JobSpec(workload, "HI", threshold, latency)
        for workload in ("apache", "derby")
        for latency in (100, 5000)
        for threshold in (0, 100)
    ]
    plain = run_job_grid(specs, config)
    root = _store_root(tmp_path)
    # Two workers race on the same trace keys in a cold cache; atomic
    # writes make the collision benign and the numbers bit-identical.
    parallel = run_job_grid(specs, config, jobs=2, cache_dir=root)
    assert _grid_metrics(parallel) == _grid_metrics(plain)
    # A serial cold grid replays each cell's memory tape for its
    # latency twin: one recording and one replay per (workload, N).
    worker._BASELINE_MEMO.clear()
    worker._STORES.clear()
    registry = MetricsRegistry()
    serial = run_job_grid(
        specs, config, cache_dir=_store_root(tmp_path / "serial"),
        metrics=registry,
    )
    assert _grid_metrics(serial) == _grid_metrics(plain)
    prometheus = registry.to_prometheus()
    assert "repro_cache_tape_hits_total 4" in prometheus
    assert "repro_cache_tape_misses_total 4" in prometheus
    worker._BASELINE_MEMO.clear()
    worker._STORES.clear()
    registry = MetricsRegistry()
    warm = run_job_grid(specs, config, cache_dir=root, metrics=registry)
    assert _grid_metrics(warm) == _grid_metrics(plain)
    prometheus = registry.to_prometheus()
    assert "repro_cache_result_hits_total 8" in prometheus


def test_cache_root_hosts_shared_baselines(tmp_path):
    config = SimulatorConfig(profile=TEST_SCALE, seed=2010)
    root = _store_root(tmp_path)
    run_job_grid([JobSpec("apache", "HI", 100, 100)], config, cache_dir=root)
    baselines = pathlib.Path(baselines_dir(root))
    assert baselines.is_dir() and any(baselines.iterdir())


# ----------------------------------------------------------------------
# maintenance + CLI
# ----------------------------------------------------------------------


def test_maintenance_stats_gc_clear(tmp_path):
    root = _store_root(tmp_path)
    run_cell(*GOLDEN_CELLS[0], trace_store=TraceStore(root))
    ResultStore(root).put("job", "fp", {"throughput": 1.0})
    stats = cache_stats(root)
    assert stats["files"] > 0 and stats["bytes"] > 0
    assert stats["sections"]["results"]["files"] == 1
    # Nothing is old enough for a 30-day gc...
    assert cache_gc(root, max_age_days=30)["removed"] == 0
    # ...but aging every entry makes the same gc reclaim all of them.
    for section in ("traces", "results"):
        for path in (pathlib.Path(root) / section).iterdir():
            os.utime(path, (0, 0))
    swept = cache_gc(root, max_age_days=30)
    assert swept["removed"] == stats["files"]
    run_cell(*GOLDEN_CELLS[0], trace_store=TraceStore(root))
    cleared = cache_clear(root)
    assert cleared["removed"] > 0
    assert cache_stats(root)["files"] == 0


def test_resolve_cache_root_precedence(tmp_path, monkeypatch):
    monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path / "from-env"))
    assert resolve_cache_root() == str(tmp_path / "from-env")
    assert resolve_cache_root(str(tmp_path / "explicit")) == str(
        tmp_path / "explicit"
    )
    monkeypatch.delenv(CACHE_ENV_VAR)
    assert resolve_cache_root().endswith(os.path.join(".cache", "repro"))


def test_cache_cli_stats_gc_clear(tmp_path, monkeypatch, capsys):
    from repro.cli import main

    root = _store_root(tmp_path)
    monkeypatch.setenv(CACHE_ENV_VAR, root)
    # A cached sweep populates the root the CLI then inspects.
    assert main([
        "--profile", "test", "sweep", "apache",
        "--thresholds", "100", "--latencies", "100", "--json",
    ]) == 0
    capsys.readouterr()
    assert main(["cache", "stats", "--json"]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["root"] == root
    assert stats["files"] > 0
    assert main(["cache", "gc", "--max-age-days", "30"]) == 0
    assert "removed 0 files" in capsys.readouterr().out
    assert main(["cache", "clear"]) == 0
    capsys.readouterr()
    assert main(["cache", "stats", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["files"] == 0


def test_sweep_no_cache_flag_disables_cache(tmp_path, monkeypatch, capsys):
    from repro.cli import main

    root = _store_root(tmp_path)
    monkeypatch.setenv(CACHE_ENV_VAR, root)
    assert main([
        "--profile", "test", "sweep", "apache", "--no-cache",
        "--thresholds", "100", "--latencies", "100", "--json",
    ]) == 0
    capsys.readouterr()
    assert not os.path.exists(root)


def test_experiment_rejects_cache_flags_for_serial_experiments(capsys):
    from repro.cli import main

    assert main(["experiment", "table1", "--no-cache"]) == 2
    assert "--no-cache" in capsys.readouterr().err


# ----------------------------------------------------------------------
# R304: cache-key honesty lint rule
# ----------------------------------------------------------------------


def test_r304_flags_config_reads_in_cache_package(tmp_path):
    from repro.lint import run_lint

    package = tmp_path / "cache"
    package.mkdir()
    (package / "bad.py").write_text(
        "def key_of(config):\n"
        "    return str(config.seed)\n"
    )
    (package / "good.py").write_text(
        "def key_of(config, config_to_payload):\n"
        "    return sorted(config_to_payload(config).items())\n"
    )
    findings = run_lint([tmp_path], root=tmp_path, select=["R304"])
    assert [(v.rule, v.line) for v in findings] == [("R304", 2)]
    assert "config.seed" in findings[0].message


def test_r304_ignores_config_reads_outside_cache_package(tmp_path):
    from repro.lint import run_lint

    module = tmp_path / "engine.py"
    module.write_text("def f(config):\n    return config.seed\n")
    assert run_lint([tmp_path], root=tmp_path, select=["R304"]) == []


def test_r304_clean_on_the_real_cache_package():
    from repro.lint import run_lint

    import repro.cache

    package = pathlib.Path(repro.cache.__file__).parent
    assert run_lint([package], root=package.parent.parent,
                    select=["R304"]) == []
