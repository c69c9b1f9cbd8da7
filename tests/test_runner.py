"""Tests for the repro.runner batch-execution subsystem.

The load-bearing guarantees:

- serial (``jobs=1``) and parallel (``jobs>1``) executions of the same
  grid with the same root seed are bit-identical per cell;
- a failed cell is recorded, never fatal to the batch;
- an interrupted batch finishes by running again on its cache root,
  where every measured cell is a result hit, and the combined results
  are bit-identical to an uninterrupted serial run.
"""

from __future__ import annotations

import dataclasses
import json
import os

import pytest

from repro.errors import ConfigurationError, ReproError
from repro.experiments.latency import LatencyCell, run_latency
from repro.obs.metrics import MetricsRegistry
from repro.runner import (
    BaselineStore,
    BatchRunner,
    JobSpec,
    SweepMonitor,
    config_fingerprint,
    config_from_payload,
    config_to_payload,
    derive_seed,
    shard_jobs,
    worker,
)
from repro.service.config import ServiceConfig
from repro.sim.config import SimulatorConfig, TEST_SCALE
from repro.sim.simulator import make_policy, simulate, simulate_baseline
from repro.offload.migration import MigrationModel
from repro.workloads.presets import get_workload

CONFIG = SimulatorConfig(profile=TEST_SCALE)


@pytest.fixture(autouse=True)
def _fresh_worker_state():
    """Start every test in a cold process: a cell replaying another
    test's tape or primed state would finish before a timeout fires."""
    worker._BASELINE_MEMO.clear()
    worker._STORES.clear()
    yield
    worker._BASELINE_MEMO.clear()
    worker._STORES.clear()


#: A small but non-trivial grid: two thresholds x two latencies.
GRID = [
    JobSpec("derby", "HI", threshold, latency)
    for threshold in (100, 10000)
    for latency in (0, 5000)
]


class TestSeedDerivation:
    def test_deterministic(self):
        assert derive_seed(2010, "a", 1) == derive_seed(2010, "a", 1)

    def test_sensitive_to_every_component(self):
        seeds = {
            derive_seed(2010, "a", 1),
            derive_seed(2010, "a", 2),
            derive_seed(2010, "b", 1),
            derive_seed(2011, "a", 1),
        }
        assert len(seeds) == 4

    def test_non_negative_63_bit(self):
        for index in range(50):
            seed = derive_seed(0, index)
            assert 0 <= seed < 2 ** 63


class TestJobSpec:
    def test_resolved_fills_root_seed(self):
        spec = JobSpec("derby").resolved(99)
        assert spec.seed == 99
        assert "s99" in spec.job_id

    def test_explicit_seed_wins(self):
        assert JobSpec("derby", seed=7).resolved(99).seed == 7

    def test_job_id_requires_seed(self):
        with pytest.raises(ConfigurationError):
            JobSpec("derby").job_id

    def test_tag_distinguishes_ids(self):
        base = JobSpec("derby").resolved(1)
        tagged = JobSpec("derby", tag="x").resolved(1)
        assert base.job_id == "derby/HI/N100/L100/s1"
        assert tagged.job_id == "derby/HI/N100/L100/s1/x"

    def test_tag_rejects_separator(self):
        with pytest.raises(ConfigurationError):
            JobSpec("derby", tag="a/b")

    def test_payload_roundtrip(self):
        spec = JobSpec("apache", "DI", 500, 1000, seed=3, tag="t")
        assert JobSpec.from_payload(spec.to_payload()) == spec

    def test_duplicate_cells_rejected(self):
        with pytest.raises(ReproError, match="duplicate"):
            BatchRunner(CONFIG).run([JobSpec("derby"), JobSpec("derby")])


class TestConfigPayload:
    def test_roundtrip_is_exact(self):
        assert config_from_payload(config_to_payload(CONFIG)) == CONFIG

    def test_roundtrip_preserves_custom_fields(self):
        config = dataclasses.replace(
            CONFIG, num_user_cores=3, enable_icache=True, seed=7
        )
        assert config_from_payload(config_to_payload(config)) == config

    def test_payload_with_unknown_key_is_rejected(self):
        payload = config_to_payload(CONFIG)
        payload["engine"] = "scalar"
        with pytest.raises(TypeError, match="engine"):
            config_from_payload(payload)

    def test_fingerprints_are_pinned(self):
        # Baseline files and result-cache entries are keyed by these
        # values; a change orphans all of them.
        assert config_fingerprint(SimulatorConfig()) == "5414e2abdae3b7c4"
        assert config_fingerprint(CONFIG) == "85a225b8a4f5ea2b"


class TestShardJobs:
    def test_round_robin_covers_everything(self):
        shards = shard_jobs(list(range(10)), 3)
        assert sorted(x for shard in shards for x in shard) == list(range(10))
        assert max(len(s) for s in shards) - min(len(s) for s in shards) <= 1

    def test_fewer_items_than_shards(self):
        assert shard_jobs([1], 8) == [[1]]


def _store_less_run(spec, config):
    """``simulate()`` of one job with no trace store and no tape."""
    workload = get_workload(spec.workload)
    migration = MigrationModel(f"runner-{spec.latency}", spec.latency)
    policy = make_policy(
        spec.policy, threshold=spec.threshold, migration=migration,
        spec=workload, config=config,
    )
    return simulate(workload, policy, migration, config)


def _counter_totals(batch):
    totals = {}
    for result in batch:
        for name, delta in result.cache_counters.items():
            totals[name] = totals.get(name, 0) + delta
    return totals


class TestSerialBatch:
    def test_matches_direct_simulation(self, tmp_path):
        """The runner's reuse against a store-less reference.

        The grid is CI's warm-vs-cold sweep plus a DI and an SI cell.
        Cache-less and on a fresh root, every metric the runner records
        equals store-less ``simulate()`` over ``simulate_baseline()``.
        """
        specs = [
            JobSpec("apache", "HI", threshold, latency)
            for threshold in (100, 1000)
            for latency in (0, 100)
        ] + [JobSpec("apache", "DI", 100, 100), JobSpec("apache", "SI", 100, 100)]
        baseline = simulate_baseline(get_workload("apache"), CONFIG).throughput
        expected = {
            spec.resolved(CONFIG.seed).job_id: worker.cell_metrics(
                _store_less_run(spec, CONFIG), baseline
            )
            for spec in specs
        }
        for cache_dir in (None, str(tmp_path / "cache")):
            worker._BASELINE_MEMO.clear()
            worker._STORES.clear()
            batch = BatchRunner(CONFIG, cache_dir=cache_dir).run(specs)
            batch.raise_on_failures()
            assert {r.job_id: r.metrics for r in batch} == expected, cache_dir
            # The comparison covers reuse: twins replay tapes, and later
            # learning cells load the primed state.
            counters = _counter_totals(batch)
            assert counters["tape_hits"] > 0, (cache_dir, counters)
            assert counters["primed_hits"] > 0, (cache_dir, counters)

    def test_cacheless_latency_sweep_matches_direct_simulation(self):
        """CI's DI open-loop sweep, cache-less, against store-less runs."""
        loads, pools = (0.05, 0.1), (1, 2)
        sweep = run_latency(CONFIG, policy="DI", loads=loads, os_cores=pools)
        base = dataclasses.replace(CONFIG, num_user_cores=2)
        baseline = simulate_baseline(get_workload("apache"), base).throughput
        for pool in pools:
            for load in loads:
                service = ServiceConfig(
                    arrivals="poisson", mean_interarrival_cycles=1000.0 / load,
                    os_cores=pool, dispatch="shortest",
                )
                config = dataclasses.replace(base, service=service)
                run = _store_less_run(JobSpec("apache", "DI", 100, 100), config)
                latency = run.latency
                assert sweep.cells[(load, pool)] == LatencyCell(
                    load=load, os_cores=pool, requests=latency.requests,
                    drops=latency.drops, p50=latency.p50, p99=latency.p99,
                    p999=latency.p999, mean=latency.mean, max=latency.max,
                    normalized_throughput=run.stats.throughput / baseline,
                ), (load, pool)

    def test_batch_result_shape(self):
        batch = BatchRunner(CONFIG).run(GRID)
        assert len(batch) == len(GRID)
        assert not batch.failures
        summary = batch.summary()
        assert summary["ok"] == len(GRID)
        assert summary["failed"] == 0
        json.dumps(summary)  # JSON-safe


class TestParallelEquivalence:
    def test_jobs2_bit_identical_to_serial(self):
        serial = BatchRunner(CONFIG, jobs=1).run(GRID)
        parallel = BatchRunner(CONFIG, jobs=2).run(GRID)
        assert [r.job_id for r in serial] == [r.job_id for r in parallel]
        assert [r.metrics for r in serial] == [r.metrics for r in parallel]


class TestFaultTolerance:
    def test_failed_cell_is_isolated(self):
        specs = [JobSpec("derby", "HI", 100, 0), JobSpec("nosuch")]
        batch = BatchRunner(CONFIG).run(specs)
        ok, bad = batch.results
        assert ok.ok and not bad.ok
        assert "unknown workload" in bad.error
        assert "WorkloadError" in bad.traceback

    def test_failed_cell_is_isolated_in_parallel(self):
        specs = [JobSpec("derby", "HI", 100, 0), JobSpec("nosuch"),
                 JobSpec("derby", "HI", 10000, 0)]
        batch = BatchRunner(CONFIG, jobs=2).run(specs)
        assert len(batch.failures) == 1
        assert len(batch.completed) == 2

    def test_raise_on_failures(self):
        batch = BatchRunner(CONFIG).run([JobSpec("nosuch")])
        with pytest.raises(ReproError, match="nosuch"):
            batch.raise_on_failures()

    def test_retries_re_execute_and_count_attempts(self):
        batch = BatchRunner(CONFIG, retries=2).run([JobSpec("nosuch")])
        result = batch.results[0]
        assert not result.ok
        assert result.attempts == 3
        assert batch.retries == 2

    def test_timeout_records_failure(self):
        batch = BatchRunner(CONFIG, timeout_s=0.005).run(
            [JobSpec("derby", "HI", 100, 0)]
        )
        result = batch.results[0]
        assert not result.ok
        assert "timeout" in result.error.lower()


class TestCheckpointResume:
    """A killed batch finishes by running again on its cache root."""

    def _interrupt_then_rerun(self, tmp_path, jobs):
        root = str(tmp_path / "cache")
        finished = []

        class Interrupted(Exception):
            pass

        class StopAfterTwoCells(SweepMonitor):
            def on_finished(self, job_id, ok, duration_s, profile=None):
                super().on_finished(job_id, ok, duration_s, profile=profile)
                finished.append(job_id)
                if self.snapshot()["done"] >= 2:
                    raise Interrupted

        with pytest.raises(Interrupted):
            BatchRunner(
                CONFIG, cache_dir=root, monitor=StopAfterTwoCells()
            ).run(GRID)
        assert len(finished) == 2
        rerun = BatchRunner(CONFIG, jobs=jobs, cache_dir=root).run(GRID)
        hits = {
            result.job_id: result.cache_counters.get("result_hits", 0)
            for result in rerun
        }
        assert sum(hits.values()) == 2
        assert {job_id for job_id, hit in hits.items() if hit} == set(finished)
        reference = BatchRunner(CONFIG).run(GRID)  # uncached, uninterrupted, serial
        assert [r.metrics for r in rerun] == [r.metrics for r in reference]

    def test_interrupt_resume_bit_identical_to_serial(self, tmp_path):
        self._interrupt_then_rerun(tmp_path, jobs=1)

    def test_parallel_resume_after_serial_interrupt(self, tmp_path):
        self._interrupt_then_rerun(tmp_path, jobs=2)

    def test_failed_cells_are_retried_on_resume(self, tmp_path):
        root = str(tmp_path / "cache")
        specs = [JobSpec("derby", "HI", 100, 0), JobSpec("nosuch")]
        first = BatchRunner(CONFIG, cache_dir=root).run(specs)
        assert len(first.failures) == 1
        rerun = BatchRunner(CONFIG, cache_dir=root).run(specs)
        ok, failed = rerun.results
        assert ok.ok and ok.cache_counters.get("result_hits") == 1
        # A failure is never stored, so the failed cell runs again.
        assert not failed.ok and "unknown workload" in failed.error
        assert failed.cache_counters.get("result_hits", 0) == 0
        assert failed.cache_counters.get("result_misses") == 1


class TestBaselinePersistence:
    def test_store_roundtrip_and_corruption_tolerance(self, tmp_path):
        store = BaselineStore(str(tmp_path))
        assert store.get("derby", CONFIG) is None
        store.put("derby", CONFIG, 0.75)
        assert BaselineStore(str(tmp_path)).get("derby", CONFIG) == 0.75
        (entry,) = [p for p in os.listdir(tmp_path)
                    if p.startswith("baseline-")]
        (tmp_path / entry).write_text("{not json")
        assert BaselineStore(str(tmp_path)).get("derby", CONFIG) is None

    def test_batch_persists_baselines_under_cache_root(self, tmp_path):
        root = tmp_path / "cache"
        batch = BatchRunner(CONFIG, cache_dir=str(root)).run(
            [JobSpec("derby", "HI", 100, 0)]
        )
        store = BaselineStore(str(root / "baselines"))
        stored = store.get("derby", CONFIG)
        assert stored == batch.results[0].metrics["baseline_throughput"]


class TestMetricsIntegration:
    def test_runner_counters(self):
        registry = MetricsRegistry()
        specs = [JobSpec("derby", "HI", 100, 0), JobSpec("nosuch")]
        BatchRunner(CONFIG, metrics=registry).run(specs)
        assert registry.get("runner_jobs_total").value == 2
        assert registry.get("runner_jobs_completed").value == 1
        assert registry.get("runner_jobs_failed").value == 1
        assert registry.get("runner_job_seconds").count == 2

        BatchRunner(CONFIG, metrics=registry, retries=1).run(specs)
        assert registry.get("runner_jobs_total").value == 4
        assert registry.get("runner_retries_total").value == 1
        assert "runner_jobs_total" in registry.to_prometheus()


class TestExperimentGridHelper:
    def test_run_job_grid_deduplicates(self):
        from repro.experiments.common import run_job_grid

        batch = run_job_grid(
            [JobSpec("derby", "HI", 100, 0), JobSpec("derby", "HI", 100, 0)],
            CONFIG,
        )
        assert len(batch) == 1

    def test_fig4_parallel_equals_serial(self):
        from repro.experiments import run_fig4

        kwargs = dict(
            groups=("derby",), thresholds=(100,), latencies=(0,),
            compute_members=("hmmer",),
        )
        serial = run_fig4(CONFIG, **kwargs)
        parallel = run_fig4(CONFIG, jobs=2, **kwargs)
        assert serial.panels == parallel.panels

    def test_robustness_seeds_derive_from_root(self):
        from repro.experiments.robustness import trial_seeds

        seeds = trial_seeds(2010, "apache", 3)
        assert len(set(seeds)) == 3
        assert seeds == trial_seeds(2010, "apache", 3)
        # extending the study keeps existing trials stable
        assert trial_seeds(2010, "apache", 5)[:3] == seeds
        assert trial_seeds(2011, "apache", 3) != seeds


class _Transitions(SweepMonitor):
    """Every transition the scheduler reports, with the done count then."""

    def __init__(self):
        super().__init__()
        self.seen = []

    def on_started(self, job_id):
        super().on_started(job_id)
        self.seen.append(("started", job_id, self.snapshot()["done"]))

    def on_retried(self, job_id):
        super().on_retried(job_id)
        self.seen.append(("retried", job_id, self.snapshot()["done"]))

    def on_finished(self, job_id, ok, duration_s, profile=None):
        super().on_finished(job_id, ok, duration_s, profile=profile)
        self.seen.append(("finished", job_id, self.snapshot()["done"]))


class TestProgressOrdering:
    """Satellite guarantee: started always precedes finished, and retry
    cycles surface as started -> retried -> started -> ... -> finished."""

    def _run(self, specs, **kwargs):
        monitor = _Transitions()
        batch = BatchRunner(CONFIG, monitor=monitor, **kwargs).run(specs)
        return batch, monitor.seen

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_every_cell_starts_before_it_finishes(self, jobs):
        _, seen = self._run(GRID, jobs=jobs)
        stages_by_cell = {}
        for stage, job_id, _ in seen:
            stages_by_cell.setdefault(job_id, []).append(stage)
        assert len(stages_by_cell) == len(GRID)
        for stages in stages_by_cell.values():
            assert stages == ["started", "finished"]

    def test_done_counts_only_finished_cells(self):
        _, seen = self._run(GRID, jobs=1)
        dones = [done for stage, _, done in seen if stage == "finished"]
        assert dones == list(range(1, len(GRID) + 1))
        # A started transition sees the progress so far, never ahead.
        for stage, _, done in seen:
            if stage != "finished":
                assert done < len(GRID)

    def test_retry_cycle_ordering_and_attempt_numbers(self):
        batch, seen = self._run([JobSpec("nosuch")], retries=2)
        assert [stage for stage, _, _ in seen] == [
            "started", "retried", "started", "retried", "started",
            "finished",
        ]
        (result,) = batch.results
        assert result.attempts == 3 and not result.ok

    def test_started_and_retried_counters(self):
        registry = MetricsRegistry()
        BatchRunner(CONFIG, retries=1, metrics=registry).run(
            [JobSpec("nosuch"), JobSpec("derby", "HI", 100, 0)]
        )
        assert registry.get("runner_cell_started_total").value == 3
        assert registry.get("runner_cell_retried_total").value == 1
        assert registry.get("runner_cells_running").value == 0
