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
from repro.obs.metrics import MetricsRegistry
from repro.runner import (
    BaselineStore,
    BatchInterrupted,
    JobSpec,
    config_fingerprint,
    config_from_payload,
    config_to_payload,
    derive_seed,
    run_batch,
    shard_jobs,
)
from repro.sim.config import SimulatorConfig, TEST_SCALE
from repro.sim.simulator import make_policy, simulate, simulate_baseline
from repro.offload.migration import MigrationModel
from repro.workloads.presets import get_workload

CONFIG = SimulatorConfig(profile=TEST_SCALE)

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

    def test_tag_and_dynamic_n_distinguish_ids(self):
        base = JobSpec("derby").resolved(1)
        tagged = JobSpec("derby", tag="x").resolved(1)
        dynamic = JobSpec("derby", dynamic_n=True).resolved(1)
        assert len({base.job_id, tagged.job_id, dynamic.job_id}) == 3

    def test_tag_rejects_separator(self):
        with pytest.raises(ConfigurationError):
            JobSpec("derby", tag="a/b")

    def test_payload_roundtrip(self):
        spec = JobSpec("apache", "DI", 500, 1000, seed=3, tag="t")
        assert JobSpec.from_payload(spec.to_payload()) == spec

    def test_duplicate_cells_rejected(self):
        with pytest.raises(ReproError, match="duplicate"):
            run_batch([JobSpec("derby"), JobSpec("derby")], CONFIG)


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


class TestSerialBatch:
    def test_matches_direct_simulation(self):
        spec = JobSpec("derby", "HI", 100, 0)
        batch = run_batch([spec], CONFIG)
        result = batch.get(spec.resolved(CONFIG.seed))
        workload = get_workload("derby")
        baseline = simulate_baseline(workload, CONFIG)
        direct = simulate(
            workload, make_policy("HI", threshold=100),
            MigrationModel("t", 0), CONFIG,
        )
        assert result.ok
        assert result.metrics["normalized_throughput"] == (
            direct.throughput / baseline.throughput
        )
        assert result.metrics["baseline_throughput"] == baseline.throughput

    def test_batch_result_shape(self):
        batch = run_batch(GRID, CONFIG)
        assert len(batch) == len(GRID)
        assert not batch.failures
        summary = batch.summary()
        assert summary["ok"] == len(GRID)
        assert summary["failed"] == 0
        json.dumps(summary)  # JSON-safe


class TestParallelEquivalence:
    def test_jobs2_bit_identical_to_serial(self):
        serial = run_batch(GRID, CONFIG, jobs=1)
        parallel = run_batch(GRID, CONFIG, jobs=2)
        assert [r.job_id for r in serial] == [r.job_id for r in parallel]
        assert [r.metrics for r in serial] == [r.metrics for r in parallel]


class TestFaultTolerance:
    def test_failed_cell_is_isolated(self):
        specs = [JobSpec("derby", "HI", 100, 0), JobSpec("nosuch")]
        batch = run_batch(specs, CONFIG)
        ok, bad = batch.results
        assert ok.ok and not bad.ok
        assert "unknown workload" in bad.error
        assert "WorkloadError" in bad.traceback

    def test_failed_cell_is_isolated_in_parallel(self):
        specs = [JobSpec("derby", "HI", 100, 0), JobSpec("nosuch"),
                 JobSpec("derby", "HI", 10000, 0)]
        batch = run_batch(specs, CONFIG, jobs=2)
        assert len(batch.failures) == 1
        assert len(batch.completed) == 2

    def test_raise_on_failures(self):
        batch = run_batch([JobSpec("nosuch")], CONFIG)
        with pytest.raises(ReproError, match="nosuch"):
            batch.raise_on_failures()

    def test_retries_re_execute_and_count_attempts(self):
        batch = run_batch([JobSpec("nosuch")], CONFIG, retries=2)
        result = batch.results[0]
        assert not result.ok
        assert result.attempts == 3
        assert batch.retries == 2

    def test_timeout_records_failure(self):
        batch = run_batch(
            [JobSpec("derby", "HI", 100, 0)], CONFIG, timeout_s=0.005
        )
        result = batch.results[0]
        assert not result.ok
        assert "timeout" in result.error.lower()


class TestCheckpointResume:
    """A killed batch finishes by running again on its cache root."""

    def _interrupt_then_rerun(self, tmp_path, jobs):
        root = str(tmp_path / "cache")
        finished = []

        def progress(update, done, total):
            if update.finished:
                finished.append(update.job_id)
                if done >= 2:
                    raise BatchInterrupted("stop after 2 cells")

        with pytest.raises(BatchInterrupted):
            run_batch(GRID, CONFIG, cache_dir=root, progress=progress)
        assert len(finished) == 2
        rerun = run_batch(GRID, CONFIG, jobs=jobs, cache_dir=root)
        hits = {
            result.job_id: result.cache_counters.get("result_hits", 0)
            for result in rerun
        }
        assert sum(hits.values()) == 2
        assert {job_id for job_id, hit in hits.items() if hit} == set(finished)
        reference = run_batch(GRID, CONFIG)  # uncached, uninterrupted, serial
        assert [r.metrics for r in rerun] == [r.metrics for r in reference]

    def test_interrupt_resume_bit_identical_to_serial(self, tmp_path):
        self._interrupt_then_rerun(tmp_path, jobs=1)

    def test_parallel_resume_after_serial_interrupt(self, tmp_path):
        self._interrupt_then_rerun(tmp_path, jobs=2)

    def test_failed_cells_are_retried_on_resume(self, tmp_path):
        root = str(tmp_path / "cache")
        specs = [JobSpec("derby", "HI", 100, 0), JobSpec("nosuch")]
        first = run_batch(specs, CONFIG, cache_dir=root)
        assert len(first.failures) == 1
        rerun = run_batch(specs, CONFIG, cache_dir=root)
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
        batch = run_batch([JobSpec("derby", "HI", 100, 0)], CONFIG,
                          cache_dir=str(root))
        store = BaselineStore(str(root / "baselines"))
        stored = store.get("derby", CONFIG)
        assert stored == batch.results[0].metrics["baseline_throughput"]


class TestMetricsIntegration:
    def test_runner_counters(self):
        registry = MetricsRegistry()
        specs = [JobSpec("derby", "HI", 100, 0), JobSpec("nosuch")]
        run_batch(specs, CONFIG, metrics=registry)
        assert registry.get("runner_jobs_total").value == 2
        assert registry.get("runner_jobs_completed").value == 1
        assert registry.get("runner_jobs_failed").value == 1
        assert registry.get("runner_job_seconds").count == 2

        run_batch(specs, CONFIG, metrics=registry, retries=1)
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


class TestProgressOrdering:
    """Satellite guarantee: started always precedes finished, and retry
    cycles surface as started -> retried -> started -> ... -> finished."""

    def _run(self, specs, **kwargs):
        from repro.runner import run_batch as run

        updates = []
        run(
            specs, CONFIG,
            progress=lambda update, done, total: updates.append(
                (update, done, total)
            ),
            **kwargs,
        )
        return updates

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_every_cell_starts_before_it_finishes(self, jobs):
        from repro.runner import STAGE_FINISHED, STAGE_STARTED

        updates = self._run(GRID, jobs=jobs)
        stages_by_cell = {}
        for update, _, _ in updates:
            stages_by_cell.setdefault(update.job_id, []).append(update.stage)
        assert len(stages_by_cell) == len(GRID)
        for stages in stages_by_cell.values():
            assert stages == [STAGE_STARTED, STAGE_FINISHED]

    def test_done_counts_only_finished_cells(self):
        updates = self._run(GRID, jobs=1)
        dones = [done for update, done, _ in updates if update.finished]
        assert dones == list(range(1, len(GRID) + 1))
        # A started update reports the progress so far, never ahead.
        for update, done, total in updates:
            assert total == len(GRID)
            if not update.finished:
                assert done < len(GRID)

    def test_retry_cycle_ordering_and_attempt_numbers(self):
        from repro.runner import (
            STAGE_FINISHED,
            STAGE_RETRIED,
            STAGE_STARTED,
        )

        updates = self._run([JobSpec("nosuch")], retries=2)
        transitions = [(u.stage, u.attempt) for u, _, _ in updates]
        assert transitions == [
            (STAGE_STARTED, 1), (STAGE_RETRIED, 1),
            (STAGE_STARTED, 2), (STAGE_RETRIED, 2),
            (STAGE_STARTED, 3), (STAGE_FINISHED, 3),
        ]
        finished = updates[-1][0]
        assert finished.result is not None and not finished.result.ok

    def test_started_and_retried_counters(self):
        from repro.runner import run_batch as run

        registry = MetricsRegistry()
        run([JobSpec("nosuch"), JobSpec("derby", "HI", 100, 0)], CONFIG,
            retries=1, metrics=registry)
        assert registry.get("runner_cell_started_total").value == 3
        assert registry.get("runner_cell_retried_total").value == 1
        assert registry.get("runner_cells_running").value == 0
