"""Open-loop latency accounting: exact tails, determinism, the sweep.

Covers the service tentpole end to end:

- :func:`nearest_rank` / :class:`LatencyAccumulator` — the exact
  nearest-rank percentile math, checked against hand-computed ranks;
- ``simulate()`` in open-loop mode — per-request decomposition
  invariants, run-to-run bit identity, closed-loop runs reporting no
  latency, and the SMT engine rejecting arrival gating at config time;
- the OS-core pool actually mitigating queueing as it grows;
- :func:`run_latency` — serial ≡ parallel ≡ warm-cache bit identity
  through the batch runner and result cache;
- the trace report — ``RequestEvent`` replay into a latency section and
  the blocked-time decomposition rendering even for traces with zero
  migration/queue events.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro import TraceBus, get_workload, make_policy, simulate
from repro.analysis.report import build_report
from repro.errors import ConfigurationError, SimulationError
from repro.experiments.latency import run_latency, service_tag
from repro.obs import JsonlSink
from repro.obs.events import run_summary_record
from repro.service.config import ServiceConfig
from repro.service.latency import (
    CDF_QUANTILES,
    EMPTY_LATENCY_STATS,
    LatencyAccumulator,
    nearest_rank,
)
from repro.sim.config import SimulatorConfig, TEST_SCALE


def _open_loop_config(seed=2010, os_cores=1, arrivals="poisson", load=0.1):
    return SimulatorConfig(
        profile=TEST_SCALE,
        seed=seed,
        num_user_cores=2,
        service=ServiceConfig(
            arrivals=arrivals,
            mean_interarrival_cycles=1000.0 / load,
            os_cores=os_cores,
        ),
    )


def _run(config, workload="apache", policy="HI", threshold=100, bus=None):
    spec = get_workload(workload)
    made = make_policy(policy, threshold=threshold, spec=spec, config=config)
    return simulate(spec, made, config=config, bus=bus)


class TestNearestRank:
    def test_hand_computed_ranks(self):
        values = [10, 20, 30, 40]
        # ceil(q*4) - 1 into the sorted array:
        assert nearest_rank(values, 0.25) == 10
        assert nearest_rank(values, 0.50) == 20
        assert nearest_rank(values, 0.51) == 30
        assert nearest_rank(values, 0.75) == 30
        assert nearest_rank(values, 0.99) == 40
        assert nearest_rank(values, 1.0) == 40

    def test_tiny_quantile_clamps_to_first(self):
        assert nearest_rank([7, 8, 9], 0.001) == 7

    def test_single_element(self):
        assert all(nearest_rank([42], q) == 42 for q in CDF_QUANTILES)

    def test_empty_is_zero(self):
        assert nearest_rank([], 0.5) == 0

    def test_rejects_out_of_range_quantile(self):
        with pytest.raises(SimulationError):
            nearest_rank([1], 0.0)
        with pytest.raises(SimulationError):
            nearest_rank([1], 1.5)


class TestAccumulator:
    def test_record_returns_component_sum(self):
        acc = LatencyAccumulator()
        assert acc.record(10, 20, 30) == 60
        assert len(acc) == 1

    def test_snapshot_totals_and_tails(self):
        acc = LatencyAccumulator()
        for total in (100, 300, 200):  # insertion order must not matter
            acc.record(total, 0, 0)
        stats = acc.snapshot()
        assert stats.requests == 3
        assert stats.total_cycles == 600
        assert stats.queue_cycles == 600
        assert (stats.p50, stats.p99, stats.p999) == (200, 300, 300)
        assert stats.mean == pytest.approx(200.0)
        assert stats.max == 300
        assert stats.cdf[-1] == (1.0, 300)

    def test_decomposition_identity(self):
        acc = LatencyAccumulator()
        acc.record(5, 7, 11)
        acc.record(1, 2, 3)
        stats = acc.snapshot()
        assert (
            stats.queue_cycles + stats.migration_cycles
            + stats.execution_cycles
            == stats.total_cycles
        )

    def test_rejects_negative_components(self):
        with pytest.raises(SimulationError):
            LatencyAccumulator().record(-1, 0, 0)

    def test_reset_drops_everything(self):
        acc = LatencyAccumulator()
        acc.record(1, 2, 3)
        acc.reset()
        assert acc.snapshot() == EMPTY_LATENCY_STATS

    def test_drops_survive_empty_snapshot(self):
        stats = LatencyAccumulator().snapshot(drops=4)
        assert stats.drops == 4
        assert stats.requests == 0


class TestOpenLoopSimulation:
    def test_closed_loop_reports_no_latency(self):
        config = SimulatorConfig(profile=TEST_SCALE, seed=3)
        assert _run(config).latency is None

    def test_open_loop_records_every_roi_invocation(self):
        result = _run(_open_loop_config())
        lat = result.latency
        assert lat is not None
        assert lat.requests == result.stats.offload.os_entries
        assert lat.requests > 0

    def test_component_sum_matches_total(self):
        lat = _run(_open_loop_config()).latency
        assert (
            lat.queue_cycles + lat.migration_cycles + lat.execution_cycles
            == lat.total_cycles
        )
        assert lat.p50 <= lat.p99 <= lat.p999 <= lat.max

    def test_runs_are_bit_identical(self):
        first = _run(_open_loop_config(arrivals="bursty")).latency
        second = _run(_open_loop_config(arrivals="bursty")).latency
        assert first == second

    def test_seed_changes_the_distribution(self):
        first = _run(_open_loop_config(seed=1)).latency
        second = _run(_open_loop_config(seed=2)).latency
        assert first != second

    def test_idle_cycles_appear_when_cores_outpace_arrivals(self):
        # Sparse arrivals: cores must idle waiting for requests.
        result = _run(_open_loop_config(load=0.01))
        assert any(
            core.idle_cycles > 0 for core in result.stats.cores
        )

    def test_pool_growth_reduces_queueing(self):
        """The saturation-cliff mitigation, at test scale."""
        queue_cycles = [
            _run(_open_loop_config(os_cores=n)).latency.queue_cycles
            for n in (1, 2, 4)
        ]
        assert queue_cycles[0] > queue_cycles[1] > queue_cycles[2]

    def test_admission_control_drops_and_bounds_backlog(self):
        config = _open_loop_config()
        throttled = dataclasses.replace(
            config,
            service=dataclasses.replace(
                config.service,
                admission="backlog",
                admission_backlog_cycles=0,
            ),
        )
        base = _run(config)
        capped = _run(throttled)
        assert capped.latency.drops > 0
        assert capped.latency.drops == capped.stats.offload.admission_drops
        assert capped.stats.offload.offloads < base.stats.offload.offloads

    def test_smt_engine_rejects_open_loop(self):
        with pytest.raises(ConfigurationError):
            SimulatorConfig(
                profile=TEST_SCALE,
                threads_per_user_core=2,
                service=ServiceConfig(arrivals="poisson"),
            )


class TestLatencySweep:
    LOADS = (0.05, 0.1)
    CORES = (1, 2)

    def _sweep(self, **kwargs):
        config = SimulatorConfig(profile=TEST_SCALE, seed=2010)
        return run_latency(
            config,
            workload="apache",
            loads=self.LOADS,
            os_cores=self.CORES,
            **kwargs,
        )

    def test_serial_parallel_and_warm_cache_identical(self, tmp_path):
        cache = str(tmp_path / "cache")
        serial = self._sweep(jobs=1, cache_dir=cache)
        # Each combination is a one-cell batch, which runs in this
        # process: ``jobs=2`` forks no workers, and this leg reads the
        # serial leg's results from the root.
        parallel = self._sweep(jobs=2, cache_dir=cache)
        warm = self._sweep(jobs=1, cache_dir=cache)
        assert serial.to_dict() == parallel.to_dict() == warm.to_dict()

    def test_cells_cover_the_grid(self):
        result = self._sweep()
        assert set(result.cells) == {
            (load, cores) for load in self.LOADS for cores in self.CORES
        }
        for cell in result.cells.values():
            assert cell.requests > 0
            assert cell.p50 <= cell.p99 <= cell.p999

    def test_render_contains_grid_and_title(self):
        text = self._sweep().render()
        assert "Request latency p50/p99/p999 cycles" in text
        assert "1 OS core" in text and "2 OS cores" in text
        assert "0.05" in text and "0.1" in text

    def test_service_tag_distinguishes_combos(self):
        tags = {
            service_tag("poisson", load, cores)
            for load in self.LOADS
            for cores in self.CORES
        }
        assert len(tags) == 4

    def test_rejects_empty_or_nonpositive_grid(self):
        with pytest.raises(ConfigurationError):
            run_latency(loads=())
        with pytest.raises(ConfigurationError):
            run_latency(os_cores=())
        with pytest.raises(ConfigurationError):
            self._sweep_bad_load()

    def _sweep_bad_load(self):
        config = SimulatorConfig(profile=TEST_SCALE, seed=1)
        return run_latency(
            config, loads=(0.0,), os_cores=(1,), workload="apache"
        )


class TestReportIntegration:
    def _traced_run(self, path, config, policy="HI"):
        spec = get_workload("apache")
        made = make_policy(policy, threshold=100, spec=spec, config=config)
        header = {
            "workload": spec.name, "policy": policy, "threshold": 100,
            "latency": "default", "seed": config.seed, "profile": "test",
        }
        bus = TraceBus(JsonlSink(path, header=header))
        try:
            result = simulate(spec, made, config=config, bus=bus)
            bus.emit_record(run_summary_record(
                result.stats, workload=spec.name, policy=policy,
                threshold=100, latency="default",
            ))
        finally:
            bus.close()
        return result

    def test_request_events_rebuild_run_latency(self, tmp_path):
        path = tmp_path / "open.jsonl"
        result = self._traced_run(path, _open_loop_config())
        report = build_report(path)
        assert report.latency is not None
        assert report.latency.requests == result.latency.requests
        assert report.latency.total_cycles == result.latency.total_cycles
        assert report.latency.p99 == result.latency.p99
        rendered = report.render()
        assert "latency" in rendered.lower()

    def test_decomposition_renders_without_migration_events(self, tmp_path):
        """Satellite: the wait decomposition must not need queue events.

        BASELINE never off-loads, so the trace carries zero migration
        and queue events — the decomposition line still renders (all
        components zero) instead of disappearing.
        """
        path = tmp_path / "baseline.jsonl"
        config = SimulatorConfig(profile=TEST_SCALE, seed=5)
        self._traced_run(path, config, policy="BASELINE")
        rendered = build_report(path).render()
        assert "off-load wait decomposition" in rendered
        assert "0 queued + 0 migrating" in rendered

    def test_closed_loop_report_has_no_latency_section(self, tmp_path):
        path = tmp_path / "closed.jsonl"
        config = SimulatorConfig(profile=TEST_SCALE, seed=5)
        self._traced_run(path, config)
        report = build_report(path)
        assert report.latency is None
        assert report.to_dict()["latency"] is None
