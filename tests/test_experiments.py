"""Integration tests for the experiment modules (reduced-size runs).

These verify each table/figure generator end-to-end — structure,
rendering, and the scale-independent parts of its shape — using small
grids and the fast profile.  The full calibrated regenerations live in
``benchmarks/``.
"""

import pytest

from repro.experiments import (
    run_cache_halved,
    run_dynamic_threshold,
    run_fig1,
    run_fig3,
    run_fig4,
    run_fig5,
    run_predictor_ablation,
    run_predictor_accuracy,
    run_scalability,
    run_table1,
    run_table2,
    run_table3,
)
from repro.experiments.common import default_config, group_members
from repro.experiments.fig3_binary_accuracy import binary_accuracy_for
from repro.experiments.predictor_accuracy import AccuracyStats, measure_accuracy
from repro.sim.config import TEST_SCALE

CONFIG = default_config(TEST_SCALE)


class TestStaticTables:
    def test_table1_matches_paper_rows(self):
        result = run_table1()
        rows = dict(result.rows)
        assert rows["Linux 2.6.30"] == 344
        assert "Table I" in result.render()

    def test_table2_contains_all_parameters(self):
        result = run_table2()
        assert len(result.parameters) == 10
        assert "MESI" in result.render()


class TestFig1:
    def test_overheads_capped_at_one(self):
        result = run_fig1(CONFIG, workloads=("derby", "hmmer"), cost=180)
        assert set(result.overhead_by_workload) == {"derby", "hmmer"}
        for value in result.overhead_by_workload.values():
            assert 0.5 < value <= 1.02
        assert "Figure 1" in result.render()

    def test_cost_sweep_monotone(self):
        result = run_fig1(
            CONFIG, workloads=("derby",), cost=120, sweep_costs=(30, 300)
        )
        assert result.cost_sweep[300]["derby"] <= result.cost_sweep[30]["derby"]
        assert "Cost sweep" in result.render()


class TestPredictorAccuracy:
    def test_buckets_sum_below_one(self):
        result = run_predictor_accuracy(
            workloads=("derby",), invocations=2500, profile=TEST_SCALE
        )
        stats = result.per_workload["derby"]
        assert stats.invocations == 2500
        assert stats.exact + stats.close + stats.large_errors <= stats.invocations
        assert 0.4 < stats.exact_rate < 0.95
        assert "Predictor accuracy" in result.render()

    def test_derby_counts_are_pinned(self):
        # Exact counts: a scoring slip (close and large swapped, an
        # off-by-one in the invocation count) stays inside any band.
        assert measure_accuracy("derby", 2500, profile=TEST_SCALE) == AccuracyStats(
            invocations=2500, exact=1769, close=547, underestimates=83,
            large_errors=184, binary_correct={},
        )


class TestFig3:
    def test_accuracy_high_everywhere(self):
        result = run_fig3(
            thresholds=(100, 500), invocations=2500, profile=TEST_SCALE
        )
        for group in ("apache", "specjbb2005", "derby", "compute"):
            for threshold in (100, 500):
                assert result.at(group, threshold) > 0.85
        assert "Figure 3" in result.render()

    def test_apache_binary_accuracy_is_pinned(self):
        accuracy = binary_accuracy_for("apache", (100, 500), 2500, TEST_SCALE)
        assert accuracy == {100: 2491 / 2500, 500: 2435 / 2500}


class TestFig4:
    @pytest.fixture(scope="class")
    def result(self):
        return run_fig4(
            CONFIG,
            groups=("derby",),
            thresholds=(0, 100, 10000),
            latencies=(0, 5000),
            compute_members=("hmmer",),
        )

    def test_panel_structure(self, result):
        assert set(result.panels) == {"derby"}
        assert set(result.panels["derby"]) == {0, 5000}
        assert set(result.panels["derby"][0]) == {0, 100, 10000}

    def test_latency_dominance(self, result):
        assert result.latency_dominance_holds("derby", threshold=100)

    def test_render_mentions_group(self, result):
        assert "Figure 4 [derby]" in result.render()


class TestFig5:
    def test_bars_cover_policies(self):
        from repro.offload.migration import AGGRESSIVE

        result = run_fig5(
            CONFIG,
            groups=("derby",),
            migrations=(AGGRESSIVE,),
            thresholds=(100, 1000),
            compute_members=("hmmer",),
        )
        assert set(result.bars["derby"]["aggressive"]) == {"SI", "DI", "HI"}
        assert result.best_thresholds
        assert "Figure 5" in result.render()


class TestTable3:
    def test_occupancy_in_unit_interval(self):
        result = run_table3(CONFIG, workloads=("apache",), thresholds=(100, 10000))
        for value in result.occupancy["apache"].values():
            assert 0.0 <= value <= 1.0
        assert result.value("apache", 100) >= result.value("apache", 10000)
        assert "Table III" in result.render()


class TestScalability:
    def test_points_and_render(self):
        result = run_scalability(CONFIG, core_counts=(1, 2))
        assert set(result.points) == {1, 2}
        assert result.points[2].offloads >= result.points[1].offloads
        assert "scalability" in result.render()


class TestDynamicThreshold:
    def test_outcomes_populated(self):
        result = run_dynamic_threshold(
            CONFIG, workloads=("derby",), grid=(100, 1000, 10000)
        )
        outcome = result.outcomes["derby"]
        assert outcome.best_static_threshold in (100, 1000, 10000)
        assert outcome.final_threshold in (100, 1000, 10000)
        assert 0 < outcome.retention
        assert "Dynamic threshold" in result.render()


class TestCacheHalved:
    def test_halved_never_above_full(self):
        result = run_cache_halved(CONFIG, workload="derby", latencies=(0, 5000))
        for full, halved in result.by_latency.values():
            assert halved <= full + 0.05
        assert "Cache-halved" in result.render()


class TestPredictorAblation:
    def test_variants_scored(self):
        result = run_predictor_ablation(
            workloads=("derby",), invocations=2000, profile=TEST_SCALE,
            cam_sizes=(25, 200),
        )
        # (label, exact, close, binary@500, storage bytes), each count
        # out of the 2,000 invocations of the one derby stream.
        pinned = [
            ("CAM-25", 795, 284, 1497, 256),
            ("CAM-200", 1408, 410, 1904, 2050),
            ("DM-1500 (tag-less)", 1408, 411, 1905, 3375),
            ("CAM-200 no confidence", 1413, 411, 1910, 2050),
            ("CAM-200 no fallback", 1413, 408, 1867, 2050),
        ]
        assert [
            (s.label, s.exact_rate, s.close_rate, s.binary_accuracy_500,
             s.storage_bytes)
            for s in result.scores
        ] == [
            (label, exact / 2000, close / 2000, binary / 2000, storage)
            for label, exact, close, binary, storage in pinned
        ]
        with pytest.raises(KeyError):
            result.score_for("CAM-9999")


class TestCommonHelpers:
    def test_group_members(self):
        assert group_members("apache") == ["apache"]
        assert "mcf" in group_members("compute", ("mcf", "hmmer"))


class TestWindowTrapAblation:
    def test_curves_for_both_variants(self):
        from repro.experiments import run_window_trap_ablation

        result = run_window_trap_ablation(
            CONFIG, workload="apache", thresholds=(0, 100)
        )
        assert set(result.curves) == {True, False}
        for curve in result.curves.values():
            assert set(curve) == {0, 100}
        assert "Window-trap" in result.render()


class TestRobustness:
    def test_samples_per_seed(self):
        from repro.experiments import run_robustness

        result = run_robustness(CONFIG, workload="derby", seeds=(1, 2))
        assert [s.seed for s in result.samples] == [1, 2]
        assert 0.0 <= result.dip_fraction <= 1.0
        assert result.gain_spread >= 0.0
        assert "Seed robustness" in result.render()


class TestEnergy:
    def test_render_and_ordering(self):
        from repro.experiments import run_energy

        result = run_energy(CONFIG, workloads=("derby",))
        outcome = result.outcomes["derby"]
        assert outcome.edp_busy_wait == pytest.approx(
            outcome.delay * outcome.energy_busy_wait
        )
        assert "Energy/EDP" in result.render()
