"""Tests for the hierarchical span profiler (repro.obs.spans).

Covers the recording API, the null-object default, the deterministic
tree algebra (merge/flatten/render), and the two acceptance criteria
from the telemetry PR: self-times account for the cell wall-clock
within 5% on the DEFAULT profile, and serial vs parallel executions of
the same grid produce identical span *structure*.
"""

from __future__ import annotations

import json
import time

import pytest

from repro.obs import names
from repro.obs.spans import (
    NULL_PROFILER,
    NullSpanProfiler,
    SpanProfiler,
    flatten_calls,
    flatten_self_times,
    merge_profiles,
    profile_structure,
    profile_total_ns,
    render_profile,
)
from repro.runner import JobSpec, run_batch
from repro.runner.worker import execute_job
from repro.sim.config import DEFAULT_SCALE, SimulatorConfig, TEST_SCALE
from repro.runner.jobspec import config_to_payload


def _profile(**spans):
    """Hand-built serialised tree: {name: (calls, ns, children_dict)}."""
    def node(name, calls, ns, children):
        return {
            "name": name,
            "calls": calls,
            "ns": ns,
            "children": [
                node(k, *v) for k, v in sorted(children.items())
            ],
        }
    return node("root", 0, 0, spans)


class TestSpanProfiler:
    def test_nested_spans_build_a_sorted_tree(self):
        prof = SpanProfiler()
        with prof.span(names.SPAN_CELL):
            with prof.span(names.SPAN_CELL_SIMULATE):
                pass
            with prof.span(names.SPAN_CELL_BASELINE):
                pass
            with prof.span(names.SPAN_CELL_SIMULATE):
                pass
        tree = prof.to_dict()
        assert tree["name"] == "root"
        (cell,) = tree["children"]
        assert cell["name"] == names.SPAN_CELL and cell["calls"] == 1
        assert [c["name"] for c in cell["children"]] == sorted(
            [names.SPAN_CELL_BASELINE, names.SPAN_CELL_SIMULATE]
        )
        simulate = cell["children"][-1]
        assert simulate["calls"] == 2

    def test_span_times_are_monotonic_and_nested(self):
        prof = SpanProfiler()
        with prof.span(names.SPAN_CELL):
            with prof.span(names.SPAN_CELL_SIMULATE):
                time.sleep(0.01)
        cell = prof.to_dict()["children"][0]
        inner = cell["children"][0]
        assert cell["ns"] >= inner["ns"] >= 10_000_000

    def test_add_ns_folds_into_current_span(self):
        prof = SpanProfiler()
        with prof.span(names.SPAN_CELL):
            prof.add_ns(names.SPAN_MEM_BATCHED, 500, calls=3)
            prof.add_ns(names.SPAN_MEM_BATCHED, 250)
        cell = prof.to_dict()["children"][0]
        (mem,) = cell["children"]
        assert (mem["name"], mem["calls"], mem["ns"]) == (
            names.SPAN_MEM_BATCHED, 4, 750,
        )

    def test_timed_decorator_wraps_and_records(self):
        prof = SpanProfiler()

        @prof.timed(names.SPAN_CELL_POLICY)
        def decide():
            """docstring survives"""
            return 42

        assert decide() == 42 and decide() == 42
        assert decide.__name__ == "decide"
        assert decide.__doc__ == "docstring survives"
        (node,) = prof.to_dict()["children"]
        assert node["calls"] == 2

    def test_serialised_tree_is_json_safe(self):
        prof = SpanProfiler()
        with prof.span(names.SPAN_CELL):
            pass
        assert json.loads(json.dumps(prof.to_dict())) == prof.to_dict()


class TestNullProfiler:
    def test_is_disabled_and_shared(self):
        assert NULL_PROFILER.enabled is False
        assert SpanProfiler.enabled is True

    def test_span_returns_reusable_noop(self):
        first = NULL_PROFILER.span(names.SPAN_CELL)
        second = NULL_PROFILER.span(names.SPAN_CELL_SIMULATE)
        assert first is second  # one shared instance, no allocation
        with first:
            pass

    def test_timed_returns_function_unchanged(self):
        def fn():
            return 1

        assert NULL_PROFILER.timed(names.SPAN_CELL)(fn) is fn

    def test_records_nothing(self):
        prof = NullSpanProfiler()
        with prof.span(names.SPAN_CELL):
            prof.add_ns(names.SPAN_MEM_BATCHED, 100)
        assert prof.to_dict() == {
            "name": "root", "calls": 0, "ns": 0, "children": [],
        }
        assert prof.t() == 0


class TestTreeAlgebra:
    def test_merge_sums_matching_nodes(self):
        a = _profile(**{"cell": (1, 100, {"sim": (2, 60, {})})})
        b = _profile(**{"cell": (1, 300, {"sim": (1, 200, {})})})
        merged = merge_profiles([a, b])
        (cell,) = merged["children"]
        assert (cell["calls"], cell["ns"]) == (2, 400)
        (sim,) = cell["children"]
        assert (sim["calls"], sim["ns"]) == (3, 260)

    def test_merge_is_order_independent(self):
        a = _profile(**{"cell": (1, 100, {"x": (1, 10, {})})})
        b = _profile(**{"cell": (1, 50, {"y": (1, 20, {})})})
        assert merge_profiles([a, b]) == merge_profiles([b, a])

    def test_merge_does_not_mutate_inputs(self):
        a = _profile(**{"cell": (1, 100, {})})
        before = json.dumps(a, sort_keys=True)
        merge_profiles([a, _profile(**{"cell": (4, 7, {})})])
        assert json.dumps(a, sort_keys=True) == before

    def test_merge_of_nothing_is_empty_root(self):
        assert merge_profiles([]) == {
            "name": "root", "calls": 0, "ns": 0, "children": [],
        }

    def test_self_times_partition_the_total(self):
        tree = _profile(**{
            "cell": (1, 1000, {
                "baseline": (1, 300, {}),
                "simulate": (1, 600, {"mem": (5, 450, {})}),
            }),
        })
        flat = flatten_self_times(tree)
        # root is an untimed container: zero self-time by construction
        assert flat["root"] == 0
        assert flat["cell"] == 100        # 1000 - 300 - 600
        assert flat["simulate"] == 150    # 600 - 450
        assert sum(flat.values()) == profile_total_ns(tree) == 1000

    def test_flatten_calls_sums_across_depths(self):
        tree = _profile(**{
            "cell": (2, 10, {"mem": (3, 5, {})}),
            "mem": (4, 2, {}),
        })
        assert flatten_calls(tree) == {"root": 0, "cell": 2, "mem": 7}

    def test_total_prefers_measured_root(self):
        timed_root = {"name": "root", "calls": 1, "ns": 77, "children": []}
        assert profile_total_ns(timed_root) == 77
        container = _profile(**{"a": (1, 40, {}), "b": (1, 2, {})})
        assert profile_total_ns(container) == 42

    def test_render_lists_every_span_with_indentation(self):
        tree = _profile(**{"cell": (1, 1_000_000, {"sim": (1, 250_000, {})})})
        text = render_profile(tree)
        lines = text.splitlines()
        assert "span" in lines[0] and "self%" in lines[0]
        assert any(line.startswith("  cell") for line in lines)
        assert any(line.startswith("    sim") for line in lines)

    def test_structure_skeleton_drops_durations(self):
        tree = _profile(**{"cell": (1, 123, {"sim": (2, 45, {})})})
        assert profile_structure(tree) == [
            (0, "root", 0), (1, "cell", 1), (2, "sim", 2),
        ]


def _cell_payload(config, **job_overrides):
    job = {
        "job_id": "spanstest", "workload": "apache", "policy": "HI",
        "threshold": 1000, "latency": 1000, "seed": config.seed,
        "dynamic_n": False,
    }
    job.update(job_overrides)
    return {"job": job, "config": config_to_payload(config),
            "span_profile": True}


class TestAcceptance:
    """The PR's numeric acceptance criteria, end-to-end through workers."""

    def test_profile_accounts_for_cell_wall_clock_default_profile(self):
        config = SimulatorConfig(profile=DEFAULT_SCALE)
        record = execute_job(_cell_payload(config))
        assert record["status"] == "ok"
        profile = record["profile"]
        accounted = sum(flatten_self_times(profile).values())
        wall_ns = record["duration_s"] * 1e9
        # Self-times partition the cell span; everything execute_job does
        # outside that span (telemetry, cache snapshots) must stay < 5%.
        assert accounted == profile_total_ns(profile)
        assert accounted == pytest.approx(wall_ns, rel=0.05)

    def test_serial_and_parallel_profiles_share_structure(self, tmp_path):
        config = SimulatorConfig(profile=TEST_SCALE)
        grid = [
            JobSpec("derby", "HI", threshold, latency)
            for threshold in (100, 10000)
            for latency in (0, 5000)
        ]

        def merged_structure(jobs, cached=False):
            # With a cache, a serial batch replays each latency twin's
            # memory tape, while a parallel one may not: the structure
            # must not tell them apart.
            batch = run_batch(
                grid, config, jobs=jobs, span_profile=True,
                cache_dir=str(tmp_path / f"cache-{jobs}") if cached else None,
            )
            if cached and jobs == 1:
                assert sum(
                    result.cache_counters.get("tape_hits", 0)
                    for result in batch
                ) == 2
            profiles = [
                result.profile
                for result in sorted(batch, key=lambda r: r.job_id)
            ]
            assert all(profiles)
            return profile_structure(merge_profiles(profiles))

        serial = merged_structure(jobs=1)
        parallel = merged_structure(jobs=2)
        assert serial == parallel
        names_seen = {name for _, name, _ in serial}
        assert names.SPAN_CELL in names_seen
        assert names.SPAN_CELL_SIMULATE in names_seen
        assert merged_structure(jobs=1, cached=True) == merged_structure(
            jobs=2, cached=True
        )

    def test_disabled_batches_carry_no_profiles(self):
        config = SimulatorConfig(profile=TEST_SCALE)
        batch = run_batch([JobSpec("derby", "HI", 100, 0)], config)
        assert all(result.profile is None for result in batch)
