"""Tests for the command-line interface."""

import pytest

from repro.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestWorkloadsCommand:
    def test_lists_all_presets(self, capsys):
        code, out, _ = run_cli(capsys, "workloads")
        assert code == 0
        for name in ("apache", "specjbb2005", "derby", "mcf"):
            assert name in out


class TestRunCommand:
    def test_run_reports_normalized_throughput(self, capsys):
        code, out, _ = run_cli(
            capsys, "--profile", "test", "run", "derby",
            "--policy", "HI", "-N", "500", "--latency", "100",
        )
        assert code == 0
        assert "normalized throughput:" in out
        assert "offloads:" in out

    def test_baseline_policy(self, capsys):
        code, out, _ = run_cli(
            capsys, "--profile", "test", "run", "derby", "--policy", "baseline"
        )
        assert code == 0
        assert "offloads: 0/" in out

    def test_unknown_workload_is_graceful(self, capsys):
        code, out, err = run_cli(capsys, "--profile", "test", "run", "quake3")
        assert code == 2
        assert "error:" in err

    def test_multi_core_run(self, capsys):
        code, out, _ = run_cli(
            capsys, "--profile", "test", "run", "derby",
            "--user-cores", "2", "--os-contexts", "2",
        )
        assert code == 0


class TestSweepCommand:
    def test_sweep_prints_grid(self, capsys):
        code, out, _ = run_cli(
            capsys, "--profile", "test", "sweep", "derby",
            "--thresholds", "100", "10000", "--latencies", "0", "5000",
        )
        assert code == 0
        assert "latency\\N" in out
        assert "100" in out and "10000" in out


class TestExperimentCommand:
    def test_table1(self, capsys):
        code, out, _ = run_cli(capsys, "experiment", "table1")
        assert code == 0
        assert "Linux 2.6.30" in out

    def test_table2(self, capsys):
        code, out, _ = run_cli(capsys, "experiment", "table2")
        assert code == 0
        assert "Directory Based MESI" in out

    def test_rejects_unknown_experiment(self, capsys):
        with pytest.raises(SystemExit):
            main(["experiment", "fig99"])


class _Rendered:
    def render(self):
        return "stub"


#: Experiments that take a scale profile (their predictor streams keep
#: fixed seeds) and experiments that take nothing; the rest take the
#: whole configuration.
PROFILE_EXPERIMENTS = {"fig3", "predictor-accuracy", "predictor-ablation"}
STATIC_EXPERIMENTS = {"table1", "table2"}
GRID_EXPERIMENTS = {"fig4", "fig5", "robustness"}


class TestExperimentConfiguration:
    """``repro experiment`` runs at the --profile/--seed configuration."""

    @pytest.fixture()
    def calls(self, monkeypatch):
        from repro import experiments
        from repro.cli import _experiment_registry

        calls = {}
        for name, function in _experiment_registry().items():
            def stub(_name=name, **kwargs):
                calls[_name] = kwargs
                return _Rendered()

            # The CLI reads each run_* from repro.experiments per call.
            monkeypatch.setattr(experiments, function.__name__, stub)
        return calls

    def _run_all(self, capsys, calls, *flags):
        from repro.cli import _EXPERIMENT_NAMES

        for name in _EXPERIMENT_NAMES:
            code, out, _ = run_cli(capsys, *flags, "experiment", name)
            assert code == 0 and out == "stub\n"
        assert set(calls) == set(_EXPERIMENT_NAMES)

    def test_profile_and_seed_reach_every_experiment(self, capsys, calls):
        from repro.sim.config import SimulatorConfig, TEST_SCALE

        self._run_all(capsys, calls, "--profile", "test", "--seed", "7")
        expected = SimulatorConfig(profile=TEST_SCALE, seed=7)
        for name, kwargs in calls.items():
            if name in STATIC_EXPERIMENTS:
                assert kwargs == {}, name
            elif name in PROFILE_EXPERIMENTS:
                assert kwargs == {"profile": TEST_SCALE}, name
            else:
                assert kwargs["config"] == expected, name
                runner = set(kwargs) - {"config"}
                assert runner == (
                    {"jobs", "cache_dir"} if name in GRID_EXPERIMENTS
                    else set()
                ), name

    def test_default_flags_give_the_default_config(self, capsys, calls):
        from repro.experiments.common import default_config
        from repro.sim.config import DEFAULT_SCALE

        self._run_all(capsys, calls)
        for name, kwargs in calls.items():
            if name in PROFILE_EXPERIMENTS:
                assert kwargs == {"profile": DEFAULT_SCALE}, name
            elif name not in STATIC_EXPERIMENTS:
                assert kwargs["config"] == default_config(), name


class TestTraceCommand:
    def test_summary_only(self, capsys):
        code, out, _ = run_cli(
            capsys, "--profile", "test", "trace", "derby", "--budget", "30000"
        )
        assert code == 0
        assert "OS invocations" in out
        assert "window traps" in out

    def test_writes_trace_file(self, capsys, tmp_path):
        out_file = tmp_path / "t.jsonl"
        code, out, _ = run_cli(
            capsys, "--profile", "test", "trace", "derby",
            "--budget", "20000", "--out", str(out_file),
        )
        assert code == 0
        assert out_file.exists()
        from repro.workloads.trace_io import load_trace

        assert len(load_trace(out_file)) > 0


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    def test_seed_flag_changes_results(self, capsys):
        _, out_a, _ = run_cli(
            capsys, "--profile", "test", "--seed", "1", "run", "derby"
        )
        _, out_b, _ = run_cli(
            capsys, "--profile", "test", "--seed", "2", "run", "derby"
        )
        assert out_a != out_b


class TestJsonOutput:
    def test_run_json(self, capsys):
        import json

        code, out, _ = run_cli(
            capsys, "--profile", "test", "run", "derby",
            "--policy", "HI", "-N", "500", "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["workload"] == "derby"
        assert payload["policy"] == "HI"
        assert "throughput" in payload
        assert "offloads" in payload

    def test_sweep_json(self, capsys):
        import json

        code, out, _ = run_cli(
            capsys, "--profile", "test", "sweep", "derby",
            "--thresholds", "100", "10000", "--latencies", "0", "5000",
            "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["workload"] == "derby"
        grid = payload["normalized_throughput"]
        assert set(grid) == {"0", "5000"}
        for row in grid.values():
            assert set(row) == {"100", "10000"}


class TestTracedRunAndReport:
    def test_trace_then_report_reconciles(self, capsys, tmp_path):
        trace = tmp_path / "run.jsonl"
        code, out, _ = run_cli(
            capsys, "--profile", "test", "run", "derby",
            "--policy", "HI", "-N", "500", "--trace", str(trace),
        )
        assert code == 0
        assert trace.exists()

        code, out, _ = run_cli(
            capsys, "report", str(trace), "--strict",
        )
        assert code == 0
        assert "reconciliation: OK" in out
        assert "Decision accuracy by vector" in out
        assert "Per-core cycle attribution" in out

    def test_report_json(self, capsys, tmp_path):
        import json

        trace = tmp_path / "run.jsonl"
        run_cli(
            capsys, "--profile", "test", "run", "derby",
            "--policy", "HI", "-N", "500", "--trace", str(trace),
        )
        code, out, _ = run_cli(capsys, "report", str(trace), "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["reconciled"] is True
        assert payload["header"]["workload"] == "derby"

    def test_report_missing_file_is_graceful(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "report", str(tmp_path / "nope.jsonl"))
        assert code == 2
        assert "error:" in err

    def test_report_empty_trace_is_empty_report(self, capsys, tmp_path):
        trace = tmp_path / "empty.jsonl"
        trace.write_text("")
        code, out, _ = run_cli(capsys, "report", str(trace))
        assert code == 0
        assert "no ROI decisions recorded" in out
        assert "reconciliation: SKIPPED" in out

    def test_strict_flags_truncated_trace(self, capsys, tmp_path):
        import json

        trace = tmp_path / "run.jsonl"
        run_cli(
            capsys, "--profile", "test", "run", "derby",
            "--policy", "HI", "-N", "500", "--trace", str(trace),
        )
        lines = trace.read_text().splitlines()
        kept = [
            line for line in lines
            if not (
                json.loads(line).get("kind") == "decision"
                and json.loads(line).get("offload")
            )
        ]
        assert len(kept) < len(lines)
        trace.write_text("\n".join(kept) + "\n")
        code, _, err = run_cli(capsys, "report", str(trace), "--strict")
        assert code == 2
        assert "reconcile" in err

    def test_metrics_file(self, capsys, tmp_path):
        metrics = tmp_path / "metrics.prom"
        code, _, _ = run_cli(
            capsys, "--profile", "test", "run", "derby",
            "--policy", "HI", "-N", "500", "--metrics", str(metrics),
        )
        assert code == 0
        text = metrics.read_text()
        assert "# TYPE repro_offloads_total counter" in text
        assert "repro_throughput_ipc" in text

    def test_dynamic_n_run(self, capsys, tmp_path):
        trace = tmp_path / "run.jsonl"
        code, out, _ = run_cli(
            capsys, "--profile", "test", "run", "derby",
            "--policy", "DI", "--dynamic-n", "--trace", str(trace),
        )
        assert code == 0
        code, out, _ = run_cli(capsys, "report", str(trace))
        assert code == 0
        assert "Threshold-adaptation timeline" in out


class TestLoggingFlags:
    def test_verbose_and_quiet_are_exclusive(self):
        with pytest.raises(SystemExit):
            main(["-v", "-q", "workloads"])

    def test_verbose_sets_info_level(self, capsys):
        import logging

        logger = logging.getLogger("repro")
        previous = logger.level
        try:
            code, _, _ = run_cli(capsys, "-v", "workloads")
            assert code == 0
            assert logging.getLogger("repro").level == logging.INFO
        finally:
            logger.setLevel(previous)

    def test_double_verbose_sets_debug_level(self, capsys):
        import logging

        logger = logging.getLogger("repro")
        previous = logger.level
        try:
            code, _, _ = run_cli(capsys, "-vv", "workloads")
            assert code == 0
            assert logging.getLogger("repro").level == logging.DEBUG
        finally:
            logger.setLevel(previous)

    def test_quiet_sets_error_level(self, capsys):
        import logging

        logger = logging.getLogger("repro")
        previous = logger.level
        try:
            code, _, _ = run_cli(capsys, "-q", "workloads")
            assert code == 0
            assert logging.getLogger("repro").level == logging.ERROR
        finally:
            logger.setLevel(previous)


class TestParallelSweep:
    def test_jobs_flag_matches_serial(self, capsys):
        import json

        argv = (
            "--profile", "test", "sweep", "derby",
            "--thresholds", "100", "10000", "--latencies", "0", "--json",
        )
        _, serial_out, _ = run_cli(capsys, *argv)
        code, parallel_out, _ = run_cli(capsys, *argv, "--jobs", "2")
        assert code == 0
        serial = json.loads(serial_out)
        parallel = json.loads(parallel_out)
        assert (
            serial["normalized_throughput"] == parallel["normalized_throughput"]
        )
        assert parallel["batch"]["ok"] == 2

    def test_metrics_snapshot_written(self, capsys, tmp_path):
        metrics = tmp_path / "runner.prom"
        code, _, _ = run_cli(
            capsys, "--profile", "test", "sweep", "derby",
            "--thresholds", "100", "--latencies", "0",
            "--metrics", str(metrics),
        )
        assert code == 0
        assert "runner_jobs_completed 1" in metrics.read_text()


class TestExperimentRunnerFlags:
    def test_rejects_jobs_for_serial_experiments(self, capsys):
        code, _, err = run_cli(capsys, "experiment", "table1", "--jobs", "2")
        assert code == 2
        assert "only supported" in err

    def test_table1_still_runs_with_default_flags(self, capsys):
        code, out, _ = run_cli(capsys, "experiment", "table1")
        assert code == 0
        assert "Linux 2.6.30" in out


class TestModuleEntryPoint:
    def test_python_dash_m_repro(self):
        import os
        import subprocess
        import sys
        from pathlib import Path

        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "workloads"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0
        assert "apache" in proc.stdout
