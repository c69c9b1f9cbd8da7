"""Tests for live sweep telemetry: writer/reader, monitor, HTTP server.

The integration test at the bottom runs a real 32-cell batch in a
background thread and scrapes ``/metrics``, ``/progress`` and
``/profile`` strictly mid-flight (the batch is held at a barrier while
the scrape happens), which is the PR's acceptance criterion for
``repro serve``.
"""

from __future__ import annotations

import json
import re
import threading
import urllib.request

from repro.obs.metrics import MetricsRegistry
from repro.obs.server import ObsServer
from repro.runner import (
    BatchRunner,
    JobSpec,
    SweepMonitor,
    TelemetryReader,
    TelemetryWriter,
    read_grid_manifest,
    write_grid_manifest,
)
from repro.sim.config import SimulatorConfig, TEST_SCALE


class TestWriterReaderRoundtrip:
    def test_lifecycle_records_roundtrip(self, tmp_path):
        directory = str(tmp_path)
        writer = TelemetryWriter(directory, heartbeat_interval_s=60.0)
        writer.cell_started("cell-a")
        writer.cell_finished(
            "cell-a", "ok", 0.25,
            profile={"name": "root", "calls": 0, "ns": 0, "children": []},
        )
        writer.close()
        records = TelemetryReader(directory).poll()
        kinds = [record["kind"] for record in records]
        assert kinds == ["worker_hello", "cell_started", "cell_finished"]
        finished = records[-1]
        assert finished["job_id"] == "cell-a"
        assert finished["status"] == "ok"
        assert finished["profile"]["name"] == "root"
        assert all("ts" in r and "pid" in r for r in records)

    def test_poll_is_incremental(self, tmp_path):
        directory = str(tmp_path)
        writer = TelemetryWriter(directory, heartbeat_interval_s=60.0)
        reader = TelemetryReader(directory)
        assert [r["kind"] for r in reader.poll()] == ["worker_hello"]
        assert reader.poll() == []
        writer.cell_started("cell-a")
        assert [r["kind"] for r in reader.poll()] == ["cell_started"]
        writer.close()

    def test_partial_lines_stay_buffered_until_complete(self, tmp_path):
        path = tmp_path / "worker-1.jsonl"
        reader = TelemetryReader(str(tmp_path))
        whole = json.dumps({"kind": "cell_started", "job_id": "x", "ts": 1})
        head, tail = whole[:10], whole[10:]
        path.write_text(head)
        assert reader.poll() == []  # no newline yet: nothing to consume
        path.write_text(head + tail + "\n")
        (record,) = reader.poll()
        assert record["job_id"] == "x"

    def test_non_worker_files_are_ignored(self, tmp_path):
        (tmp_path / "grid.json").write_text('{"total": 4}')
        (tmp_path / "notes.txt").write_text("hello\n")
        assert TelemetryReader(str(tmp_path)).poll() == []

    def test_missing_directory_is_empty_not_fatal(self, tmp_path):
        assert TelemetryReader(str(tmp_path / "nope")).poll() == []

    def test_grid_manifest_roundtrip(self, tmp_path):
        directory = str(tmp_path / "made")
        write_grid_manifest(directory, 64)
        manifest = read_grid_manifest(directory)
        assert manifest["total"] == 64
        assert read_grid_manifest(str(tmp_path / "absent")) is None


class _FakeClock:
    def __init__(self):
        self.now = 1000.0

    def __call__(self):
        return self.now


class TestSweepMonitor:
    def test_snapshot_counts_lifecycle(self):
        clock = _FakeClock()
        monitor = SweepMonitor(clock=clock)
        monitor.begin(4)
        monitor.on_started("a")
        monitor.on_started("b")
        monitor.on_finished("a", ok=True, duration_s=1.0)
        monitor.on_finished("b", ok=False, duration_s=3.0)
        snap = monitor.snapshot()
        assert (snap["total"], snap["done"], snap["ok"], snap["failed"]) == (
            4, 2, 1, 1,
        )
        assert snap["running"] == 0 and snap["pending"] == 2
        assert snap["latency_s"]["p50"] == 3.0  # nearest-rank of [1, 3]
        assert snap["expected_cell_s"] == 3.0

    def test_stall_appears_past_horizon_and_heartbeat_clears_it(self):
        clock = _FakeClock()
        monitor = SweepMonitor(stall_floor_s=5.0, stall_factor=2.0,
                               clock=clock)
        monitor.begin(2)
        monitor.on_started("slow")
        clock.now += 4.0
        assert monitor.snapshot()["stalled"] == []
        clock.now += 2.0  # 6s silent > 5s floor
        assert monitor.snapshot()["stalled"] == ["slow"]
        monitor.observe_heartbeat("slow")
        assert monitor.snapshot()["stalled"] == []
        monitor.on_finished("slow", ok=True, duration_s=6.0)
        assert monitor.snapshot()["stalled"] == []

    def test_horizon_scales_with_completed_median(self):
        clock = _FakeClock()
        monitor = SweepMonitor(stall_floor_s=1.0, stall_factor=2.0,
                               clock=clock)
        monitor.begin(3)
        for job, duration in (("a", 10.0), ("b", 20.0)):
            monitor.on_started(job)
            monitor.on_finished(job, ok=True, duration_s=duration)
        monitor.on_started("c")
        clock.now += 30.0  # median 20 * factor 2 = 40s horizon
        assert monitor.snapshot()["stalled"] == []
        clock.now += 15.0
        assert monitor.snapshot()["stalled"] == ["c"]

    def test_retry_takes_cell_out_of_running(self):
        monitor = SweepMonitor(clock=_FakeClock())
        monitor.begin(1)
        monitor.on_started("a")
        monitor.on_retried("a")
        snap = monitor.snapshot()
        assert snap["running"] == 0 and snap["retries"] == 1

    def test_feed_record_standalone_mode(self):
        monitor = SweepMonitor(clock=_FakeClock())
        monitor.begin(2)
        monitor.feed_record({"kind": "cell_started", "job_id": "a"})
        monitor.feed_record({"kind": "heartbeat", "job_id": "a"})
        monitor.feed_record({
            "kind": "cell_finished", "job_id": "a", "status": "ok",
            "duration_s": 0.5,
            "profile": {"name": "root", "calls": 0, "ns": 0, "children": [
                {"name": "cell", "calls": 1, "ns": 10, "children": []},
            ]},
        })
        monitor.feed_record({"kind": "worker_hello"})  # ignored
        snap = monitor.snapshot()
        assert snap["done"] == 1 and snap["heartbeats"] == 1
        merged = monitor.merged_profile()
        assert [c["name"] for c in merged["children"]] == ["cell"]

    def test_merged_profile_accumulates_across_cells(self):
        monitor = SweepMonitor(clock=_FakeClock())
        cell = {"name": "root", "calls": 0, "ns": 0, "children": [
            {"name": "cell", "calls": 1, "ns": 5, "children": []},
        ]}
        monitor.on_finished("a", ok=True, duration_s=0.1, profile=cell)
        monitor.on_finished("b", ok=True, duration_s=0.1, profile=cell)
        assert monitor.merged_profile()["children"][0]["calls"] == 2


#: Exposition-format sample line: name{labels} value
_SAMPLE_RE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*"
    r'(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})?'
    r" (-?[0-9.e+-]+|NaN|[+-]Inf)$"
)


def _fetch(url):
    """GET ``url``; return (status, body) for success AND error codes."""
    try:
        with urllib.request.urlopen(url, timeout=10) as response:
            return response.status, response.read().decode("utf-8")
    except urllib.error.HTTPError as error:
        with error:
            return error.code, error.read().decode("utf-8")


def assert_valid_prometheus(text):
    documented = set()
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("# HELP ") or line.startswith("# TYPE "):
            documented.add(line.split()[2])
            continue
        assert _SAMPLE_RE.match(line), f"bad exposition line: {line!r}"
        family = line.split("{")[0].split(" ")[0]
        family = re.sub(r"_(bucket|sum|count)$", "", family)
        assert family in documented or line.split(" ")[0] in documented


class TestObsServer:
    def test_endpoints_and_404(self):
        server = ObsServer(
            0,
            metrics_fn=lambda: "# HELP x y\n# TYPE x counter\nx 1\n",
            progress_fn=lambda: {"done": 1},
            profile_fn=None,
        )
        with server:
            status, body = _fetch(server.url + "/metrics")
            assert status == 200 and body.endswith("x 1\n")
            status, body = _fetch(server.url + "/progress")
            assert status == 200 and json.loads(body) == {"done": 1}
            assert _fetch(server.url + "/profile")[0] == 404
            assert _fetch(server.url + "/nope")[0] == 404

    def test_supplier_error_is_500_not_crash(self):
        def explode():
            raise RuntimeError("supplier bug")

        with ObsServer(0, progress_fn=explode) as server:
            assert _fetch(server.url + "/progress")[0] == 500


class TestLiveBatchIntegration:
    """Scrape a ≥32-cell batch strictly mid-flight (acceptance test)."""

    GRID = [
        JobSpec("derby", "HI", threshold, latency)
        for threshold in (10, 100, 1000, 10000)
        for latency in (0, 500, 1000, 2500, 5000, 7500, 10000, 20000)
    ]

    def test_serve_endpoints_mid_flight(self):
        assert len(self.GRID) >= 32
        config = SimulatorConfig(profile=TEST_SCALE)
        registry = MetricsRegistry()
        mid_flight = threading.Event()
        scraped = threading.Event()
        failures = []

        class HeldAtTheEighthCell(SweepMonitor):
            def on_finished(self, job_id, ok, duration_s, profile=None):
                super().on_finished(job_id, ok, duration_s, profile=profile)
                if self.snapshot()["done"] == 8 and not mid_flight.is_set():
                    mid_flight.set()
                    # Hold the batch until the main thread has scraped,
                    # so the HTTP reads observe a genuinely running sweep.
                    if not scraped.wait(timeout=30):
                        failures.append("scrape never happened")

        monitor = HeldAtTheEighthCell()

        def run():
            BatchRunner(
                config, span_profile=True, monitor=monitor, metrics=registry,
            ).run(self.GRID)

        worker = threading.Thread(target=run, daemon=True)
        server = ObsServer(
            0,
            metrics_fn=registry.to_prometheus,
            progress_fn=monitor.snapshot,
            profile_fn=monitor.merged_profile,
        )
        with server:
            worker.start()
            assert mid_flight.wait(timeout=120), "batch never reached cell 8"
            try:
                status, metrics_text = _fetch(server.url + "/metrics")
                assert status == 200
                assert_valid_prometheus(metrics_text)
                assert "runner_cell_started_total" in metrics_text
                assert "runner_cells_running" in metrics_text

                status, progress_text = _fetch(server.url + "/progress")
                payload = json.loads(progress_text)
                assert payload["total"] == len(self.GRID)
                assert 0 < payload["done"] < len(self.GRID)
                assert payload["done"] == payload["ok"] + payload["failed"]
                assert isinstance(payload["stalled"], list)
                assert set(payload["latency_s"]) == {"p50", "p90", "p99"}

                status, profile_text = _fetch(server.url + "/profile")
                profile = json.loads(profile_text)
                assert profile["name"] == "root"
                assert any(
                    child["name"] == "cell" for child in profile["children"]
                )
            finally:
                scraped.set()
            worker.join(timeout=300)
        assert not worker.is_alive()
        assert not failures
        final = monitor.snapshot()
        assert final["done"] == final["ok"] == len(self.GRID)
        # Post-batch scrape parity: the span self-time counters folded
        # into the registry cover the same spans the merged tree shows.
        text = registry.to_prometheus()
        assert 'repro_span_self_seconds_total{span="cell"}' in text
        assert_valid_prometheus(text)
