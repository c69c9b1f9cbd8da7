"""Live sweep telemetry: worker heartbeats and the sweep monitor.

Three cooperating pieces, connected only through JSONL files so they
work across process boundaries without any shared-memory machinery:

- :class:`TelemetryWriter` — worker-side.  Appends cell-lifecycle
  records (``worker_hello``/``cell_started``/``cell_finished``) to a
  per-process file under the batch's telemetry directory and runs a
  daemon heartbeat thread that proves the worker is alive (and names
  the cell it is chewing on) even when a cell runs for minutes;
- :class:`TelemetryReader` — scheduler-side.  Incrementally tails
  every ``worker-*.jsonl`` in the directory, returning only complete,
  newly appended records per poll;
- :class:`SweepMonitor` — the aggregation point behind ``/progress``.
  It folds scheduler transitions (started/retried/finished) and worker
  heartbeats into live counts, per-cell latency percentiles, and stall
  flags: a running cell silent for longer than
  ``max(stall_factor x expected, stall_floor_s)`` — where *expected*
  is the median duration of completed cells — is flagged stalled.

All timestamps are wall-clock (``time.time``): they cross process
boundaries and only feed liveness decisions, never simulated time.
The monitor is thread-safe — the HTTP server snapshots it from another
thread while the scheduler mutates it.
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Any, Dict, IO, List, Optional

from repro.obs.spans import merge_profiles

__all__ = [
    "TelemetryWriter",
    "TelemetryReader",
    "SweepMonitor",
    "GRID_MANIFEST",
    "HEARTBEAT_INTERVAL_S",
    "write_grid_manifest",
    "read_grid_manifest",
]

#: Name of the grid manifest the scheduler drops into the telemetry
#: directory so a standalone ``repro serve`` knows the batch's size.
GRID_MANIFEST = "grid.json"

#: Default worker heartbeat period (seconds).  Small enough that stall
#: detection reacts within a couple of multiples of a cell's expected
#: duration, large enough to be invisible in profiles.
HEARTBEAT_INTERVAL_S = 0.5


class TelemetryWriter:
    """Appends lifecycle/heartbeat records for one worker process."""

    def __init__(
        self,
        directory: str,
        heartbeat_interval_s: float = HEARTBEAT_INTERVAL_S,
    ):
        os.makedirs(directory, exist_ok=True)
        #: PID the writer was created in; a forked child must not reuse
        #: the parent's writer (its heartbeat thread dies in the fork).
        self.pid = os.getpid()
        self._path = os.path.join(directory, f"worker-{self.pid}.jsonl")
        self._lock = threading.Lock()
        self._file: Optional[IO[str]] = open(self._path, "a", encoding="utf-8")
        self._current_job: Optional[str] = None
        self._interval = heartbeat_interval_s
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self.write_record({"kind": "worker_hello"})

    def write_record(self, record: Dict[str, Any]) -> None:
        payload = dict(record)
        payload.setdefault("ts", time.time())
        payload.setdefault("pid", os.getpid())
        with self._lock:
            if self._file is None:
                return
            self._file.write(json.dumps(payload, sort_keys=True) + "\n")
            self._file.flush()

    # -- lifecycle -----------------------------------------------------

    def cell_started(self, job_id: str) -> None:
        self._current_job = job_id
        self.write_record({"kind": "cell_started", "job_id": job_id})

    def cell_finished(
        self,
        job_id: str,
        status: str,
        duration_s: float,
        profile: Optional[Dict[str, Any]] = None,
    ) -> None:
        self._current_job = None
        record: Dict[str, Any] = {
            "kind": "cell_finished",
            "job_id": job_id,
            "status": status,
            "duration_s": duration_s,
        }
        if profile is not None:
            record["profile"] = profile
        self.write_record(record)

    # -- heartbeats ----------------------------------------------------

    def start_heartbeats(self) -> None:
        if self._thread is not None:
            return
        self._thread = threading.Thread(
            target=self._beat, name="repro-telemetry-heartbeat", daemon=True
        )
        self._thread.start()

    def _beat(self) -> None:
        while not self._stop.wait(self._interval):
            self.write_record({"kind": "heartbeat", "job_id": self._current_job})

    def close(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=2.0)
            self._thread = None
        with self._lock:
            if self._file is not None:
                self._file.close()
                self._file = None


class TelemetryReader:
    """Incrementally tails every worker file in a telemetry directory."""

    def __init__(self, directory: str):
        self._directory = directory
        #: per-file byte offset of the first unread byte
        self._offsets: Dict[str, int] = {}

    def poll(self) -> List[Dict[str, Any]]:
        """Return records appended since the previous poll, oldest first."""
        records: List[Dict[str, Any]] = []
        try:
            entries = sorted(os.listdir(self._directory))
        except FileNotFoundError:
            return records
        for entry in entries:
            if not (entry.startswith("worker-") and entry.endswith(".jsonl")):
                continue
            path = os.path.join(self._directory, entry)
            offset = self._offsets.get(entry, 0)
            try:
                with open(path, "rb") as handle:
                    handle.seek(offset)
                    chunk = handle.read()
            except OSError:
                continue
            if not chunk:
                continue
            # Only consume complete lines; a partially flushed record
            # stays buffered for the next poll.
            newline_at = chunk.rfind(b"\n")
            if newline_at < 0:
                continue
            complete = chunk[: newline_at + 1]
            self._offsets[entry] = offset + len(complete)
            for raw in complete.splitlines():
                line = raw.strip()
                if not line:
                    continue
                try:
                    records.append(json.loads(line.decode("utf-8")))
                except ValueError:
                    continue  # torn write; skip the record, keep reading
        records.sort(key=lambda r: (r.get("ts", 0.0), r.get("pid", 0)))
        return records


def _percentile(ordered: List[float], fraction: float) -> float:
    """Nearest-rank percentile of an ascending list (empty -> 0)."""
    if not ordered:
        return 0.0
    rank = max(0, min(len(ordered) - 1, int(fraction * len(ordered))))
    return ordered[rank]


class SweepMonitor:
    """Aggregates a running batch into the ``/progress`` JSON shape.

    Fed by the scheduler (authoritative started/retried/finished
    transitions) and, when the batch runs with a telemetry directory,
    by worker heartbeats.  Thread-safe; ``snapshot()`` may be called
    from the HTTP server thread at any time.
    """

    def __init__(
        self,
        stall_floor_s: float = 5.0,
        stall_factor: float = 2.0,
        clock: Any = time.time,
    ):
        self._lock = threading.Lock()
        self._clock = clock
        self.stall_floor_s = stall_floor_s
        self.stall_factor = stall_factor
        self._started_at = float(clock())
        self._total = 0
        self._ok = 0
        self._failed = 0
        self._retries = 0
        self._heartbeats = 0
        #: job_id -> last liveness signal timestamp (start or heartbeat)
        self._running: Dict[str, float] = {}
        self._durations: List[float] = []
        self._profiles: List[Dict[str, Any]] = []

    # -- feeding -------------------------------------------------------

    def begin(self, total: int) -> None:
        with self._lock:
            self._total = total
            self._started_at = float(self._clock())

    def on_started(self, job_id: str) -> None:
        with self._lock:
            self._running[job_id] = float(self._clock())

    def on_retried(self, job_id: str) -> None:
        with self._lock:
            self._running.pop(job_id, None)
            self._retries += 1

    def on_finished(
        self,
        job_id: str,
        ok: bool,
        duration_s: float,
        profile: Optional[Dict[str, Any]] = None,
    ) -> None:
        with self._lock:
            self._running.pop(job_id, None)
            if ok:
                self._ok += 1
            else:
                self._failed += 1
            self._durations.append(float(duration_s))
            if profile is not None:
                self._profiles.append(profile)

    def observe_heartbeat(self, job_id: Optional[str]) -> None:
        with self._lock:
            self._heartbeats += 1
            if job_id is not None and job_id in self._running:
                self._running[job_id] = float(self._clock())

    def feed_record(self, record: Dict[str, Any]) -> None:
        """Fold one worker telemetry record in (standalone serve mode).

        Used when no scheduler feeds the monitor directly — e.g.
        ``repro serve --telemetry DIR`` watching a batch owned by
        another process; lifecycle records then become authoritative.
        """
        kind = record.get("kind")
        if kind == "cell_started":
            self.on_started(record["job_id"])
        elif kind == "cell_finished":
            self.on_finished(
                record["job_id"],
                record.get("status") == "ok",
                record.get("duration_s", 0.0),
                profile=record.get("profile"),
            )
        elif kind == "heartbeat":
            self.observe_heartbeat(record.get("job_id"))

    # -- reading -------------------------------------------------------

    def expected_cell_s(self) -> float:
        """Median duration of completed cells (0 before any finish)."""
        with self._lock:
            return self._expected_locked()

    def _expected_locked(self) -> float:
        if not self._durations:
            return 0.0
        ordered = sorted(self._durations)
        return _percentile(ordered, 0.5)

    def _stalled_locked(self, now: float) -> List[str]:
        expected = self._expected_locked()
        horizon = max(self.stall_factor * expected, self.stall_floor_s)
        return sorted(
            job_id
            for job_id, last_signal in self._running.items()
            if now - last_signal > horizon
        )

    def snapshot(self) -> Dict[str, Any]:
        """The live ``/progress`` payload (JSON-ready)."""
        with self._lock:
            now = float(self._clock())
            done = self._ok + self._failed
            ordered = sorted(self._durations)
            return {
                "total": self._total,
                "done": done,
                "ok": self._ok,
                "failed": self._failed,
                "running": len(self._running),
                "pending": max(0, self._total - done - len(self._running)),
                "retries": self._retries,
                "heartbeats": self._heartbeats,
                "stalled": self._stalled_locked(now),
                "elapsed_s": round(now - self._started_at, 3),
                "expected_cell_s": round(self._expected_locked(), 6),
                "latency_s": {
                    "p50": round(_percentile(ordered, 0.50), 6),
                    "p90": round(_percentile(ordered, 0.90), 6),
                    "p99": round(_percentile(ordered, 0.99), 6),
                },
            }

    def merged_profile(self) -> Dict[str, Any]:
        """Deterministic merge of every collected cell profile."""
        with self._lock:
            profiles = list(self._profiles)
        return merge_profiles(profiles)


def write_grid_manifest(directory: str, total: int) -> None:
    """Record the batch size for standalone ``repro serve`` watchers."""
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, GRID_MANIFEST)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"total": total, "started_at": time.time()}, handle)


def read_grid_manifest(directory: str) -> Optional[Dict[str, Any]]:
    path = os.path.join(directory, GRID_MANIFEST)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            loaded = json.load(handle)
    except (OSError, ValueError):
        return None
    return loaded if isinstance(loaded, dict) else None
