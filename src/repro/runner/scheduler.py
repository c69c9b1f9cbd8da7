"""Batch scheduler: shards a job grid across worker processes.

:class:`BatchRunner` turns a list of :class:`~repro.runner.jobspec.JobSpec`
cells into a :class:`~repro.runner.jobspec.BatchResult`:

- ``jobs=1`` executes in-process (no pool, no pickling) — the reference
  serial path;
- ``jobs>1`` shards the grid round-robin over a
  :class:`~concurrent.futures.ProcessPoolExecutor`.  Shards amortise
  submission overhead; because every cell is independently seeded, the
  sharding, worker count, and completion order cannot change any cell's
  measurements, so both paths are bit-identical.

Fault tolerance is layered: the worker converts cell exceptions and
timeouts into ``failed`` records (the batch continues); the scheduler
converts a crashed *worker process* into failed records for its shard;
``retries=k`` re-executes failed cells up to ``k`` more times (in-process,
so a broken pool cannot block recovery) before their failure becomes
final.

With a ``cache_dir``, each measured cell lands in the root's result
store as it finishes, and the root's ``baselines/`` section shares
baseline runs across processes and batches; without one, each
process's baseline memo alone carries the batch.  The result store is
the one record of finished cells: a killed batch finishes by running
again on the same root, where every measured cell is a result hit and
only the missing cells simulate.

Progress and failure counts flow into an optional
:class:`~repro.obs.metrics.MetricsRegistry` under ``runner_*`` names,
and an optional ``progress`` callback observes every cell *transition*
— started, retried, finished — as a :class:`CellUpdate` (raising from
it aborts the batch cleanly, which is also how tests interrupt a batch
mid-grid).  Every cell is guaranteed a ``started`` update before its
``finished`` update, with ``retried`` strictly between attempts.

With a ``telemetry_dir``, workers append heartbeat and lifecycle
records that the scheduler folds back in while waiting on the pool
(see :mod:`repro.runner.telemetry`): started transitions surface while
cells are still running, and an attached :class:`SweepMonitor` exposes
live progress, latency percentiles, and stall flags to ``repro serve``.
``span_profile=True`` makes every worker collect a per-cell span tree
(:mod:`repro.obs.spans`) that rides home on the result record.
"""

from __future__ import annotations

import logging
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Set

from repro.errors import ReproError
from repro.obs import names
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import flatten_calls, flatten_self_times
from repro.runner.jobspec import (
    BatchResult,
    JobResult,
    JobSpec,
    config_to_payload,
)
from repro.runner.telemetry import (
    SweepMonitor,
    TelemetryReader,
    write_grid_manifest,
)
from repro.runner.worker import execute_job, execute_shard
from repro.sim.config import SimulatorConfig

logger = logging.getLogger(__name__)

#: Cell lifecycle stages surfaced through the progress callback.
STAGE_STARTED = "started"
STAGE_RETRIED = "retried"
STAGE_FINISHED = "finished"


@dataclass(frozen=True)
class CellUpdate:
    """One cell lifecycle transition observed by the scheduler.

    ``result`` is populated only for ``finished`` updates; ``attempt``
    is the 1-based attempt the transition refers to (for ``retried``,
    the attempt that just failed).
    """

    stage: str
    job_id: str
    attempt: int = 1
    result: Optional[JobResult] = None

    @property
    def finished(self) -> bool:
        return self.stage == STAGE_FINISHED


ProgressCallback = Callable[[CellUpdate, int, int], None]

#: Pool-wait timeout (seconds) while a telemetry directory is attached:
#: the scheduler wakes this often to fold worker heartbeats in.
_TELEMETRY_POLL_S = 0.25

#: Shards per worker: enough slack that an uneven shard cannot idle the
#: pool for long, few enough that submission overhead stays negligible.
SHARDS_PER_WORKER = 4

#: Histogram bucket edges (seconds) for per-cell wall time.
_DURATION_BUCKETS = (0.05, 0.25, 1.0, 5.0, 30.0, 120.0, 600.0)


class BatchInterrupted(ReproError):
    """Raised to abort a batch between cells (stored results stay valid)."""


def shard_jobs(items: Sequence, num_shards: int) -> List[List]:
    """Round-robin ``items`` into at most ``num_shards`` non-empty lists.

    Round-robin (rather than contiguous slicing) spreads a grid's
    expensive cells — which cluster by workload and threshold — across
    shards, evening out shard runtimes.
    """
    if num_shards < 1:
        raise ReproError("need at least one shard")
    count = min(num_shards, len(items))
    shards: List[List] = [[] for _ in range(count)]
    for index, item in enumerate(items):
        shards[index % count].append(item)
    return shards


class BatchRunner:
    """Executes job grids; see the module docstring."""

    def __init__(
        self,
        config: Optional[SimulatorConfig] = None,
        jobs: int = 1,
        timeout_s: Optional[float] = None,
        retries: int = 0,
        metrics: Optional[MetricsRegistry] = None,
        progress: Optional[ProgressCallback] = None,
        cache_dir: Optional[str] = None,
        monitor: Optional[SweepMonitor] = None,
        telemetry_dir: Optional[str] = None,
        span_profile: bool = False,
    ):
        if jobs < 1:
            raise ReproError("need at least one worker")
        if retries < 0:
            raise ReproError("retries must be >= 0")
        self.config = config or SimulatorConfig()
        self.jobs = jobs
        self.cache_dir = cache_dir
        self.timeout_s = timeout_s
        self.retries = retries
        self.metrics = metrics
        self.progress = progress
        self.monitor = monitor
        self.telemetry_dir = telemetry_dir
        self.span_profile = span_profile

    # ------------------------------------------------------------------

    def run(self, specs: Sequence[JobSpec]) -> BatchResult:
        started = time.perf_counter()
        resolved = [spec.resolved(self.config.seed) for spec in specs]
        job_ids = [spec.job_id for spec in resolved]
        self._check_unique(job_ids)

        instruments = self._instruments()
        if instruments:
            instruments["total"].inc(len(resolved))
            instruments["workers"].set(self.jobs)

        payload_by_id = {
            spec.job_id: self._payload(spec) for spec in resolved
        }
        results: Dict[str, JobResult] = {}
        retry_count = 0

        monitor = self.monitor
        reader: Optional[TelemetryReader] = None
        if self.telemetry_dir is not None:
            write_grid_manifest(self.telemetry_dir, len(resolved))
            reader = TelemetryReader(self.telemetry_dir)
        if monitor is not None:
            monitor.begin(len(resolved))

        attempts: Dict[str, int] = {job_id: 0 for job_id in payload_by_id}
        #: cells whose current attempt already got a ``started`` update
        started_seen: Set[str] = set()
        running: Set[str] = set()

        def refresh_gauges() -> None:
            if instruments:
                instruments["cells_running"].set(len(running))
                if monitor is not None:
                    instruments["cells_stalled"].set(
                        len(monitor.snapshot()["stalled"])
                    )

        def notify(update: CellUpdate) -> None:
            if self.progress is not None:
                self.progress(update, len(results), len(resolved))

        def on_start(job_id: Optional[str]) -> None:
            # Guard against telemetry from a different batch sharing the
            # directory, and against duplicate started records.
            if job_id not in attempts or job_id in started_seen:
                return
            started_seen.add(job_id)
            running.add(job_id)
            if instruments:
                instruments["cell_started"].inc()
            if monitor is not None:
                monitor.on_started(job_id)
            refresh_gauges()
            notify(CellUpdate(STAGE_STARTED, job_id, attempts[job_id] + 1))

        def poll_telemetry() -> None:
            assert reader is not None
            for telemetry_record in reader.poll():
                kind = telemetry_record.get("kind")
                if kind == "cell_started":
                    on_start(telemetry_record.get("job_id"))
                elif kind == "heartbeat":
                    if instruments:
                        instruments["heartbeats"].inc()
                    if monitor is not None:
                        monitor.observe_heartbeat(
                            telemetry_record.get("job_id")
                        )
                # cell_finished records are liveness-only here: the pool
                # future's result record is the authoritative finish.
            refresh_gauges()

        queue = list(payload_by_id.values())
        first_wave = True
        while queue:
            retry_queue: List[Dict[str, Any]] = []
            # Retry waves run in-process: they are small, and a pool
            # broken by a crashed worker must not block recovery.
            parallel = first_wave and self.jobs > 1
            records = self._execute(
                queue, parallel, on_start,
                poll_telemetry if reader is not None else None,
            )
            for record in records:
                job_id = record["job_id"]
                # Synthetic started for cells whose telemetry the
                # scheduler never saw (no telemetry dir, or a crash
                # before the record flushed): the started-before-
                # finished ordering holds unconditionally.
                on_start(job_id)
                attempts[job_id] += 1
                record["attempts"] = attempts[job_id]
                if record["status"] != "ok" and attempts[job_id] <= self.retries:
                    retry_count += 1
                    if instruments:
                        instruments["retries"].inc()
                        instruments["cell_retried"].inc()
                    logger.warning(
                        "cell %s failed (attempt %d), retrying: %s",
                        job_id, attempts[job_id], record["error"],
                    )
                    retry_queue.append(payload_by_id[job_id])
                    # The retry is a fresh attempt: it gets its own
                    # started transition when it begins executing.
                    started_seen.discard(job_id)
                    running.discard(job_id)
                    if monitor is not None:
                        monitor.on_retried(job_id)
                    refresh_gauges()
                    notify(
                        CellUpdate(STAGE_RETRIED, job_id, attempts[job_id])
                    )
                    continue
                result = JobResult.from_record(record)
                results[job_id] = result
                running.discard(job_id)
                if monitor is not None:
                    monitor.on_finished(
                        job_id, result.ok, result.duration_s,
                        profile=result.profile,
                    )
                self._record(result, instruments)
                refresh_gauges()
                notify(
                    CellUpdate(
                        STAGE_FINISHED, job_id, attempts[job_id], result
                    )
                )
            queue = retry_queue
            first_wave = False

        batch = BatchResult(
            results=[results[job_id] for job_id in job_ids],
            retries=retry_count,
            wall_s=time.perf_counter() - started,
        )
        logger.info(
            "batch done: %d cells (%d failed) in %.2fs with %d worker(s)",
            len(batch), len(batch.failures), batch.wall_s, self.jobs,
        )
        return batch

    # ------------------------------------------------------------------

    def _execute(
        self,
        payloads: List[Dict[str, Any]],
        parallel: bool,
        on_start: Optional[Callable[[str], None]] = None,
        poll: Optional[Callable[[], None]] = None,
    ) -> Iterator[Dict[str, Any]]:
        """Yield one final record per payload, as they complete.

        ``on_start`` fires just before a cell begins executing (serial
        path); in the parallel path started transitions instead arrive
        through ``poll``, which drains the telemetry directory between
        pool waits — so the wait gains a short timeout to keep the
        live view fresh even while no shard is completing.
        """
        if not parallel or len(payloads) == 1:
            for payload in payloads:
                if on_start is not None:
                    on_start(payload["job"]["job_id"])
                yield execute_job(payload)
            return
        shards = shard_jobs(payloads, self.jobs * SHARDS_PER_WORKER)
        with ProcessPoolExecutor(max_workers=self.jobs) as executor:
            futures = {
                executor.submit(execute_shard, shard): shard for shard in shards
            }
            remaining = set(futures)
            timeout = _TELEMETRY_POLL_S if poll is not None else None
            while remaining:
                done, remaining = wait(
                    remaining, timeout=timeout, return_when=FIRST_COMPLETED
                )
                if poll is not None:
                    poll()
                for future in done:
                    shard = futures[future]
                    try:
                        records = future.result()
                    except Exception as error:
                        # The worker process itself died (or the pool
                        # broke); the shard's cells become failures.
                        logger.error("worker shard crashed: %s", error)
                        records = [
                            self._crash_record(payload, error)
                            for payload in shard
                        ]
                    for record in records:
                        yield record

    @staticmethod
    def _crash_record(payload: Dict[str, Any], error: Exception) -> Dict[str, Any]:
        return {
            "kind": "result",
            "job_id": payload["job"]["job_id"],
            "spec": payload["job"],
            "status": "failed",
            "metrics": {},
            "error": f"worker process crashed: {type(error).__name__}: {error}",
            "traceback": None,
            "attempts": 1,
            "duration_s": 0.0,
        }

    def _payload(self, spec: JobSpec) -> Dict[str, Any]:
        return {
            "job": spec.to_payload(),
            "config": config_to_payload(self.config),
            "timeout_s": self.timeout_s,
            "cache_dir": self.cache_dir,
            "span_profile": self.span_profile,
            "telemetry_dir": self.telemetry_dir,
        }

    def _record(self, result: JobResult, instruments: Dict[str, Any]) -> None:
        if instruments:
            key = "completed" if result.ok else "failed"
            instruments[key].inc()
            # wall-time telemetry, outside the deterministic contract
            instruments["duration"].observe(result.duration_s)  # simlint: ignore[N503]
            for name, delta in result.cache_counters.items():
                instrument = instruments.get("cache_" + name)
                if instrument is not None and delta > 0:
                    instrument.inc(delta)
        if result.profile is not None and self.metrics is not None:
            self._fold_span_metrics(result.profile)
        if not result.ok:
            logger.warning("cell %s failed: %s", result.job_id, result.error)

    def _fold_span_metrics(self, profile: Dict[str, Any]) -> None:
        """Fold one cell's span tree into the labelled span counters."""
        registry = self.metrics
        assert registry is not None
        calls = flatten_calls(profile)
        for span, self_ns in flatten_self_times(profile).items():
            span_calls = calls.get(span, 0)
            if not self_ns and not span_calls:
                continue  # the synthetic root container
            labels = {"span": span}
            registry.counter(
                names.REPRO_SPAN_SELF_SECONDS_TOTAL,
                "per-span self time across profiled cells",
                exist_ok=True, labels=labels,
            ).inc(self_ns / 1e9)
            registry.counter(
                names.REPRO_SPAN_CALLS_TOTAL,
                "per-span call count across profiled cells",
                exist_ok=True, labels=labels,
            ).inc(span_calls)

    def _instruments(self) -> Dict[str, Any]:
        if self.metrics is None:
            return {}
        registry = self.metrics
        return {
            "total": registry.counter(
                names.RUNNER_JOBS_TOTAL,
                "cells submitted to the batch runner", exist_ok=True,
            ),
            "completed": registry.counter(
                names.RUNNER_JOBS_COMPLETED, "cells measured successfully",
                exist_ok=True,
            ),
            "failed": registry.counter(
                names.RUNNER_JOBS_FAILED, "cells whose failure became final",
                exist_ok=True,
            ),
            "retries": registry.counter(
                names.RUNNER_RETRIES_TOTAL,
                "cell re-executions after failure", exist_ok=True,
            ),
            "cell_started": registry.counter(
                names.RUNNER_CELL_STARTED_TOTAL,
                "cell attempts that began executing", exist_ok=True,
            ),
            "cell_retried": registry.counter(
                names.RUNNER_CELL_RETRIED_TOTAL,
                "cell attempts requeued after a failure", exist_ok=True,
            ),
            "cells_running": registry.gauge(
                names.RUNNER_CELLS_RUNNING,
                "cells currently executing", exist_ok=True,
            ),
            "cells_stalled": registry.gauge(
                names.RUNNER_CELLS_STALLED,
                "running cells silent past the stall horizon",
                exist_ok=True,
            ),
            "heartbeats": registry.counter(
                names.RUNNER_HEARTBEATS_TOTAL,
                "worker heartbeat records observed", exist_ok=True,
            ),
            "workers": registry.gauge(
                names.RUNNER_WORKERS,
                "worker processes of the current batch", exist_ok=True,
            ),
            "duration": registry.histogram(
                names.RUNNER_JOB_SECONDS, _DURATION_BUCKETS,
                "per-cell wall time", exist_ok=True,
            ),
            # Keys match the worker's cache_counters record entries
            # prefixed with "cache_".
            "cache_trace_hits": registry.counter(
                names.REPRO_CACHE_TRACE_HITS_TOTAL,
                "materialized traces replayed from the cache", exist_ok=True,
            ),
            "cache_trace_misses": registry.counter(
                names.REPRO_CACHE_TRACE_MISSES_TOTAL,
                "traces materialized on a cache miss", exist_ok=True,
            ),
            "cache_result_hits": registry.counter(
                names.REPRO_CACHE_RESULT_HITS_TOTAL,
                "cells satisfied from memoized results", exist_ok=True,
            ),
            "cache_result_misses": registry.counter(
                names.REPRO_CACHE_RESULT_MISSES_TOTAL,
                "cells simulated after a result-cache miss", exist_ok=True,
            ),
            "cache_bytes_read": registry.counter(
                names.REPRO_CACHE_READ_BYTES_TOTAL,
                "bytes read from cache entries", exist_ok=True,
            ),
            "cache_bytes_written": registry.counter(
                names.REPRO_CACHE_WRITTEN_BYTES_TOTAL,
                "bytes written into cache entries", exist_ok=True,
            ),
            "cache_tape_hits": registry.counter(
                names.REPRO_CACHE_TAPE_HITS_TOTAL,
                "cells that replayed a latency twin's memory tape",
                exist_ok=True,
            ),
            "cache_tape_misses": registry.counter(
                names.REPRO_CACHE_TAPE_MISSES_TOTAL,
                "tape-eligible cells that recorded their memory side",
                exist_ok=True,
            ),
            "cache_primed_hits": registry.counter(
                names.REPRO_CACHE_PRIMED_HITS_TOTAL,
                "learning policies that loaded a primed state",
                exist_ok=True,
            ),
            "cache_primed_misses": registry.counter(
                names.REPRO_CACHE_PRIMED_MISSES_TOTAL,
                "learning policies primed live, leaving a primed state",
                exist_ok=True,
            ),
        }

    @staticmethod
    def _check_unique(job_ids: Iterable[str]) -> None:
        seen = set()
        for job_id in job_ids:
            if job_id in seen:
                raise ReproError(
                    f"duplicate cell in batch: {job_id!r} (use JobSpec.tag "
                    "to distinguish intentionally repeated cells)"
                )
            seen.add(job_id)


def run_batch(
    specs: Sequence[JobSpec],
    config: Optional[SimulatorConfig] = None,
    **kwargs,
) -> BatchResult:
    """One-shot convenience wrapper around :class:`BatchRunner`."""
    return BatchRunner(config=config, **kwargs).run(specs)
