"""Worker-side execution of batch jobs.

This module is what actually runs inside pool processes, so it obeys
three rules the scheduler depends on:

- **plain-data boundary** — it receives JSON-safe payload dicts and
  returns JSON-safe result records; no library object crosses the
  process boundary, so pickling can never couple the scheduler to
  simulator internals;
- **no escaping exceptions** — every failure (bad workload name, model
  bug, timeout) is converted into a ``failed`` record carrying the
  message and formatted traceback.  A failed cell is data, not a dead
  worker, which is what keeps one bad cell from killing a batch;
- **deterministic output** — given the same payload, a worker returns
  the same measurements whether it runs in-process (``--jobs 1``), in a
  forked pool worker, or in a later run on the same cache root.  All
  seeding is in the payload.

Per-job timeouts use ``SIGALRM`` (via ``signal.setitimer``), which fires
in the worker's main thread — exactly where pool workers execute — and
is restored afterwards.  On platforms without ``SIGALRM`` the timeout
degrades to "no timeout" rather than failing.

Baseline runs are memoised per process (module-level, keyed by workload
and full config fingerprint — safe under ``fork``) and, when the batch
has a cache root, shared across processes through a
:class:`~repro.runner.baselines.BaselineStore` in the root's
``baselines/`` section.

Every process keeps one in-memory reuse level, with a cache root or
without one (``_STORES``).  Latency twins — cells whose only difference
is the migration latency — share one memory simulation: the first
records a memory tape, later twins in the same process replay it (see
:func:`_twin_key` and :mod:`repro.cache.tapestore`).  Each process
records every trace its first run draws and replays it in later runs,
and primes each learning policy once per priming stream and learning
shape; later cells load the primed state
(:class:`~repro.cache.tracestore.TraceRecordings`).  A cache root adds
only what must outlive the process: trace and priming entries, results
and baselines.
"""

from __future__ import annotations

import dataclasses
import json
import os
import signal
import time
import traceback
from typing import Any, Dict, List, Optional, Tuple

from repro.cache.paths import baselines_dir
from repro.cache.resultstore import ResultStore
from repro.cache.tapestore import TapeStore
from repro.cache.tracestore import TraceRecordings, TraceStore
from repro.errors import JobTimeout, ReproError
from repro.obs import names
from repro.obs.spans import NULL_PROFILER, SpanProfiler
from repro.offload.engine import MemoryTape, memory_tape_eligible
from repro.offload.migration import MigrationModel
from repro.runner.baselines import BaselineStore
from repro.runner.jobspec import (
    STATUS_FAILED,
    STATUS_OK,
    config_fingerprint,
    config_from_payload,
)
from repro.runner.telemetry import TelemetryWriter
from repro.service.config import ServiceConfig
from repro.sim.config import SimulatorConfig
from repro.sim.simulator import (
    READS_MIGRATION,
    SimulationResult,
    make_policy,
    simulate,
    simulate_baseline,
)
from repro.workloads.presets import get_workload


#: Per-process memo of baseline throughputs.  Keyed by the full config
#: fingerprint (which includes the seed), so entries inherited across a
#: ``fork`` or shared between tests can never be wrong, only warm.
_BASELINE_MEMO: Dict[Tuple[str, str], float] = {}

#: Per-process cache stores, keyed by cache root.  Keeping one trace
#: level per key preserves its recordings and primed policy states
#: across the jobs of a shard, which is where the reuse win comes from;
#: the :class:`TapeStore` holds memory tapes the same way.  Under the
#: ``None`` key a process without a root keeps a :class:`TraceRecordings`
#: and a :class:`TapeStore` but no result store; a root's
#: :class:`TraceStore` adds its disk entries.  Forked pool workers
#: inherit the dict, recordings, states and tapes included.
_Stores = Tuple[TraceRecordings, Optional[ResultStore], TapeStore]
_STORES: Dict[Optional[str], _Stores] = {}

#: Job payload fields a latency twin may differ in: the latency itself,
#: and the job id and tag, which only name the cell.
_TWIN_FREE_FIELDS = ("job_id", "latency", "tag")

#: Per-process telemetry writers keyed by directory; one file (and one
#: heartbeat thread) per worker process, safe under ``fork`` because
#: the key embeds the directory and the filename embeds the PID.
_TELEMETRY: Dict[str, TelemetryWriter] = {}


def _telemetry_writer(directory: Optional[str]) -> Optional[TelemetryWriter]:
    if not directory:
        return None
    writer = _TELEMETRY.get(directory)
    if writer is None or writer.pid != os.getpid():
        writer = TelemetryWriter(directory)
        writer.start_heartbeats()
        # per-process writer handle keyed by directory; no result state
        _TELEMETRY[directory] = writer  # simlint: ignore[W702]
    return writer


def _cache_stores(cache_dir: Optional[str]) -> _Stores:
    root = cache_dir or None
    stores = _STORES.get(root)
    if stores is None:
        if root is None:
            trace_store, result_store = TraceRecordings(), None
        else:
            trace_store, result_store = TraceStore(root), ResultStore(root)
        stores = (trace_store, result_store, TapeStore())
        # per-process handles keyed by cache root; value-transparent caches
        _STORES[root] = stores  # simlint: ignore[W702]
    return stores


def _cache_counter_snapshot(stores: _Stores) -> Dict[str, int]:
    """Combined counter totals across the cache levels; a worker
    without a root has no result store to count."""
    totals: Dict[str, int] = {}
    for store in stores:
        for name, value in getattr(store, "counters", {}).items():
            totals[name] = totals.get(name, 0) + value
    return totals


def _twin_key(job: Dict[str, Any], config: SimulatorConfig) -> str:
    """The key latency twins share: equal keys, equal memory sides.

    It is the config fingerprint plus the job without its latency, which
    moves only the clocks of a run that
    :func:`~repro.offload.engine.memory_tape_eligible` accepts.  The
    policies :data:`~repro.sim.simulator.READS_MIGRATION` names keep
    their latency in the key.
    """
    fields = {
        name: value for name, value in job.items()
        if name not in _TWIN_FREE_FIELDS
    }
    if job["policy"].upper() in READS_MIGRATION:
        fields["latency"] = job["latency"]
    return config_fingerprint(config) + json.dumps(fields, sort_keys=True)


def _baseline_throughput(
    workload: str,
    config: SimulatorConfig,
    cache_dir: Optional[str],
    trace_store: Optional[TraceRecordings] = None,
) -> float:
    key = (workload, config_fingerprint(config))
    store = BaselineStore(baselines_dir(cache_dir)) if cache_dir else None
    value = _BASELINE_MEMO.get(key)
    if value is not None:
        # Even on a memo hit, make sure the cache root gets a copy — a
        # later run on the root starts in a cold process.
        if store is not None and store.get(workload, config) is None:
            store.put(workload, config, value)
        return value
    if store is not None:
        stored = store.get(workload, config)
        if stored is not None:
            # memo keyed by the full config fingerprint: a hit is
            # bit-identical to a recompute
            _BASELINE_MEMO[key] = stored  # simlint: ignore[W702]
            return stored
    value = simulate_baseline(
        get_workload(workload), config, trace_store=trace_store
    ).throughput
    # same fingerprint-keyed memo as above
    _BASELINE_MEMO[key] = value  # simlint: ignore[W702]
    if store is not None:
        store.put(workload, config, value)
    return value


class _Alarm:
    """Arm SIGALRM for ``seconds``; restore the previous handler on exit."""

    def __init__(self, seconds: Optional[float]):
        self.seconds = seconds if seconds and seconds > 0 else None
        self.armed = self.seconds is not None and hasattr(signal, "SIGALRM")
        self._previous = None

    def __enter__(self) -> "_Alarm":
        if self.armed:
            def _raise(signum, frame):
                raise JobTimeout(f"job exceeded {self.seconds:g}s timeout")

            self._previous = signal.signal(signal.SIGALRM, _raise)
            signal.setitimer(signal.ITIMER_REAL, self.seconds)
        return self

    def __exit__(self, *exc) -> None:
        if self.armed:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._previous)


def _run_cell(job: Dict[str, Any], config: SimulatorConfig,
              cache_dir: Optional[str],
              stores: _Stores,
              profiler: SpanProfiler = NULL_PROFILER) -> Dict[str, float]:
    """Simulate one cell and measure it; raises on any model error."""
    trace_store, result_store, tape_store = stores
    if result_store is not None:
        with profiler.span(names.SPAN_CELL_RESULT_CACHE):
            cached = result_store.get(
                job["job_id"], config_fingerprint(config)
            )
        if cached is not None:
            # A level-2 hit skips the baseline too: the stored metrics
            # already carry the normalized numbers.
            return cached
    spec = get_workload(job["workload"])
    migration = MigrationModel(f"runner-{job['latency']}", job["latency"])
    # The baseline is deliberately NOT span-profiled internally: it is
    # memoised per process and per cache root, so its inner phase spans
    # would appear a scheduling-dependent number of times and break the
    # serial == parallel structure guarantee.  The
    # ``cell.baseline`` span itself fires exactly once per cell.
    # Baselines are always the paper's closed-loop uni-processor run:
    # open-loop knobs (arrival model, pool shape) must not change what a
    # cell's throughput is normalized against, and stripping them lets
    # every service-mode cell of one sweep share one baseline.
    baseline_config = config
    if config.service != ServiceConfig():
        baseline_config = dataclasses.replace(config, service=ServiceConfig())
    with profiler.span(names.SPAN_CELL_BASELINE):
        baseline = _baseline_throughput(
            job["workload"], baseline_config, cache_dir,
            trace_store=trace_store,
        )
    with profiler.span(names.SPAN_CELL_POLICY):
        policy = make_policy(
            job["policy"], threshold=job["threshold"], migration=migration,
            spec=spec, config=config,
        )
    tape: Optional[MemoryTape] = None
    new_tape_key: Optional[str] = None
    if memory_tape_eligible(config):
        key = _twin_key(job, config)
        tape = tape_store.get(key)
        if tape is None:
            tape, new_tape_key = MemoryTape(), key
    with profiler.span(names.SPAN_CELL_SIMULATE):
        run = simulate(
            spec, policy, migration, config, trace_store=trace_store,
            profiler=profiler, memory_tape=tape,
        )
    if new_tape_key is not None:
        # Only a run that finished leaves its tape for its twins.
        tape_store.put(new_tape_key, tape)
    if baseline == 0:
        raise ReproError(f"baseline for {job['workload']} has zero throughput")
    metrics = cell_metrics(run, baseline)
    if result_store is not None:
        with profiler.span(names.SPAN_CELL_RESULT_CACHE):
            result_store.put(
                job["job_id"], config_fingerprint(config), metrics
            )
    return metrics


def cell_metrics(run: SimulationResult, baseline: float) -> Dict[str, float]:
    """The metric record of one cell: ``run`` normalized to ``baseline``,
    the closed-loop baseline's throughput."""
    stats = run.stats
    metrics = {
        "normalized_throughput": stats.throughput / baseline,
        "throughput": stats.throughput,
        "baseline_throughput": baseline,
        "offloads": stats.offload.offloads,
        "os_entries": stats.offload.os_entries,
        "offloaded_instructions": stats.offload.offloaded_instructions,
        "os_core_busy_fraction": stats.os_core_time_fraction(),
        "mean_queue_delay": stats.offload.mean_queue_delay,
        "cache_to_cache_transfers": stats.coherence.cache_to_cache_transfers,
        "invalidations": stats.coherence.invalidations,
    }
    if run.latency is not None:
        latency = run.latency
        metrics.update({
            "requests": latency.requests,
            "admission_drops": latency.drops,
            "latency_p50_cycles": latency.p50,
            "latency_p99_cycles": latency.p99,
            "latency_p999_cycles": latency.p999,
            "latency_mean_cycles": latency.mean,
            "latency_max_cycles": latency.max,
            "service_queue_cycles": latency.queue_cycles,
            "service_migration_cycles": latency.migration_cycles,
            "service_execution_cycles": latency.execution_cycles,
        })
    return metrics


def execute_job(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Execute one job payload; always returns a result record."""
    job = payload["job"]
    started = time.perf_counter()
    record: Dict[str, Any] = {
        "kind": "result",
        "job_id": job["job_id"],
        "spec": job,
        "attempts": 1,
        "metrics": {},
        "error": None,
        "traceback": None,
        "cache_counters": {},
    }
    telemetry = _telemetry_writer(payload.get("telemetry_dir"))
    if telemetry is not None:
        telemetry.cell_started(job["job_id"])
    profiler: SpanProfiler = (
        SpanProfiler() if payload.get("span_profile") else NULL_PROFILER
    )
    cache_dir = payload.get("cache_dir")
    stores = _cache_stores(cache_dir)
    before = _cache_counter_snapshot(stores)
    try:
        with profiler.span(names.SPAN_CELL):
            with profiler.span(names.SPAN_CELL_SETUP):
                config = config_from_payload(payload["config"])
                config = dataclasses.replace(config, seed=job["seed"])
            with _Alarm(payload.get("timeout_s")):
                record["metrics"] = _run_cell(
                    job, config, cache_dir, stores=stores, profiler=profiler,
                )
        record["status"] = STATUS_OK
    except Exception as error:  # a failed cell must not kill the batch
        record["status"] = STATUS_FAILED
        record["error"] = f"{type(error).__name__}: {error}"
        record["traceback"] = traceback.format_exc()
    after = _cache_counter_snapshot(stores)
    record["cache_counters"] = {
        name: after[name] - before.get(name, 0)
        for name in after
        if after[name] != before.get(name, 0)
    }
    record["duration_s"] = round(time.perf_counter() - started, 6)
    if profiler.enabled:
        record["profile"] = profiler.to_dict()
    if telemetry is not None:
        telemetry.cell_finished(
            job["job_id"], record["status"], record["duration_s"],
            profile=record.get("profile"),
        )
    return record


def execute_shard(payloads: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Execute a shard of job payloads sequentially in this process.

    Sharding amortises inter-process submission overhead; the per-job
    records are identical to per-job submission because every job is
    independently seeded.
    """
    return [execute_job(payload) for payload in payloads]
