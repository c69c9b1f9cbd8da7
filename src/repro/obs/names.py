"""Canonical registry of every metric name the simulator publishes.

Metric names are part of the repo's observable surface: run reports,
Prometheus snapshots and the regression harness all key on them.  An
ad-hoc string in an ``engine.py`` call site is therefore a silent
schema change waiting to happen.  This module is the single place a
metric name may be *spelled*; every ``MetricsRegistry.counter(...)`` /
``gauge(...)`` / ``histogram(...)`` call site must reference one of
these constants.  The invariant is enforced statically by the R-rules
in :mod:`repro.lint` (``R302``/``R303``), which parse this module's
AST rather than importing it — so keep the assignments as plain
``NAME = "literal"`` statements at module level.

Naming convention: ``repro_*`` for simulation-outcome metrics published
by the off-load engine, ``runner_*`` for batch-runner bookkeeping.

The same closure applies to **span names** (``SPAN_*`` constants, see
:mod:`repro.obs.spans`): rule ``R305`` rejects ad-hoc span literals at
``profiler.span(...)`` / ``add_ns(...)`` / ``timed(...)`` call sites.
Span names use dotted segments (``cell.baseline``, ``sim.mem.batched``)
— a distinct shape from metric names, so neither registry can shadow
the other.
"""

from __future__ import annotations

# --- off-load engine: histograms -------------------------------------
QUEUE_DELAY_CYCLES = "repro_queue_delay_cycles"
OS_INVOCATION_LENGTH_INSTRUCTIONS = "repro_os_invocation_length_instructions"

# --- off-load engine: counters ---------------------------------------
OS_ENTRIES_TOTAL = "repro_os_entries_total"
OFFLOADS_TOTAL = "repro_offloads_total"
OS_INSTRUCTIONS_TOTAL = "repro_os_instructions_total"
OFFLOADED_INSTRUCTIONS_TOTAL = "repro_offloaded_instructions_total"
INSTRUCTIONS_TOTAL = "repro_instructions_total"
PREDICTOR_PREDICTIONS_TOTAL = "repro_predictor_predictions_total"
PREDICTOR_GLOBAL_FALLBACKS_TOTAL = "repro_predictor_global_fallbacks_total"
COHERENCE_C2C_TRANSFERS_TOTAL = "repro_coherence_c2c_transfers_total"
COHERENCE_INVALIDATIONS_TOTAL = "repro_coherence_invalidations_total"

# --- off-load engine: gauges -----------------------------------------
THROUGHPUT_IPC = "repro_throughput_ipc"
OFFLOAD_RATE = "repro_offload_rate"
MEAN_QUEUE_DELAY_CYCLES = "repro_mean_queue_delay_cycles"
OS_CORE_BUSY_FRACTION = "repro_os_core_busy_fraction"
PREDICTOR_BINARY_ACCURACY = "repro_predictor_binary_accuracy"
MEAN_L2_HIT_RATE = "repro_mean_l2_hit_rate"

# --- open-loop service subsystem -------------------------------------
REPRO_SERVICE_LATENCY_CYCLES = "repro_service_latency_cycles"
REPRO_SERVICE_REQUESTS_TOTAL = "repro_service_requests_total"
REPRO_SERVICE_DROPS_TOTAL = "repro_service_drops_total"
REPRO_SERVICE_QUEUE_CYCLES_TOTAL = "repro_service_queue_cycles_total"
REPRO_SERVICE_MIGRATION_CYCLES_TOTAL = "repro_service_migration_cycles_total"
REPRO_SERVICE_EXECUTION_CYCLES_TOTAL = "repro_service_execution_cycles_total"
REPRO_SERVICE_LATENCY_P50_CYCLES = "repro_service_latency_p50_cycles"
REPRO_SERVICE_LATENCY_P99_CYCLES = "repro_service_latency_p99_cycles"
REPRO_SERVICE_LATENCY_P999_CYCLES = "repro_service_latency_p999_cycles"
REPRO_SERVICE_OS_CORES = "repro_service_os_cores"

# --- batch runner ----------------------------------------------------
RUNNER_JOBS_TOTAL = "runner_jobs_total"
RUNNER_JOBS_COMPLETED = "runner_jobs_completed"
RUNNER_JOBS_FAILED = "runner_jobs_failed"
RUNNER_JOBS_SKIPPED = "runner_jobs_skipped"
RUNNER_RETRIES_TOTAL = "runner_retries_total"
RUNNER_WORKERS = "runner_workers"
RUNNER_JOB_SECONDS = "runner_job_seconds"

# --- live sweep telemetry --------------------------------------------
RUNNER_CELL_STARTED_TOTAL = "runner_cell_started_total"
RUNNER_CELL_RETRIED_TOTAL = "runner_cell_retried_total"
RUNNER_CELLS_RUNNING = "runner_cells_running"
RUNNER_CELLS_STALLED = "runner_cells_stalled"
RUNNER_HEARTBEATS_TOTAL = "runner_heartbeats_total"

# --- span profiler roll-ups ------------------------------------------
REPRO_SPAN_SELF_SECONDS_TOTAL = "repro_span_self_seconds_total"
REPRO_SPAN_CALLS_TOTAL = "repro_span_calls_total"

# --- trace & result cache --------------------------------------------
REPRO_CACHE_TRACE_HITS_TOTAL = "repro_cache_trace_hits_total"
REPRO_CACHE_TRACE_MISSES_TOTAL = "repro_cache_trace_misses_total"
REPRO_CACHE_RESULT_HITS_TOTAL = "repro_cache_result_hits_total"
REPRO_CACHE_RESULT_MISSES_TOTAL = "repro_cache_result_misses_total"
REPRO_CACHE_READ_BYTES_TOTAL = "repro_cache_read_bytes_total"
REPRO_CACHE_WRITTEN_BYTES_TOTAL = "repro_cache_written_bytes_total"
REPRO_CACHE_TAPE_HITS_TOTAL = "repro_cache_tape_hits_total"
REPRO_CACHE_TAPE_MISSES_TOTAL = "repro_cache_tape_misses_total"
REPRO_CACHE_PRIMED_HITS_TOTAL = "repro_cache_primed_hits_total"
REPRO_CACHE_PRIMED_MISSES_TOTAL = "repro_cache_primed_misses_total"

# --- span names (closed registry for repro.obs.spans; rule R305) ----
SPAN_CELL = "cell"
SPAN_CELL_SETUP = "cell.setup"
SPAN_CELL_BASELINE = "cell.baseline"
SPAN_CELL_POLICY = "cell.policy"
SPAN_CELL_SIMULATE = "cell.simulate"
SPAN_CELL_RESULT_CACHE = "cell.result_cache"
SPAN_SIM_PRIME = "sim.prime"
SPAN_SIM_WARMUP = "sim.warmup"
SPAN_SIM_ROI = "sim.roi"
SPAN_GEN_GENERATE = "sim.trace.generate"
SPAN_GEN_REPLAY = "sim.trace.replay"
SPAN_MEM_BATCHED = "sim.mem.batched"
# Never emitted; kept only because perfbench/run.py reads it (the next benchmark change can drop it).
SPAN_MEM_SCALAR = "sim.mem.scalar"
# Never emitted; kept only because perfbench/run.py reads it (the next benchmark change can drop it).
SPAN_MEM_COLUMNAR = "sim.mem.columnar"
# Never emitted; kept only because perfbench/run.py reads it (the next benchmark change can drop it).
SPAN_MEM_MISS = "sim.mem.miss"
SPAN_QUEUE = "sim.queue"
SPAN_POLICY_DECIDE = "sim.policy"

__all__ = [
    "QUEUE_DELAY_CYCLES",
    "OS_INVOCATION_LENGTH_INSTRUCTIONS",
    "OS_ENTRIES_TOTAL",
    "OFFLOADS_TOTAL",
    "OS_INSTRUCTIONS_TOTAL",
    "OFFLOADED_INSTRUCTIONS_TOTAL",
    "INSTRUCTIONS_TOTAL",
    "PREDICTOR_PREDICTIONS_TOTAL",
    "PREDICTOR_GLOBAL_FALLBACKS_TOTAL",
    "COHERENCE_C2C_TRANSFERS_TOTAL",
    "COHERENCE_INVALIDATIONS_TOTAL",
    "THROUGHPUT_IPC",
    "OFFLOAD_RATE",
    "MEAN_QUEUE_DELAY_CYCLES",
    "OS_CORE_BUSY_FRACTION",
    "PREDICTOR_BINARY_ACCURACY",
    "MEAN_L2_HIT_RATE",
    "REPRO_SERVICE_LATENCY_CYCLES",
    "REPRO_SERVICE_REQUESTS_TOTAL",
    "REPRO_SERVICE_DROPS_TOTAL",
    "REPRO_SERVICE_QUEUE_CYCLES_TOTAL",
    "REPRO_SERVICE_MIGRATION_CYCLES_TOTAL",
    "REPRO_SERVICE_EXECUTION_CYCLES_TOTAL",
    "REPRO_SERVICE_LATENCY_P50_CYCLES",
    "REPRO_SERVICE_LATENCY_P99_CYCLES",
    "REPRO_SERVICE_LATENCY_P999_CYCLES",
    "REPRO_SERVICE_OS_CORES",
    "RUNNER_JOBS_TOTAL",
    "RUNNER_JOBS_COMPLETED",
    "RUNNER_JOBS_FAILED",
    "RUNNER_JOBS_SKIPPED",
    "RUNNER_RETRIES_TOTAL",
    "RUNNER_WORKERS",
    "RUNNER_JOB_SECONDS",
    "RUNNER_CELL_STARTED_TOTAL",
    "RUNNER_CELL_RETRIED_TOTAL",
    "RUNNER_CELLS_RUNNING",
    "RUNNER_CELLS_STALLED",
    "RUNNER_HEARTBEATS_TOTAL",
    "REPRO_SPAN_SELF_SECONDS_TOTAL",
    "REPRO_SPAN_CALLS_TOTAL",
    "REPRO_CACHE_TRACE_HITS_TOTAL",
    "REPRO_CACHE_TRACE_MISSES_TOTAL",
    "REPRO_CACHE_RESULT_HITS_TOTAL",
    "REPRO_CACHE_RESULT_MISSES_TOTAL",
    "REPRO_CACHE_READ_BYTES_TOTAL",
    "REPRO_CACHE_WRITTEN_BYTES_TOTAL",
    "REPRO_CACHE_TAPE_HITS_TOTAL",
    "REPRO_CACHE_TAPE_MISSES_TOTAL",
    "SPAN_CELL",
    "SPAN_CELL_SETUP",
    "SPAN_CELL_BASELINE",
    "SPAN_CELL_POLICY",
    "SPAN_CELL_SIMULATE",
    "SPAN_CELL_RESULT_CACHE",
    "SPAN_SIM_PRIME",
    "SPAN_SIM_WARMUP",
    "SPAN_SIM_ROI",
    "SPAN_GEN_GENERATE",
    "SPAN_GEN_REPLAY",
    "SPAN_MEM_BATCHED",
    "SPAN_QUEUE",
    "SPAN_POLICY_DECIDE",
]
