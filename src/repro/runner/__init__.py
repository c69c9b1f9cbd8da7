"""repro.runner — parallel batch execution of simulation grids.

Every paper artifact is a grid of independent simulation cells; this
subsystem executes such grids fast and safely:

- :class:`JobSpec` / :class:`JobResult` / :class:`BatchResult` — the
  job model (one cell = workload x policy x threshold x latency x
  config x seed, identified by a stable ``job_id``);
- :func:`derive_seed` — deterministic per-job seed derivation from a
  single root seed (SHA-256 based, order- and worker-count-independent);
- :class:`BatchRunner` — the scheduler: serial reference path
  (``jobs=1``) or a sharded
  :class:`~concurrent.futures.ProcessPoolExecutor` pool, with per-job
  timeout/retry, captured-traceback failure records, and ``runner_*``
  metrics in a :class:`~repro.obs.metrics.MetricsRegistry`;
- :class:`BaselineStore` — the process-safe on-disk baseline memo
  under a cache root's ``baselines/`` section;
- :class:`TelemetryWriter` / :class:`TelemetryReader` /
  :class:`SweepMonitor` — live sweep telemetry: worker heartbeats and
  lifecycle records on disk, folded into the stall-aware progress
  snapshot behind ``repro serve``.  A :class:`SweepMonitor` is also
  the one observer of a batch's started/retried/finished transitions.

See ``docs/parallelism.md`` for the architecture, re-running a killed
grid on its cache root, and determinism guarantees.
"""

from repro.runner.baselines import BaselineStore
from repro.runner.jobspec import (
    BatchResult,
    JobResult,
    JobSpec,
    config_fingerprint,
    config_from_payload,
    config_to_payload,
    derive_seed,
)
from repro.runner.scheduler import BatchRunner, shard_jobs
from repro.runner.telemetry import (
    SweepMonitor,
    TelemetryReader,
    TelemetryWriter,
    read_grid_manifest,
    write_grid_manifest,
)
from repro.runner.worker import JobTimeout, execute_job

__all__ = [
    "BaselineStore",
    "BatchResult",
    "BatchRunner",
    "JobResult",
    "JobSpec",
    "JobTimeout",
    "SweepMonitor",
    "TelemetryReader",
    "TelemetryWriter",
    "config_fingerprint",
    "config_from_payload",
    "config_to_payload",
    "derive_seed",
    "execute_job",
    "read_grid_manifest",
    "shard_jobs",
    "write_grid_manifest",
]
