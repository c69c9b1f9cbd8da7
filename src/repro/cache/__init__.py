"""repro.cache — two-level content-addressed cache for the simulator.

Level 1 (:class:`~repro.cache.tracestore.TraceStore`) materializes
``TraceGenerator`` streams once per ``(workload, profile, seed,
thread)`` key and replays them bit-identically into the engines; level
2 (:class:`~repro.cache.resultstore.ResultStore`) memoizes whole
``simulate()`` outcomes on the runner's config fingerprint.  Key
derivation lives in :mod:`repro.cache.keys`, root resolution and
layout in :mod:`repro.cache.paths`, and the ``repro cache`` CLI's
stats/gc/clear in :mod:`repro.cache.maintenance`.

Caching is opt-in at the library level: everything accepts
``trace_store=None`` / ``cache_dir=None`` and behaves exactly as
before when unset.  The CLI defaults the parallel experiment commands
to the shared root from :func:`~repro.cache.paths.resolve_cache_root`.
"""

from repro.cache.keys import (
    CACHE_SCHEMA_VERSION,
    prime_key,
    result_key,
    trace_key,
)
from repro.cache.maintenance import cache_clear, cache_gc, cache_stats
from repro.cache.paths import (
    CACHE_ENV_VAR,
    DEFAULT_CACHE_ROOT,
    baselines_dir,
    resolve_cache_root,
)
from repro.cache.resultstore import ResultStore
from repro.cache.tracestore import TraceStore
from repro.workloads.generator import PRIMING_SEED_OFFSET

__all__ = [
    "CACHE_ENV_VAR",
    "CACHE_SCHEMA_VERSION",
    "DEFAULT_CACHE_ROOT",
    "PRIMING_SEED_OFFSET",
    "ResultStore",
    "TraceStore",
    "baselines_dir",
    "cache_clear",
    "cache_gc",
    "cache_stats",
    "prime_key",
    "resolve_cache_root",
    "result_key",
    "trace_key",
]
