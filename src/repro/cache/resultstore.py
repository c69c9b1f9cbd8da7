"""Level 2 of the cache: memoized ``simulate()`` outcomes.

A grid cell's metrics are a pure function of its job identity (the
``job_id`` encodes workload/policy/threshold/migration/N) and the
config fingerprint from :func:`~repro.runner.jobspec.config_fingerprint`.
:class:`ResultStore` keys one small JSON file per outcome on exactly
that pair, so re-running a grid (or an overlapping one) under an
unchanged fingerprint returns stored metrics without touching the
simulator at all.  That makes the store the runner's one record of
finished cells: a killed grid finishes by running again on its root.

Entries are self-describing: the manifest repeats the schema version,
job id and fingerprint, and a read validates all three before trusting
the metrics — a stale or corrupt entry degrades to a miss with a
warning, never a crash.  Writes go through the temp-file +
``os.replace`` dance so concurrent workers racing on a key are safe
(both write identical content; last replace wins).
"""

from __future__ import annotations

import json
import logging
import os
import tempfile
from typing import Any, Dict, Optional

from repro.cache.keys import CACHE_SCHEMA_VERSION, RESULT_KIND, result_key
from repro.cache.paths import RESULTS_SUBDIR
from repro.errors import JobTimeout

logger = logging.getLogger(__name__)


class ResultStore:
    """Directory-backed memo of per-cell metrics dicts."""

    def __init__(self, root: str):
        self.root = root
        self.directory = os.path.join(root, RESULTS_SUBDIR)
        os.makedirs(self.directory, exist_ok=True)
        self.counters: Dict[str, int] = {
            "result_hits": 0,
            "result_misses": 0,
            "bytes_read": 0,
            "bytes_written": 0,
        }

    def _path(self, key: str) -> str:
        return os.path.join(self.directory, key + ".json")

    def get(
        self, job_id: str, config_fingerprint: str
    ) -> Optional[Dict[str, float]]:
        """Stored metrics for this cell, or ``None`` (counted as a miss)."""
        key = result_key(job_id, config_fingerprint)
        path = self._path(key)
        try:
            size = os.path.getsize(path)
            with open(path) as handle:
                entry = json.load(handle)
        except FileNotFoundError:
            self.counters["result_misses"] += 1
            return None
        except (OSError, ValueError) as error:
            logger.warning(
                "ignoring unreadable result-cache entry %s: %r", key, error
            )
            self.counters["result_misses"] += 1
            return None
        if (
            not isinstance(entry, dict)
            or entry.get("schema") != CACHE_SCHEMA_VERSION
            or entry.get("kind") != RESULT_KIND
            or entry.get("job_id") != job_id
            or entry.get("config") != config_fingerprint
            or not isinstance(entry.get("metrics"), dict)
        ):
            logger.warning(
                "ignoring stale result-cache entry %s (schema/key mismatch)",
                key,
            )
            self.counters["result_misses"] += 1
            return None
        self.counters["result_hits"] += 1
        self.counters["bytes_read"] += size
        return dict(entry["metrics"])

    def put(
        self,
        job_id: str,
        config_fingerprint: str,
        metrics: Dict[str, float],
    ) -> None:
        """Persist one cell's metrics; failures warn and degrade."""
        key = result_key(job_id, config_fingerprint)
        entry: Dict[str, Any] = {
            "schema": CACHE_SCHEMA_VERSION,
            "kind": RESULT_KIND,
            "job_id": job_id,
            "config": config_fingerprint,
            "metrics": metrics,
        }
        path = self._path(key)
        try:
            fd, tmp = tempfile.mkstemp(
                dir=self.directory, prefix=".result-", suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "w") as handle:
                    json.dump(entry, handle)
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
            self.counters["bytes_written"] += os.path.getsize(path)
        except JobTimeout:
            raise
        except Exception as error:
            logger.warning(
                "could not persist result-cache entry %s: %r", key, error
            )
