"""Process-safe persistence of memoised baseline runs.

Every normalized number in the evaluation divides by the same
uni-processor baseline, so a naive parallel batch would re-simulate that
baseline once per worker process.  :class:`BaselineStore` shares the
memo across processes through the filesystem: one JSON file per
(workload, configuration) pair under a cache root's ``baselines/``
section, written atomically (temp file + ``os.replace``) so concurrent workers can race
on the same key without torn reads.

Because baselines are pure functions of (workload spec, config, seed),
two workers that race simply compute the same value and the second
``os.replace`` is a no-op overwrite — no locking is needed for
correctness, only atomicity for readers.
"""

from __future__ import annotations

import json
import logging
import os
import tempfile
from typing import Optional

from repro.runner.jobspec import config_fingerprint
from repro.sim.config import SimulatorConfig

logger = logging.getLogger(__name__)


class BaselineStore:
    """Directory-backed map of (workload, config) -> baseline throughput."""

    def __init__(self, directory: str):
        self.directory = directory
        os.makedirs(directory, exist_ok=True)

    def _path(self, workload: str, config: SimulatorConfig) -> str:
        name = f"baseline-{workload}-{config_fingerprint(config)}.json"
        return os.path.join(self.directory, name)

    def get(self, workload: str, config: SimulatorConfig) -> Optional[float]:
        try:
            with open(self._path(workload, config)) as handle:
                record = json.load(handle)
        except FileNotFoundError:
            return None
        except (OSError, ValueError) as error:
            # A half-written or corrupt entry is recomputed, not fatal.
            logger.warning("ignoring unreadable baseline entry: %s", error)
            return None
        return float(record["throughput"])

    def put(self, workload: str, config: SimulatorConfig, throughput: float) -> None:
        path = self._path(workload, config)
        fd, tmp = tempfile.mkstemp(
            dir=self.directory, prefix=".baseline-", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(
                    {
                        "workload": workload,
                        "seed": config.seed,
                        "profile": config.profile.name,
                        "throughput": throughput,
                    },
                    handle,
                )
            os.replace(tmp, path)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
