"""JSONL checkpoint manifest for interruptible batches.

The manifest is an append-only JSON-lines file inside the checkpoint
directory: a ``header`` record identifying the batch (format version,
root seed, profile name, cell count, and the batch fingerprint of the
exact grid + configuration) followed by one ``result`` record per
completed cell, flushed as soon as the cell finishes.  Append-only +
flush-per-record means a killed batch loses at most the cells that were
in flight; everything recorded is recoverable.

On resume the header is re-validated against the current batch: a
manifest written for a different grid, seed, or configuration is an
error, never a silent partial answer.  Records whose job id is not in
the current grid are likewise rejected.  A missing or empty manifest is
*not* an error — ``--resume`` on a fresh directory simply runs the whole
batch, so callers can use one flag for both first runs and restarts.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, IO, List, Optional, Tuple

from repro.cache.paths import baselines_dir
from repro.errors import ReproError
from repro.runner.jobspec import MANIFEST_FORMAT_VERSION, JobResult

MANIFEST_NAME = "manifest.jsonl"


class CheckpointManifest:
    """Reader/writer for one checkpoint directory's manifest."""

    def __init__(self, directory: str):
        self.directory = directory
        self.path = os.path.join(directory, MANIFEST_NAME)
        self._handle: Optional[IO[str]] = None

    @property
    def baselines_dir(self) -> str:
        """Persisted baseline runs, laid out like a cache root's."""
        return baselines_dir(self.directory)

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------

    def load(self) -> Tuple[Optional[Dict[str, Any]], Dict[str, Dict[str, Any]]]:
        """Read ``(header, {job_id: result record})`` from disk.

        Returns ``(None, {})`` when the manifest does not exist yet.  A
        trailing partial line (the record being written when the batch
        was killed) is ignored; any other malformed content is an error.
        """
        if not os.path.exists(self.path):
            return None, {}
        header: Optional[Dict[str, Any]] = None
        records: Dict[str, Dict[str, Any]] = {}
        with open(self.path) as handle:
            lines = handle.read().splitlines()
        for index, line in enumerate(lines):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except ValueError as error:
                if index == len(lines) - 1:
                    break  # torn final record from an interrupted write
                raise ReproError(
                    f"corrupt checkpoint manifest {self.path} "
                    f"(line {index + 1}): {error}"
                ) from error
            kind = record.get("kind")
            if kind == "header":
                if header is not None:
                    raise ReproError(
                        f"checkpoint manifest {self.path} has two headers"
                    )
                header = record
            elif kind == "result":
                records[record["job_id"]] = record
            else:
                raise ReproError(
                    f"checkpoint manifest {self.path} has unknown record "
                    f"kind {kind!r}"
                )
        if header is None and records:
            raise ReproError(
                f"checkpoint manifest {self.path} is missing its header"
            )
        return header, records

    def load_completed(
        self, fingerprint: str, valid_ids: List[str]
    ) -> Dict[str, JobResult]:
        """Validated resume: completed cells of *this* batch only.

        Only successfully measured cells are returned — a cell that
        failed in the interrupted run is re-executed on resume rather
        than resurrected as a failure.
        """
        header, records = self.load()
        if header is None:
            return {}
        if header.get("format_version") != MANIFEST_FORMAT_VERSION:
            raise ReproError(
                f"checkpoint {self.path} uses manifest format "
                f"{header.get('format_version')!r}; this build expects "
                f"{MANIFEST_FORMAT_VERSION}"
            )
        if header.get("batch_fingerprint") != fingerprint:
            raise ReproError(
                f"checkpoint {self.path} was written for a different batch "
                f"(fingerprint {header.get('batch_fingerprint')!r} != "
                f"{fingerprint!r}); refusing to mix results across grids"
            )
        known = set(valid_ids)
        completed: Dict[str, JobResult] = {}
        for job_id, record in records.items():
            if job_id not in known:
                raise ReproError(
                    f"checkpoint {self.path} contains job {job_id!r} that is "
                    "not part of the current batch"
                )
            result = JobResult.from_record(record, resumed=True)
            if result.ok:
                completed[job_id] = result
        return completed

    # ------------------------------------------------------------------
    # writing
    # ------------------------------------------------------------------

    def open_for_append(self, header: Dict[str, Any], fresh: bool) -> None:
        """Open the manifest for appending; write the header if new.

        ``fresh`` truncates any existing manifest (a non-resume run
        reusing a checkpoint directory starts over).
        """
        os.makedirs(self.directory, exist_ok=True)
        exists = os.path.exists(self.path) and not fresh
        self._handle = open(self.path, "a" if exists else "w")
        if not exists:
            self._write({"kind": "header",
                         "format_version": MANIFEST_FORMAT_VERSION, **header})

    def append(self, result: JobResult) -> None:
        if self._handle is None:
            raise ReproError("checkpoint manifest is not open for writing")
        self._write(result.to_record())

    def _write(self, record: Dict[str, Any]) -> None:
        assert self._handle is not None
        self._handle.write(json.dumps(record) + "\n")
        self._handle.flush()

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "CheckpointManifest":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
