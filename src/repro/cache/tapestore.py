"""The tape level of the cache: memory tapes shared by latency twins.

A grid cell that differs from another only in migration latency — its
*latency twin* — drives the memory hierarchy through exactly the same
calls when the run is single-core and closed-loop
(:func:`~repro.offload.engine.memory_tape_eligible`).  The batch worker
records the first twin's memory side as a
:class:`~repro.offload.engine.MemoryTape` and keeps it here; the later
twins replay it instead of simulating the hierarchy again.

Tapes live only in process memory, in a byte-bounded LRU that every
batch worker keeps among its handles in :mod:`repro.runner.worker`,
with a cache root or without one; forgetting the handles drops the
tapes too.  Nothing is written to disk: twins that land in
different worker processes each simulate their memory side, which
costs time and never changes a number.  The store treats tapes as
opaque values with an ``nbytes`` size and keeps only tapes whose
recording run succeeded — the worker puts a tape after ``simulate``
returns.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, Optional

#: In-process bytes of tapes kept per worker level.  A DEFAULT-profile
#: tape holds about 1,300 calls in 31 KB, so this keeps hundreds: a
#: serial fig. 4 sweep needs one per threshold of the workload in
#: flight.  A tape grows with the scale profile's instruction budget.
DEFAULT_TAPE_BYTES = 32 * 2**20


class TapeStore:
    """In-process LRU of recorded memory tapes keyed by latency-twin key.

    ``counters`` tracks ``tape_hits`` and ``tape_misses``; the batch
    worker folds them into each cell's ``cache_counters``.
    """

    def __init__(self) -> None:
        self._lru: "OrderedDict[str, Any]" = OrderedDict()
        self._bytes = 0
        self.counters: Dict[str, int] = {"tape_hits": 0, "tape_misses": 0}

    def get(self, key: str) -> Optional[Any]:
        """The tape recorded under ``key``, or ``None`` (counted either way)."""
        tape = self._lru.get(key)
        if tape is None:
            self.counters["tape_misses"] += 1
            return None
        self._lru.move_to_end(key)
        self.counters["tape_hits"] += 1
        return tape

    def put(self, key: str, tape: Any) -> None:
        """Keep a recorded tape, evicting the least recently used ones."""
        old = self._lru.pop(key, None)
        if old is not None:
            self._bytes -= old.nbytes
        self._lru[key] = tape
        self._bytes += tape.nbytes
        while self._bytes > DEFAULT_TAPE_BYTES:
            _, evicted = self._lru.popitem(last=False)
            self._bytes -= evicted.nbytes
