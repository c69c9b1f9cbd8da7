"""Level 1 of the cache: materialized workload traces (generate once).

A :class:`~repro.workloads.generator.TraceGenerator` stream is a pure
function of (workload spec, scale profile, seed, thread id) — none of
the knobs a grid sweeps (policy, threshold, migration latency, core
count) reach the generator's RNG.  Every cell of a fig4/fig5
grid therefore consumes the *same* per-thread stream, and today each
cell regenerates it from scratch.

:class:`TraceStore` materializes a stream exactly once per key: the
full event list (the engine's ``budget * 2 + 1`` request, recorded in
the manifest and re-checked on load) together with every per-event
reference array, drawn in the engine's exact order — data accesses
first, then instruction fetches when ``enable_icache`` is on.  Because
the recorder consumes the generator precisely as the engine would, a
replayed trace is bit-identical to a live one: same events, same
arrays, same downstream LRU/MESI state (the golden suite pins this).

The policy-priming stream (a separate generator at ``seed +
PRIMING_SEED_OFFSET``; see ``OffloadEngine._prime_policy``) is cached
the same way under its own key — it is pure event generation and
costs as much as the timed trace at small scale profiles.

Storage is one ``.npz`` (uncompressed; these are hot files) plus one
JSON manifest per key, written atomically (temp file + ``os.replace``)
so concurrent batch workers can race on a key: both compute the same
bytes and the second replace is a no-op overwrite.  A corrupt or
truncated entry is *never* fatal — it logs a warning and the store
falls back to live generation.  An in-process LRU keeps decoded
entries hot across the cells of a shard.
"""

from __future__ import annotations

import json
import logging
import os
import tempfile
from collections import OrderedDict
from typing import Any, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.cache.keys import (
    CACHE_SCHEMA_VERSION,
    PRIME_KIND,
    TRACE_KIND,
    prime_key,
    trace_key,
)
from repro.cache.paths import TRACES_SUBDIR
from repro.cpu.registers import ArchitectedState
from repro.sim.config import ScaleProfile, SimulatorConfig
from repro.workloads.base import OSInvocation, UserSegment, WorkloadSpec
from repro.workloads.generator import (
    PRIMING_SEED_OFFSET,
    TraceEvent,
    TraceGenerator,
)

logger = logging.getLogger(__name__)

#: Decoded entries kept hot per process.  Sized for the report grids
#: (six workloads round-robin across a shard) while bounding memory:
#: a DEFAULT_SCALE entry is a few MB.
DEFAULT_LRU_ENTRIES = 8

_EMPTY_LINES = np.empty(0, dtype=np.int64)
_EMPTY_WRITES = np.empty(0, dtype=bool)
_EMPTY_STARTS = np.zeros(1, dtype=np.int64)


class _TraceData:
    """One decoded entry: the event tuple plus flattened access streams."""

    __slots__ = (
        "kind", "budget", "events", "data_lines", "data_writes",
        "data_starts", "code_lines", "code_starts", "priming_target",
    )

    def __init__(
        self,
        kind: str,
        budget: int,
        events: Tuple[TraceEvent, ...],
        data_lines: np.ndarray,
        data_writes: np.ndarray,
        data_starts: np.ndarray,
        code_lines: Optional[np.ndarray],
        code_starts: Optional[np.ndarray],
        priming_target: int = 0,
    ):
        self.kind = kind
        self.budget = budget
        self.events = events
        self.data_lines = data_lines
        self.data_writes = data_writes
        self.data_starts = data_starts
        self.code_lines = code_lines
        self.code_starts = code_starts
        self.priming_target = priming_target

    def data_at(self, index: int) -> Tuple[np.ndarray, np.ndarray]:
        start = self.data_starts[index]
        stop = self.data_starts[index + 1]
        return self.data_lines[start:stop], self.data_writes[start:stop]

    def code_at(self, index: int) -> np.ndarray:
        assert self.code_lines is not None and self.code_starts is not None
        return self.code_lines[self.code_starts[index]:self.code_starts[index + 1]]


class _ReplayTrace:
    """Duck-types :class:`TraceGenerator` over a materialized entry.

    The engine consumes a generator as ``next(events)`` followed by the
    event's data draw and (with icache) its code draw — always in that
    order, on every path.  A single event cursor therefore suffices:
    each access method returns the arrays recorded for the most
    recently yielded event.  One cursor per engine context; the decoded
    entry itself is shared read-only (nothing downstream mutates the
    arrays in place).
    """

    __slots__ = ("_data", "_index")

    def __init__(self, data: _TraceData):
        self._data = data
        self._index = -1

    def events(self, instruction_budget: int) -> Iterator[TraceEvent]:
        # The store validated ``instruction_budget`` against the
        # manifest before handing out this replay.
        return self._iter()

    def _iter(self) -> Iterator[TraceEvent]:
        for index, event in enumerate(self._data.events):
            self._index = index
            yield event

    def user_accesses(self, instructions: int) -> Tuple[np.ndarray, np.ndarray]:
        return self._data.data_at(self._index)

    def os_accesses(self, invocation: OSInvocation) -> Tuple[np.ndarray, np.ndarray]:
        return self._data.data_at(self._index)

    def user_code_accesses(self, instructions: int) -> np.ndarray:
        return self._data.code_at(self._index)

    def os_code_accesses(self, invocation: OSInvocation) -> np.ndarray:
        return self._data.code_at(self._index)


# ----------------------------------------------------------------------
# materialization (the recorder)
# ----------------------------------------------------------------------

def _starts(counts: List[int]) -> np.ndarray:
    starts = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(np.asarray(counts, dtype=np.int64), out=starts[1:])
    return starts


def _concat(parts: List[np.ndarray], empty: np.ndarray) -> np.ndarray:
    return np.concatenate(parts) if parts else empty.copy()


def _materialize_trace(
    spec: WorkloadSpec,
    profile: ScaleProfile,
    seed: int,
    thread_id: int,
    instruction_budget: int,
    icache: bool,
) -> _TraceData:
    """Record one thread's full stream, consuming the RNG as the engine does."""
    generator = TraceGenerator(spec, profile, seed=seed, thread_id=thread_id)
    events: List[TraceEvent] = []
    lines_parts: List[np.ndarray] = []
    writes_parts: List[np.ndarray] = []
    data_counts: List[int] = []
    code_parts: List[np.ndarray] = []
    code_counts: List[int] = []
    for event in generator.events(instruction_budget):
        events.append(event)
        if isinstance(event, UserSegment):
            lines, writes = generator.user_accesses(event.instructions)
            code = generator.user_code_accesses(event.instructions) if icache else None
        else:
            lines, writes = generator.os_accesses(event)
            code = generator.os_code_accesses(event) if icache else None
        lines_parts.append(lines)
        writes_parts.append(writes)
        data_counts.append(len(lines))
        if code is not None:
            code_parts.append(code)
            code_counts.append(len(code))
    return _TraceData(
        kind=TRACE_KIND,
        budget=instruction_budget,
        events=tuple(events),
        data_lines=_concat(lines_parts, _EMPTY_LINES),
        data_writes=_concat(writes_parts, _EMPTY_WRITES),
        data_starts=_starts(data_counts),
        code_lines=_concat(code_parts, _EMPTY_LINES) if icache else None,
        code_starts=_starts(code_counts) if icache else None,
    )


def _materialize_priming(
    spec: WorkloadSpec, profile: ScaleProfile, seed: int, target: int
) -> _TraceData:
    """Record the priming invocation stream.

    Recording counts only non-window-trap invocations (but keeps the
    traps in the stream), so the entry primes a policy correctly both
    with and without ``include_window_traps``: the trap-counting
    consumer reaches its quota no later than the recorder did.
    """
    generator = TraceGenerator(spec, profile, seed=seed)
    events: List[TraceEvent] = []
    seen = 0
    for event in generator.events(2 ** 62):
        if not isinstance(event, OSInvocation):
            continue
        events.append(event)
        if not event.is_window_trap:
            seen += 1
            if seen >= target:
                break
    return _TraceData(
        kind=PRIME_KIND,
        budget=0,
        events=tuple(events),
        data_lines=_EMPTY_LINES.copy(),
        data_writes=_EMPTY_WRITES.copy(),
        data_starts=np.zeros(len(events) + 1, dtype=np.int64),
        code_lines=None,
        code_starts=None,
        priming_target=target,
    )


# ----------------------------------------------------------------------
# serialisation
# ----------------------------------------------------------------------

def _encode(data: _TraceData) -> Tuple[Dict[str, np.ndarray], Dict[str, Any]]:
    count = len(data.events)
    kinds = np.zeros(count, dtype=np.uint8)
    lengths = np.zeros(count, dtype=np.int64)
    invocations: List[OSInvocation] = []
    for index, event in enumerate(data.events):
        if isinstance(event, UserSegment):
            lengths[index] = event.instructions
        else:
            kinds[index] = 1
            lengths[index] = event.length
            invocations.append(event)
    names = sorted({inv.name for inv in invocations})
    name_index = {name: position for position, name in enumerate(names)}
    arrays: Dict[str, np.ndarray] = {
        "kinds": kinds,
        "lengths": lengths,
        "data_starts": data.data_starts,
        "data_lines": data.data_lines,
        "data_writes": data.data_writes,
        "inv_vector": np.array([i.vector for i in invocations], dtype=np.int64),
        "inv_name": np.array([name_index[i.name] for i in invocations], dtype=np.int64),
        "inv_pstate": np.array([i.astate.pstate for i in invocations], dtype=np.int64),
        "inv_g0": np.array([i.astate.g0 for i in invocations], dtype=np.int64),
        "inv_g1": np.array([i.astate.g1 for i in invocations], dtype=np.int64),
        "inv_i0": np.array([i.astate.i0 for i in invocations], dtype=np.int64),
        "inv_i1": np.array([i.astate.i1 for i in invocations], dtype=np.int64),
        "inv_pre": np.array(
            [i.pre_interrupt_length for i in invocations], dtype=np.int64
        ),
        "inv_size": np.array([i.size_units for i in invocations], dtype=np.int64),
        "inv_shared": np.array(
            [i.shared_fraction for i in invocations], dtype=np.float64
        ),
        "inv_flags": np.array(
            [
                (1 if i.is_window_trap else 0)
                | (2 if i.is_interrupt else 0)
                | (4 if i.interrupts_enabled else 0)
                for i in invocations
            ],
            dtype=np.uint8,
        ),
    }
    icache = data.code_lines is not None
    if icache:
        arrays["code_starts"] = data.code_starts
        arrays["code_lines"] = data.code_lines
    manifest = {
        "schema": CACHE_SCHEMA_VERSION,
        "kind": data.kind,
        "budget": data.budget,
        "events": count,
        "invocations": len(invocations),
        "names": names,
        "icache": icache,
        "priming_target": data.priming_target,
    }
    return arrays, manifest


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


def _decode(manifest: Dict[str, Any], arrays: Dict[str, np.ndarray]) -> _TraceData:
    count = int(manifest["events"])
    names = manifest["names"]
    kinds = arrays["kinds"]
    lengths = arrays["lengths"]
    _require(kinds.shape == (count,), "event kind array truncated")
    _require(lengths.shape == (count,), "event length array truncated")
    data_starts = arrays["data_starts"]
    data_lines = arrays["data_lines"]
    data_writes = arrays["data_writes"]
    _require(data_starts.shape == (count + 1,), "data offsets truncated")
    _require(data_lines.dtype == np.int64, "data line dtype mismatch")
    _require(data_writes.dtype == np.bool_, "data write dtype mismatch")
    _require(
        data_lines.shape[0] == int(data_starts[-1])
        and data_writes.shape[0] == data_lines.shape[0],
        "data stream truncated",
    )
    icache = bool(manifest["icache"])
    code_lines = code_starts = None
    if icache:
        code_starts = arrays["code_starts"]
        code_lines = arrays["code_lines"]
        _require(code_starts.shape == (count + 1,), "code offsets truncated")
        _require(code_lines.dtype == np.int64, "code line dtype mismatch")
        _require(
            code_lines.shape[0] == int(code_starts[-1]), "code stream truncated"
        )
    total = int(manifest["invocations"])
    fields = {
        name: arrays[name]
        for name in (
            "inv_vector", "inv_name", "inv_pstate", "inv_g0", "inv_g1",
            "inv_i0", "inv_i1", "inv_pre", "inv_size", "inv_shared",
            "inv_flags",
        )
    }
    for name, array in fields.items():
        _require(array.shape == (total,), f"{name} array truncated")
    events: List[TraceEvent] = []
    position = 0
    for index in range(count):
        if kinds[index] == 0:
            events.append(UserSegment(instructions=int(lengths[index])))
            continue
        _require(position < total, "invocation array shorter than event stream")
        flags = int(fields["inv_flags"][position])
        events.append(OSInvocation(
            vector=int(fields["inv_vector"][position]),
            name=names[int(fields["inv_name"][position])],
            astate=ArchitectedState(
                pstate=int(fields["inv_pstate"][position]),
                g0=int(fields["inv_g0"][position]),
                g1=int(fields["inv_g1"][position]),
                i0=int(fields["inv_i0"][position]),
                i1=int(fields["inv_i1"][position]),
            ),
            length=int(lengths[index]),
            pre_interrupt_length=int(fields["inv_pre"][position]),
            shared_fraction=float(fields["inv_shared"][position]),
            is_window_trap=bool(flags & 1),
            is_interrupt=bool(flags & 2),
            interrupts_enabled=bool(flags & 4),
            size_units=int(fields["inv_size"][position]),
        ))
        position += 1
    _require(position == total, "invocation array longer than event stream")
    return _TraceData(
        kind=str(manifest["kind"]),
        budget=int(manifest["budget"]),
        events=tuple(events),
        data_lines=data_lines,
        data_writes=data_writes,
        data_starts=data_starts,
        code_lines=code_lines,
        code_starts=code_starts,
        priming_target=int(manifest.get("priming_target", 0)),
    )


# ----------------------------------------------------------------------
# the store
# ----------------------------------------------------------------------

class TraceStore:
    """Directory-backed, LRU-fronted store of materialized traces.

    ``counters`` tracks hits/misses and bytes moved; the batch worker
    snapshots it around each cell and the scheduler folds the deltas
    into the ``repro_cache_*`` metrics.
    """

    def __init__(self, root: str, max_entries: int = DEFAULT_LRU_ENTRIES):
        self.root = root
        self.directory = os.path.join(root, TRACES_SUBDIR)
        os.makedirs(self.directory, exist_ok=True)
        self.max_entries = max(1, max_entries)
        self._lru: "OrderedDict[str, _TraceData]" = OrderedDict()
        self.counters: Dict[str, int] = {
            "trace_hits": 0,
            "trace_misses": 0,
            "bytes_read": 0,
            "bytes_written": 0,
        }

    # -- public API ----------------------------------------------------

    def trace_source(
        self,
        spec: WorkloadSpec,
        config: SimulatorConfig,
        thread_id: int,
        instruction_budget: int,
    ):
        """A trace source for one engine context.

        Returns a replay over the materialized entry (recording it
        first on a miss), or — if the cache is unusable for any reason
        — a live :class:`TraceGenerator` identical to what the engine
        would have built itself.
        """
        payload = self._payload(config)
        profile = ScaleProfile(**payload["profile"])
        seed = payload["seed"]
        try:
            key = trace_key(spec, payload, thread_id)
            data = self._lookup(key, TRACE_KIND)
            if data is not None and data.budget != instruction_budget:
                data = None  # profile drift; rematerialize under this budget
            if data is None:
                data = _materialize_trace(
                    spec, profile, seed, thread_id, instruction_budget,
                    icache=bool(payload["enable_icache"]),
                )
                self.counters["trace_misses"] += 1
                self._remember(key, data)
                self._save(key, data)
            else:
                self.counters["trace_hits"] += 1
            return _ReplayTrace(data)
        except Exception as error:
            logger.warning(
                "trace cache bypassed for %s thread %d: %r",
                spec.name, thread_id, error,
            )
            return TraceGenerator(spec, profile, seed=seed, thread_id=thread_id)

    def priming_events(
        self, spec: WorkloadSpec, config: SimulatorConfig
    ) -> Iterator[TraceEvent]:
        """The policy-priming event stream (recorded once per key)."""
        payload = self._payload(config)
        profile = ScaleProfile(**payload["profile"])
        seed = payload["seed"] + PRIMING_SEED_OFFSET
        target = payload["policy_priming_invocations"]
        try:
            key = prime_key(spec, payload)
            data = self._lookup(key, PRIME_KIND)
            if data is not None and data.priming_target != target:
                data = None
            if data is None:
                data = _materialize_priming(spec, profile, seed, target)
                self.counters["trace_misses"] += 1
                self._remember(key, data)
                self._save(key, data)
            else:
                self.counters["trace_hits"] += 1
            return iter(data.events)
        except Exception as error:
            logger.warning(
                "priming cache bypassed for %s: %r", spec.name, error
            )
            return TraceGenerator(spec, profile, seed=seed).events(2 ** 62)

    # -- internals -----------------------------------------------------

    @staticmethod
    def _payload(config: SimulatorConfig) -> Dict[str, Any]:
        # Deferred import: repro.runner's package __init__ pulls in the
        # worker, which imports this package.
        from repro.runner.jobspec import config_to_payload

        return config_to_payload(config)

    def _paths(self, key: str) -> Tuple[str, str]:
        base = os.path.join(self.directory, key)
        return base + ".json", base + ".npz"

    def _remember(self, key: str, data: _TraceData) -> None:
        self._lru[key] = data
        self._lru.move_to_end(key)
        while len(self._lru) > self.max_entries:
            self._lru.popitem(last=False)

    def _lookup(self, key: str, kind: str) -> Optional[_TraceData]:
        data = self._lru.get(key)
        if data is not None:
            self._lru.move_to_end(key)
            return data
        data = self._load(key, kind)
        if data is not None:
            self._remember(key, data)
        return data

    def _load(self, key: str, kind: str) -> Optional[_TraceData]:
        manifest_path, npz_path = self._paths(key)
        try:
            with open(manifest_path) as handle:
                manifest = json.load(handle)
        except FileNotFoundError:
            return None
        except (OSError, ValueError) as error:
            logger.warning(
                "ignoring unreadable trace-cache manifest %s: %r",
                manifest_path, error,
            )
            return None
        try:
            _require(
                manifest.get("schema") == CACHE_SCHEMA_VERSION,
                f"schema {manifest.get('schema')!r} != {CACHE_SCHEMA_VERSION}",
            )
            _require(
                manifest.get("kind") == kind,
                f"kind {manifest.get('kind')!r} != {kind!r}",
            )
            size = os.path.getsize(npz_path)
            # Own the file handle: np.load() opens the path itself and
            # leaks the handle when a truncated archive raises before
            # the NpzFile takes ownership.
            with open(npz_path, "rb") as handle:
                with np.load(handle) as archive:
                    arrays = {name: archive[name] for name in archive.files}
            data = _decode(manifest, arrays)
        except Exception as error:
            logger.warning(
                "ignoring corrupt trace-cache entry %s: %r; regenerating",
                key, error,
            )
            return None
        self.counters["bytes_read"] += size
        return data

    def _save(self, key: str, data: _TraceData) -> None:
        """Persist atomically; persistence failures degrade, never raise."""
        manifest_path, npz_path = self._paths(key)
        try:
            arrays, manifest = _encode(data)
            self._replace_into(
                npz_path, lambda handle: np.savez(handle, **arrays), "wb"
            )
            self._replace_into(
                manifest_path, lambda handle: json.dump(manifest, handle), "w"
            )
            self.counters["bytes_written"] += (
                os.path.getsize(npz_path) + os.path.getsize(manifest_path)
            )
        except Exception as error:
            logger.warning(
                "could not persist trace-cache entry %s: %r", key, error
            )

    def _replace_into(self, path: str, write, mode: str) -> None:
        fd, tmp = tempfile.mkstemp(
            dir=self.directory, prefix=".entry-", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, mode) as handle:
                write(handle)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
