"""Level 1 of the cache: workload traces recorded once, and what
priming teaches a learning policy.

A :class:`~repro.workloads.generator.TraceGenerator` stream is a pure
function of (workload spec, scale profile, seed, thread id) — none of
the knobs a grid sweeps (policy, threshold, migration latency, core
count) reach the generator's RNG.  Every cell of a fig4/fig5
grid therefore consumes the *same* per-thread stream, and without a
level each cell regenerates it from scratch.

One form holds such a stream in memory: a :class:`_Recording`, the
events and each event's reference arrays, drawn in the engine's exact
order — data accesses first, then instruction fetches when
``enable_icache`` is on.  Because the recorder consumes the generator
precisely as the engine would, a replayed trace is bit-identical to a
live one: same events, same arrays, same downstream LRU/MESI state (the
golden suite pins this).

What priming teaches a learning policy depends only on the priming
stream — the invocations
:func:`~repro.workloads.generator.priming_invocations` yields for the
config's ``policy_priming_invocations`` and ``include_window_traps`` —
and on how the policy learns.  So the level also keeps *primed policy
states*: after a live priming pass, the policy's snapshot, keyed by the
priming key plus the policy's
:meth:`~repro.core.policies.OffloadPolicy.learning_shape`.  Later runs
load it without reading the stream.  These states live only in process
memory, for as long as the level does, and are never written to disk.

:class:`TraceRecordings` is the one in-memory level every batch worker
keeps: an LRU of recordings, extended as the engine draws them, and
the primed states (see ``docs/caching.md``).  :class:`TraceStore` is
the same level backed by a cache root.  It materializes a stream
exactly once per key: a recording driven to the engine's
``budget * 2 + 1`` request (recorded in the manifest and re-checked on
load), saved with its per-event arrays concatenated into columns.  A
load splits the columns back into per-event views, which copy no data,
and returns a complete recording.  The priming stream is saved the same
way under its own key — it is pure event generation and costs as much
as the timed trace at small scale profiles.  In memory it is just that
tuple of invocations; on disk it keeps the trace columns, its reference
columns empty.

Storage is one ``.npz`` (uncompressed; these are hot files) plus one
JSON manifest per key, written atomically (temp file + ``os.replace``)
so concurrent batch workers can race on a key: both compute the same
bytes and the second replace is a no-op overwrite.  A corrupt or
truncated entry is *never* fatal — it logs a warning and the store
falls back to live generation.
"""

from __future__ import annotations

import json
import logging
import os
import tempfile
from collections import OrderedDict
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

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
from repro.errors import JobTimeout
from repro.sim.config import ScaleProfile, SimulatorConfig
from repro.workloads.base import OSInvocation, UserSegment, WorkloadSpec
from repro.workloads.generator import (
    TraceEvent,
    TraceGenerator,
    priming_invocations,
)

logger = logging.getLogger(__name__)

#: Recordings and priming streams a level keeps, bounding memory: a
#: DEFAULT_SCALE recording is a few MB.  With a cache root a
#: single-core cell of a learning policy (HI, DI) reads two entries,
#: its trace and its priming entry, so 8 entries hold the cells of four
#: workloads.
DEFAULT_LRU_ENTRIES = 8

#: Bytes of references one cache-less recording keeps, so a
#: :class:`TraceRecordings` level keeps at most 32 MiB of them, the tape
#: level's bound.  A DEFAULT recording holds 1.5-2.2 MB (2.5-2.9 MB with
#: the I-cache); a FULL one would hold hundreds and stops being kept.
RECORDING_BYTES = 4 * 2**20

#: Primed policy states kept per level.  One is a few thousand ints at
#: most (a full 1,500-entry direct-mapped table), and a grid needs one
#: per workload, priming setting and predictor shape in flight.
PRIMED_ENTRIES = 64

_EMPTY_LINES = np.empty(0, dtype=np.int64)
_EMPTY_WRITES = np.empty(0, dtype=bool)

#: A priming entry in memory: the invocations that prime a policy.
_Priming = Tuple[OSInvocation, ...]


class _Recording:
    """One thread's stream: its events and each event's reference arrays.

    A recording over a ``generator`` starts empty.  A cursor that
    reaches its end calls :meth:`extend`, which pulls the next event
    from the generator; the event's references are drawn when the
    engine asks for them (data, then code with the I-cache), and always
    before a later event is pulled.  That is the order a live engine
    consumes a generator in, so the recording holds exactly the live
    stream, however many runs read it.  A recording without a generator
    is complete: :func:`_decode` fills it from a trace store entry, and
    its cursors never pull.

    A recording that is not ``kept`` is never handed out again by the
    :class:`TraceRecordings` level.  That happens when a call into the
    generator raises (a ``JobTimeout`` can fire between two RNG draws,
    leaving the generator mid-draw), and when the drawn references
    (``nbytes``) pass ``max_bytes``: from then on the recording drops
    each event once the next one is pulled, so the cursor reading it
    runs on live.  Stream positions before ``base`` are dropped; a
    recording without ``max_bytes`` keeps every event.  Dropping is
    safe because one cursor reads a recording at a time: runs in a
    process are sequential, and a run reads each thread through one
    cursor.
    """

    __slots__ = (
        "budget", "icache", "events", "lines", "writes", "code", "base",
        "nbytes", "kept", "_max_bytes", "_generator", "_pending",
    )

    def __init__(
        self,
        instruction_budget: int,
        icache: bool,
        generator: Optional[TraceGenerator] = None,
        max_bytes: Optional[int] = None,
    ):
        self.budget = instruction_budget
        self.icache = icache
        self.events: List[TraceEvent] = []
        # One entry per drawn event; ``code`` stays empty without icache.
        self.lines: List[np.ndarray] = []
        self.writes: List[np.ndarray] = []
        self.code: List[np.ndarray] = []
        self.base = 0
        self.nbytes = 0
        self.kept = True
        self._max_bytes = max_bytes
        self._generator = generator
        self._pending: Iterator[TraceEvent] = (
            generator.events(instruction_budget) if generator is not None
            else iter(())
        )

    def extend(self) -> bool:
        """Pull the next event; ``False`` once the stream is exhausted."""
        try:
            if len(self.lines) < len(self.events):
                self._draw()
            if self._max_bytes is not None and self.nbytes > self._max_bytes:
                self.kept = False
                self.base += len(self.events)
                for drawn in (self.events, self.lines, self.writes, self.code):
                    drawn.clear()
            event = next(self._pending, None)
            if event is not None:
                self.events.append(event)
        except BaseException:
            self.kept = False
            raise
        return event is not None

    def data_at(self, index: int) -> Tuple[np.ndarray, np.ndarray]:
        index -= self.base
        if index == len(self.lines):
            try:
                self._draw()
            except BaseException:
                self.kept = False
                raise
        return self.lines[index], self.writes[index]

    def code_at(self, index: int) -> np.ndarray:
        self.data_at(index)  # draws the event's references if still pending
        return self.code[index - self.base]

    def _draw(self) -> None:
        """Draw the last pulled event's references, in the engine's order."""
        generator = self._generator
        event = self.events[len(self.lines)]
        if isinstance(event, UserSegment):
            lines, writes = generator.user_accesses(event.instructions)
            if self.icache:
                self.code.append(generator.user_code_accesses(event.instructions))
        else:
            lines, writes = generator.os_accesses(event)
            if self.icache:
                self.code.append(generator.os_code_accesses(event))
        self.writes.append(writes)
        self.lines.append(lines)
        self.nbytes += lines.nbytes + writes.nbytes
        if self.icache:
            self.nbytes += self.code[-1].nbytes


class _ReplayTrace:
    """Duck-types :class:`TraceGenerator` over a :class:`_Recording`.

    The engine consumes a generator as ``next(events)`` followed by the
    event's data draw and (with icache) its code draw — always in that
    order, on every path.  A single event cursor therefore suffices:
    each access method returns the arrays recorded for the most
    recently yielded event.  A cursor that reaches the end of the
    recording extends it (a complete one has nothing to pull);
    ``base`` maps its stream positions to the recording's lists.  One
    cursor per engine context; the recording itself is shared
    read-only (nothing downstream mutates the arrays in place).
    """

    __slots__ = ("_data", "_index")

    def __init__(self, data: _Recording):
        self._data = data
        self._index = -1

    def events(self, instruction_budget: int) -> Iterator[TraceEvent]:
        # The store or level checked ``instruction_budget`` against the
        # recording's budget before handing out this replay.
        return self._iter()

    def _iter(self) -> Iterator[TraceEvent]:
        data = self._data
        events = data.events
        index = 0
        while index - data.base < len(events) or data.extend():
            self._index = index
            yield events[index - data.base]
            index += 1

    def user_accesses(self, instructions: int) -> Tuple[np.ndarray, np.ndarray]:
        return self._data.data_at(self._index)

    def os_accesses(self, invocation: OSInvocation) -> Tuple[np.ndarray, np.ndarray]:
        return self._data.data_at(self._index)

    def user_code_accesses(self, instructions: int) -> np.ndarray:
        return self._data.code_at(self._index)

    def os_code_accesses(self, invocation: OSInvocation) -> np.ndarray:
        return self._data.code_at(self._index)


def _generator(
    spec: WorkloadSpec, payload: Dict[str, Any], thread_id: int
) -> TraceGenerator:
    """The live generator of one thread's stream under ``payload``."""
    return TraceGenerator(
        spec, ScaleProfile(**payload["profile"]), seed=payload["seed"],
        thread_id=thread_id,
    )


def _materialize_trace(
    spec: WorkloadSpec,
    profile: ScaleProfile,
    seed: int,
    thread_id: int,
    instruction_budget: int,
    icache: bool,
) -> _Recording:
    """Record one thread's full stream: a recording driven to the budget."""
    recording = _Recording(
        instruction_budget, icache,
        TraceGenerator(spec, profile, seed=seed, thread_id=thread_id),
    )
    while recording.extend():
        pass
    return recording


# ----------------------------------------------------------------------
# serialisation
# ----------------------------------------------------------------------

def _starts(parts: List[np.ndarray]) -> np.ndarray:
    """Offsets of each part in their concatenation, plus its length."""
    starts = np.zeros(len(parts) + 1, dtype=np.int64)
    np.cumsum(np.asarray([len(part) for part in parts], dtype=np.int64),
              out=starts[1:])
    return starts


def _concat(parts: List[np.ndarray], empty: np.ndarray) -> np.ndarray:
    return np.concatenate(parts) if parts else empty


def _split(column: np.ndarray, starts: np.ndarray) -> List[np.ndarray]:
    """The per-event views of a concatenated column; no data is copied."""
    bounds = starts.tolist()
    return [column[start:stop] for start, stop in zip(bounds, bounds[1:])]


def _encode(
    data: Union[_Recording, _Priming],
) -> Tuple[Dict[str, np.ndarray], Dict[str, Any]]:
    """The arrays and manifest of a trace entry (a whole recording,
    its per-event arrays concatenated into columns) or a priming entry
    (its invocations, with empty reference columns)."""
    code: Dict[str, np.ndarray] = {}
    if isinstance(data, _Recording):
        kind, budget, target, events = TRACE_KIND, data.budget, 0, data.events
        references = {
            "data_starts": _starts(data.lines),
            "data_lines": _concat(data.lines, _EMPTY_LINES),
            "data_writes": _concat(data.writes, _EMPTY_WRITES),
        }
        if data.icache:
            code = {
                "code_starts": _starts(data.code),
                "code_lines": _concat(data.code, _EMPTY_LINES),
            }
    else:
        kind, budget, target, events = PRIME_KIND, 0, len(data), data
        references = {
            "data_starts": np.zeros(len(data) + 1, dtype=np.int64),
            "data_lines": _EMPTY_LINES,
            "data_writes": _EMPTY_WRITES,
        }
    count = len(events)
    kinds = np.zeros(count, dtype=np.uint8)
    lengths = np.zeros(count, dtype=np.int64)
    invocations: List[OSInvocation] = []
    for index, event in enumerate(events):
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
        **references,
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
        **code,
    }
    manifest = {
        "schema": CACHE_SCHEMA_VERSION,
        "kind": kind,
        "budget": budget,
        "events": count,
        "invocations": len(invocations),
        "names": names,
        "icache": bool(code),
        "priming_target": target,
    }
    return arrays, manifest


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


#: The per-invocation columns of an entry, in :func:`_decode`'s order.
_INVOCATION_COLUMNS = (
    "inv_vector", "inv_name", "inv_pstate", "inv_g0", "inv_g1", "inv_i0",
    "inv_i1", "inv_pre", "inv_size", "inv_shared", "inv_flags",
)


def _decode(
    manifest: Dict[str, Any], arrays: Dict[str, np.ndarray]
) -> Union[_Recording, _Priming]:
    """Inverse of :func:`_encode`: a complete recording, or a priming
    entry's invocations."""
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
    if icache:
        code_starts = arrays["code_starts"]
        code_lines = arrays["code_lines"]
        _require(code_starts.shape == (count + 1,), "code offsets truncated")
        _require(code_lines.dtype == np.int64, "code line dtype mismatch")
        _require(
            code_lines.shape[0] == int(code_starts[-1]), "code stream truncated"
        )
    total = int(manifest["invocations"])
    for name in _INVOCATION_COLUMNS:
        _require(arrays[name].shape == (total,), f"{name} array truncated")
    _require(
        int(np.count_nonzero(kinds)) == total,
        "invocation arrays do not match the event stream",
    )
    # Convert each column to Python values once; indexing numpy scalars
    # field by field costs more than the whole conversion.
    columns = [arrays[name].tolist() for name in _INVOCATION_COLUMNS]
    columns.append(lengths[kinds != 0].tolist())
    invocations = [
        OSInvocation(
            vector=vector,
            name=names[name],
            astate=ArchitectedState(pstate=pstate, g0=g0, g1=g1, i0=i0, i1=i1),
            length=length,
            pre_interrupt_length=pre,
            shared_fraction=shared,
            is_window_trap=bool(flags & 1),
            is_interrupt=bool(flags & 2),
            interrupts_enabled=bool(flags & 4),
            size_units=size,
        )
        for (
            vector, name, pstate, g0, g1, i0, i1, pre, size, shared, flags,
            length,
        ) in zip(*columns)
    ]
    if manifest["kind"] == PRIME_KIND:
        _require(total == count, "priming entry holds a user segment")
        _require(
            int(manifest["priming_target"]) == count,
            "priming entry does not hold its target's invocations",
        )
        return tuple(invocations)
    pending = iter(invocations)
    events: List[TraceEvent] = [
        next(pending) if kind else UserSegment(instructions=length)
        for kind, length in zip(kinds.tolist(), lengths.tolist())
    ]
    recording = _Recording(int(manifest["budget"]), icache)
    recording.events = events
    recording.lines = _split(data_lines, data_starts)
    recording.writes = _split(data_writes, data_starts)
    if icache:
        recording.code = _split(code_lines, code_starts)
    return recording


# ----------------------------------------------------------------------
# the stores
# ----------------------------------------------------------------------

def _payload(config: SimulatorConfig) -> Dict[str, Any]:
    # Deferred import: repro.runner's package __init__ pulls in the
    # worker, which imports this package.
    from repro.runner.jobspec import config_to_payload

    return config_to_payload(config)


class TraceRecordings:
    """The in-memory reuse level of a batch worker: trace recordings and
    primed policy states, kept for as long as the level lives.

    The first run that needs a thread's stream records it as the engine
    draws it (:class:`_Recording`); every later run in the process
    replays the recording and extends it if it reads further.  Keys are
    :func:`~repro.cache.keys.trace_key`.  The level keeps at most
    ``DEFAULT_LRU_ENTRIES`` recordings, least recently used first out,
    of at most ``RECORDING_BYTES`` of references each: a longer one
    stops being kept as it is read, and the next run that needs its key
    records afresh.

    Priming reads the live :func:`priming_invocations` stream, and what
    the pass teaches a learning policy is kept as a primed state (see
    :meth:`primed_state`), so each priming stream and learning shape is
    primed once per level.

    ``counters`` tracks trace and primed-state hits and misses; the
    batch worker snapshots it around each cell and the scheduler folds
    the deltas into the ``repro_cache_*`` metrics.  :class:`TraceStore`
    is this level plus a cache root's entries on disk.
    """

    def __init__(self) -> None:
        self._lru: "OrderedDict[str, Union[_Recording, _Priming]]" = (
            OrderedDict()
        )
        self._primed: "OrderedDict[Tuple[str, Tuple[Any, ...]], Any]" = (
            OrderedDict()
        )
        self.counters: Dict[str, int] = {
            "trace_hits": 0,
            "trace_misses": 0,
            "primed_hits": 0,
            "primed_misses": 0,
        }

    def trace_source(
        self,
        spec: WorkloadSpec,
        config: SimulatorConfig,
        thread_id: int,
        instruction_budget: int,
    ) -> _ReplayTrace:
        """A cursor over the thread's recording; a miss starts one."""
        payload = _payload(config)
        key = trace_key(spec, payload, thread_id)
        recording = self._lru.get(key)
        if (
            recording is not None
            and recording.kept
            and recording.budget == instruction_budget
        ):
            self.counters["trace_hits"] += 1
        else:
            recording = self._trace_miss(
                key, spec, payload, thread_id, instruction_budget
            )
        self._remember(key, recording)
        return _ReplayTrace(recording)

    def priming_events(
        self, spec: WorkloadSpec, config: SimulatorConfig
    ) -> Iterator[OSInvocation]:
        """The live priming stream, as a store-less engine draws it."""
        payload = _payload(config)
        return priming_invocations(
            spec, ScaleProfile(**payload["profile"]), payload["seed"],
            payload["policy_priming_invocations"],
            payload["include_window_traps"],
        )

    def primed_state(
        self, spec: WorkloadSpec, config: SimulatorConfig,
        shape: Tuple[Any, ...],
    ) -> Optional[Any]:
        """The policy state primed on this level's priming stream, or ``None``.

        ``shape`` is the policy's
        :meth:`~repro.core.policies.OffloadPolicy.learning_shape`.  A
        state is kept only in process memory, for as long as the level
        lives; a lookup counts as ``primed_hits`` or ``primed_misses``.
        """
        state = self._primed.get(self._primed_key(spec, config, shape))
        if state is None:
            self.counters["primed_misses"] += 1
        else:
            self.counters["primed_hits"] += 1
        return state

    def keep_primed_state(
        self, spec: WorkloadSpec, config: SimulatorConfig,
        shape: Tuple[Any, ...], state: Any,
    ) -> None:
        """Keep a policy's snapshot, taken right after a live priming pass."""
        self._primed[self._primed_key(spec, config, shape)] = state
        while len(self._primed) > PRIMED_ENTRIES:
            self._primed.popitem(last=False)

    def _trace_miss(
        self, key: str, spec: WorkloadSpec, payload: Dict[str, Any],
        thread_id: int, instruction_budget: int,
    ) -> _Recording:
        """A recording the engine extends as it draws the stream."""
        self.counters["trace_misses"] += 1
        return _Recording(
            instruction_budget, bool(payload["enable_icache"]),
            _generator(spec, payload, thread_id), max_bytes=RECORDING_BYTES,
        )

    def _primed_key(
        self, spec: WorkloadSpec, config: SimulatorConfig,
        shape: Tuple[Any, ...],
    ) -> Tuple[str, Tuple[Any, ...]]:
        # The priming entry's key already covers everything that picks
        # the stream; the shape covers how the policy learns from it.
        return prime_key(spec, _payload(config)), shape

    def _remember(self, key: str, data: Union[_Recording, _Priming]) -> None:
        self._lru[key] = data
        self._lru.move_to_end(key)
        while len(self._lru) > DEFAULT_LRU_ENTRIES:
            self._lru.popitem(last=False)


class TraceStore(TraceRecordings):
    """The in-memory level backed by a cache root's trace entries.

    A trace miss loads the key's entry or, failing that, records the
    whole stream to the engine's budget and saves it; priming streams
    are kept and saved the same way.  Primed states stay in memory.
    ``counters`` adds the bytes read from and written to disk.
    """

    def __init__(self, root: str):
        super().__init__()
        self.root = root
        self.directory = os.path.join(root, TRACES_SUBDIR)
        os.makedirs(self.directory, exist_ok=True)
        self.counters.update(bytes_read=0, bytes_written=0)

    def trace_source(
        self,
        spec: WorkloadSpec,
        config: SimulatorConfig,
        thread_id: int,
        instruction_budget: int,
    ):
        """A trace source for one engine context.

        Returns a replay over the level's recording, loaded from the
        entry or recorded to the budget and saved on a miss, or — if
        the cache is unusable for any reason — a live
        :class:`TraceGenerator` identical to what the engine would have
        built itself.
        """
        try:
            return super().trace_source(
                spec, config, thread_id, instruction_budget
            )
        except JobTimeout:
            raise
        except Exception as error:
            logger.warning(
                "trace cache bypassed for %s thread %d: %r",
                spec.name, thread_id, error,
            )
            return _generator(spec, _payload(config), thread_id)

    def priming_events(
        self, spec: WorkloadSpec, config: SimulatorConfig
    ) -> Iterator[OSInvocation]:
        """The invocations that prime a learning policy under ``config``.

        Always the stream :func:`priming_invocations` yields: replayed
        from the entry (recorded once per key) or, if the cache is
        unusable, drawn live.
        """
        try:
            payload = _payload(config)
            key = prime_key(spec, payload)
            invocations = self._lru.get(key)
            if invocations is None:
                invocations = self._load(key, PRIME_KIND)
            target = payload["policy_priming_invocations"]
            if invocations is not None and len(invocations) == target:
                self.counters["trace_hits"] += 1
            else:
                invocations = tuple(super().priming_events(spec, config))
                self.counters["trace_misses"] += 1
                self._save(key, invocations)
            self._remember(key, invocations)
            return iter(invocations)
        except JobTimeout:
            raise
        except Exception as error:
            logger.warning(
                "priming cache bypassed for %s: %r", spec.name, error
            )
            return super().priming_events(spec, config)

    def _trace_miss(
        self, key: str, spec: WorkloadSpec, payload: Dict[str, Any],
        thread_id: int, instruction_budget: int,
    ) -> _Recording:
        """Load the entry, or else record the whole stream and save it."""
        recording = self._load(key, TRACE_KIND)
        if recording is not None and recording.budget == instruction_budget:
            self.counters["trace_hits"] += 1
            return recording
        # No usable entry, or one recorded under another budget (profile
        # drift): record under this budget.
        recording = _materialize_trace(
            spec, ScaleProfile(**payload["profile"]), payload["seed"],
            thread_id, instruction_budget,
            icache=bool(payload["enable_icache"]),
        )
        self.counters["trace_misses"] += 1
        self._save(key, recording)
        return recording

    def _paths(self, key: str) -> Tuple[str, str]:
        base = os.path.join(self.directory, key)
        return base + ".json", base + ".npz"

    def _load(
        self, key: str, kind: str
    ) -> Optional[Union[_Recording, _Priming]]:
        manifest_path, npz_path = self._paths(key)
        try:
            with open(manifest_path, "rb") as handle:
                raw_manifest = handle.read()
            manifest = json.loads(raw_manifest)
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
        except JobTimeout:
            raise
        except Exception as error:
            logger.warning(
                "ignoring corrupt trace-cache entry %s: %r; regenerating",
                key, error,
            )
            return None
        self.counters["bytes_read"] += size + len(raw_manifest)
        return data

    def _save(self, key: str, data: Union[_Recording, _Priming]) -> None:
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
        except JobTimeout:
            raise
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
