"""Seeded synthetic trace generation.

:class:`TraceGenerator` turns a :class:`~repro.workloads.base.WorkloadSpec`
into a deterministic stream of :class:`UserSegment` and
:class:`OSInvocation` events plus, on demand, the memory reference stream
of each event.  All randomness flows through one ``numpy`` generator
seeded at construction, and the *consumption order is independent of any
off-loading policy decision*, so two simulations of the same
``(spec, profile, seed)`` triple replay byte-identical traces — the
fairness property every policy comparison in the paper relies on.

Address space layout (all units are cache lines):

- each thread's **user region** at ``thread_id * REGION_STRIDE``;
- each thread's **shared region** (user/OS shared buffers) at
  ``SHARED_BASE + thread_id * REGION_STRIDE``;
- one common **OS region** at ``OS_BASE`` — shared by all OS activity, so
  OS invocations from different threads "interact constructively" in the
  OS core's cache, as the paper describes.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import islice
from typing import Iterator, List, Sequence, Tuple, Union

import numpy as np

from repro.cpu.registers import ArchitectedState, PState
from repro.errors import WorkloadError
from repro.os_model.interrupts import INTERRUPT_VECTOR
from repro.os_model.runlength import apply_jitter, realise_length
from repro.os_model.syscalls import ARG_LINEAR, BIMODAL, get_syscall
from repro.sim.config import ScaleProfile
from repro.workloads.base import OSInvocation, UserSegment, WorkloadSpec

#: Line-address stride between per-thread regions (2^22 lines = 256 MB).
REGION_STRIDE = 1 << 22
#: Base line address of the per-thread shared regions.
SHARED_BASE = 1 << 28
#: Base line address of the common OS region.
OS_BASE = 1 << 29
#: Base line address of per-thread user code and the shared OS code.
USER_CODE_BASE = 1 << 30
OS_CODE_BASE = (1 << 30) + (1 << 29)

#: Instruction-fetch line transitions per instruction (64 B lines hold
#: ~16 instructions; taken branches cut sequential runs roughly in half).
CODE_TRANSITIONS_PER_INSTRUCTION = 1.0 / 8.0
#: Code locality is tighter than data locality (hot loops).
CODE_HOT_FRACTION = 0.06
CODE_HOT_PROBABILITY = 0.95

#: Register-window traps reference the user stack almost exclusively.
WINDOW_TRAP_SHARED_FRACTION = 0.92
#: ... and a spill is store-dominated.
WINDOW_TRAP_WRITE_FRACTION = 0.70

#: Lines of the OS region forming the kernel entry/exit path (trap table,
#: current-task state): every privileged entry touches these few lines, so
#: in a shared-core system they stay resident and short syscalls are
#: nearly free — the reason off-loading short calls buys little hit-rate
#: relief while still paying full coherence cost.
OS_ENTRY_LINES = 16
#: Memory references each invocation spends on the entry/exit path.
ENTRY_PATH_REFS = 10
#: Lines at the bottom of the shared region modelling the current user
#: stack / argument block, touched by window traps and argument
#: marshalling and re-touched densely by subsequent user code.
STACK_LINES = 8

#: Seed offset of the policy-priming stream: learning policies are
#: primed from a generator seeded ``seed + PRIMING_SEED_OFFSET``, so
#: priming never consumes the timed trace's random streams.
PRIMING_SEED_OFFSET = 7919

TraceEvent = Union[UserSegment, OSInvocation]


def invocation_stream(
    spec: WorkloadSpec,
    profile: ScaleProfile,
    seed: int,
    invocations: int,
    include_window_traps: bool,
) -> Iterator[OSInvocation]:
    """The first ``invocations`` OS invocations of the trace seeded ``seed``.

    Keeps only :class:`OSInvocation` events, skips window traps unless
    ``include_window_traps`` is set, and stops after ``invocations`` of
    them without drawing the next event.
    """
    generator = TraceGenerator(spec, profile, seed=seed)
    stream = (
        event
        for event in generator.events(2 ** 62)
        if isinstance(event, OSInvocation)
        and (include_window_traps or not event.is_window_trap)
    )
    return islice(stream, max(0, invocations))


def priming_invocations(
    spec: WorkloadSpec,
    profile: ScaleProfile,
    seed: int,
    invocations: int,
    include_window_traps: bool,
) -> Iterator[OSInvocation]:
    """The invocations a learning policy is primed on, in order: the
    :func:`invocation_stream` seeded ``seed + PRIMING_SEED_OFFSET``."""
    return invocation_stream(
        spec, profile, seed + PRIMING_SEED_OFFSET, invocations,
        include_window_traps,
    )


def choice_cdf(weights: Sequence[float]) -> List[float]:
    """Cumulative distribution of ``weights``, as ``Generator.choice`` builds it.

    ``bisect_right(cdf, rng.random())`` then draws the index that
    ``rng.choice(len(weights), p=weights / sum(weights))`` would: numpy
    normalises ``p`` the same way, makes the same float comparisons
    against one ``random()`` double and leaves the same generator state,
    without re-validating ``p`` on every call.
    """
    p = np.asarray(weights, dtype=float)
    cdf = (p / p.sum()).cumsum()
    cdf /= cdf[-1]
    return cdf.tolist()


class TraceGenerator:
    """Deterministic event and address stream for one hardware thread."""

    def __init__(
        self,
        spec: WorkloadSpec,
        profile: ScaleProfile,
        seed: int = 2010,
        thread_id: int = 0,
    ) -> None:
        if thread_id < 0:
            raise WorkloadError("thread_id must be non-negative")
        self.spec = spec
        self.profile = profile
        self.thread_id = thread_id
        # All randomness flows through one explicitly-constructed
        # generator (simlint D101 bans module-level draws).
        self.rng = np.random.default_rng((seed, thread_id))

        mem = spec.memory
        self.user_ws = max(16, mem.user_ws_lines // profile.cache_scale)
        self.os_ws = max(16, mem.os_ws_lines // profile.cache_scale)
        self.shared_ws = max(8, mem.shared_ws_lines // profile.cache_scale)
        self.user_base = thread_id * REGION_STRIDE
        self.shared_base = SHARED_BASE + thread_id * REGION_STRIDE
        self.os_base = OS_BASE
        self._stack_lines = min(STACK_LINES, self.shared_ws)
        self.user_code_ws = max(16, mem.user_code_lines // profile.cache_scale)
        self.os_code_ws = max(16, mem.os_code_lines // profile.cache_scale)
        self.user_code_base = USER_CODE_BASE + thread_id * REGION_STRIDE
        self.os_code_base = OS_CODE_BASE

        names = [name for name, _ in spec.syscall_mix]
        self._syscall_names = names
        self._syscalls = [get_syscall(name) for name in names]
        self._syscall_cdf = choice_cdf([w for _, w in spec.syscall_mix])
        self._size_cdf = choice_cdf(spec.size_weights)
        self._size_classes = np.array(spec.size_classes, dtype=np.int64)
        # Per-syscall argument pools: applications name a handful of
        # objects (descriptors, paths), so the i0 register cycles through
        # a small set of values — realistic small file-descriptor numbers
        # offset per syscall so different calls name different objects.
        # For bimodal calls a deterministic subset of the pool takes the
        # slow path (cold objects).
        self._arg_pools: List[np.ndarray] = []
        self._slow_cutoffs: List[int] = []
        for index, syscall in enumerate(self._syscalls):
            pool = np.arange(3, 3 + spec.fd_count, dtype=np.int64) + 97 * index
            self._arg_pools.append(pool)
            if syscall.kind == BIMODAL:
                cutoff = int(round(syscall.slow_probability * spec.fd_count))
                self._slow_cutoffs.append(cutoff)
            else:
                self._slow_cutoffs.append(0)
        # Buffer addresses carried in i1 by arg-linear calls: one buffer
        # per size class (applications reuse fixed I/O buffers), living
        # high in the address space like real pointers — their diverse
        # high bits are what keeps the XOR hash nearly collision-free,
        # as with real register contents.
        self._buffer_pointers = [
            0x7F80_0000_0000 + (slot + 1) * 0x0001_0001_0000
            for slot in range(len(spec.size_classes))
        ]

        self._mean_user_segment = spec.mean_user_segment()
        self._priv_pstate_ie = PState.privileged_mode(interrupts_enabled=True).value
        self._priv_pstate_noie = PState.privileged_mode(interrupts_enabled=False).value

    # ------------------------------------------------------------------
    # event stream
    # ------------------------------------------------------------------

    def events(self, instruction_budget: int) -> Iterator[TraceEvent]:
        """Yield trace events until ``instruction_budget`` is covered.

        The budget counts user *and* privileged instructions; generation
        stops after the event that crosses it, so the realised total may
        overshoot by at most one event.
        """
        if instruction_budget <= 0:
            return
        emitted = 0
        rng = self.rng
        spec = self.spec
        while emitted < instruction_budget:
            segment = max(1, int(rng.exponential(self._mean_user_segment)))
            n_traps = spec.window_traps.traps_in_segment(segment, rng)
            n_interrupts = spec.interrupts.standalone_in_segment(segment, rng)
            n_breaks = n_traps + n_interrupts
            round_events: List[TraceEvent] = []
            if n_breaks:
                chunks = self._split_segment(segment, n_breaks + 1)
                breaks: List[OSInvocation] = [
                    self._make_window_trap() for _ in range(n_traps)
                ] + [self._make_standalone_interrupt() for _ in range(n_interrupts)]
                if len(breaks) > 1:  # interleave traps and interrupts
                    order = rng.permutation(len(breaks))
                    breaks = [breaks[i] for i in order]
                for chunk, invocation in zip(chunks, breaks + [None]):
                    if chunk > 0:
                        round_events.append(UserSegment(int(chunk)))
                    if invocation is not None:
                        round_events.append(invocation)
            else:
                round_events.append(UserSegment(segment))
            round_events.append(self._make_syscall())
            for event in round_events:
                yield event
                emitted += (
                    event.instructions
                    if isinstance(event, UserSegment)
                    else event.length
                )
                if emitted >= instruction_budget:
                    return

    def _split_segment(self, total: int, parts: int) -> List[int]:
        """Split ``total`` instructions into ``parts`` non-negative chunks."""
        if parts <= 1:
            return [total]
        return list(self.rng.multinomial(total, [1.0 / parts] * parts))

    # ------------------------------------------------------------------
    # invocation construction
    # ------------------------------------------------------------------

    def _make_syscall(self) -> OSInvocation:
        rng = self.rng
        spec = self.spec
        index = bisect_right(self._syscall_cdf, rng.random())
        syscall = self._syscalls[index]
        pool = self._arg_pools[index]
        pool_slot = int(rng.integers(0, len(pool)))
        i0 = int(pool[pool_slot])
        if syscall.kind == ARG_LINEAR:
            size_slot = bisect_right(self._size_cdf, rng.random())
            size_units = int(self._size_classes[size_slot])
            # i1 carries the buffer pointer (what the hash sees); the
            # size operand travels in a higher argument register the
            # hash does not cover.
            i1 = self._buffer_pointers[size_slot]
        else:
            size_units = 0
            i1 = 0
        argument_slow = pool_slot < self._slow_cutoffs[index]
        length, _ = realise_length(
            syscall, i0, size_units, rng, spec.noise, argument_slow_path=argument_slow
        )
        extension = spec.interrupts.extension_for(True, rng)
        astate = ArchitectedState(
            pstate=self._priv_pstate_ie, g1=syscall.number, i0=i0, i1=i1
        )
        total_length = length + extension
        return OSInvocation(
            vector=syscall.number,
            name=syscall.name,
            astate=astate,
            length=total_length,
            pre_interrupt_length=length,
            shared_fraction=spec.sharing.fraction_for(total_length),
            interrupts_enabled=True,
            size_units=size_units,
        )

    def _make_window_trap(self) -> OSInvocation:
        vector, length = self.spec.window_traps.draw_trap(self.rng)
        length = apply_jitter(length, self.rng, self.spec.noise)
        astate = ArchitectedState(pstate=self._priv_pstate_noie, g1=vector)
        # A spill/fill trap stores/loads a register window on the *user
        # stack*: nearly all of its references are to user-owned lines,
        # which is why off-loading it generates pure coherence traffic.
        return OSInvocation(
            vector=vector,
            name="window_trap",
            astate=astate,
            length=length,
            pre_interrupt_length=length,
            shared_fraction=WINDOW_TRAP_SHARED_FRACTION,
            is_window_trap=True,
            interrupts_enabled=False,
        )

    def _make_standalone_interrupt(self) -> OSInvocation:
        # A handful of device vectors with stable handler lengths, so
        # interrupt AStates repeat and predict well.
        device, base_length = self.spec.interrupts.draw_standalone(self.rng)
        length = apply_jitter(base_length, self.rng, self.spec.noise)
        astate = ArchitectedState(
            pstate=self._priv_pstate_noie, g1=INTERRUPT_VECTOR, i0=device
        )
        return OSInvocation(
            vector=INTERRUPT_VECTOR,
            name="device_interrupt",
            astate=astate,
            length=length,
            pre_interrupt_length=length,
            shared_fraction=self.spec.sharing.long_fraction,
            is_interrupt=True,
            interrupts_enabled=False,
        )

    # ------------------------------------------------------------------
    # memory reference streams
    # ------------------------------------------------------------------

    def _draw_region(self, base: int, working_set: int, count: int) -> np.ndarray:
        """Two-tier locality draw of ``count`` line addresses."""
        rng = self.rng
        mem = self.spec.memory
        hot = max(1, int(working_set * mem.hot_fraction))
        hot_draws = rng.integers(0, hot, count)
        cold_draws = rng.integers(0, working_set, count)
        take_hot = rng.random(count) < mem.hot_probability
        return base + np.where(take_hot, hot_draws, cold_draws)

    def user_accesses(self, instructions: int) -> Tuple[np.ndarray, np.ndarray]:
        """Reference stream of a user segment: ``(lines, is_write)``.

        A small fraction of user references touch the thread's shared
        region — half of them the hot stack/argument block (dragging
        spilled stack lines back from the OS core after an off-load),
        half the wider shared buffers the OS filled (e.g. ``read`` data).
        """
        mem = self.spec.memory
        count = int(instructions * mem.memory_ratio)
        if count == 0:
            return _EMPTY_LINES, _EMPTY_WRITES
        rng = self.rng
        lines = self._draw_region(self.user_base, self.user_ws, count)
        shared_mask = rng.random(count) < mem.user_shared_fraction
        n_shared = int(shared_mask.sum())
        if n_shared:
            shared = self._draw_region(self.shared_base, self.shared_ws, n_shared)
            stack_mask = rng.random(n_shared) < 0.5
            n_stack = int(stack_mask.sum())
            if n_stack:
                shared[stack_mask] = self.shared_base + rng.integers(
                    0, self._stack_lines, n_stack
                )
            lines[shared_mask] = shared
        writes = rng.random(count) < mem.write_fraction
        return lines, writes

    def os_accesses(self, invocation: OSInvocation) -> Tuple[np.ndarray, np.ndarray]:
        """Reference stream of one OS invocation: ``(lines, is_write)``.

        Three components, mirroring how kernel footprints actually
        decompose:

        1. the **entry/exit path** — up to :data:`ENTRY_PATH_REFS`
           references to the few :data:`OS_ENTRY_LINES` every privileged
           entry touches (trap table, task state).  For a short call this
           is essentially the whole footprint;
        2. the **body** — the remaining references, of which
           ``invocation.shared_fraction`` target the invoking thread's
           shared region (argument/result movement; window traps target
           the hot stack block) and the rest roam the common OS working
           set (page cache, protocol state);
        3. shared-region references write more often
           (``os_shared_write_fraction``) because the OS deposits results
           there; spills are store-dominated.
        """
        mem = self.spec.memory
        count = int(invocation.length * mem.memory_ratio)
        if count == 0:
            return _EMPTY_LINES, _EMPTY_WRITES
        rng = self.rng

        n_entry = min(count, ENTRY_PATH_REFS)
        entry_lines = self.os_base + rng.integers(0, OS_ENTRY_LINES, n_entry)
        n_body = count - n_entry
        if n_body == 0:
            writes = rng.random(n_entry) < mem.write_fraction
            if invocation.is_window_trap:
                # Trap-table reads aside, a pure window trap moves the
                # register window to/from the user stack.
                stack = self.shared_base + rng.integers(
                    0, self._stack_lines, n_entry
                )
                writes = rng.random(n_entry) < WINDOW_TRAP_WRITE_FRACTION
                return stack, writes
            return entry_lines, writes

        # An L-instruction invocation cannot roam more kernel state than
        # it has time to touch: its body references fall in a window at
        # the head of the OS region that grows with L.  Short calls stay
        # inside the always-resident kernel head (task state, counters);
        # long calls stream the full OS working set.
        body_window = min(self.os_ws, OS_ENTRY_LINES + invocation.length // 4)
        body = self._draw_region(self.os_base, body_window, n_body)
        writes_body = rng.random(n_body) < mem.write_fraction
        shared_mask = rng.random(n_body) < invocation.shared_fraction
        n_shared = int(shared_mask.sum())
        if n_shared:
            if invocation.is_window_trap:
                shared = self.shared_base + rng.integers(
                    0, self._stack_lines, n_shared
                )
                shared_write_fraction = WINDOW_TRAP_WRITE_FRACTION
            else:
                shared = self._draw_region(
                    self.shared_base, self.shared_ws, n_shared
                )
                stack_mask = rng.random(n_shared) < 0.35
                n_stack = int(stack_mask.sum())
                if n_stack:
                    shared[stack_mask] = self.shared_base + rng.integers(
                        0, self._stack_lines, n_stack
                    )
                shared_write_fraction = mem.os_shared_write_fraction
            body[shared_mask] = shared
            writes_body[shared_mask] = rng.random(n_shared) < shared_write_fraction

        lines = np.concatenate([entry_lines, body])
        writes = np.concatenate(
            [rng.random(n_entry) < mem.write_fraction * 0.5, writes_body]
        )
        return lines, writes


    # ------------------------------------------------------------------
    # instruction-fetch streams (used when the simulator enables the L1I)
    # ------------------------------------------------------------------

    def _draw_code(self, base: int, working_set: int, count: int) -> np.ndarray:
        """Tight-loop locality draw over a code region."""
        rng = self.rng
        hot = max(1, int(working_set * CODE_HOT_FRACTION))
        hot_draws = rng.integers(0, hot, count)
        cold_draws = rng.integers(0, working_set, count)
        take_hot = rng.random(count) < CODE_HOT_PROBABILITY
        return base + np.where(take_hot, hot_draws, cold_draws)

    def user_code_accesses(self, instructions: int) -> np.ndarray:
        """Instruction-line transitions of a user segment."""
        count = int(instructions * CODE_TRANSITIONS_PER_INSTRUCTION)
        if count == 0:
            return _EMPTY_LINES
        return self._draw_code(self.user_code_base, self.user_code_ws, count)

    def os_code_accesses(self, invocation: OSInvocation) -> np.ndarray:
        """Instruction-line transitions of one OS invocation.

        Mirrors the data-side footprint logic: the fetch stream stays
        within a code window that grows with run length, so a trivial
        syscall executes a handful of always-hot handler lines while a
        long one walks a large slice of the kernel text.  All threads
        share one OS code region — the constructive instruction-cache
        reuse the paper attributes to the dedicated OS core.
        """
        count = int(invocation.length * CODE_TRANSITIONS_PER_INSTRUCTION)
        if count == 0:
            return _EMPTY_LINES
        window = min(self.os_code_ws, OS_ENTRY_LINES + invocation.length // 8)
        return self._draw_code(self.os_code_base, window, count)


_EMPTY_LINES = np.empty(0, dtype=np.int64)
_EMPTY_WRITES = np.empty(0, dtype=bool)
