"""Bench engine fast path — batched entry points vs. the spec methods.

``MemoryHierarchy.access_batch`` must be a pure performance substitution
for folding the one-reference spec method ``MemoryHierarchy.access``:
bit-identical counters, faster replay.  This bench pins both halves of
that contract on one fig. 4 grid cell (apache, HI, N=100, aggressive
migration):

1. **identity** — the cell is simulated as the simulator runs it and
   under :func:`tests.goldens.regen.spec_methods` (every batch entry
   point folded over its spec method), and every ``SimulationStats``
   counter is compared;
2. **fast-path speedup** — the cell's memory reference streams are
   captured, two hierarchies are warmed identically, and the streams
   are filtered to the references that hit the L1 fast map (the
   skew-hot resident working set).  This is the regime the batched
   loop's single fast-map probe targets: the acceptance criterion is
   **>= 3x** over folding ``access``;
3. **replay speedup** — the *unfiltered* captured streams replayed
   against fresh hierarchies, misses and all.  Amdahl caps this well
   below the fast-path number (the miss/coherence helpers are shared by
   both paths); the guard is a regression floor, not the headline;
4. **end-to-end speedup** — wall time of the whole cell, where replay
   is only part of the engine loop.

``docs/performance.md`` walks through why the three ratios differ.
Under ``REPRO_BENCH_PROFILE=test`` the streams are far shorter, so the
per-batch fixed costs dominate and only relaxed floors are asserted —
the measured acceptance numbers are DEFAULT-profile quantities.
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np

from repro.memory.hierarchy import MemoryHierarchy
from repro.offload.migration import MigrationModel
from repro.sim.config import DEFAULT_SCALE
from repro.sim.simulator import make_policy, simulate
from repro.workloads.presets import get_workload

from tests.goldens.regen import engine_context

WORKLOAD = "apache"
THRESHOLD = 100
ROUNDS = 3

#: (fast-path, full-replay, end-to-end) speedup floors per regime.  The
#: DEFAULT numbers are the contract (medians 3.7x / 2.5x / 1.4x over 12
#: runs, see docs/performance.md); the TEST floors only catch the
#: batched path becoming a pessimisation.
DEFAULT_FLOORS = (3.0, 1.5, 1.05)
TEST_FLOORS = (2.0, 1.2, 0.85)


def _cell_inputs(config):
    spec = get_workload(WORKLOAD)
    migration = MigrationModel("bench-100", THRESHOLD)
    policy = make_policy(
        "HI", threshold=THRESHOLD, migration=migration, spec=spec, config=config
    )
    return spec, policy, migration


def _run_cell(config, engine):
    """Time one cell; ``engine`` is a label of ``tests.goldens.regen``."""
    spec, policy, migration = _cell_inputs(config)
    with engine_context(engine):
        start = time.perf_counter()
        result = simulate(spec, policy, migration, config)
        elapsed = time.perf_counter() - start
    return elapsed, result


def _best_cell(config, engine):
    _run_cell(config, engine)  # warm allocator / caches
    best, result = min(
        (_run_cell(config, engine) for _ in range(ROUNDS)),
        key=lambda pair: pair[0],
    )
    return best, result


def _capture_streams(config):
    """One cell run with every ``access_batch`` data stream recorded."""
    streams = []
    original = MemoryHierarchy.access_batch

    def recording(self, node_id, lines, writes):
        streams.append((node_id, lines.copy(), writes.copy()))
        return original(self, node_id, lines, writes)

    MemoryHierarchy.access_batch = recording
    try:
        spec, policy, migration = _cell_inputs(config)
        simulate(spec, policy, migration, config)
    finally:
        MemoryHierarchy.access_batch = original
    return streams


def _fresh_hierarchy(config, streams):
    nodes = 1 + max(node_id for node_id, _, _ in streams)
    return MemoryHierarchy(config.memory, [f"node{i}" for i in range(nodes)])


def _replay_scalar(hierarchy, streams):
    total = 0
    access = hierarchy.access
    for node_id, lines, writes in streams:
        for line, is_write in zip(lines.tolist(), writes.tolist()):
            total += access(node_id, line, is_write)
    return total


def _replay_batched(hierarchy, streams):
    total = 0
    access_batch = hierarchy.access_batch
    for node_id, lines, writes in streams:
        total += access_batch(node_id, lines, writes)
    return total


def _fastpath_streams(hierarchy, streams):
    """Filter captured streams to references resident in the warm L1.

    Keeps each stream's real skew (the same line recurring within a
    batch), so the filtered streams touch the same few hot sets the
    cell does.
    """
    kept = []
    for node_id, lines, writes in streams:
        fast = hierarchy.nodes[node_id].l1.fast_map
        keys = (lines << 1) | writes
        mask = np.fromiter(
            map(fast.__contains__, keys.tolist()), bool, count=keys.size
        )
        if mask.any():
            kept.append((node_id, lines[mask], writes[mask]))
    return kept


def _time_replay(replay, hierarchy_factory, streams):
    """Best-of-N replay time; returns (seconds, stall total)."""
    best = float("inf")
    totals = set()
    for _ in range(ROUNDS):
        hierarchy = hierarchy_factory()
        start = time.perf_counter()
        totals.add(replay(hierarchy, streams))
        best = min(best, time.perf_counter() - start)
    assert len(totals) == 1, f"non-deterministic replay: {totals}"
    return best, totals.pop(), hierarchy


def _assert_same_memory_state(left, right):
    for a, b in zip(left.nodes, right.nodes):
        assert list(a.l1.resident_lines()) == list(b.l1.resident_lines())
        assert list(a.l2.resident_lines()) == list(b.l2.resident_lines())
    for group in ("l1_stats", "l2_stats"):
        for a, b in zip(
            getattr(left, group).values(), getattr(right, group).values()
        ):
            assert (a.hits, a.misses) == (b.hits, b.misses)


def test_batched_engine_fastpath_speedup(config, profile):
    floors = DEFAULT_FLOORS if profile is DEFAULT_SCALE else TEST_FLOORS
    min_fastpath, min_replay, min_cell = floors

    # -- identity: the whole cell, both runs, every counter -------------
    scalar_cell, scalar_result = _best_cell(config, "scalar")
    batched_cell, batched_result = _best_cell(config, "batched")
    assert dataclasses.asdict(scalar_result.stats) == dataclasses.asdict(
        batched_result.stats
    ), "batched entry points drifted from the spec methods"
    cell_speedup = scalar_cell / batched_cell

    # -- full-stream replay: fresh hierarchies, misses included --------
    streams = _capture_streams(config)
    refs = sum(lines.size for _, lines, _ in streams)
    factory = lambda: _fresh_hierarchy(config, streams)  # noqa: E731
    scalar_replay, scalar_total, _ = _time_replay(
        _replay_scalar, factory, streams
    )
    batched_replay, batched_total, _ = _time_replay(
        _replay_batched, factory, streams
    )
    assert scalar_total == batched_total
    replay_speedup = scalar_replay / batched_replay

    # -- fast path: warm hierarchies, resident-hit streams --------------
    warm_scalar = factory()
    warm_batched = factory()
    _replay_batched(warm_scalar, streams)
    _replay_batched(warm_batched, streams)
    fast_streams = _fastpath_streams(warm_scalar, streams)
    fast_refs = sum(lines.size for _, lines, _ in fast_streams)
    scalar_fast, scalar_stalls, _ = _time_replay(
        _replay_scalar, lambda: warm_scalar, fast_streams
    )
    batched_fast, batched_stalls, _ = _time_replay(
        _replay_batched, lambda: warm_batched, fast_streams
    )
    assert scalar_stalls == batched_stalls == 0, "fast path must be stall-free"
    _assert_same_memory_state(warm_scalar, warm_batched)
    fastpath_speedup = scalar_fast / batched_fast

    print()
    print(f"cell ({WORKLOAD}/HI/N={THRESHOLD}, best of {ROUNDS}): "
          f"scalar {scalar_cell * 1e3:.1f}ms, batched {batched_cell * 1e3:.1f}ms "
          f"-> {cell_speedup:.2f}x")
    print(f"replay ({refs} refs, cold): "
          f"scalar {scalar_replay / refs * 1e9:.1f}ns/ref, "
          f"batched {batched_replay / refs * 1e9:.1f}ns/ref "
          f"-> {replay_speedup:.2f}x")
    print(f"fast path ({fast_refs} resident refs, warm): "
          f"scalar {scalar_fast / fast_refs * 1e9:.1f}ns/ref, "
          f"batched {batched_fast / fast_refs * 1e9:.1f}ns/ref "
          f"-> {fastpath_speedup:.2f}x")

    assert fastpath_speedup >= min_fastpath, (
        f"fast-path speedup {fastpath_speedup:.2f}x below the "
        f"{min_fastpath:.1f}x floor"
    )
    assert replay_speedup >= min_replay, (
        f"full-stream replay speedup {replay_speedup:.2f}x below the "
        f"{min_replay:.1f}x floor"
    )
    assert cell_speedup >= min_cell, (
        f"end-to-end cell speedup {cell_speedup:.2f}x below the "
        f"{min_cell:.1f}x floor"
    )
