"""Bench RUNNER — parallel batch-runner scaling guard.

The batch runner exists to make grid sweeps scale with cores, so this
bench regresses exactly that: a 48-cell Figure-4-style grid executed
serially and with 2 worker processes must show a >= 1.5x speedup (the
budget leaves headroom for pool start-up, shard submission, and result
marshalling on 2-core CI runners).

Methodology notes:

- the grid is long enough (48 cells) that the pool's start-up and
  shard imbalance, 0.1-0.2 s, are a small share of the parallel time
  at the test profile;
- the grid runs ``ROUNDS`` times serially and ``ROUNDS`` times in
  parallel, alternating, and the guard takes the median of the
  per-round serial/parallel ratios, so each ratio compares two timings
  taken back to back: one pair of timings of a 16-cell grid read
  1.28-2.36x and failed the floor in 9 of 20 runs from host noise
  alone;
- no timing includes a baseline run, trace generation or priming: the
  warm-up ``run(1)`` leaves derby's baseline in the parent's
  per-process memo (``repro.runner.worker._BASELINE_MEMO``), and
  derby's trace recordings and primed HI state in its reuse level
  (``repro.runner.worker._STORES``), and the pool workers, forked after
  it, inherit all three, so every timed cell replays the recordings and
  loads the primed state (with a start method that does not fork, each
  worker would pay once for each);
- every timed cell simulates its memory side: the grid runs two user
  cores, which :func:`~repro.offload.engine.memory_tape_eligible`
  rejects, so no cell records or replays a latency twin's memory tape
  (the warm-up would otherwise leave a tape for every timed cell, and
  the timed grids would measure little but replays);
- the serial and parallel batches are also compared cell-by-cell — the
  speedup must not come at the cost of the bit-identical guarantee;
- on a single-core machine (or a CPU set restricted to one core) the
  bench skips: a process pool cannot beat serial execution without a
  second core to run on.
"""

from __future__ import annotations

import dataclasses
import os
import statistics
import time

import pytest

from repro.runner import BatchRunner, JobSpec

#: Required serial/parallel wall-time ratio at 2 workers.
MIN_SPEEDUP = 1.5

#: Serial/parallel timing pairs; the guard takes their median ratio.
ROUNDS = 3

#: workload x threshold x latency grid: 48 cells on one workload, so a
#: single shared baseline, one trace per user core and one primed state
#: cover every cell.
GRID = [
    JobSpec("derby", "HI", threshold, latency)
    for threshold in (0, 100, 250, 500, 1000, 2500)
    for latency in (0, 100, 250, 500, 1000, 2500, 5000, 10000)
]


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def test_two_workers_speed_up_a_sweep(config):
    if _usable_cpus() < 2:
        pytest.skip("parallel speedup needs at least two usable CPUs")

    # Two user cores: no cell may take a memory tape.
    untaped = dataclasses.replace(config, num_user_cores=2)

    def run(jobs: int):
        runner = BatchRunner(config=untaped, jobs=jobs)
        start = time.perf_counter()
        batch = runner.run(GRID)
        elapsed = time.perf_counter() - start
        batch.raise_on_failures()
        for result in batch:
            assert not {"tape_hits", "tape_misses"} & set(
                result.cache_counters
            ), f"{result.job_id} took a memory tape"
        return batch, elapsed

    run(1)  # warm the baseline memo, the level and the allocator
    serial_s, parallel_s = [], []
    for _ in range(ROUNDS):
        serial_batch, elapsed = run(1)
        serial_s.append(elapsed)
        parallel_batch, elapsed = run(2)
        parallel_s.append(elapsed)
        assert [r.metrics for r in serial_batch] == [
            r.metrics for r in parallel_batch
        ], "parallel execution changed cell results"
    speedup = statistics.median(
        serial / parallel for serial, parallel in zip(serial_s, parallel_s)
    )

    print()
    print(f"grid: {len(GRID)} cells on {untaped.num_user_cores} user cores, "
          f"profile {config.profile.name}")
    print("serial: " + " ".join(f"{s:.2f}" for s in serial_s)
          + "s  2 workers: " + " ".join(f"{s:.2f}" for s in parallel_s)
          + f"s  median speedup: {speedup:.2f}x")

    assert speedup >= MIN_SPEEDUP, (
        f"2-worker speedup {speedup:.2f}x is below the {MIN_SPEEDUP}x budget"
    )
