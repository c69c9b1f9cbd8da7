"""Bench trace/result cache — generate once, replay everywhere guard.

The batch worker's reuse levels (:mod:`repro.cache`) promise a pure
performance substitution: bit-identical numbers, less repeated work.
This bench pins both halves of that contract on a Figure-4-shaped
sub-grid (two servers x the full threshold grid x two latencies, 24
cells over two shared baselines), against a **store-less reference**:
``simulate()`` per cell and ``simulate_baseline()`` once per workload,
as the runner normalizes, with no trace store, no primed state and no
memory tape.  The reference generates, primes and simulates every cell.

1. **identity** — the grid is executed cache-less, cold-cached and
   warm-cached, and every cell's metrics dict must equal the
   reference's;
2. **cold-grid speedup** — reuse already pays off *within* one grid.
   Both the cache-less grid and the cold cache record each thread's
   trace once, prime each learning policy once per workload (later
   cells load the primed predictor), and let each latency-100 cell
   replay its latency-0 twin's memory tape instead of simulating the
   hierarchy.  The cold cache also writes trace entries that outlive
   the process, for later runs on the root.  Each must beat the
   reference by the DEFAULT-profile floor of **>= 1.5x**.  The ratio
   of the two, ``cold_over_cacheless_runner``, is reported without a
   floor: it prices what the root's disk adds within one grid;
3. **warm re-run speedup** — re-running the same grid against the
   populated cache short-circuits at the result layer (level 2) and
   never touches the simulator.  The DEFAULT-profile floor is
   **>= 5x** over the cache-less grid.

``docs/caching.md`` explains the levels, the in-process tapes and
primed states, and the key derivation.
Under ``REPRO_BENCH_PROFILE=test`` the traces are short enough that
fixed per-cell costs dominate, so only relaxed floors are asserted —
the acceptance numbers are DEFAULT-profile quantities.

The measured numbers land in ``BENCH_5.json`` at the repo root for the
CI step that tracks them.
"""

from __future__ import annotations

import json
import pathlib
import time

from repro.experiments.common import THRESHOLD_GRID, run_job_grid, sweep_specs
from repro.offload.migration import MigrationModel
from repro.runner import worker
from repro.sim.config import DEFAULT_SCALE
from repro.sim.simulator import make_policy, simulate, simulate_baseline
from repro.workloads.presets import get_workload

WORKLOADS = ("apache", "specjbb2005")
LATENCIES = (0, 100)
ROUNDS = 2

#: (cold-grid, warm-re-run) speedup floors per regime.  The cold-grid
#: floor holds for the cold cache and for the cache-less grid, each over
#: the store-less reference; the warm floor is over the cache-less grid.
#: The DEFAULT numbers are the contract (docs/caching.md has the
#: measured table); the TEST floors only catch reuse becoming a
#: pessimisation.
DEFAULT_FLOORS = (1.5, 5.0)
TEST_FLOORS = (1.05, 3.0)

BENCH_JSON = pathlib.Path(__file__).resolve().parent.parent / "BENCH_5.json"


def _forget_process_state() -> None:
    """Drop the worker's in-process memos so every timed run starts cold.

    Without this the baseline memo and the reuse levels would leak
    warmth from one timed run into the next."""
    worker._BASELINE_MEMO.clear()
    worker._STORES.clear()


def _timed_grid(specs, config, cache_dir=None):
    _forget_process_state()
    start = time.perf_counter()
    batch = run_job_grid(specs, config, cache_dir=cache_dir)
    elapsed = time.perf_counter() - start
    batch.raise_on_failures()
    return elapsed, {result.job_id: result.metrics for result in batch}


def _timed_reference(specs, config):
    """Store-less ``simulate()`` per cell over one baseline per workload."""
    start = time.perf_counter()
    baselines = {}
    metrics = {}
    for spec in specs:
        workload = get_workload(spec.workload)
        if spec.workload not in baselines:
            baselines[spec.workload] = simulate_baseline(
                workload, config
            ).throughput
        migration = MigrationModel(f"runner-{spec.latency}", spec.latency)
        policy = make_policy(
            spec.policy, threshold=spec.threshold, migration=migration,
            spec=workload, config=config,
        )
        run = simulate(workload, policy, migration, config)
        job_id = spec.resolved(config.seed).job_id
        metrics[job_id] = worker.cell_metrics(run, baselines[spec.workload])
    return time.perf_counter() - start, metrics


def test_cache_cold_and_warm_speedups(config, profile, tmp_path):
    floors = DEFAULT_FLOORS if profile is DEFAULT_SCALE else TEST_FLOORS
    min_cold, min_warm = floors
    specs = sweep_specs(WORKLOADS, THRESHOLD_GRID, LATENCIES)

    # -- timed runs: reference, cache-less, cold (fresh dir), warm -------
    reference_s = cacheless_s = cold_s = warm_s = float("inf")
    reference = None
    cache_dir = None
    for round_index in range(ROUNDS):
        elapsed, metrics = _timed_reference(specs, config)
        reference_s = min(reference_s, elapsed)
        if reference is None:
            reference = metrics
        assert metrics == reference, "store-less reference is non-deterministic"
        elapsed, metrics = _timed_grid(specs, config)
        cacheless_s = min(cacheless_s, elapsed)
        assert metrics == reference, "cache-less grid drifted from the reference"
        cache_dir = str(tmp_path / f"cache-{round_index}")
        elapsed, metrics = _timed_grid(specs, config, cache_dir=cache_dir)
        cold_s = min(cold_s, elapsed)
        assert metrics == reference, "cold cached grid drifted from the reference"
    for _ in range(ROUNDS):
        elapsed, metrics = _timed_grid(specs, config, cache_dir=cache_dir)
        warm_s = min(warm_s, elapsed)
        assert metrics == reference, "warm cached grid drifted from the reference"

    cold_speedup = reference_s / cold_s
    cacheless_speedup = reference_s / cacheless_s
    warm_speedup = cacheless_s / warm_s
    cold_over_cacheless = cacheless_s / cold_s

    print()
    print(f"grid ({len(specs)} cells, best of {ROUNDS}): "
          f"store-less reference {reference_s:.2f}s, "
          f"cache-less {cacheless_s:.2f}s -> {cacheless_speedup:.2f}x, "
          f"cold cache {cold_s:.2f}s -> {cold_speedup:.2f}x")
    print(f"cold cache over cache-less grid: {cold_over_cacheless:.2f}x")
    print(f"warm re-run: {warm_s * 1e3:.0f}ms -> {warm_speedup:.1f}x "
          "over the cache-less grid")

    BENCH_JSON.write_text(json.dumps({
        "bench": "cache",
        "profile": profile.name,
        "cells": len(specs),
        "reference_s": round(reference_s, 4),
        "cacheless_s": round(cacheless_s, 4),
        "cold_cached_s": round(cold_s, 4),
        "warm_s": round(warm_s, 4),
        "cold_grid_speedup": round(cold_speedup, 3),
        "cacheless_grid_speedup": round(cacheless_speedup, 3),
        "cold_over_cacheless_runner": round(cold_over_cacheless, 3),
        "warm_rerun_speedup": round(warm_speedup, 3),
        "floors": {"cold_grid": min_cold, "warm_rerun": min_warm},
    }, indent=2) + "\n")

    assert cold_speedup >= min_cold, (
        f"cold-grid speedup {cold_speedup:.2f}x over the store-less "
        f"reference is below the {min_cold:.2f}x floor"
    )
    assert cacheless_speedup >= min_cold, (
        f"cache-less grid speedup {cacheless_speedup:.2f}x over the "
        f"store-less reference is below the {min_cold:.2f}x floor"
    )
    assert warm_speedup >= min_warm, (
        f"warm re-run speedup {warm_speedup:.1f}x below the "
        f"{min_warm:.1f}x floor"
    )
