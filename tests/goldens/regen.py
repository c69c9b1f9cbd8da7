"""Golden-trace snapshots: regenerate the committed SimulationStats JSONs.

Each golden pins the *complete* ``SimulationStats`` of one simulated
cell — every cache/core/coherence/predictor/offload counter — at
``TEST_SCALE``.  The suite in ``tests/test_goldens.py`` replays each
cell once and fails with a per-counter diff on any drift, so a
behaviour change in the memory model cannot slip through as a
plausible-looking number.

Regenerate (only after an intentional model change, with the diff
reviewed counter by counter)::

    PYTHONPATH=src python tests/goldens/regen.py

CI runs the dry-run form, which recomputes every cell in memory and
exits 1 on any divergence from the committed files without writing::

    PYTHONPATH=src python tests/goldens/regen.py --check

The cell grid is 3 server presets x 2 seeds; HI policy at the paper's
sweet spot (N=100, aggressive migration) so that off-load, coherence
and predictor machinery all contribute counters.  A second grid of
open-loop *service* cells (arrival model x OS-core pool x dispatch,
same 2 seeds) additionally pins the ``LatencyStats`` snapshot, so the
tail-latency pipeline is golden-covered too.  A third grid pins the
two-threads-per-user-core (SMT) engine, whose blocked-switch scheduler
overlaps one thread's off-load with its sibling's execution.  A fourth
grid pins closed-loop cells the first leaves out: the SI, DI and NEVER
policies, and a four-user-core run whose five coherence nodes exercise
the directory's many-sharer answers.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import sys
from typing import Any, Dict, Iterator, Tuple

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent

#: (workload preset, root seed) per golden; two seeds per preset so a
#: seed-handling regression cannot cancel out in a single stream.
GOLDEN_CELLS: Tuple[Tuple[str, int], ...] = (
    ("apache", 2010),
    ("apache", 7),
    ("specjbb2005", 2010),
    ("specjbb2005", 7),
    ("derby", 2010),
    ("derby", 7),
)


#: Open-loop service-mode cells: ``(tag, arrivals, os_cores, dispatch)``.
#: The grid crosses arrival models with pool sizes and dispatch
#: policies so arrival gating, the OS-core pool and the latency
#: accumulator all contribute pinned numbers; each cell runs under both
#: :data:`SERVICE_SEEDS` so a seed-handling regression cannot cancel
#: out in a single stream.
SERVICE_CELLS: Tuple[Tuple[str, str, int, str], ...] = (
    ("poisson_pool1_shortest", "poisson", 1, "shortest"),
    ("poisson_pool2_shard", "poisson", 2, "shard"),
    ("bursty_pool2_steal", "bursty", 2, "steal"),
)

SERVICE_SEEDS: Tuple[int, ...] = (2010, 7)


#: SMT cells: ``(tag, workload, num_user_cores, one_way_latency)``, all
#: at two threads per user core and HI/N=100.  The aggressive two-core
#: cell makes threads of different cores share the OS-core pool; the
#: conservative one-core cell keeps both siblings blocked long enough
#: that the core idles.  Each runs under both :data:`SMT_SEEDS`.
SMT_CELLS: Tuple[Tuple[str, str, int, int], ...] = (
    ("apache_2core_oneway100", "apache", 2, 100),
    ("derby_1core_oneway5000", "derby", 1, 5_000),
)

SMT_SEEDS: Tuple[int, ...] = (2010, 7)


#: Closed-loop cells beyond :data:`GOLDEN_CELLS`: ``(tag, workload,
#: policy, threshold, one_way_latency, num_user_cores)``.  The first
#: three run SI, DI and NEVER on one user core at 100-cycle migration;
#: the last is the Section V.C 4:1 run, specjbb2005 HI on four user
#: cores (five coherence nodes).  Each runs under both
#: :data:`CLOSED_SEEDS`.
CLOSED_CELLS: Tuple[Tuple[str, str, str, int, int, int], ...] = (
    ("apache_si_oneway100", "apache", "SI", 100, 100, 1),
    ("specjbb2005_di_oneway100", "specjbb2005", "DI", 100, 100, 1),
    ("derby_never_oneway100", "derby", "NEVER", 100, 100, 1),
    ("specjbb2005_hi_4core_oneway1000", "specjbb2005", "HI", 100, 1_000, 4),
)

CLOSED_SEEDS: Tuple[int, ...] = (2010, 7)


def golden_path(workload: str, seed: int) -> pathlib.Path:
    return GOLDEN_DIR / f"{workload}_seed{seed}.json"


def service_golden_path(tag: str, seed: int) -> pathlib.Path:
    return GOLDEN_DIR / f"service_{tag}_seed{seed}.json"


def smt_golden_path(tag: str, seed: int) -> pathlib.Path:
    return GOLDEN_DIR / f"smt_{tag}_seed{seed}.json"


def closed_golden_path(tag: str, seed: int) -> pathlib.Path:
    return GOLDEN_DIR / f"closed_{tag}_seed{seed}.json"


def _simulate(
    workload: str,
    seed: int,
    trace_store: Any,
    policy: str = "HI",
    threshold: int = 100,
    one_way: int = 100,
    **config_fields: Any,
) -> Any:
    """Simulate one golden cell at ``TEST_SCALE``; return the result.

    ``config_fields`` are the cell's other :class:`SimulatorConfig`
    fields.
    """
    from repro.offload.migration import MigrationModel
    from repro.sim.config import SimulatorConfig, TEST_SCALE
    from repro.sim.simulator import make_policy, simulate
    from repro.workloads.presets import get_workload

    config = SimulatorConfig(profile=TEST_SCALE, seed=seed, **config_fields)
    spec = get_workload(workload)
    migration = MigrationModel(f"golden-{one_way}", one_way)
    made = make_policy(
        policy, threshold=threshold, migration=migration, spec=spec,
        config=config,
    )
    return simulate(spec, made, migration, config, trace_store=trace_store)


def run_cell(
    workload: str, seed: int, trace_store: Any = None
) -> Dict[str, Any]:
    """Simulate one golden cell; return its stats as a plain dict.

    ``trace_store`` (a :class:`repro.cache.TraceStore`) lets the cache
    suite assert that replaying a materialized trace reproduces these
    exact goldens.
    """
    return dataclasses.asdict(_simulate(workload, seed, trace_store).stats)


def run_service_cell(
    tag: str, seed: int, trace_store: Any = None
) -> Dict[str, Any]:
    """Simulate one open-loop service golden cell.

    Returns ``{"stats": ..., "latency": ...}`` — the full
    ``SimulationStats`` plus the ``LatencyStats`` snapshot, so the
    goldens pin arrival gating, pool dispatch *and* the tail-latency
    accounting, not just the counter set.
    """
    from repro.service.config import ServiceConfig

    arrivals, os_cores, dispatch = next(
        (a, c, d) for t, a, c, d in SERVICE_CELLS if t == tag
    )
    result = _simulate(
        "apache",
        seed,
        trace_store,
        num_user_cores=2,
        service=ServiceConfig(
            arrivals=arrivals,
            mean_interarrival_cycles=10_000.0,
            os_cores=os_cores,
            dispatch=dispatch,
        ),
    )
    return {
        "stats": dataclasses.asdict(result.stats),
        "latency": result.latency.to_dict(),
    }


def run_smt_cell(
    tag: str, seed: int, trace_store: Any = None
) -> Dict[str, Any]:
    """Simulate one SMT golden cell; return its stats as a plain dict."""
    workload, user_cores, one_way = next(
        (w, c, o) for t, w, c, o in SMT_CELLS if t == tag
    )
    result = _simulate(
        workload,
        seed,
        trace_store,
        one_way=one_way,
        num_user_cores=user_cores,
        threads_per_user_core=2,
    )
    return dataclasses.asdict(result.stats)


def run_closed_cell(
    tag: str, seed: int, trace_store: Any = None
) -> Dict[str, Any]:
    """Simulate one :data:`CLOSED_CELLS` golden; return its stats."""
    workload, policy, threshold, one_way, user_cores = next(
        (w, p, n, o, c) for t, w, p, n, o, c in CLOSED_CELLS if t == tag
    )
    result = _simulate(
        workload,
        seed,
        trace_store,
        policy=policy,
        threshold=threshold,
        one_way=one_way,
        num_user_cores=user_cores,
    )
    return dataclasses.asdict(result.stats)


def flatten(stats: Any, prefix: str = "") -> Iterator[Tuple[str, Any]]:
    """Yield ``(dot.path, leaf)`` pairs for readable golden diffs."""
    if isinstance(stats, dict):
        for key, value in stats.items():
            yield from flatten(value, f"{prefix}.{key}" if prefix else str(key))
    elif isinstance(stats, (list, tuple)):
        for index, value in enumerate(stats):
            yield from flatten(value, f"{prefix}[{index}]")
    else:
        yield prefix, stats


def _diff_cell(stats: Dict[str, Any], path: pathlib.Path) -> Iterator[str]:
    """Yield one human-readable line per divergent counter."""
    if not path.exists():
        yield f"{path.name}: committed golden is missing"
        return
    committed = dict(flatten(json.loads(path.read_text())))
    fresh = dict(flatten(stats))
    for key in sorted(committed.keys() | fresh.keys()):
        old = committed.get(key, "<absent>")
        new = fresh.get(key, "<absent>")
        if old != new:
            yield f"{path.name}: {key}: committed {old!r} != fresh {new!r}"


def main(argv: Tuple[str, ...] = tuple(sys.argv[1:])) -> int:
    check = "--check" in argv
    drift = 0
    cells = [
        (golden_path(w, s), lambda w=w, s=s: run_cell(w, s))
        for w, s in GOLDEN_CELLS
    ] + [
        (
            service_golden_path(tag, s),
            lambda tag=tag, s=s: run_service_cell(tag, s),
        )
        for tag, _, _, _ in SERVICE_CELLS
        for s in SERVICE_SEEDS
    ] + [
        (
            smt_golden_path(tag, s),
            lambda tag=tag, s=s: run_smt_cell(tag, s),
        )
        for tag, _, _, _ in SMT_CELLS
        for s in SMT_SEEDS
    ] + [
        (
            closed_golden_path(tag, s),
            lambda tag=tag, s=s: run_closed_cell(tag, s),
        )
        for tag, *_ in CLOSED_CELLS
        for s in CLOSED_SEEDS
    ]
    for path, compute in cells:
        stats = compute()
        if check:
            for line in _diff_cell(stats, path):
                print(line)
                drift += 1
        else:
            path.write_text(json.dumps(stats, indent=2, sort_keys=True) + "\n")
            print(f"wrote {path.relative_to(GOLDEN_DIR.parent.parent)}")
    if check:
        label = "drifted counters" if drift else "all goldens reproduce"
        print(f"golden check: {drift} {label}" if drift else
              f"golden check: {label} ({len(cells)} cells)")
    return 1 if drift else 0


if __name__ == "__main__":
    sys.exit(main())
