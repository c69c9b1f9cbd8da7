"""Golden-trace snapshots: regenerate the committed SimulationStats JSONs.

Each golden pins the *complete* ``SimulationStats`` of one simulated
cell — every cache/core/coherence/predictor/offload counter — as
computed by the memory hierarchy's one-reference *spec methods* at
``TEST_SCALE``.  The suite in ``tests/test_goldens.py`` replays the same
cells on the spec methods and on the batched entry points the simulator
runs, and fails with a per-counter diff on any drift, so a behaviour
change in the memory model cannot slip through as a plausible-looking
number.

:func:`spec_methods` is the switch every differential suite shares: it
turns the batch entry points into plain folds of their spec methods for
the duration of a ``with`` block.

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
overlaps one thread's off-load with its sibling's execution.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import pathlib
import sys
from typing import Any, ContextManager, Dict, Iterator, Tuple

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent

#: Run labels of the differential suites: ``"scalar"`` runs under
#: :func:`spec_methods`, ``"batched"`` runs the simulator unmodified.
ENGINES: Tuple[str, ...] = ("scalar", "batched")

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


@contextlib.contextmanager
def spec_methods() -> Iterator[None]:
    """Run every memory batch entry point as a fold of its spec method.

    While active, ``MemoryHierarchy.access_batch`` folds ``access``,
    ``MemoryHierarchy.access_code_batch`` folds ``access_code`` and
    ``TranslationBuffer.access_batch`` folds ``access_line`` over their
    arrays, one reference per call, so a simulation replays every
    reference through the executable specification.  The original
    methods are restored on exit.
    """
    from repro.cpu.tlb import TranslationBuffer
    from repro.memory.hierarchy import MemoryHierarchy

    def access_batch(self: Any, node_id: int, lines: Any, writes: Any) -> int:
        access = self.access
        return sum(
            access(node_id, line, is_write)
            for line, is_write in zip(lines.tolist(), writes.tolist())
        )

    def access_code_batch(self: Any, node_id: int, lines: Any) -> int:
        access_code = self.access_code
        return sum(access_code(node_id, line) for line in lines.tolist())

    def translate_batch(self: Any, lines: Any) -> int:
        return sum(map(self.access_line, lines.tolist()))

    folds = (
        (MemoryHierarchy, "access_batch", access_batch),
        (MemoryHierarchy, "access_code_batch", access_code_batch),
        (TranslationBuffer, "access_batch", translate_batch),
    )
    originals = [(owner, name, owner.__dict__[name]) for owner, name, _ in folds]
    for owner, name, fold in folds:
        setattr(owner, name, fold)
    try:
        yield
    finally:
        for owner, name, original in originals:
            setattr(owner, name, original)


def engine_context(engine: str) -> ContextManager[None]:
    """The context a differential run labelled ``engine`` executes in."""
    if engine == "scalar":
        return spec_methods()
    if engine == "batched":
        return contextlib.nullcontext()
    raise ValueError(f"engine label must be one of {ENGINES}, got {engine!r}")


def golden_path(workload: str, seed: int) -> pathlib.Path:
    return GOLDEN_DIR / f"{workload}_seed{seed}.json"


def service_golden_path(tag: str, seed: int) -> pathlib.Path:
    return GOLDEN_DIR / f"service_{tag}_seed{seed}.json"


def smt_golden_path(tag: str, seed: int) -> pathlib.Path:
    return GOLDEN_DIR / f"smt_{tag}_seed{seed}.json"


def run_cell(
    workload: str, seed: int, engine: str, trace_store: Any = None
) -> Dict[str, Any]:
    """Simulate one golden cell; return its stats as a plain dict.

    ``engine`` is a label from :data:`ENGINES`.  ``trace_store`` (a
    :class:`repro.cache.TraceStore`) lets the cache suite assert that
    replaying a materialized trace reproduces these exact goldens.
    """
    from repro.offload.migration import MigrationModel
    from repro.sim.config import SimulatorConfig, TEST_SCALE
    from repro.sim.simulator import make_policy, simulate
    from repro.workloads.presets import get_workload

    config = SimulatorConfig(profile=TEST_SCALE, seed=seed)
    spec = get_workload(workload)
    migration = MigrationModel("golden-100", 100)
    policy = make_policy(
        "HI", threshold=100, migration=migration, spec=spec, config=config
    )
    with engine_context(engine):
        result = simulate(
            spec, policy, migration, config, trace_store=trace_store
        )
    return dataclasses.asdict(result.stats)


def run_service_cell(
    tag: str, seed: int, engine: str, trace_store: Any = None
) -> Dict[str, Any]:
    """Simulate one open-loop service golden cell.

    Returns ``{"stats": ..., "latency": ...}`` — the full
    ``SimulationStats`` plus the ``LatencyStats`` snapshot, so the
    goldens pin arrival gating, pool dispatch *and* the tail-latency
    accounting, not just the counter set.
    """
    from repro.offload.migration import MigrationModel
    from repro.service.config import ServiceConfig
    from repro.sim.config import SimulatorConfig, TEST_SCALE
    from repro.sim.simulator import make_policy, simulate
    from repro.workloads.presets import get_workload

    arrivals, os_cores, dispatch = next(
        (a, c, d) for t, a, c, d in SERVICE_CELLS if t == tag
    )
    config = SimulatorConfig(
        profile=TEST_SCALE,
        seed=seed,
        num_user_cores=2,
        service=ServiceConfig(
            arrivals=arrivals,
            mean_interarrival_cycles=10_000.0,
            os_cores=os_cores,
            dispatch=dispatch,
        ),
    )
    spec = get_workload("apache")
    migration = MigrationModel("golden-100", 100)
    policy = make_policy(
        "HI", threshold=100, migration=migration, spec=spec, config=config
    )
    with engine_context(engine):
        result = simulate(
            spec, policy, migration, config, trace_store=trace_store
        )
    return {
        "stats": dataclasses.asdict(result.stats),
        "latency": result.latency.to_dict(),
    }


def run_smt_cell(
    tag: str, seed: int, engine: str, trace_store: Any = None
) -> Dict[str, Any]:
    """Simulate one SMT golden cell; return its stats as a plain dict."""
    from repro.offload.migration import MigrationModel
    from repro.sim.config import SimulatorConfig, TEST_SCALE
    from repro.sim.simulator import make_policy, simulate
    from repro.workloads.presets import get_workload

    workload, user_cores, one_way = next(
        (w, c, o) for t, w, c, o in SMT_CELLS if t == tag
    )
    config = SimulatorConfig(
        profile=TEST_SCALE,
        seed=seed,
        num_user_cores=user_cores,
        threads_per_user_core=2,
    )
    spec = get_workload(workload)
    migration = MigrationModel(f"golden-{one_way}", one_way)
    policy = make_policy(
        "HI", threshold=100, migration=migration, spec=spec, config=config
    )
    with engine_context(engine):
        result = simulate(
            spec, policy, migration, config, trace_store=trace_store
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
        (golden_path(w, s), lambda w=w, s=s: run_cell(w, s, engine="scalar"))
        for w, s in GOLDEN_CELLS
    ] + [
        (
            service_golden_path(tag, s),
            lambda tag=tag, s=s: run_service_cell(tag, s, engine="scalar"),
        )
        for tag, _, _, _ in SERVICE_CELLS
        for s in SERVICE_SEEDS
    ] + [
        (
            smt_golden_path(tag, s),
            lambda tag=tag, s=s: run_smt_cell(tag, s, engine="scalar"),
        )
        for tag, _, _, _ in SMT_CELLS
        for s in SMT_SEEDS
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
