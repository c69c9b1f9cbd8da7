"""Golden-trace regression suite.

Every committed golden under ``tests/goldens/`` pins the full
``SimulationStats`` of one cell as computed by the memory hierarchy's
one-reference spec methods.  The tests replay each cell twice — once
under :func:`~tests.goldens.regen.spec_methods` (the ``scalar`` run)
and once as the simulator runs (``batched``) — and compare counter by
counter, so they catch two distinct failure modes:

- *model drift*: any change to the memory/offload model silently moving
  a counter (scalar run vs. golden);
- *batch divergence*: the batched entry points disagreeing with the
  spec methods on any counter (batched run vs. the same golden).

On drift the failure message lists every differing counter as a
``dot.path: golden -> actual`` line.  If the change was intentional,
regenerate with ``PYTHONPATH=src python tests/goldens/regen.py`` and
review the diff.
"""

from __future__ import annotations

import json

import pytest

from tests.goldens.regen import (
    ENGINES,
    GOLDEN_CELLS,
    SERVICE_CELLS,
    SERVICE_SEEDS,
    SMT_CELLS,
    SMT_SEEDS,
    flatten,
    golden_path,
    run_cell,
    run_service_cell,
    run_smt_cell,
    service_golden_path,
    smt_golden_path,
)


def _diff_lines(golden, actual):
    golden_flat = dict(flatten(golden))
    actual_flat = dict(flatten(actual))
    lines = []
    for path in sorted(set(golden_flat) | set(actual_flat)):
        expected = golden_flat.get(path, "<missing>")
        got = actual_flat.get(path, "<missing>")
        if expected != got:
            lines.append(f"  {path}: {expected} -> {got}")
    return lines


@pytest.mark.parametrize("workload,seed", GOLDEN_CELLS)
@pytest.mark.parametrize("engine", ENGINES)
def test_golden_stats(workload, seed, engine):
    path = golden_path(workload, seed)
    golden = json.loads(path.read_text())
    actual = run_cell(workload, seed, engine=engine)
    diff = _diff_lines(golden, actual)
    if diff:
        pytest.fail(
            f"{engine} engine drifted from {path.name} "
            f"({len(diff)} counters):\n" + "\n".join(diff) + "\n"
            "If intentional: PYTHONPATH=src python tests/goldens/regen.py",
            pytrace=False,
        )


@pytest.mark.parametrize(
    "tag,seed",
    [(tag, seed) for tag, _, _, _ in SERVICE_CELLS for seed in SERVICE_SEEDS],
)
@pytest.mark.parametrize("engine", ENGINES)
def test_service_golden_stats(tag, seed, engine):
    """Open-loop cells: stats AND the latency snapshot must reproduce."""
    path = service_golden_path(tag, seed)
    golden = json.loads(path.read_text())
    actual = run_service_cell(tag, seed, engine=engine)
    diff = _diff_lines(golden, actual)
    if diff:
        pytest.fail(
            f"{engine} engine drifted from {path.name} "
            f"({len(diff)} counters):\n" + "\n".join(diff) + "\n"
            "If intentional: PYTHONPATH=src python tests/goldens/regen.py",
            pytrace=False,
        )


@pytest.mark.parametrize(
    "tag,seed",
    [(tag, seed) for tag, _, _, _ in SMT_CELLS for seed in SMT_SEEDS],
)
@pytest.mark.parametrize("engine", ENGINES)
def test_smt_golden_stats(tag, seed, engine):
    """Two threads per user core: the blocked-switch scheduler's stats."""
    path = smt_golden_path(tag, seed)
    golden = json.loads(path.read_text())
    actual = run_smt_cell(tag, seed, engine=engine)
    diff = _diff_lines(golden, actual)
    if diff:
        pytest.fail(
            f"{engine} engine drifted from {path.name} "
            f"({len(diff)} counters):\n" + "\n".join(diff) + "\n"
            "If intentional: PYTHONPATH=src python tests/goldens/regen.py",
            pytrace=False,
        )


def test_goldens_cover_all_committed_files():
    """Every committed golden file belongs to a cell in the grid."""
    committed = {
        p.name
        for p in golden_path("x", 0).parent.glob("*.json")
    }
    expected = {golden_path(w, s).name for w, s in GOLDEN_CELLS} | {
        service_golden_path(tag, s).name
        for tag, _, _, _ in SERVICE_CELLS
        for s in SERVICE_SEEDS
    } | {
        smt_golden_path(tag, s).name
        for tag, _, _, _ in SMT_CELLS
        for s in SMT_SEEDS
    }
    assert committed == expected
