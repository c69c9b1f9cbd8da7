"""Golden-trace regression suite.

Every committed golden under ``tests/goldens/`` pins the full
``SimulationStats`` of one cell.  The tests replay each cell once, as
the simulator runs it, and compare counter by counter, so any change to
the memory/offload model that silently moves a counter fails here.
The memory model's per-reference latencies and transitions are checked
against its latency table by ``tests/test_mesi_exhaustive.py``; the
goldens catch what that walk cannot see: the off-load, core and
predictor accounting, and the reference streams the engine replays.

On drift the failure message lists every differing counter as a
``dot.path: golden -> actual`` line.  If the change was intentional,
regenerate with ``PYTHONPATH=src python tests/goldens/regen.py`` and
review the diff.
"""

from __future__ import annotations

import json

import pytest

from tests.goldens.regen import (
    CLOSED_CELLS,
    CLOSED_SEEDS,
    GOLDEN_CELLS,
    SERVICE_CELLS,
    SERVICE_SEEDS,
    SMT_CELLS,
    SMT_SEEDS,
    closed_golden_path,
    flatten,
    golden_path,
    run_cell,
    run_closed_cell,
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


def _assert_matches(path, actual):
    """Fail with a per-counter diff unless ``actual`` equals the golden."""
    diff = _diff_lines(json.loads(path.read_text()), actual)
    if diff:
        pytest.fail(
            f"cell drifted from {path.name} "
            f"({len(diff)} counters):\n" + "\n".join(diff) + "\n"
            "If intentional: PYTHONPATH=src python tests/goldens/regen.py",
            pytrace=False,
        )


@pytest.mark.parametrize("workload,seed", GOLDEN_CELLS)
def test_golden_stats(workload, seed):
    _assert_matches(golden_path(workload, seed), run_cell(workload, seed))


@pytest.mark.parametrize(
    "tag,seed",
    [(tag, seed) for tag, _, _, _ in SERVICE_CELLS for seed in SERVICE_SEEDS],
)
def test_service_golden_stats(tag, seed):
    """Open-loop cells: stats AND the latency snapshot must reproduce."""
    _assert_matches(
        service_golden_path(tag, seed), run_service_cell(tag, seed)
    )


@pytest.mark.parametrize(
    "tag,seed",
    [(tag, seed) for tag, _, _, _ in SMT_CELLS for seed in SMT_SEEDS],
)
def test_smt_golden_stats(tag, seed):
    """Two threads per user core: the blocked-switch scheduler's stats."""
    _assert_matches(smt_golden_path(tag, seed), run_smt_cell(tag, seed))


@pytest.mark.parametrize(
    "tag,seed",
    [(tag, seed) for tag, *_ in CLOSED_CELLS for seed in CLOSED_SEEDS],
)
def test_closed_golden_stats(tag, seed):
    """SI, DI and NEVER cells, and a four-user-core HI cell."""
    _assert_matches(closed_golden_path(tag, seed), run_closed_cell(tag, seed))


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
    } | {
        closed_golden_path(tag, s).name
        for tag, *_ in CLOSED_CELLS
        for s in CLOSED_SEEDS
    }
    assert committed == expected
