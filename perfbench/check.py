"""Output check: every cell's simulated stats against a reference.

For a seed recorded in ``reference.json`` (the simulator's default seed,
recorded from the commit that introduced this benchmark) each cell must
match its recorded stats exactly.  For any other seed, every repeat of a
cell within a run must equal its first occurrence.  The simulator is
deterministic and its engines are bit-identical, so exact equality is
the contract; a mismatch is a failed cell.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Optional

Stats = Dict[str, float]

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


def load_reference(
    seed: int, workload: str, path: str = REFERENCE_PATH
) -> Optional[Dict[str, Stats]]:
    """The recorded cells for ``(seed, workload)``, or ``None``."""
    try:
        with open(path) as handle:
            recorded = json.load(handle)
    except FileNotFoundError:
        return None
    return recorded.get("seeds", {}).get(str(seed), {}).get(workload)


def save_reference(
    seed: int, workload: str, cells: Dict[str, Stats], path: str = REFERENCE_PATH
) -> None:
    """Record ``cells`` as the reference for ``(seed, workload)``."""
    try:
        with open(path) as handle:
            recorded = json.load(handle)
    except FileNotFoundError:
        recorded = {"seeds": {}}
    recorded["seeds"].setdefault(str(seed), {})[workload] = cells
    with open(path, "w") as handle:
        json.dump(recorded, handle, indent=1, sort_keys=True)
        handle.write("\n")


class OutputCheck:
    """Compares each pass's cells against the reference or first repeat."""

    def __init__(self, reference: Optional[Dict[str, Stats]] = None):
        self.reference = reference
        self.seen: Dict[str, Stats] = {}

    @property
    def mode(self) -> str:
        return "reference" if self.reference is not None else "repeat"

    def check(self, cells: Dict[str, Stats]) -> Dict[str, str]:
        """A message per mismatching cell (empty when all match)."""
        problems = {}
        for cell, stats in sorted(cells.items()):
            if self.reference is not None:
                expected = self.reference.get(cell)
                if expected is None:
                    problems[cell] = "not in the reference"
                    continue
            else:
                expected = self.seen.setdefault(cell, stats)
            diffs = [
                f"{key}={stats.get(key)!r} expected {expected.get(key)!r}"
                for key in sorted(set(stats) | set(expected))
                if stats.get(key) != expected.get(key)
            ]
            if diffs:
                problems[cell] = ", ".join(diffs)
        return problems
