"""Array-engine backend name, as recorded in benchmark environments."""

from __future__ import annotations

__all__ = ["columnar_backend"]


# Kept only because perfbench/run.py records it; the next benchmark change can drop this module.
def columnar_backend() -> str:
    """Always ``"numpy"``: there is no compiled backend."""
    return "numpy"
