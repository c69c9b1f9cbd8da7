"""Memory substrate: caches, DRAM, and the MESI hierarchy over them.

The hierarchy's full-map directory keeps no state: it reads the L2s.
"""

from repro.memory.cache import Cache, EXCLUSIVE, INVALID, MODIFIED, SHARED
from repro.memory.dram import MainMemory
from repro.memory.hierarchy import CoherenceNode, MemoryHierarchy

__all__ = [
    "Cache",
    "CoherenceNode",
    "EXCLUSIVE",
    "INVALID",
    "MODIFIED",
    "MainMemory",
    "MemoryHierarchy",
    "SHARED",
]
