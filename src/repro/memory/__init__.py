"""Memory substrate: caches, MESI directory, DRAM."""

from repro.memory.cache import Cache, EXCLUSIVE, INVALID, MODIFIED, SHARED
from repro.memory.dram import MainMemory
from repro.memory.hierarchy import CoherenceNode, MemoryHierarchy
from repro.memory.mesi import Directory

__all__ = [
    "Cache",
    "CoherenceNode",
    "Directory",
    "EXCLUSIVE",
    "INVALID",
    "MODIFIED",
    "MainMemory",
    "MemoryHierarchy",
    "SHARED",
]
