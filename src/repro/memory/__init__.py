"""Memory-hierarchy substrate: one tag-store model and one buffer model.

:class:`Cache` serves IL0, DL0 and UL1 and, as one-set caches of pages,
both TLBs; :class:`LineBuffer` serves the fill buffers and the WCB/EB;
:class:`MemorySystem` composes them with a fixed DRAM latency.
"""

from repro.memory.buffers import LineBuffer
from repro.memory.cache import Cache, CacheLine
from repro.memory.hierarchy import MemoryConfig, MemorySystem

__all__ = [
    "Cache",
    "CacheLine",
    "LineBuffer",
    "MemoryConfig",
    "MemorySystem",
]
