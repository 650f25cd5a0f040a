"""Memory-hierarchy substrate: caches, TLBs, buffers, DRAM."""

from repro.memory.buffers import FillBufferFile, WriteCombiningBuffer
from repro.memory.cache import Cache, CacheLine
from repro.memory.dram import Dram
from repro.memory.hierarchy import MemoryConfig, MemorySystem
from repro.memory.tlb import Tlb

__all__ = [
    "Cache",
    "CacheLine",
    "Dram",
    "FillBufferFile",
    "MemoryConfig",
    "MemorySystem",
    "Tlb",
    "WriteCombiningBuffer",
]
