"""Memory-hierarchy substrate: caches, TLBs, buffers, DRAM."""

from repro.memory.buffers import FillBufferFile, WriteCombiningBuffer
from repro.memory.cache import AccessResult, Cache, CacheLine
from repro.memory.dram import Dram
from repro.memory.hierarchy import MemoryConfig, MemoryResponse, MemorySystem
from repro.memory.tlb import Tlb

__all__ = [
    "AccessResult",
    "Cache",
    "CacheLine",
    "Dram",
    "FillBufferFile",
    "MemoryConfig",
    "MemoryResponse",
    "MemorySystem",
    "Tlb",
    "WriteCombiningBuffer",
]
