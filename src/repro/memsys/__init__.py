"""Memory-system simulator for the modelled SGI 4D/340.

The pieces:

- :class:`~repro.memsys.cache.Cache` — one physically-addressed,
  direct-mapped or set-associative cache.
- :class:`~repro.memsys.hierarchy.CpuCacheHierarchy` — per-CPU 64 KB
  I-cache plus two-level (64 KB + 256 KB) D-cache.
- :class:`~repro.memsys.bus.Bus` — the shared snooping bus; every
  bus transaction is visible to attached listeners (the hardware monitor).
- :class:`~repro.memsys.memory.PhysicalMemory` — the 32 MB physical
  address map (kernel text, kernel data, page frames) and frame allocator.
- :class:`~repro.memsys.tracking.GroundTruth` — simulator-side
  per-miss classification used to validate the trace-driven classifier.
"""

from repro.memsys.cache import Cache
from repro.memsys.bus import Bus
from repro.memsys.hierarchy import CpuCacheHierarchy, AccessOutcome
from repro.memsys.memory import PhysicalMemory, MemoryRegion
from repro.memsys.system import MemorySystem
from repro.memsys.tracking import GroundTruth, MissEvent

__all__ = [
    "Cache",
    "Bus",
    "CpuCacheHierarchy",
    "AccessOutcome",
    "PhysicalMemory",
    "MemoryRegion",
    "MemorySystem",
    "GroundTruth",
    "MissEvent",
]
