"""Physical memory map and page-frame allocator.

The 4D/340 under measurement had 32 MB of physical memory
(paper Section 2.1). We lay it out as:

====================  ======================  ===========================
Region                Physical range          Holds
====================  ======================  ===========================
kernel text           0x000000 - 0x0F0000     OS routines (repro.kernel.layout)
escape window         0x0F0000 - 0x100000     odd-address escape reads
kernel static data    0x100000 - 0x300000     Table 3 structures
kernel heap           0x300000 - 0x400000     dynamic kernel allocations
page frames           0x400000 - 0x2000000    user pages, buffer cache pages
====================  ======================  ===========================

The escape window mirrors the paper's instrumentation trick: a range of
physical addresses where only OS code ever lives, so uncached byte reads
of *odd* addresses there can never be confused with real references
(Section 2.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.common.params import MachineParams

KTEXT_BASE = 0x000000
KTEXT_SIZE = 0x0F0000
ESCAPE_BASE = 0x0F0000
ESCAPE_SIZE = 0x010000
KDATA_BASE = 0x100000
KDATA_SIZE = 0x200000
KHEAP_BASE = 0x300000
KHEAP_SIZE = 0x100000
FRAMES_BASE = 0x400000


@dataclass(frozen=True)
class MemoryRegion:
    """A named physical address range."""

    name: str
    base: int
    size: int

    @property
    def end(self) -> int:
        return self.base + self.size

    def contains(self, addr: int) -> bool:
        return self.base <= addr < self.end


class OutOfMemoryError(RuntimeError):
    """The frame pool is exhausted."""


class PhysicalMemory:
    """The machine's physical address space and frame allocator.

    Frames are allocated from a free list kept in FIFO order so that a
    freed frame is not immediately reused — which is what lets reuse of a
    frame that held code actually hit a *different* process later and
    force the I-cache invalidations the paper observes.
    """

    def __init__(self, params: MachineParams):
        self.params = params
        if FRAMES_BASE >= params.memory_bytes:
            raise ValueError("memory too small for the fixed kernel regions")
        self.regions: Dict[str, MemoryRegion] = {
            "ktext": MemoryRegion("ktext", KTEXT_BASE, KTEXT_SIZE),
            "escape": MemoryRegion("escape", ESCAPE_BASE, ESCAPE_SIZE),
            "kdata": MemoryRegion("kdata", KDATA_BASE, KDATA_SIZE),
            "kheap": MemoryRegion("kheap", KHEAP_BASE, KHEAP_SIZE),
            "frames": MemoryRegion(
                "frames", FRAMES_BASE, params.memory_bytes - FRAMES_BASE
            ),
        }
        first_frame = FRAMES_BASE // params.page_bytes
        self.num_frames = (params.memory_bytes - FRAMES_BASE) // params.page_bytes
        self._free: List[int] = list(range(first_frame, first_frame + self.num_frames))
        self._free_head = 0  # index into _free (amortized O(1) FIFO pop)
        self._allocated: set = set()

    # ------------------------------------------------------------------
    # Frame allocation
    # ------------------------------------------------------------------
    def alloc_frame(self) -> int:
        """Allocate one physical page frame (frame number)."""
        if self._free_head >= len(self._free):
            raise OutOfMemoryError("no free page frames")
        frame = self._free[self._free_head]
        self._free_head += 1
        if self._free_head > 4096 and self._free_head * 2 > len(self._free):
            del self._free[: self._free_head]
            self._free_head = 0
        self._allocated.add(frame)
        return frame

    def free_frame(self, frame: int) -> None:
        if frame not in self._allocated:
            raise ValueError(f"frame {frame} is not allocated")
        self._allocated.discard(frame)
        self._free.append(frame)

    def free_frame_count(self) -> int:
        return len(self._free) - self._free_head

    def frame_base(self, frame: int) -> int:
        return frame * self.params.page_bytes

    # ------------------------------------------------------------------
    # Region queries
    # ------------------------------------------------------------------
    def region_of(self, addr: int) -> Optional[MemoryRegion]:
        for region in self.regions.values():
            if region.contains(addr):
                return region
        return None

    def is_kernel_text(self, addr: int) -> bool:
        return self.regions["ktext"].contains(addr)

    def is_escape(self, addr: int) -> bool:
        return self.regions["escape"].contains(addr)
