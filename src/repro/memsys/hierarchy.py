"""Per-CPU cache hierarchy.

Each R3000 CPU in the 4D/340 has a 64 KB instruction cache and a two-level
data cache (64 KB first level, 256 KB second level); all physically
addressed, direct mapped, with 16-byte blocks (paper Section 2.1).

Only second-level data misses and instruction misses reach the bus; a
first-level data miss that hits in the second level stalls the CPU for
about 15 cycles without a bus access (Section 3.1) — which is why the
paper's monitor, and our modelled monitor, cannot see those.
"""

from __future__ import annotations

import enum
from typing import List, Optional

from repro.common.params import MachineParams
from repro.memsys.cache import Cache, EMPTY


class AccessOutcome(enum.Enum):
    """Result of a data-cache access."""

    L1_HIT = "l1_hit"
    L2_HIT = "l2_hit"   # L1 miss satisfied by L2; no bus transaction
    MISS = "miss"       # misses both levels; goes to the bus


class CpuCacheHierarchy:
    """The caches of one CPU."""

    __slots__ = ("cpu", "icache", "dl1", "dl2")

    def __init__(self, cpu: int, params: MachineParams):
        self.cpu = cpu
        self.icache = Cache(params.icache)
        self.dl1 = Cache(params.dcache_l1)
        self.dl2 = Cache(params.dcache_l2)

    # ------------------------------------------------------------------
    # Instruction side
    # ------------------------------------------------------------------
    def ifetch(self, block: int) -> Optional[int]:
        """Fetch one instruction block.

        Returns ``None`` on a hit; on a miss, the evicted I-cache block
        (or ``EMPTY`` if the line was free).
        """
        return self.icache.access(block)

    # ------------------------------------------------------------------
    # Data side
    # ------------------------------------------------------------------
    def daccess(self, block: int) -> "tuple[AccessOutcome, int]":
        """Access one data block through both levels.

        Returns ``(outcome, l2_victim)`` where ``l2_victim`` is the block
        evicted from the second level on a full miss (``EMPTY`` if none;
        only meaningful when ``outcome`` is ``MISS``).

        Inclusion is enforced: a block evicted from L2 is also removed
        from L1, so L2 state alone describes what the bus-level
        reconstruction (the paper's postprocessing approach) can see.
        """
        dl1 = self.dl1
        if block in dl1._present:
            dl1.access(block)  # refresh LRU
            return AccessOutcome.L1_HIT, EMPTY
        dl2 = self.dl2
        if block in dl2._present:
            dl2.access(block)
            dl1.fill(block)
            return AccessOutcome.L2_HIT, EMPTY
        l2_victim = dl2.fill(block)
        if l2_victim != EMPTY:
            dl1.invalidate(l2_victim)  # keep L1 subset of L2
        dl1.fill(block)
        return AccessOutcome.MISS, l2_victim

    def invalidate_data(self, block: int) -> bool:
        """Coherence invalidation of a data block (both levels).

        Returns True if the block was resident in L2 (the bus-visible
        level).
        """
        self.dl1.invalidate(block)
        return self.dl2.invalidate(block)

    def invalidate_instr_range(self, first_block: int, num_blocks: int) -> List[int]:
        """Flush an address range from the I-cache (page reallocation).

        The 4D/340 keeps I-caches coherent in software only: when a
        physical page that contained code is reallocated, the OS must
        invalidate the I-caches, producing the paper's *Inval* misses
        (Table 2).
        """
        return self.icache.invalidate_range(first_block, num_blocks)

    def data_resident(self, block: int) -> bool:
        return self.dl2.lookup(block)

    def instr_resident(self, block: int) -> bool:
        return self.icache.lookup(block)
