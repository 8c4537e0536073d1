"""Cache-content reconstruction from the bus miss stream.

The machine's caches are physically addressed and direct mapped, so
their contents are fully determined by the sequence of fills the monitor
observed: every miss fills the line ``block % num_sets``, evicting the
previous occupant; hits change nothing. This is how the paper's
postprocessing can classify misses (Table 2) and re-simulate bigger
caches (Figure 6) from nothing but the trace.

The reconstruction also tracks the classification state per block:
who displaced it (OS or application, and whether the application ran in
between → ``Dispossame``), and whether it was removed by an invalidation
(a bus write from another CPU for data; an announced I-cache flush for
instructions).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.common.types import MissClass, RefDomain

EMPTY = -1


class ReconstructedCache:
    """One direct-mapped cache rebuilt from its fill sequence, with
    Table 2 classification state.

    The trace decoder (:meth:`repro.analysis.decode.TraceAnalyzer.feed`)
    applies :meth:`classify_fill`, :meth:`invalidate` and
    :meth:`resident` inline on ``lines``/``ever_cached``/``evicted_by``/
    ``invalidated``; the methods stay the reference its tests drive.
    """

    __slots__ = ("num_sets", "lines", "ever_cached", "evicted_by", "invalidated")

    def __init__(self, size_bytes: int, block_bytes: int = 16):
        self.num_sets = size_bytes // block_bytes
        self.lines: List[int] = [EMPTY] * self.num_sets
        self.ever_cached: set = set()
        # block -> (displacing domain, app epoch at displacement)
        self.evicted_by: Dict[int, Tuple[RefDomain, int]] = {}
        self.invalidated: set = set()

    def classify_fill(
        self, block: int, domain: RefDomain, app_epoch: int
    ) -> Tuple[MissClass, bool]:
        """Classify the observed miss on ``block`` and apply its fill.

        Returns (class, dispossame). SHARING is returned for any
        invalidation-induced miss; the caller maps it to INVAL for
        instruction caches.
        """
        if block in self.invalidated:
            miss_class, dispossame = MissClass.SHARING, False
        elif block not in self.ever_cached:
            miss_class, dispossame = MissClass.COLD, False
        else:
            displaced = self.evicted_by.get(block)
            if displaced is None:
                # Was cached and never displaced yet misses: the line was
                # lost to something the trace did not show (cannot happen
                # with a complete trace; defensively treat as cold).
                miss_class, dispossame = MissClass.COLD, False
            elif displaced[0] is RefDomain.OS:
                miss_class, dispossame = MissClass.DISPOS, displaced[1] == app_epoch
            else:
                miss_class, dispossame = MissClass.DISPAP, False
        # Apply the fill.
        index = block % self.num_sets
        victim = self.lines[index]
        if victim != EMPTY and victim != block:
            self.evicted_by[victim] = (domain, app_epoch)
            self.invalidated.discard(victim)
        self.lines[index] = block
        self.ever_cached.add(block)
        self.evicted_by.pop(block, None)
        self.invalidated.discard(block)
        return miss_class, dispossame

    def invalidate(self, block: int) -> bool:
        """Coherence/flush removal of one block, if resident."""
        index = block % self.num_sets
        if self.lines[index] != block:
            return False
        self.lines[index] = EMPTY
        self.invalidated.add(block)
        self.evicted_by.pop(block, None)
        return True

    def invalidate_all(self) -> int:
        """Full flush (announced I-cache invalidation)."""
        count = 0
        for index, block in enumerate(self.lines):
            if block != EMPTY:
                self.lines[index] = EMPTY
                self.invalidated.add(block)
                self.evicted_by.pop(block, None)
                count += 1
        return count

    def resident(self, block: int) -> bool:
        return self.lines[block % self.num_sets] == block


class CpuReconstruction:
    """Both caches of one CPU, as reconstructible from the bus.

    Only the bus-visible data level (L2) can be rebuilt — L1 misses that
    hit in L2 never reach the bus, exactly as on the real machine.
    """

    __slots__ = ("icache", "dcache", "app_epoch")

    def __init__(self, icache_bytes: int, dcache_bytes: int, block_bytes: int = 16):
        self.icache = ReconstructedCache(icache_bytes, block_bytes)
        self.dcache = ReconstructedCache(dcache_bytes, block_bytes)
        self.app_epoch = 0
