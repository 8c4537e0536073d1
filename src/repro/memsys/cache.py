"""A physically-addressed cache with per-line tags.

The machine's caches are all direct-mapped with 16-byte blocks
(paper Section 2.1); the Figure 6 experiments additionally simulate
two-way set-associative variants, so this class supports arbitrary
associativity with LRU replacement.

The cache works on *block numbers* (byte address // block size), which is
the granularity at which the whole simulator operates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.common.params import CacheGeometry

EMPTY = -1


def set_index(block, num_sets):
    """The set ``block`` maps to.

    Shared by :class:`Cache` and the vectorized Figure 6 replay in
    :mod:`repro.analysis.sweeps` (it works elementwise on numpy arrays),
    so the two can never disagree about the mapping.
    """
    return block % num_sets


@dataclass
class EvictionInfo:
    """What `access` evicted, if anything."""

    block: int


class Cache:
    """One level of cache.

    Blocks map to set ``block % num_sets``; within a set, replacement is
    LRU (trivially so for the direct-mapped default).
    """

    __slots__ = ("geometry", "num_sets", "assoc", "_ways", "_present")

    def __init__(self, geometry: CacheGeometry):
        self.geometry = geometry
        self.num_sets = geometry.num_sets
        self.assoc = geometry.associativity
        # _ways[s] holds the blocks resident in set s, MRU first.
        self._ways: List[List[int]] = [[] for _ in range(self.num_sets)]
        # Fast membership test across the whole cache.
        self._present: set = set()

    # ------------------------------------------------------------------
    # Core operations
    # ------------------------------------------------------------------
    def lookup(self, block: int) -> bool:
        """True if ``block`` is resident (does not update LRU)."""
        return block in self._present

    def access(self, block: int) -> Optional[int]:
        """Reference ``block``; fill it on a miss.

        Returns ``None`` on a hit. On a miss, fills the block and returns
        the evicted block number, or ``EMPTY`` (-1) if the set had a free
        way.
        """
        ways = self._ways[set_index(block, self.num_sets)]
        if block in self._present:
            # Hit: refresh LRU position (skip the list juggling when the
            # block is already MRU, the common case).
            if ways[0] != block:
                ways.remove(block)
                ways.insert(0, block)
            return None
        # Miss: fill, evicting LRU if the set is full.
        victim = EMPTY
        if len(ways) >= self.assoc:
            victim = ways.pop()
            self._present.discard(victim)
        ways.insert(0, block)
        self._present.add(block)
        return victim

    def fill(self, block: int) -> int:
        """Fill a block the caller has already proven absent.

        The atomic tier's batched paths test ``block in _present``
        themselves before deciding a reference missed; this skips
        ``access``'s redundant hit check. Returns the evicted block
        number or ``EMPTY``.
        """
        ways = self._ways[block % self.num_sets]
        if self.assoc == 1:
            # Direct-mapped (the machine's own geometry): replace in
            # place, no LRU juggling.
            if ways:
                victim = ways[0]
                ways[0] = block
                self._present.discard(victim)
            else:
                ways.append(block)
                victim = EMPTY
            self._present.add(block)
            return victim
        victim = EMPTY
        if len(ways) >= self.assoc:
            victim = ways.pop()
            self._present.discard(victim)
        ways.insert(0, block)
        self._present.add(block)
        return victim

    def invalidate(self, block: int) -> bool:
        """Remove ``block`` if resident; True if it was."""
        if block not in self._present:
            return False
        self._ways[set_index(block, self.num_sets)].remove(block)
        self._present.discard(block)
        return True

    def invalidate_all(self) -> List[int]:
        """Flush the whole cache, returning the blocks that were resident."""
        flushed = sorted(self._present)
        for ways in self._ways:
            ways.clear()
        self._present.clear()
        return flushed

    def invalidate_range(self, first_block: int, num_blocks: int) -> List[int]:
        """Flush every resident block in ``[first_block, first_block+num_blocks)``."""
        flushed = []
        for block in range(first_block, first_block + num_blocks):
            if self.invalidate(block):
                flushed.append(block)
        return flushed

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def resident_blocks(self) -> frozenset:
        return frozenset(self._present)

    def occupancy(self) -> int:
        return len(self._present)

    def __contains__(self, block: int) -> bool:
        return block in self._present

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Cache({self.geometry.size_bytes // 1024}KB, "
            f"{self.assoc}-way, {self.occupancy()}/{self.geometry.num_blocks} blocks)"
        )
