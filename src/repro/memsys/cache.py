"""A physically-addressed cache with per-line tags.

The machine's caches are all direct-mapped with 16-byte blocks
(paper Section 2.1); the Figure 6 experiments additionally simulate
two-way set-associative variants, so this class supports arbitrary
associativity with LRU replacement.

The cache works on *block numbers* (byte address // block size), which is
the granularity at which the whole simulator operates.
"""

from __future__ import annotations

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


class Cache:
    """One level of cache.

    Blocks map to set ``block % num_sets``; within a set, replacement is
    LRU. A direct-mapped cache (the machine's own geometry) keeps one
    flat tag list, ``_tags[s]`` being set s's block or ``EMPTY``; an
    associative one keeps ``_ways[s]``, the blocks resident in set s,
    MRU first. The other of the two is None. Pickles store the per-set
    list layout either way (:meth:`__getstate__`).
    """

    __slots__ = ("geometry", "num_sets", "assoc", "_ways", "_present", "_tags")

    def __init__(self, geometry: CacheGeometry):
        self.geometry = geometry
        self.num_sets = geometry.num_sets
        self.assoc = geometry.associativity
        if self.assoc == 1:
            self._tags: Optional[List[int]] = [EMPTY] * self.num_sets
            self._ways: Optional[List[List[int]]] = None
        else:
            self._tags = None
            self._ways = [[] for _ in range(self.num_sets)]
        # Fast membership test across the whole cache.
        self._present: set = set()

    # ------------------------------------------------------------------
    # Pickling: the stored form is the per-set list layout, so pickled
    # runs and checkpoints stay byte-identical to those written before
    # the flat tag list existed.
    # ------------------------------------------------------------------
    def __getstate__(self):
        ways = self._ways
        if ways is None:
            ways = [[] if tag == EMPTY else [tag] for tag in self._tags]
        return (None, {
            "geometry": self.geometry,
            "num_sets": self.num_sets,
            "assoc": self.assoc,
            "_ways": ways,
            "_present": self._present,
        })

    def __setstate__(self, state):
        _, slots = state
        self.geometry = slots["geometry"]
        self.num_sets = slots["num_sets"]
        self.assoc = slots["assoc"]
        self._present = slots["_present"]
        ways = slots["_ways"]
        if self.assoc == 1:
            self._tags = [way[0] if way else EMPTY for way in ways]
            self._ways = None
        else:
            self._tags = None
            self._ways = ways

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
        if block in self._present:
            ways = self._ways
            if ways is not None:
                # Associative hit: refresh LRU position (skip the list
                # juggling when the block is already MRU, the common case).
                ways = ways[set_index(block, self.num_sets)]
                if ways[0] != block:
                    ways.remove(block)
                    ways.insert(0, block)
            return None
        return self.fill(block)

    def fill(self, block: int) -> int:
        """Fill a block the caller has already proven absent.

        The miss paths of both tiers test ``block in _present``
        themselves before deciding a reference missed; this skips
        ``access``'s redundant hit check. Returns the evicted block
        number or ``EMPTY``.
        """
        present = self._present
        tags = self._tags
        if tags is not None:
            # Direct-mapped: replace the set's one tag in place.
            index = block % self.num_sets
            victim = tags[index]
            tags[index] = block
            if victim != EMPTY:
                present.discard(victim)
            present.add(block)
            return victim
        ways = self._ways[block % self.num_sets]
        victim = EMPTY
        if len(ways) >= self.assoc:
            victim = ways.pop()
            present.discard(victim)
        ways.insert(0, block)
        present.add(block)
        return victim

    def invalidate(self, block: int) -> bool:
        """Remove ``block`` if resident; True if it was."""
        if block not in self._present:
            return False
        if self._tags is not None:
            self._tags[block % self.num_sets] = EMPTY
        else:
            self._ways[set_index(block, self.num_sets)].remove(block)
        self._present.discard(block)
        return True

    def invalidate_all(self) -> List[int]:
        """Flush the whole cache, returning the blocks that were resident."""
        flushed = sorted(self._present)
        if self._tags is not None:
            self._tags[:] = [EMPTY] * self.num_sets
        else:
            for ways in self._ways:
                ways.clear()
        self._present.clear()
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
