"""Coherence invariants on the memory system.

The 4D/340's data caches follow a write-invalidate snooping protocol;
its instruction caches are incoherent and flushed only by software
(Table 2's *Inval* miss class exists because of exactly that). The
checker asserts the protocol's observable invariants at the points the
memory system mutates shared state:

- **single writer** — after a write gains ownership of a line, no other
  CPU's data cache may still hold it (the snoop-invalidate must really
  have cleared the remote tags), and the owner map must agree;
- **no silent fills** — a write that misses L2 must put a transaction
  on the bus: a fill that the monitor cannot see would silently corrupt
  the paper's trace-driven cache reconstruction;
- **reads downgrade** — after a read fill, the line may not remain
  exclusively owned by a *different* CPU;
- **I-cache isolation** — a data-write invalidation must leave every
  I-cache untouched (only explicit flushes may invalidate instruction
  lines), and a flush on frame reuse must empty every I-cache;
- **final sweep** — at end of run, every owned line is verified to have
  no remote cached copy (the never-two-dirty-copies invariant).
"""

from __future__ import annotations

from typing import List, Tuple

from repro.common.backref import BackRef, HoldsBackRefs
from repro.sanitizers.report import Violation


class CoherenceChecker(HoldsBackRefs):
    """Asserts snooping-protocol invariants on :class:`MemorySystem`."""

    registry = BackRef()
    memsys = BackRef()

    def __init__(self, registry):
        self.registry = registry
        self.memsys = None   # bound by CheckRegistry.install
        self.writes_checked = 0
        self.reads_checked = 0
        self.flushes_checked = 0
        # Write events that actually put a transaction on the bus (the
        # ownership-gaining subset of writes_checked). This is the
        # checker-side number the monitor's recorded WRITE entries must
        # reproduce exactly — see AnalysisReport.crosscheck().
        self.write_transactions = 0

    # ------------------------------------------------------------------
    # Hooks called from MemorySystem (only on miss/upgrade/flush paths)
    # ------------------------------------------------------------------
    def snapshot_icaches(self, block: int) -> Tuple[int, ...]:
        """CPUs whose I-cache holds ``block`` (before an invalidation)."""
        return tuple(
            h.cpu for h in self.memsys.hierarchies if h.icache.lookup(block)
        )

    def after_data_write(
        self,
        time_cycles: int,
        cpu: int,
        block: int,
        missed: bool,
        transacted: bool,
        icache_before: Tuple[int, ...],
    ) -> None:
        self.writes_checked += 1
        if transacted:
            self.write_transactions += 1
        memsys = self.memsys
        if missed and not transacted:
            self.registry.record(Violation(
                "coherence", "silent-write-fill", cpu, time_cycles,
                f"write fill of line {hex(block * memsys.block_bytes)} "
                "issued no bus transaction (stale ownership state)",
                {"line": hex(block * memsys.block_bytes), "owner_map":
                 memsys._owner.get(block, "absent")},
            ))
        owner = memsys._owner.get(block)
        if owner != cpu:
            self.registry.record(Violation(
                "coherence", "owner-map-mismatch", cpu, time_cycles,
                f"after write, line {hex(block * memsys.block_bytes)} "
                f"owned by {owner!r} instead of cpu{cpu}",
                {"line": hex(block * memsys.block_bytes)},
            ))
        for hierarchy in memsys.hierarchies:
            if hierarchy.cpu != cpu and hierarchy.dl2.lookup(block):
                self.registry.record(Violation(
                    "coherence", "double-dirty", cpu, time_cycles,
                    f"line {hex(block * memsys.block_bytes)} written by "
                    f"cpu{cpu} but still cached by cpu{hierarchy.cpu} "
                    "(snoop-invalidate failed)",
                    {"line": hex(block * memsys.block_bytes),
                     "writer": f"cpu{cpu}",
                     "stale_copy": f"cpu{hierarchy.cpu}"},
                ))
        if transacted:
            icache_after = self.snapshot_icaches(block)
            if icache_after != icache_before:
                self.registry.record(Violation(
                    "coherence", "icache-snooped", cpu, time_cycles,
                    f"data-write invalidation of line "
                    f"{hex(block * memsys.block_bytes)} changed I-cache "
                    "state (I-caches must only be invalidated by "
                    "explicit flush)",
                    {"before": list(icache_before),
                     "after": list(icache_after)},
                ))

    def after_data_read(self, time_cycles: int, cpu: int, block: int) -> None:
        self.reads_checked += 1
        memsys = self.memsys
        owner = memsys._owner.get(block)
        if owner is not None and owner != cpu:
            self.registry.record(Violation(
                "coherence", "read-no-downgrade", cpu, time_cycles,
                f"read fill of line {hex(block * memsys.block_bytes)} left "
                f"it exclusively owned by cpu{owner}",
                {"line": hex(block * memsys.block_bytes)},
            ))
        hierarchy = memsys.hierarchies[cpu]
        if not hierarchy.dl2.lookup(block):
            self.registry.record(Violation(
                "coherence", "fill-not-resident", cpu, time_cycles,
                f"read fill of line {hex(block * memsys.block_bytes)} not "
                "resident in the reader's L2",
                {"line": hex(block * memsys.block_bytes)},
            ))

    def after_bypass_invalidate(
        self, cpu: int, time_cycles: int, first_block: int, num_blocks: int
    ) -> None:
        """A cache-bypassing block write leaves memory as the only copy.

        The blockop-bypass variant (``blockop_cache_bypass``) updates
        memory around the caches, so after its invalidation sweep no
        data cache may still hold any destination line and the owner map
        must be empty for the range — a line that survives here is the
        stale-copy bug the PR-2 fix in ``_invalidate_stale`` addressed.
        """
        self.flushes_checked += 1
        memsys = self.memsys
        for block in range(first_block, first_block + num_blocks):
            owner = memsys._owner.get(block)
            if owner is not None:
                self.registry.record(Violation(
                    "coherence", "bypass-stale-owner", cpu, time_cycles,
                    f"line {hex(block * memsys.block_bytes)} still owned "
                    f"by cpu{owner} after a cache-bypassing block write",
                    {"line": hex(block * memsys.block_bytes),
                     "owner": f"cpu{owner}"},
                ))
            for hierarchy in memsys.hierarchies:
                if hierarchy.dl2.lookup(block):
                    self.registry.record(Violation(
                        "coherence", "bypass-stale-copy", cpu, time_cycles,
                        f"line {hex(block * memsys.block_bytes)} survived "
                        "the bypass-invalidate sweep in "
                        f"cpu{hierarchy.cpu}'s data cache",
                        {"line": hex(block * memsys.block_bytes),
                         "stale_copy": f"cpu{hierarchy.cpu}"},
                    ))

    def after_full_icache_flush(self) -> None:
        """A full flush (frame-reuse path) must empty every I-cache."""
        self.flushes_checked += 1
        for hierarchy in self.memsys.hierarchies:
            leftover = hierarchy.icache.occupancy()
            if leftover:
                self.registry.record(Violation(
                    "coherence", "icache-flush-incomplete",
                    hierarchy.cpu, 0,
                    f"{leftover} line(s) survived a full I-cache flush "
                    f"on cpu{hierarchy.cpu}",
                    {"resident": leftover},
                ))

    # ------------------------------------------------------------------
    # Final sweep
    # ------------------------------------------------------------------
    def scan(self, end_cycles: int) -> List[Violation]:
        """Never-two-dirty-copies over the whole owner map."""
        found = []
        memsys = self.memsys
        for block, owner in memsys._owner.items():
            for hierarchy in memsys.hierarchies:
                if hierarchy.cpu != owner and hierarchy.dl2.lookup(block):
                    violation = Violation(
                        "coherence", "double-dirty", owner, end_cycles,
                        f"line {hex(block * memsys.block_bytes)} owned by "
                        f"cpu{owner} also cached by cpu{hierarchy.cpu}",
                        {"line": hex(block * memsys.block_bytes),
                         "owner": f"cpu{owner}",
                         "stale_copy": f"cpu{hierarchy.cpu}"},
                    )
                    self.registry.record(violation)
                    found.append(violation)
        return found
