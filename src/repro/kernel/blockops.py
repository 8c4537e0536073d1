"""Block operations: bcopy, bclear, and the pfdat traversal.

"The OS often sweeps through large arrays of data, primarily in block
copy and clear operations and when traversing the physical page
descriptors" (Section 4.2.2). These sweeps are the paper's third major
miss source (Table 6) and mostly produce displacement and cold misses —
the data is seldom reused, yet it wipes out a large part of the data
cache.

Every operation brackets itself with BLOCKOP escape records (kind, first
block, length), standing in for the paper's per-subroutine
instrumentation, so the analysis can attribute the misses (Table 6) and
characterize operand sizes (Table 7) straight from the trace.
"""

from __future__ import annotations

from repro.common.backref import BackRef, HoldsBackRefs
from repro.kernel.structures import PFDAT_BYTES

KIND_COPY = 0
KIND_CLEAR = 1
KIND_TRAVERSE = 2

KIND_NAMES = {KIND_COPY: "copy", KIND_CLEAR: "clear", KIND_TRAVERSE: "traverse"}

# Loop-body refetch: one extra instruction block per this many bytes
# swept (the loop code stays cache resident; this models issue time).
_LOOP_REFETCH_BYTES = 512

# Cache-bypassing transfers move this many bytes per bus transaction
# ("the data accessed with cache bypassing should not be fetched from
# memory one word at a time, but in blocks of contiguous data").
_BYPASS_TRANSFER_BYTES = 64


class BlockOps(HoldsBackRefs):
    """The three sweep kernels.

    Two of the paper's proposed optimizations (Section 4.2.2, "Removing
    Misses in Block Operations") are implemented as switchable modes:

    - ``cache_bypass``: copies and clears move data through uncached
      block transfers — "we still pay the cost of the cache miss
      latency, but do not wipe out other relevant state in the cache
      with this seldom-reused data";
    - ``prefetch``: the sweep's miss latency is hidden behind other
      computation (the bus traffic and displacement still occur).

    ``examples/`` and the ablation experiments measure their effect.
    """

    k = BackRef()

    def __init__(self, kernel, cache_bypass: bool = False,
                 prefetch: bool = False):
        self.k = kernel
        self.cache_bypass = cache_bypass
        self.prefetch = prefetch
        self.copies = 0
        self.clears = 0
        self.traversals = 0
        self.bytes_copied = 0
        self.bytes_cleared = 0

    # ------------------------------------------------------------------
    def bcopy(self, proc, src_base: int, dst_base: int, nbytes: int) -> None:
        """Block copy: read the source, write the destination.

        "The copy operation brings two pages into the cache; one of the
        pages will probably not be accessed anymore" — the misses land in
        whatever class the cache state dictates.
        """
        if nbytes <= 0:
            return
        k = self.k
        self.copies += 1
        self.bytes_copied += nbytes
        block_bytes = k.params.block_bytes
        k.instr.blockop_begin(
            proc, KIND_COPY, dst_base // block_bytes, -(-nbytes // block_bytes)
        )
        base, size = k.routine_span("bcopy")
        proc.ifetch_range(base, size)
        src_block = src_base // block_bytes
        dst_block = dst_base // block_bytes
        nblocks = -(-nbytes // block_bytes)
        loop_block = base // block_bytes
        refetch_every = max(1, _LOOP_REFETCH_BYTES // block_bytes)
        if self.cache_bypass:
            self._bypass_transfer(proc, nbytes, reads=True, writes=True)
            self._invalidate_stale(proc, dst_block, nblocks)
        else:
            if self.prefetch:
                proc.prefetch_mode = True
            try:
                proc.copy_blocks(
                    src_block, dst_block, nblocks, loop_block, refetch_every
                )
            finally:
                proc.prefetch_mode = False
        k.instr.blockop_end(proc)

    # ------------------------------------------------------------------
    def bclear(self, proc, dst_base: int, nbytes: int) -> None:
        """Block clear: zero the destination (demand-zero pages, kernel
        structure initialization)."""
        if nbytes <= 0:
            return
        k = self.k
        self.clears += 1
        self.bytes_cleared += nbytes
        block_bytes = k.params.block_bytes
        k.instr.blockop_begin(
            proc, KIND_CLEAR, dst_base // block_bytes, -(-nbytes // block_bytes)
        )
        base, size = k.routine_span("bclear")
        proc.ifetch_range(base, size)
        dst_block = dst_base // block_bytes
        nblocks = -(-nbytes // block_bytes)
        loop_block = base // block_bytes
        refetch_every = max(1, _LOOP_REFETCH_BYTES // block_bytes)
        if self.cache_bypass:
            self._bypass_transfer(proc, nbytes, reads=False, writes=True)
            self._invalidate_stale(proc, dst_block, nblocks)
        else:
            if self.prefetch:
                proc.prefetch_mode = True
            try:
                proc.clear_blocks(dst_block, nblocks, loop_block, refetch_every)
            finally:
                proc.prefetch_mode = False
        k.instr.blockop_end(proc)

    def _bypass_transfer(self, proc, nbytes: int, reads: bool, writes: bool) -> None:
        """Move data through uncached contiguous block transfers.

        Like the synchronization bus's traffic, these burst transfers are
        not fed to the trace decoder (the ablation experiments measure
        their effect through processor statistics, not the trace).
        """
        transfers = -(-nbytes // _BYPASS_TRANSFER_BYTES)
        per_side = transfers * (int(reads) + int(writes))
        for _ in range(per_side):
            # One bus round trip per transfer; no cache displacement.
            proc.advance(1)
            proc.charge_stall(self.k.params.bus_stall_cycles)

    def _invalidate_stale(self, proc, first_block: int, nblocks: int) -> None:
        """Uncached writes update memory around the caches: stale cached
        copies of the destination must be invalidated everywhere."""
        memsys = self.k.memsys
        for i in range(nblocks):
            block = first_block + i
            for hierarchy in memsys.hierarchies:
                if hierarchy.invalidate_data(block):
                    memsys.truth.record_invalidation(hierarchy.cpu, "D", block)
            # Memory now holds the data and no cache does: no owner.
            memsys._owner.pop(block, None)
        if self.k.checks is not None:
            self.k.checks.coherence.after_bypass_invalidate(
                proc.cpu_id, proc.cycles, first_block, nblocks
            )

    # ------------------------------------------------------------------
    def pfdat_traverse(self, proc, start_entry: int, num_entries: int) -> None:
        """Sweep page descriptors looking for reclaimable pages."""
        if num_entries <= 0:
            return
        k = self.k
        self.traversals += 1
        datamap = k.datamap
        desc_bytes = PFDAT_BYTES // 8192
        block_bytes = k.params.block_bytes
        start = start_entry % 8192
        span_entries = min(num_entries, 8192)
        first_addr = datamap.pfdat_base + start * desc_bytes
        # The traversal may wrap around the array.
        wrap_entries = max(0, start + span_entries - 8192)
        lead_entries = span_entries - wrap_entries
        k.instr.blockop_begin(
            proc,
            KIND_TRAVERSE,
            first_addr // block_bytes,
            -(-span_entries * desc_bytes // block_bytes),
        )
        base, size = k.routine_span("pfdat_scan")
        proc.ifetch_range(base, size)
        proc.dtouch_range(first_addr, lead_entries * desc_bytes)
        if wrap_entries:
            proc.dtouch_range(datamap.pfdat_base, wrap_entries * desc_bytes)
        k.instr.blockop_end(proc)
