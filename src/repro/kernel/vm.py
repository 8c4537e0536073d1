"""Virtual-memory subsystem: frame allocation, reclaim, I-cache flushes.

This is where three of the paper's miss sources are born:

- **Block operations**: demand-zero pages are cleared, copy-on-write
  pages are copied (Section 4.2.2, Table 6/7);
- **Pfdat traversals**: "a traversal of the array of page descriptors
  occurs when free memory is needed" — the page reclaim scan;
- **Inval misses**: "I-cache misses resulting from invalidation of the
  I-cache when physical pages that contained code are reallocated"
  (Table 2). The R3000 has no selective I-cache coherence, so the
  modelled kernel flushes *all* I-caches when it reallocates a frame
  that held code — which is why Figure 6 shows Inval misses bounding
  the gains of larger I-caches.

``baseline_frames`` models everything resident on the real machine that
the simulation does not trace (X server, daemons, the rest of the kernel)
by taking those frames out of the pool, so the traced workload feels the
same memory pressure a loaded 32 MB machine did.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.common.backref import BackRef, HoldsBackRefs

# What a frame is currently used for.
USE_DATA = "data"      # (pid, vpage)
USE_TEXT = "text"      # image name
USE_BUFFER = "buffer"  # (inode, file block)


@dataclass
class VmTuning:
    """Reclaim policy knobs."""

    baseline_frames: int = 5120     # untraced residents (20 MB of 32 MB)
    low_water_frames: int = 128     # reclaim when free frames drop below
    reclaim_batch: int = 32         # frames stolen per traversal
    scan_entries_per_frame: int = 4  # pfdat descriptors scanned per steal


class VmSubsystem(HoldsBackRefs):
    """Frame allocation and reclaim, with the paper's reference footprint."""

    k = BackRef()

    def __init__(self, kernel, tuning: Optional[VmTuning] = None):
        self.k = kernel
        self.tuning = tuning if tuning is not None else VmTuning()
        self.frame_use: Dict[int, Tuple[str, object]] = {}
        self.frame_was_text: set = set()
        self._scan_hand = 0
        self.stats_allocs = 0
        self.stats_frees = 0
        self.stats_reclaims = 0
        self.stats_icache_flushes = 0
        self._reclaiming = False
        phys = self.k.memsys.memory
        baseline = min(self.tuning.baseline_frames, phys.num_frames - 256)
        for _ in range(baseline):
            frame = phys.alloc_frame()
            self.frame_use[frame] = ("baseline", None)

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------
    def alloc_frame(self, proc, use: str, tag: object) -> int:
        """Allocate one frame, touching the allocator's structures.

        ``proc`` is the :class:`Processor` doing the work (the allocation
        happens in the context of the faulting/requesting process).
        """
        k = self.k
        phys = k.memsys.memory
        self.stats_allocs += 1
        with k.locks.held(proc, "memlock"):
            proc.ifetch_range(*k.routine_span("pagealloc"))
            # Hash bucket of free pages, then the page's descriptor.
            proc.dread(k.datamap.freepgbuck_base + (self._scan_hand * 16) % 3072)
            frame = phys.alloc_frame()
            proc.dwrite(k.datamap.pfdat_entry(frame))
            self.frame_use[frame] = (use, tag)
        if frame in self.frame_was_text:
            self._flush_icaches_for_reuse(proc, frame)
        if (
            phys.free_frame_count() < self.tuning.low_water_frames
            and not self._reclaiming
        ):
            self.reclaim(proc)
        return frame

    def free_frame(self, proc, frame: int, contained_code: Optional[bool] = None) -> None:
        """Return a frame to the pool.

        ``contained_code`` overrides the stale-code inference (a text
        frame freed before any code was actually paged into it does not
        require I-cache flushing on reuse).
        """
        k = self.k
        use, _ = self.frame_use.pop(frame, (None, None))
        if use is None:
            raise ValueError(f"frame {frame} not tracked by the VM subsystem")
        self.stats_frees += 1
        had_code = use == USE_TEXT if contained_code is None else contained_code
        if had_code:
            self.frame_was_text.add(frame)
        with k.locks.held(proc, "memlock"):
            proc.ifetch_range(*k.routine_span("pagefree"))
            proc.dwrite(k.datamap.pfdat_entry(frame))
            proc.dwrite(k.datamap.freepgbuck_base + (frame * 16) % 3072)
            k.memsys.memory.free_frame(frame)

    def _flush_icaches_for_reuse(self, proc, frame: int) -> None:
        """Reallocating a frame that held code: flush every I-cache.

        The flush is announced to the trace (Section 2.2 lists "cache
        flushing" among recorded events) so the postprocessor can keep its
        reconstructed I-cache state correct.
        """
        k = self.k
        self.stats_icache_flushes += 1
        self.frame_was_text.discard(frame)
        k.instr.icache_flush(proc, frame)
        k.memsys.flush_all_icaches()

    # ------------------------------------------------------------------
    # Reclaim: the pfdat traversal (Table 6 "Travers. of Descrip.")
    # ------------------------------------------------------------------
    def reclaim(self, proc) -> int:
        """Scan page descriptors and steal reclaimable frames.

        Runs in the context of the allocating process, as IRIX does when
        free memory is short. Returns the number of frames freed.
        """
        k = self.k
        self.stats_reclaims += 1
        self._reclaiming = True
        try:
            target = self.tuning.reclaim_batch
            freed = 0
            candidates = list(self.frame_use.items())
            if not candidates:
                return 0
            scan_budget = target * self.tuning.scan_entries_per_frame
            k.blockops.pfdat_traverse(proc, self._scan_hand, scan_budget)
            start = self._scan_hand % len(candidates)
            order = candidates[start:] + candidates[:start]
            self._scan_hand += scan_budget
            # Steal in preference order: text of programs nobody runs any
            # more (clean, unreferenced), then buffer-cache pages, then
            # data pages of sleeping processes (which will refault).
            dead_text = []
            buffers = []
            data = []
            for frame, (use, tag) in order:
                if use == USE_TEXT:
                    dead_text.append((frame, tag))
                elif use == USE_BUFFER:
                    buffers.append((frame, tag))
                elif use == USE_DATA:
                    data.append((frame, tag))
            for frame, tag in dead_text:
                if freed >= target:
                    return freed
                if k.release_dead_image_frame(proc, frame, tag):
                    freed += 1
            # Keep a floor of buffer-cache frames: stealing the whole
            # cache just converts memory pressure into disk re-reads.
            buffer_floor = 32
            buffer_steals = 0
            for frame, _tag in buffers:
                if freed >= target or len(buffers) - buffer_steals <= buffer_floor:
                    break
                if k.fs.buffer_cache.reclaim_frame(proc, frame):
                    freed += 1
                    buffer_steals += 1
            # Stealing data pages forces refaults (full page clears);
            # cap it so pressure is relieved mostly from clean pages.
            data_steals = 0
            for frame, tag in data:
                if freed >= target or data_steals >= 8:
                    return freed
                if k.steal_data_frame(proc, frame, tag):
                    freed += 1
                    data_steals += 1
            return freed
        finally:
            self._reclaiming = False
