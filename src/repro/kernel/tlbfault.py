"""TLB fault handling: the Table 8 cheap/expensive split.

- **UTLB faults** (the frequent, nearly miss-free spikes of Figure 1):
  the fast vector copies a virtual-to-physical association from the
  process's page table into the TLB. No exception frame is saved; the
  handler is a few instructions and one page-table read. "On average,
  one invocation causes less than 0.1 misses."

- **Cheap TLB faults** that are full OS invocations: the mapping exists
  in global page tables but the fast path could not resolve it (here:
  mapping a resident shared-text page into a process that has not used
  it yet).

- **Expensive TLB faults** "require the allocation of a physical page.
  They may involve simply grabbing a page from the list of free pages,
  sometimes performing a page copy or clear, or they may also require
  doing I/O" — demand-zero data pages (bclear), copy-on-write faults
  (bcopy of a full page, Table 7), and text page-ins from the
  executable file through the buffer cache.
"""

from __future__ import annotations

from typing import Optional

from repro.common.backref import BackRef, HoldsBackRefs
from repro.cpu.tlb import TlbEntry
from repro.kernel.process import DATA_VBASE, TEXT_VBASE, Process
from repro.kernel.vm import USE_DATA, USE_TEXT

# Escape op-code for UTLB faults: distinct from HighLevelOp codes so the
# decoder can tell the spikes from full OS invocations (Figure 1).
UTLB_OP_CODE = 100


class TlbFaults(HoldsBackRefs):
    """The fault paths."""

    k = BackRef()

    def __init__(self, kernel):
        self.k = kernel
        self.utlb_faults = 0
        self.cheap_faults = 0
        self.expensive_faults = 0
        self.cow_faults = 0
        self.demand_zero_faults = 0
        self.text_pageins = 0

    # ------------------------------------------------------------------
    # Resolution helpers
    # ------------------------------------------------------------------
    def frame_for(self, process: Process, vpage: int) -> Optional[int]:
        """The frame a vpage maps to, if established (page-table state)."""
        if vpage < DATA_VBASE:
            index = vpage - TEXT_VBASE
            image = process.image
            if image.resident() and index < len(image.frames):
                frame = image.frames[index]
                return frame if frame >= 0 else None
            return None
        return process.data_frames.get(vpage)

    def is_text_vpage(self, process: Process, vpage: int) -> bool:
        return vpage < DATA_VBASE

    # ------------------------------------------------------------------
    # UTLB fast path
    # ------------------------------------------------------------------
    def utlb_fault(self, proc, process: Process, vpage: int, frame: int) -> None:
        """Refill the TLB from the page table (the Figure 1 spikes).

        The fast vector saves no exception frame; it is OS execution all
        the same, so the CPU mode flips for the handful of references.
        """
        from repro.common.types import Mode

        k = self.k
        self.utlb_faults += 1
        was_user = proc.mode is Mode.USER
        if was_user:
            proc.set_mode(Mode.KERNEL)
        k.instr.os_enter(proc, UTLB_OP_CODE)
        proc.ifetch_range(*k.routine_span("utlbmiss"))
        # One page-table read (the PTE).
        proc.dread(k.datamap.pagetable_base(process.slot) + (vpage % 256) * 4)
        self._install(proc, process, vpage, frame)
        k.instr.os_exit(proc)
        if was_user:
            proc.set_mode(Mode.USER)

    def _install(self, proc, process: Process, vpage: int, frame: int) -> None:
        k = self.k
        is_text = self.is_text_vpage(process, vpage)
        index, _evicted = proc.tlb.insert(
            TlbEntry(process.pid, vpage, frame, is_text)
        )
        k.instr.tlb_update(proc, index, vpage, frame, process.pid, is_text)

    # ------------------------------------------------------------------
    # Full fault path (vfault)
    # ------------------------------------------------------------------
    def vfault(self, proc, process: Process, vpage: int, write: bool) -> Optional[int]:
        """Resolve a fault the fast path could not.

        Returns the frame, or None if the process went to sleep on I/O
        (text page-in); the caller retries after wakeup.

        Must be called inside an OS invocation (the engine opens one with
        the appropriate Table 8 op before calling).
        """
        k = self.k
        proc.ifetch_range(*k.routine_span("tlbmiss_common"))
        proc.ifetch_range(*k.routine_span("vfault"))
        # Page-table walk under the per-process Shr_x lock.
        with k.locks.held_lock(proc, k.locks.shr(process.slot)):
            proc.dread(k.datamap.pagetable_base(process.slot) + (vpage % 256) * 4)
            frame = self.frame_for(process, vpage)
        if frame is not None and not (write and vpage in process.cow_pages):
            # Mapping exists (e.g. resident shared text): cheap fault.
            self.cheap_faults += 1
            self._install(proc, process, vpage, frame)
            return frame
        if (
            frame is not None
            and write
            and vpage in process.cow_pages
            and not k.frame_shared(frame)
        ):
            # The sibling already copied or died: claim the frame outright.
            self.cheap_faults += 1
            with k.locks.held_lock(proc, k.locks.shr(process.slot)):
                proc.dwrite(
                    k.datamap.pagetable_base(process.slot) + (vpage % 256) * 4
                )
                process.cow_pages.discard(vpage)
            self._install(proc, process, vpage, frame)
            return frame
        self.expensive_faults += 1
        if self.is_text_vpage(process, vpage):
            frame = self._text_pagein(proc, process, vpage)
            if frame is None:
                return None
        elif write and vpage in process.cow_pages:
            frame = self._cow_copy(proc, process, vpage)
        else:
            frame = self._demand_zero(proc, process, vpage)
        self._install(proc, process, vpage, frame)
        return frame

    def _demand_zero(self, proc, process: Process, vpage: int) -> int:
        """First reference to a demand-zero page: allocate and clear a
        full page (the 70% row of Table 7's clears)."""
        k = self.k
        self.demand_zero_faults += 1
        frame = k.vm.alloc_frame(proc, USE_DATA, (process.pid, vpage))
        k.blockops.bclear(proc, frame * k.params.page_bytes, k.params.page_bytes)
        with k.locks.held_lock(proc, k.locks.shr(process.slot)):
            proc.dwrite(k.datamap.pagetable_base(process.slot) + (vpage % 256) * 4)
            process.data_frames[vpage] = frame
        return frame

    def _cow_copy(self, proc, process: Process, vpage: int) -> int:
        """Copy-on-write update: full-page copy (Table 7, 5% of copies)."""
        k = self.k
        self.cow_faults += 1
        shared_frame = process.data_frames[vpage]
        frame = k.vm.alloc_frame(proc, USE_DATA, (process.pid, vpage))
        page_bytes = k.params.page_bytes
        k.blockops.bcopy(
            proc, shared_frame * page_bytes, frame * page_bytes, page_bytes
        )
        with k.locks.held_lock(proc, k.locks.shr(process.slot)):
            proc.dwrite(k.datamap.pagetable_base(process.slot) + (vpage % 256) * 4)
            process.data_frames[vpage] = frame
            process.cow_pages.discard(vpage)
        k.unshare_frame(shared_frame)
        return frame

    def _text_pagein(self, proc, process: Process, vpage: int) -> Optional[int]:
        """Demand-page program text from the executable through the
        buffer cache; may sleep on disk I/O."""
        k = self.k
        image = process.image
        index = vpage - TEXT_VBASE
        if not image.frames:
            image.frames = [-1] * image.text_pages
        if image.frames[index] >= 0:
            return image.frames[index]
        page_bytes = k.params.page_bytes
        frame = k.vm.alloc_frame(proc, USE_TEXT, image.name)
        # Pull the page's file blocks through the buffer cache straight
        # into the new text frame; each chunk is a "transfer of data
        # in/out of buffer cache" fragment copy (Table 7).
        done, _progress = k.fs.do_read(
            proc, process, image.file_ino, index * page_bytes, page_bytes, 0,
            dst_base=frame * page_bytes,
        )
        if not done:
            # Slept on disk; undo the allocation (retry will redo it).
            # No code ever ran from the frame, so reuse needs no flush.
            k.vm.free_frame(proc, frame, contained_code=False)
            return None
        self.text_pageins += 1
        image.frames[index] = frame
        return frame
