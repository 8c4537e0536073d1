"""Filesystem, buffer cache and disk model.

I/O system calls are the largest contributor to OS instruction misses
(Figure 9) and a big share of the data misses, through

- long code walks (``fs_read``/``fs_write``, the buffer cache, the disk
  driver — "some I/O drivers have a size comparable to the instruction
  cache"),
- buffer-header and inode-table touches (Figure 8's ``Buffer`` and
  ``Inode`` Sharing-miss categories),
- block copies between buffer-cache pages and user pages — the
  "transfer of data in/out of buffer cache" row of Table 7 (regular page
  fragments; our buffer size is a quarter page), and
- the Ifree / Dfbmaplk / Bfreelock / Ino_x locks of Table 11.

The disk is a single-spindle model with exponentially-distributed service
time; a process reading an uncached block sleeps until the disk-interrupt
handler (:mod:`repro.kernel.interrupts`) fills the buffer and wakes it.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.common.backref import BackRef, HoldsBackRefs
from repro.kernel.structures import NBUF, NINODE, StructName
from repro.kernel.vm import USE_BUFFER

BUFFER_BYTES = 1024  # a quarter of a 4 KB page (Table 7's regular fragment)
READAHEAD_BUFFERS = 8  # one disk request fills up to 8 KB of buffers


@dataclass
class FileMeta:
    """One file known to the modelled filesystem."""

    ino: int
    size: int
    name: str = ""


@dataclass
class BufferEntry:
    """One buffer-cache buffer: a header slot plus a data frame."""

    header_idx: int
    ino: int
    fblock: int          # file block number (units of BUFFER_BYTES)
    frame: int
    offset_in_frame: int
    valid: bool = False  # filled from disk / by a write
    dirty: bool = False
    io_pending: bool = False

    def data_addr(self, page_bytes: int) -> int:
        return self.frame * page_bytes + self.offset_in_frame


@dataclass(order=True)
class _DiskEvent:
    time_cycles: int
    seq: int
    payload: Tuple = field(compare=False)


class Disk:
    """Single disk with FCFS service and exponential service times."""

    def __init__(self, rng, cycles_per_ms: float, mean_service_ms: float = 4.0):
        self.rng = rng
        self.cycles_per_ms = cycles_per_ms
        self.mean_service_ms = mean_service_ms
        self._queue: List[_DiskEvent] = []
        self._seq = 0
        self._busy_until = 0
        self.requests = 0

    def schedule(
        self, now_cycles: int, payload: Tuple, service_scale: float = 1.0
    ) -> int:
        """Queue one transfer; returns its completion time.

        ``service_scale`` discounts the service time for sequential
        write-behind traffic (the delayed writes a real driver sorts and
        streams), so asynchronous flushing does not head-of-line block
        demand reads the way random reads do.
        """
        service = self.rng.expovariate(1.0 / self.mean_service_ms) * service_scale
        service_cycles = max(1, int(service * self.cycles_per_ms))
        start = max(now_cycles, self._busy_until)
        done = start + service_cycles
        self._busy_until = done
        self._seq += 1
        self.requests += 1
        heapq.heappush(self._queue, _DiskEvent(done, self._seq, payload))
        return done

    def next_time(self) -> Optional[int]:
        return self._queue[0].time_cycles if self._queue else None

    def pop_due(self, now_cycles: int) -> List[Tuple]:
        due = []
        while self._queue and self._queue[0].time_cycles <= now_cycles:
            due.append(heapq.heappop(self._queue).payload)
        return due

    def pending(self) -> int:
        return len(self._queue)


class BufferCache(HoldsBackRefs):
    """The block buffer cache: NBUF headers, one data frame per 4 buffers."""

    k = BackRef()

    def __init__(self, kernel):
        self.k = kernel
        self._entries: Dict[Tuple[int, int], BufferEntry] = {}
        self._by_header: Dict[int, BufferEntry] = {}
        self._lru: List[Tuple[int, int]] = []  # keys, least recent first
        self._free_headers = list(range(NBUF))
        # frame -> list of header_idx sharing it (4 buffers per frame)
        self._frame_slots: Dict[int, List[int]] = {}
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------
    def lookup(self, proc, ino: int, fblock: int) -> Optional[BufferEntry]:
        """Hash lookup; touches the buffer header on a hit."""
        key = (ino, fblock)
        entry = self._entries.get(key)
        if entry is not None:
            self.hits += 1
            proc.dread(self.k.datamap.buffer_header(entry.header_idx))
            self._lru.remove(key)
            self._lru.append(key)
            return entry
        self.misses += 1
        return None

    def getblk(self, proc, ino: int, fblock: int) -> BufferEntry:
        """Allocate a buffer for (ino, fblock); caller fills it.

        Touches the free-buffer list under Bfreelock, evicting the least
        recently used buffer when none is free (scheduling a disk write
        first if it was dirty).
        """
        k = self.k
        with k.locks.held(proc, "bfreelock"):
            proc.ifetch_range(*k.routine_span("buffercache_getblk"))
            if not self._free_headers:
                self._evict_lru(proc)
            header_idx = self._free_headers.pop()
            frame, offset = self._frame_slot_for(proc, header_idx)
            entry = BufferEntry(header_idx, ino, fblock, frame, offset)
            self._entries[(ino, fblock)] = entry
            self._by_header[header_idx] = entry
            self._lru.append((ino, fblock))
            proc.dwrite(k.datamap.buffer_header(header_idx))
        return entry

    def _frame_slot_for(self, proc, header_idx: int) -> Tuple[int, int]:
        """Find a frame with spare quarter-page slots, or allocate one."""
        slots_per_frame = self.k.params.page_bytes // BUFFER_BYTES
        for frame, users in self._frame_slots.items():
            if len(users) < slots_per_frame:
                users.append(header_idx)
                return frame, (len(users) - 1) * BUFFER_BYTES
        frame = self.k.vm.alloc_frame(proc, USE_BUFFER, header_idx)
        self._frame_slots[frame] = [header_idx]
        return frame, 0

    def _evict_lru(self, proc) -> None:
        k = self.k
        for key in list(self._lru):
            entry = self._entries[key]
            if entry.io_pending:
                continue
            if entry.dirty:
                # Delayed write: push it to disk, reuse the buffer.
                k.fs.start_buffer_write(proc, entry)
            self._drop_entry(entry)
            return
        raise RuntimeError("buffer cache wedged: all buffers have I/O pending")

    def _drop_entry(self, entry: BufferEntry) -> None:
        key = (entry.ino, entry.fblock)
        del self._entries[key]
        del self._by_header[entry.header_idx]
        self._lru.remove(key)
        self._free_headers.append(entry.header_idx)
        users = self._frame_slots.get(entry.frame)
        if users is not None and entry.header_idx in users:
            users.remove(entry.header_idx)

    # ------------------------------------------------------------------
    def reclaim_frame(self, proc, frame: int) -> bool:
        """Memory pressure: give back a whole buffer frame if possible."""
        users = self._frame_slots.get(frame)
        if users is None:
            return False
        for header_idx in list(users):
            entry = self._by_header.get(header_idx)
            if entry is None:
                continue
            if entry.io_pending:
                return False
            if entry.dirty:
                self.k.fs.start_buffer_write(proc, entry)
            self._drop_entry(entry)
        del self._frame_slots[frame]
        self.k.vm.free_frame(proc, frame)
        return True

    def cached_buffers(self) -> int:
        return len(self._entries)


class FsSubsystem(HoldsBackRefs):
    """System-call-level file operations."""

    k = BackRef()

    def __init__(self, kernel, disk_rng):
        self.k = kernel
        self.files: Dict[int, FileMeta] = {}
        self.buffer_cache = BufferCache(kernel)
        self.disk = Disk(disk_rng, kernel.params.cycles_per_ms())
        self._incore_inodes: set = set()
        self.reads = 0
        self.writes = 0
        self.read_bytes = 0
        self.write_bytes = 0

    # ------------------------------------------------------------------
    # File registry (workload setup)
    # ------------------------------------------------------------------
    def register_file(self, ino: int, size: int, name: str = "") -> FileMeta:
        meta = FileMeta(ino, size, name)
        self.files[ino] = meta
        return meta

    def file(self, ino: int) -> FileMeta:
        return self.files[ino]

    # ------------------------------------------------------------------
    # open(): pathname lookup + in-core inode activation
    # ------------------------------------------------------------------
    def do_open(self, proc, ino: int, components: int = 3) -> None:
        k = self.k
        proc.ifetch_range(*k.routine_span("fs_namei"))
        # Touch an inode per pathname component walked.
        for i in range(components):
            proc.dread(k.datamap.inode_entry((ino + i * 7) % NINODE))
        # iget: activating an in-core inode always goes through the free
        # list (System V keeps inactive inodes on it), which is what makes
        # Ifree one of the hottest locks in Table 12.
        with k.locks.held(proc, "ifree"):
            proc.dwrite(k.datamap.inode_entry(ino))
            self._incore_inodes.add(ino)
        with k.locks.held_lock(proc, k.locks.ino(ino)):
            proc.dread(k.datamap.inode_entry(ino))

    # ------------------------------------------------------------------
    # read(): returns True when complete, False when the process slept
    # ------------------------------------------------------------------
    def do_read(self, proc, process, ino: int, offset: int, nbytes: int,
                progress: int, dst_base: Optional[int] = None) -> Tuple[bool, int]:
        """Advance a read; ``progress`` is bytes already transferred.

        ``dst_base`` overrides the destination (physical address) — used
        by text page-in, which reads straight into the new text frame.
        Otherwise data lands in the process's user I/O pages.

        Returns ``(done, new_progress)``. When ``done`` is False the
        process has been put to sleep on the missing buffer and the call
        must be repeated after wakeup.
        """
        k = self.k
        meta = self.files[ino]
        nbytes = min(nbytes, max(0, meta.size - offset))
        if progress == 0:
            self.reads += 1
        while progress < nbytes:
            pos = offset + progress
            fblock = pos // BUFFER_BYTES
            chunk = min(BUFFER_BYTES - pos % BUFFER_BYTES, nbytes - progress)
            with k.locks.held_lock(proc, k.locks.ino(ino)):
                proc.ifetch_range(*k.routine_span("fs_read"))
                proc.dread(k.datamap.inode_entry(ino))
                entry = self.buffer_cache.lookup(proc, ino, fblock)
                if entry is not None and entry.valid:
                    if dst_base is not None:
                        dst = dst_base + progress
                    else:
                        dst = k.user_io_address(proc, process, progress)
                    k.blockops.bcopy(
                        proc, entry.data_addr(k.params.page_bytes), dst, chunk
                    )
                    progress += chunk
                    self.read_bytes += chunk
                    continue
                if entry is None:
                    # One disk request fills a run of consecutive buffers
                    # (read-ahead), like a real block driver would.
                    last_fblock = max(0, (meta.size - 1)) // BUFFER_BYTES
                    run = []
                    for fb in range(
                        fblock, min(fblock + READAHEAD_BUFFERS, last_fblock + 1)
                    ):
                        if (ino, fb) in self.buffer_cache._entries:
                            break
                        new_entry = self.buffer_cache.getblk(proc, ino, fb)
                        new_entry.io_pending = True
                        run.append(fb)
                    proc.ifetch_range(*k.routine_span("disk_driver_hot"))
                    self.disk.schedule(proc.cycles, ("read", ino, tuple(run)))
            # Buffer exists but is not valid yet: sleep until the disk
            # interrupt fills it.
            k.sleep(process, ("buffer", ino, fblock))
            return False, progress
        return True, progress

    # ------------------------------------------------------------------
    # write(): delayed writes never block
    # ------------------------------------------------------------------
    def do_write(self, proc, process, ino: int, offset: int, nbytes: int) -> None:
        k = self.k
        meta = self.files[ino]
        self.writes += 1
        progress = 0
        while progress < nbytes:
            pos = offset + progress
            fblock = pos // BUFFER_BYTES
            chunk = min(BUFFER_BYTES - pos % BUFFER_BYTES, nbytes - progress)
            with k.locks.held_lock(proc, k.locks.ino(ino)):
                proc.ifetch_range(*k.routine_span("fs_write"))
                proc.dwrite(k.datamap.inode_entry(ino))
                entry = self.buffer_cache.lookup(proc, ino, fblock)
                if entry is None:
                    entry = self.buffer_cache.getblk(proc, ino, fblock)
                    entry.valid = True
                    if pos >= meta.size:
                        # New file space: allocate disk blocks.
                        with k.locks.held(proc, "dfbmaplk"):
                            proc.ifetch_range(*k.routine_span("dfbmap_alloc"))
                            proc.dwrite(
                                k.datamap.inode_entry(ino)
                            )
                src = k.user_io_address(proc, process, progress)
                k.blockops.bcopy(
                    proc, src, entry.data_addr(k.params.page_bytes), chunk
                )
                entry.dirty = True
            progress += chunk
            self.write_bytes += chunk
        meta.size = max(meta.size, offset + nbytes)

    # ------------------------------------------------------------------
    # Disk interplay
    # ------------------------------------------------------------------
    def start_buffer_write(self, proc, entry: BufferEntry) -> None:
        """Push a dirty buffer to disk (asynchronous delayed write)."""
        entry.dirty = False
        proc.ifetch_range(*self.k.routine_span("disk_driver_hot"))
        self.disk.schedule(
            proc.cycles, ("write", entry.ino, (entry.fblock,)), service_scale=0.2
        )

    def complete_io(self, proc, payload: Tuple) -> None:
        """Called from the disk-interrupt handler."""
        kind, ino, fblocks = payload
        if kind != "read":
            return
        # The completion writes buffer headers without Bfreelock: disk
        # interrupts are serialized on CPU 0 and the headers' I/O fields
        # are guarded by interrupt level (spl), not a spinlock — the
        # pre-fine-grain-locking discipline. Annotated for the checker.
        with self.k.race_exempt(proc, StructName.BUFFER):
            for fblock in fblocks:
                entry = self.buffer_cache._entries.get((ino, fblock))
                if entry is not None:
                    entry.valid = True
                    entry.io_pending = False
                    proc.dwrite(self.k.datamap.buffer_header(entry.header_idx))
                self.k.wakeup(("buffer", ino, fblock), proc)
