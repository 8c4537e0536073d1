"""System-call handlers.

Each handler is a code walk through the dispatch path plus the
operation's own footprint. The "recognition and setup" of read and write
(Table 5's third migration-miss category) touches the user structure —
argument fetch, file-descriptor lookup, return-value store — which is why
those misses follow a migrated process around.

``sginap`` is the call "issued by the synchronization library after 20
unsuccessful attempts to acquire a lock. This call reschedules the CPU,
in the hope of giving the process that holds the lock a chance to run
and release the lock" (Section 4.1); it dominates the OS operation mix
of Multpgm (Figure 2).
"""

from __future__ import annotations

from typing import Tuple

from repro.common.backref import BackRef, HoldsBackRefs
from repro.kernel.process import Image, ProcState, Process

# Small copies of strings / syscall parameters (Table 7's irregular rows).
_PARAM_COPY_BYTES = 64


class Syscalls(HoldsBackRefs):
    """The system-call surface the workload drivers use."""

    k = BackRef()

    def __init__(self, kernel):
        self.k = kernel
        self.counts = {
            "read": 0, "write": 0, "open": 0, "sginap": 0, "fork": 0,
            "exec": 0, "exit": 0, "wait": 0, "brk": 0, "semop": 0, "misc": 0,
        }

    # ------------------------------------------------------------------
    # Common entry/exit footprint
    # ------------------------------------------------------------------
    def _entry(self, proc, process: Process) -> None:
        k = self.k
        proc.ifetch_range(*k.routine_span("syscall_entry"))
        # Argument fetch and u-area setup.
        proc.dread(k.datamap.ustruct_rest_base(process.slot))
        proc.dread(k.datamap.proc_entry(process.slot))

    def _exit(self, proc, process: Process) -> None:
        k = self.k
        proc.ifetch_range(*k.routine_span("syscall_exit"))
        # Return value store in the u-area.
        proc.dwrite(k.datamap.ustruct_rest_base(process.slot))

    def _copyin_params(self, proc, process: Process, nbytes: int) -> None:
        """Copy syscall parameters/strings from user space (the
        'irregular chunk' copies of Table 7)."""
        k = self.k
        src = k.user_io_address(proc, process, 0)
        dst = k.datamap.kheap_scratch(process.slot)
        k.blockops.bcopy(proc, src, dst, nbytes)

    # ------------------------------------------------------------------
    # File I/O
    # ------------------------------------------------------------------
    def read(self, proc, process: Process, ino: int, offset: int,
             nbytes: int, progress: int) -> Tuple[bool, int]:
        k = self.k
        if progress == 0:
            self.counts["read"] += 1
            process.syscalls += 1
        self._entry(proc, process)
        proc.ifetch_range(*k.routine_span("read_setup"))
        # File-descriptor table lookup in the user structure.
        proc.dread(k.datamap.ustruct_rest_base(process.slot) + 512)
        done, progress = k.fs.do_read(proc, process, ino, offset, nbytes, progress)
        if done:
            self._exit(proc, process)
        return done, progress

    def write(self, proc, process: Process, ino: int, offset: int,
              nbytes: int) -> None:
        k = self.k
        self.counts["write"] += 1
        process.syscalls += 1
        self._entry(proc, process)
        proc.ifetch_range(*k.routine_span("write_setup"))
        proc.dread(k.datamap.ustruct_rest_base(process.slot) + 512)
        k.fs.do_write(proc, process, ino, offset, nbytes)
        self._exit(proc, process)

    def open(self, proc, process: Process, ino: int) -> None:
        k = self.k
        self.counts["open"] += 1
        process.syscalls += 1
        self._entry(proc, process)
        self._copyin_params(proc, process, _PARAM_COPY_BYTES)  # the pathname
        k.fs.do_open(proc, ino)
        proc.dwrite(k.datamap.ustruct_rest_base(process.slot) + 512)
        self._exit(proc, process)

    # ------------------------------------------------------------------
    # sginap: voluntary reschedule
    # ------------------------------------------------------------------
    def sginap(self, proc, process: Process) -> None:
        """Yield the CPU (each invocation produces only ~25 data misses;
        it is the frequency that makes them matter — Section 4.2.3)."""
        k = self.k
        self.counts["sginap"] += 1
        process.syscalls += 1
        self._entry(proc, process)
        proc.ifetch_range(*k.routine_span("sginap_impl"))
        k.current[proc.cpu_id] = None
        k.scheduler.setrq(proc, process)
        k.scheduler.dispatch(proc)
        self._exit(proc, process)

    # ------------------------------------------------------------------
    # Process management
    # ------------------------------------------------------------------
    def fork(self, proc, parent: Process, child_name: str, driver) -> Process:
        """fork(): child shares the parent's image and COW data pages."""
        k = self.k
        self.counts["fork"] += 1
        parent.syscalls += 1
        self._entry(proc, parent)
        proc.ifetch_range(*k.routine_span("fork_impl"))
        child = k.create_process(child_name, parent.image, driver)
        # Duplicate the u-area (irregular kernel-to-kernel copy).
        k.blockops.bcopy(
            proc,
            k.datamap.ustruct_rest_base(parent.slot),
            k.datamap.ustruct_rest_base(child.slot),
            1024,
        )
        # Share data pages copy-on-write; both sides fault on next write.
        with k.locks.held_lock(proc, k.locks.shr(parent.slot)):
            for vpage, frame in parent.data_frames.items():
                child.data_frames[vpage] = frame
                child.cow_pages.add(vpage)
                parent.cow_pages.add(vpage)
                k.share_frame(frame)
                proc.dwrite(
                    k.datamap.pagetable_base(child.slot) + (vpage % 256) * 4
                )
        child.data_pages = parent.data_pages
        proc.dwrite(k.datamap.proc_entry(child.slot))
        k.scheduler.setrq(proc, child)
        self._exit(proc, parent)
        return child

    def exec(self, proc, process: Process, image: Image, data_pages: int) -> None:
        """exec(): replace the address space with a new image."""
        k = self.k
        self.counts["exec"] += 1
        process.syscalls += 1
        self._entry(proc, process)
        self._copyin_params(proc, process, _PARAM_COPY_BYTES * 2)  # argv
        proc.ifetch_range(*k.routine_span("exec_impl"))
        k.fs.do_open(proc, image.file_ino)
        k.teardown_address_space(proc, process)
        old_image = process.image
        old_image.refcount -= 1
        process.image = image
        image.refcount += 1
        k.register_image(image)
        k.release_image_if_dead(proc, old_image)
        process.data_pages = data_pages
        process.hot_blocks = []
        proc.ifetch_range(*k.routine_span("growreg"))
        proc.dwrite(k.datamap.proc_entry(process.slot))
        self._exit(proc, process)

    def exit(self, proc, process: Process) -> None:
        k = self.k
        self.counts["exit"] += 1
        process.syscalls += 1
        self._entry(proc, process)
        proc.ifetch_range(*k.routine_span("exit_impl"))
        k.teardown_address_space(proc, process)
        process.image.refcount -= 1
        k.release_image_if_dead(proc, process.image)
        process.state = ProcState.ZOMBIE
        process.exited = True
        proc.dwrite(k.datamap.proc_entry(process.slot))
        k.current[proc.cpu_id] = None
        k.wakeup(("child", process.pid), proc)
        k.free_process(process)
        # exit() never returns to user code; the CPU goes straight to the
        # scheduler.
        k.scheduler.dispatch(proc)

    def wait_for(self, proc, process: Process, child: Process) -> bool:
        """waitpid(): True if the child already exited, else sleeps."""
        k = self.k
        self.counts["wait"] += 1
        process.syscalls += 1
        self._entry(proc, process)
        proc.ifetch_range(*k.routine_span("wait_impl"))
        proc.dread(k.datamap.proc_entry(child.slot))
        if child.exited:
            self._exit(proc, process)
            return True
        k.sleep(process, ("child", child.pid))
        return False

    # ------------------------------------------------------------------
    # Memory
    # ------------------------------------------------------------------
    def brk(self, proc, process: Process, new_data_pages: int) -> None:
        k = self.k
        self.counts["brk"] += 1
        process.syscalls += 1
        self._entry(proc, process)
        proc.ifetch_range(*k.routine_span("brk_impl"))
        proc.ifetch_range(*k.routine_span("growreg"))
        with k.locks.held_lock(proc, k.locks.shr(process.slot)):
            proc.dwrite(k.datamap.pagetable_base(process.slot))
        if new_data_pages > process.data_pages:
            process.data_pages = new_data_pages
            process.hot_blocks = []  # engine rebuilds the hot set lazily
        self._exit(proc, process)

    # ------------------------------------------------------------------
    # Semaphores (Semlock, Table 11)
    # ------------------------------------------------------------------
    def semop(self, proc, process: Process, sem_id: int, delta: int) -> bool:
        """P (delta < 0) / V (delta > 0). Returns False if blocked."""
        k = self.k
        self.counts["semop"] += 1
        process.syscalls += 1
        self._entry(proc, process)
        proc.ifetch_range(*k.routine_span("sem_ops"))
        with k.locks.held(proc, "semlock"):
            proc.dwrite(k.datamap.sem_entry(sem_id))
            value = k.semaphores.get(sem_id, 0)
            if delta < 0 and value <= 0:
                blocked = True
            else:
                k.semaphores[sem_id] = value + delta
                blocked = False
        if blocked:
            k.sleep(process, ("sem", sem_id))
            return False
        if delta > 0:
            k.wakeup(("sem", sem_id), proc)
        self._exit(proc, process)
        return True

    # ------------------------------------------------------------------
    # Terminal I/O (the ed sessions; streams locks, Table 11)
    # ------------------------------------------------------------------
    def tty_write(self, proc, process: Process, session_id: int, nchars: int) -> None:
        k = self.k
        self.counts["write"] += 1
        process.syscalls += 1
        self._entry(proc, process)
        proc.ifetch_range(*k.routine_span("write_setup"))
        with k.locks.held_lock(proc, k.locks.streams(session_id)):
            proc.ifetch_range(*k.routine_span("streams_core"))
            proc.ifetch_range(*k.routine_span("tty_driver_hot"))
            self._copyin_params(proc, process, max(16, nchars))
            proc.dwrite(k.datamap.kheap_scratch(session_id))
        self._exit(proc, process)

    def tty_read(self, proc, process: Process, session_id: int, nchars: int) -> None:
        """Consume terminal input already delivered by the interrupt."""
        k = self.k
        self.counts["read"] += 1
        process.syscalls += 1
        self._entry(proc, process)
        proc.ifetch_range(*k.routine_span("read_setup"))
        with k.locks.held_lock(proc, k.locks.streams(session_id)):
            proc.ifetch_range(*k.routine_span("streams_core"))
            proc.ifetch_range(*k.routine_span("tty_driver_hot"))
            proc.dread(k.datamap.kheap_scratch(session_id))
            dst = k.user_io_address(proc, process, 0)
            src = k.datamap.kheap_scratch(session_id)
            k.blockops.bcopy(proc, src, dst, max(16, nchars))
        self._exit(proc, process)

    # ------------------------------------------------------------------
    # Everything else
    # ------------------------------------------------------------------
    def misc(self, proc, process: Process, flavor: str = "misc") -> None:
        """Cheap syscalls: gettimeofday, getpid, sigaction, ioctl..."""
        k = self.k
        self.counts["misc"] += 1
        process.syscalls += 1
        self._entry(proc, process)
        routine = {
            "time": "gettimeofday_impl",
            "signal": "signal_impl",
            "ioctl": "ioctl_impl",
            "stat": "stat_impl",
            "pipe": "pipe_ops",
        }.get(flavor, "misc_syscall")
        proc.ifetch_range(*k.routine_span(routine))
        proc.dread(k.datamap.ustruct_rest_base(process.slot) + 256)
        self._exit(proc, process)
