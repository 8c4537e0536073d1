"""Multpgm: a multiprogrammed timesharing load (Section 3).

"Multpgm is a timesharing load composed of a numeric program plus Pmake
and five screen edit sessions. All programs are started at the same
time. The numeric program, called Mp3d, is a 3-D particle simulator ...
run using four processes and 50000 particles."

The ed sessions are fed by a simulated typist: "bursts of 1-15
characters at a time ... at the most, 25 characters can be sent every
five seconds", with think times compressed to our traced window the same
way compute is (DESIGN.md).

Mp3d's processes share the particle arrays and guard cells with
user-level spinlocks; with more runnable processes than CPUs, lock
holders get preempted and waiters fall into the library's
20-spins-then-``sginap`` backoff — producing the sginap-dominated OS
operation mix of Figure 2.
"""

from __future__ import annotations

import itertools
from typing import Iterator, List

from repro.kernel.process import Image, ProcState
from repro.workloads import actions as A
from repro.workloads.base import TtyEvent, Workload, map_shared_region, preload_image
from repro.workloads.pmake import PmakeWorkload

_MP3D_BIN_INO = 300
_ED_BIN_INO = 301
_ED_FILE_INO0 = 310

_NUM_MP3D = 4
_NUM_ED = 5

# Mp3d shared region: 50,000 particles x ~36 bytes ~ 1.8 MB -> 440 pages.
_MP3D_SHARED_PAGES = 440
_MP3D_SHARED_VBASE = 0x110   # above the user I/O staging pages
_NUM_CELL_LOCKS = 6

# Barrier semaphores.
_SEM_ARRIVE = 1
_SEM_GO = 2

# Compressed per-step compute (cycles).
_MP3D_CELL_WORK = 4000
_MP3D_CELLS_PER_STEP = 400
_ED_PROCESS_CYCLES = 9000

# Typist model: compressed think time between bursts (ms of sim time).
_ED_BURST_GAP_MS = (6.0, 28.0)


class MultpgmWorkload(Workload):
    """Mp3d + Pmake + five ed sessions."""

    name = "multpgm"

    def __init__(self) -> None:
        super().__init__()
        self.pmake = PmakeWorkload()
        self.mp3d_image = Image("mp3d", text_pages=30, file_ino=_MP3D_BIN_INO)
        self.ed_image = Image("ed", text_pages=12, file_ino=_ED_BIN_INO)
        self._rng = None

    # ------------------------------------------------------------------
    def setup(self, kernel, rng) -> None:
        self._rng = rng
        # The embedded Pmake (its own files + make process).
        self.pmake.setup(kernel, rng)
        fs = kernel.fs
        fs.register_file(_MP3D_BIN_INO, self.mp3d_image.text_pages * 4096, "mp3d")
        fs.register_file(_ED_BIN_INO, self.ed_image.text_pages * 4096, "ed")
        for s in range(_NUM_ED):
            fs.register_file(_ED_FILE_INO0 + s, 30 * 1024, f"edit{s}.txt")

        preload_image(kernel, self.mp3d_image)
        preload_image(kernel, self.ed_image)
        mp3d_procs = []
        for p in range(_NUM_MP3D):
            process = kernel.create_process(
                f"mp3d-{p}", self.mp3d_image, self.mp3d_driver(p)
            )
            process.data_pages = _MP3D_SHARED_VBASE - 0x100 + _MP3D_SHARED_PAGES + 8
            process.state = ProcState.RUNNABLE
            kernel.scheduler.run_queue.append(process)
            mp3d_procs.append(process)
        map_shared_region(kernel, mp3d_procs, _MP3D_SHARED_VBASE, _MP3D_SHARED_PAGES)

        for s in range(_NUM_ED):
            process = kernel.create_process(
                f"ed-{s}", self.ed_image, self.ed_driver(s)
            )
            process.data_pages = 12
            process.state = ProcState.RUNNABLE
            kernel.scheduler.run_queue.append(process)

    # ------------------------------------------------------------------
    # Mp3d: move particles cell by cell under cell locks; barrier per step
    # ------------------------------------------------------------------
    def mp3d_driver(self, rank: int) -> Iterator:
        rng = self._rng
        for _step in itertools.count():
            for _ in range(_MP3D_CELLS_PER_STEP):
                cell = rng.randrange(_NUM_CELL_LOCKS)
                yield A.UserLockAcquire(cell)
                yield A.Compute(_MP3D_CELL_WORK, write_fraction=0.5)
                yield A.UserLockRelease(cell)
                yield A.Compute(_MP3D_CELL_WORK // 5, write_fraction=0.2)
            # Barrier: everyone Vs arrive; rank 0 collects and releases.
            yield A.SemOp(_SEM_ARRIVE, +1)
            if rank == 0:
                for _ in range(_NUM_MP3D):
                    yield A.SemOp(_SEM_ARRIVE, -1)
                for _ in range(_NUM_MP3D - 1):
                    yield A.SemOp(_SEM_GO, +1)
            else:
                yield A.SemOp(_SEM_GO, -1)

    # ------------------------------------------------------------------
    # ed: wait for typed input, search/edit, echo to the screen
    # ------------------------------------------------------------------
    def ed_driver(self, session: int) -> Iterator:
        rng = self._rng
        ino = _ED_FILE_INO0 + session
        yield A.OpenFile(ino)
        yield A.ReadFile(ino, 0, 8 * 1024)   # load the file
        for n in itertools.count():
            yield A.TermWait(session)
            # Character search / text editing over the buffer.
            yield A.Compute(int(_ED_PROCESS_CYCLES * (0.5 + rng.random())),
                            write_fraction=0.3)
            yield A.TermWrite(session, rng.randint(4, 30))
            if n % 12 == 11:
                yield A.WriteFile(ino, rng.randrange(8) * 2048, 2048)  # :w

    # ------------------------------------------------------------------
    def tty_events(self, horizon_cycles: int, rng) -> List[TtyEvent]:
        """The simulated typists: bursts of 1-15 characters."""
        cycles_per_ms = 1e6 / 30.0
        events: List[TtyEvent] = []
        for session in range(_NUM_ED):
            t = rng.uniform(1.0, 8.0) * cycles_per_ms
            while t < horizon_cycles:
                nchars = rng.randint(1, 15)
                events.append((int(t), session, nchars))
                gap_ms = rng.uniform(*_ED_BURST_GAP_MS)
                t += gap_ms * cycles_per_ms
        return events
