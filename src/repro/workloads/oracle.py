"""Oracle: a scaled-down TP1 database benchmark (Section 3).

"Oracle is a scaled down instance of the TP1 database benchmark running
on an Oracle database ... 10 branches, 100 tellers, 10,000 accounts, and
achieves 59 transactions per second." The database fits in main memory,
so data-file reads mostly hit the SGA buffer pool; the redo log is
written at every commit.

Modelled as a set of server processes sharing a large SGA (shared
memory) plus a log-writer, all running the same large database binary —
the big instruction working set is what makes *Dispap* dominate Oracle's
OS instruction misses (Figure 4) and keeps its I-miss-rate curve falling
all the way to 1 MB caches (Figure 6). The database "requests allocation
of pages itself and manages its own file activity", so kernel
expensive-TLB activity is minimal and the I/O shows up as read/write
system calls (Section 4.2.3).
"""

from __future__ import annotations

import itertools
from typing import Iterator

from repro.kernel.process import Image, ProcState
from repro.workloads import actions as A
from repro.workloads.base import Workload, map_shared_region, preload_image

_ORACLE_BIN_INO = 400
_DATAFILE_INO0 = 410     # one per branch
_NUM_DATAFILES = 10      # the 10 branches
_REDO_INO = 430

_NUM_SERVERS = 5

# The SGA buffer pool: in-memory database -> a few MB shared.
_SGA_PAGES = 700
_SGA_VBASE = 0x110

# Latches guarding the buffer pool / library cache.
_NUM_LATCHES = 24
_COMMIT_SEM = 9

# Per-transaction compute (compressed, cycles): TP1 reads/updates the
# teller, branch and account rows, then commits.
_TXN_COMPUTE = 42_000
_DATAFILE_BYTES = 1024 * 1024


class OracleWorkload(Workload):
    """The TP1 database.

    ``scale="scaled"`` is the paper's measured configuration (10
    branches / 100 tellers / 10,000 accounts, sized to fit in memory);
    ``scale="standard"`` approximates the standard-sized benchmark the
    paper's companion report re-ran to confirm "the characteristics of
    the OS misses ... are qualitatively the same" (Section 3): ten times
    the branches and a larger SGA/datafile footprint.
    """

    name = "oracle"

    def __init__(self, num_servers: int = _NUM_SERVERS, scale: str = "scaled"):
        super().__init__()
        if scale not in ("scaled", "standard"):
            raise ValueError("scale must be 'scaled' or 'standard'")
        self.scale = scale
        self.num_servers = num_servers
        self.num_datafiles = _NUM_DATAFILES if scale == "scaled" else 40
        self.sga_pages = _SGA_PAGES if scale == "scaled" else 1000
        # A database binary measured in megabytes: 290 text pages.
        self.oracle_image = Image("oracle", text_pages=290,
                                  file_ino=_ORACLE_BIN_INO)
        self._rng = None

    # ------------------------------------------------------------------
    def setup(self, kernel, rng) -> None:
        self._rng = rng
        fs = kernel.fs
        fs.register_file(
            _ORACLE_BIN_INO, self.oracle_image.text_pages * 4096, "oracle"
        )
        for b in range(self.num_datafiles):
            fs.register_file(_DATAFILE_INO0 + b, _DATAFILE_BYTES, f"branch{b}.dbf")
        fs.register_file(_REDO_INO, 0, "redo.log")

        preload_image(kernel, self.oracle_image)
        servers = []
        for s in range(self.num_servers):
            process = kernel.create_process(
                f"oracle-{s}", self.oracle_image, self.server_driver(s)
            )
            process.data_pages = _SGA_VBASE - 0x100 + self.sga_pages + 16
            process.state = ProcState.RUNNABLE
            kernel.scheduler.run_queue.append(process)
            servers.append(process)
        map_shared_region(kernel, servers, _SGA_VBASE, self.sga_pages)
        lgwr = kernel.create_process(
            "oracle-lgwr", self.oracle_image, self.lgwr_driver()
        )
        lgwr.data_pages = _SGA_VBASE - 0x100 + self.sga_pages + 16
        lgwr.state = ProcState.RUNNABLE
        kernel.scheduler.run_queue.append(lgwr)
        # lgwr shares the SGA too.
        for i in range(self.sga_pages):
            vpage = _SGA_VBASE + i
            frame = servers[0].data_frames[vpage]
            lgwr.data_frames[vpage] = frame
            kernel.share_frame(frame)

    # ------------------------------------------------------------------
    # One server process: TP1 transactions forever
    # ------------------------------------------------------------------
    def server_driver(self, rank: int) -> Iterator:
        rng = self._rng
        for txn in itertools.count():
            # Buffer-pool latches around row updates (teller, branch,
            # account); short hold times, occasionally contended.
            for _ in range(3):
                latch = rng.randrange(_NUM_LATCHES)
                yield A.UserLockAcquire(1000 + latch)
                yield A.Compute(_TXN_COMPUTE // 6, write_fraction=0.45)
                yield A.UserLockRelease(1000 + latch)
            yield A.Compute(_TXN_COMPUTE // 2, write_fraction=0.25)
            if rng.random() < 0.65:
                # Data-file read through the kernel (the DB manages its
                # own file activity). The benchmark fits in memory, so
                # reads concentrate on a hot region and mostly hit the
                # buffer cache.
                branch = rng.randrange(self.num_datafiles)
                hot = rng.random() < 0.95
                limit = 16 * 1024 if hot else _DATAFILE_BYTES
                yield A.ReadFile(
                    _DATAFILE_INO0 + branch,
                    rng.randrange(limit // 2048) * 2048,
                    2048,
                )
            # Commit: wake the log writer.
            yield A.SemOp(_COMMIT_SEM, +1)
            if rng.random() < 0.10:
                # Client round-trip: the benchmark driver thinks briefly
                # (the scaled benchmark paces at 59 TPS, Section 3).
                yield A.SleepFor(rng.uniform(1.0, 3.0))
            if txn % 40 == 39:
                yield A.Misc("time")

    # ------------------------------------------------------------------
    # The log writer: group-commits the redo log
    # ------------------------------------------------------------------
    def lgwr_driver(self) -> Iterator:
        offset = 0
        for i in itertools.count():
            yield A.SemOp(_COMMIT_SEM, -1)
            yield A.Compute(3000, write_fraction=0.4)
            if i % 8 == 7:
                # Group commit: one redo write covers several commits.
                yield A.WriteFile(_REDO_INO, offset, 2048)
                offset += 2048
