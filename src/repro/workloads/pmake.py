"""Pmake: a parallel make of 56 C files (Section 3).

"Pmake is a parallel make of 56 C files with, on average, 480 lines of
code each. The files are compiled such that, at the most, 8 jobs can run
at once (-J flag is 8). While this workload has some compute-intensive
periods when the optimizing phase of the compiler runs, it usually
exhibits heavy I/O activity."

Model: a ``make`` coordinator forks compile jobs (fork → exec of the
compiler image → open/read the source and shared headers → parse →
optimize → write the object file → exit), keeping up to 8 in flight.

Time scale: the real compile of a 480-line file takes seconds on a
33 MHz R3000; we compress compute phases (documented in DESIGN.md) so a
sub-second traced window sees the same steady-state *mix* of operations
the paper traced over 1-2 minutes.
"""

from __future__ import annotations

from typing import Iterator, List

from repro.kernel.process import Image, ProcState
from repro.workloads import actions as A
from repro.workloads.base import Workload, preload_image

NUM_FILES = 56
MAX_JOBS = 8

# Inode numbering.
_MAKE_BIN_INO = 10
_CC_BIN_INO = 11
_CC1_BIN_INO = 12
_AS_BIN_INO = 13
_HEADER_INO0 = 20          # 6 shared headers
_NUM_HEADERS = 6
_SRC_INO0 = 40             # 56 sources
_TMP_INO0 = 240            # per-job pipeline temporaries (two per job)
_OBJ_INO0 = 140            # 56 objects

_SRC_BYTES = 17 * 1024     # ~480 lines x ~35 chars
_HEADER_BYTES = 24 * 1024
_OBJ_BYTES = 9 * 1024

# Compressed compute budgets (cycles).
_PARSE_CYCLES = 560_000
_OPTIMIZE_CYCLES = 950_000
_CODEGEN_CYCLES = 560_000
_MAKE_THINK_CYCLES = 50_000


class PmakeWorkload(Workload):
    """The parallel compile."""

    name = "pmake"

    def __init__(self, num_files: int = NUM_FILES, max_jobs: int = MAX_JOBS):
        super().__init__()
        self.num_files = num_files
        self.max_jobs = max_jobs
        self.make_image = Image("make", text_pages=18, file_ino=_MAKE_BIN_INO)
        # The compile pipeline: driver/front end, optimizer, assembler.
        # Separate binaries whose images come and go is what recycles
        # code frames and produces the Inval misses of Table 2/Figure 6.
        self.cc_image = Image("cc", text_pages=26, file_ino=_CC_BIN_INO)
        self.cc1_image = Image("cc1", text_pages=36, file_ino=_CC1_BIN_INO)
        self.as_image = Image("as", text_pages=14, file_ino=_AS_BIN_INO)
        self._rng = None

    # ------------------------------------------------------------------
    def setup(self, kernel, rng) -> None:
        self._rng = rng
        fs = kernel.fs
        fs.register_file(_MAKE_BIN_INO, self.make_image.text_pages * 4096, "make")
        fs.register_file(_CC_BIN_INO, self.cc_image.text_pages * 4096, "cc")
        fs.register_file(_CC1_BIN_INO, self.cc1_image.text_pages * 4096, "cc1")
        fs.register_file(_AS_BIN_INO, self.as_image.text_pages * 4096, "as")
        for h in range(_NUM_HEADERS):
            fs.register_file(_HEADER_INO0 + h, _HEADER_BYTES, f"hdr{h}.h")
        for i in range(self.num_files):
            size = int(_SRC_BYTES * (0.6 + 0.8 * rng.random()))
            fs.register_file(_SRC_INO0 + i, size, f"src{i}.c")
            fs.register_file(_OBJ_INO0 + i, 0, f"src{i}.o")
            fs.register_file(_TMP_INO0 + 2 * i, 0, f"cc{i}.i")
            fs.register_file(_TMP_INO0 + 2 * i + 1, 0, f"cc{i}.s")
        preload_image(kernel, self.make_image)
        make = kernel.create_process("make", self.make_image, self.make_driver())
        make.data_pages = 12
        make.state = ProcState.RUNNABLE
        kernel.scheduler.run_queue.append(make)

    # ------------------------------------------------------------------
    # The make coordinator
    # ------------------------------------------------------------------
    def make_driver(self) -> Iterator:
        running: List = []
        for i in range(self.num_files):
            while len(running) >= self.max_jobs:
                wait = A.WaitChild(running.pop(0))
                yield wait
            yield A.Misc("stat")           # dependency check
            yield A.Compute(_MAKE_THINK_CYCLES)
            fork = A.Fork(f"cc-{i}", self._job_factory(i))
            yield fork
            running.append(fork.child)
        while running:
            yield A.WaitChild(running.pop(0))
        # All compiles done: make prints a summary and lingers.
        yield A.WriteFile(_OBJ_INO0, 0, 256)
        while True:
            yield A.SleepFor(50.0)
            yield A.Misc("time")

    def _job_factory(self, index: int):
        def factory() -> Iterator:
            return self.compile_job(index)
        return factory

    # ------------------------------------------------------------------
    # One compile job: sh-ish fork child that execs the compiler
    # ------------------------------------------------------------------
    def compile_job(self, index: int) -> Iterator:
        rng = self._rng
        src_ino = _SRC_INO0 + index
        obj_ino = _OBJ_INO0 + index
        # A little post-fork shell work in the parent's COW image: this
        # is what produces the copy-on-write page updates of Table 7.
        yield A.Compute(6000 + rng.randrange(40_000), write_fraction=0.5)
        yield A.Exec(self.cc_image, data_pages=12)
        # Front end: read the source and the shared headers, parsing as
        # the text streams in.
        yield A.OpenFile(src_ino)
        chunk = 4096
        offset = 0
        read = A.ReadFile(src_ino, 0, chunk)
        yield read
        headers = rng.sample(range(_NUM_HEADERS), 3)
        for h in headers:
            yield A.OpenFile(_HEADER_INO0 + h)
            yield A.ReadFile(_HEADER_INO0 + h, 0, _HEADER_BYTES // 2)
            yield A.Compute(int(_PARSE_CYCLES * (0.5 + rng.random()) / 6))
        for offset in range(chunk, _SRC_BYTES, chunk):
            yield A.ReadFile(src_ino, offset, chunk)
            yield A.Compute(int(_PARSE_CYCLES * (0.5 + rng.random()) / 4))
        # The front end leaves the preprocessed source in a temp file
        # for the optimizer (the classic cc | cc1 | as pipeline through
        # /tmp), then the optimizer hands assembly to the assembler.
        tmp_i = _TMP_INO0 + 2 * index
        tmp_s = _TMP_INO0 + 2 * index + 1
        yield A.OpenFile(tmp_i)
        for off in range(0, 3 * 4096, 2048):
            yield A.WriteFile(tmp_i, off, 2048)
        # Middle end: exec the optimizer, grow the heap, crunch.
        yield A.Exec(self.cc1_image, data_pages=14)
        yield A.OpenFile(tmp_i)
        yield A.ReadFile(tmp_i, 0, 3 * 4096)
        yield A.Brk(22)
        yield A.Compute(int(_OPTIMIZE_CYCLES * (0.4 + 1.3 * rng.random())),
                        write_fraction=0.35)
        yield A.OpenFile(tmp_s)
        for off in range(0, 2 * 4096, 2048):
            yield A.WriteFile(tmp_s, off, 2048)
        # Back end: exec the assembler and emit the object file.
        yield A.Exec(self.as_image, data_pages=10)
        yield A.OpenFile(tmp_s)
        yield A.ReadFile(tmp_s, 0, 2 * 4096)
        yield A.OpenFile(obj_ino)
        for offset in range(0, _OBJ_BYTES, 2048):
            yield A.Compute(_CODEGEN_CYCLES // 5)
            yield A.WriteFile(obj_ino, offset, 2048)
        yield A.Misc("signal")  # tell make we are done (SIGCHLD path)
    # driver end -> implicit exit()
