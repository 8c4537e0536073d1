"""Workload base class and engine-facing configuration."""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import List, Tuple

# (cycles, session_id, nchars): one burst of simulated typing arriving at
# a terminal (Section 3's "program that simulates a user typing").
TtyEvent = Tuple[int, int, int]

# (cycles, session_id, nchars): one request arriving at the NIC; the
# network CPU delivers it as a network interrupt that queues the bytes
# on the session's stream (repro.workloads.netserver).
NetEvent = Tuple[int, int, int]


@dataclass
class EngineConfig:
    """User-mode engine knobs (see DESIGN.md on sampled app references).

    ``touches_per_kcycle`` is the sampled application reference rate: how
    many cache-block touches the engine issues per 1000 user cycles. The
    full R3000 rate would be ~250/kcycle at block granularity; sampling
    keeps Python runs tractable while preserving cache residency
    behaviour. It scales application miss counts and is a per-workload
    calibration constant (Table 1's OS/total miss split).
    """

    touches_per_kcycle: float = 40.0
    slice_ms: float = 0.25          # max user execution per engine slice
    idle_step_ms: float = 0.05      # idle-loop poll period
    text_touch_fraction: float = 0.55  # share of touches that are ifetches
    jump_probability: float = 0.02  # working-set random jump per touch
    hot_text_fraction: float = 0.5  # of each text page that is hot
    hot_data_fraction: float = 0.6  # of each data page that is hot


def preload_image(kernel, image) -> None:
    """Make a program image resident before tracing starts.

    The paper traced a system that had been running for a while: the
    binaries of long-running programs (the database, the simulator, the
    editors, make itself) were long since paged in. Setup-time loading
    has no reference traffic; demand paging still covers everything
    exec'd afterwards (the compiler image under Pmake) and anything the
    page stealer later evicts.
    """
    from repro.kernel.vm import USE_TEXT

    if image.frames:
        return
    image.frames = []
    for _ in range(image.text_pages):
        frame = kernel.memsys.memory.alloc_frame()
        kernel.vm.frame_use[frame] = (USE_TEXT, image.name)
        image.frames.append(frame)


def map_shared_region(kernel, processes, first_vpage: int, npages: int) -> None:
    """Map a shared-memory segment into several address spaces.

    Frames are allocated directly (setup time, no reference traffic) and
    refcounted so teardown and page steal behave; writes to these pages
    by different CPUs produce application *Sharing* coherence traffic,
    which is what makes Mp3d and the Oracle SGA behave like the paper's
    versions.
    """
    from repro.kernel.vm import USE_DATA

    if not processes:
        return
    owner = processes[0]
    for i in range(npages):
        vpage = first_vpage + i
        frame = kernel.memsys.memory.alloc_frame()
        kernel.vm.frame_use[frame] = (USE_DATA, (owner.pid, vpage))
        for idx, process in enumerate(processes):
            process.data_frames[vpage] = frame
            if idx > 0:
                kernel.share_frame(frame)


class Workload(ABC):
    """One of the paper's three workloads."""

    name: str = "abstract"

    def __init__(self) -> None:
        self.engine_config = EngineConfig()

    @abstractmethod
    def setup(self, kernel, rng) -> None:
        """Create images, files and the initial processes."""

    def tty_events(self, horizon_cycles: int, rng) -> List[TtyEvent]:
        """Terminal input schedule (empty unless the workload has one)."""
        return []

    def net_events(self, horizon_cycles: int, rng) -> List[NetEvent]:
        """Network-arrival schedule, delivered on the network CPU."""
        return []
