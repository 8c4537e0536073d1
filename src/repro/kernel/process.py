"""Process model.

A process owns a virtual address space (shared text image + private data
pages), a process-table slot (which fixes the physical addresses of its
kernel stack, user structure and page table — the per-process state whose
migration the paper identifies as a major miss source), and a *driver*:
the workload-supplied iterator of actions it executes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set, Tuple, Union

# Virtual page number bases (per-process virtual layout).
TEXT_VBASE = 0
DATA_VBASE = 0x100
STACK_VBASE = 0x3C0


class ProcState(enum.Enum):
    RUNNING = "running"
    RUNNABLE = "runnable"
    SLEEPING = "sleeping"
    STOPPED = "stopped"   # suspended by the master tracer
    ZOMBIE = "zombie"


@dataclass
class Image:
    """A program's text image, shared by every process executing it.

    Text frames are allocated on first exec and refcounted; when the last
    user exits and memory pressure reclaims them, their reuse forces the
    I-cache invalidations that become *Inval* misses.
    """

    name: str
    text_pages: int
    file_ino: int = -1  # executable file the text is demand-paged from
    frames: List[int] = field(default_factory=list)  # -1 = not resident
    refcount: int = 0

    def resident(self) -> bool:
        return bool(self.frames)


class HotSet:
    """The hot working set the user-mode engine sweeps, by arithmetic.

    Entry ``i`` is a ``(vpage, block-in-page)`` pair: every
    ``text_step``-th block of each of ``text_pages`` text pages, then
    every ``data_step``-th block of each of ``data_pages`` data pages,
    in page order. The engine's touch loop (``UserEngine._run_user_refs``)
    computes entries inline with the arithmetic of :meth:`__getitem__`;
    an indexing call per touch would cost more than the set saves.
    """

    __slots__ = (
        "text_pages", "text_step", "data_pages", "data_step",
        "blocks_per_page", "text_per_page", "data_per_page", "text_len",
        "size",
    )

    def __init__(self, text_pages: int, text_step: int, data_pages: int,
                 data_step: int, blocks_per_page: int):
        self.text_pages = text_pages
        self.text_step = text_step
        self.data_pages = data_pages
        self.data_step = data_step
        self.blocks_per_page = blocks_per_page
        self.text_per_page = len(range(0, blocks_per_page, text_step))
        self.data_per_page = len(range(0, blocks_per_page, data_step))
        self.text_len = text_pages * self.text_per_page
        self.size = self.text_len + data_pages * self.data_per_page

    def __len__(self) -> int:
        return self.size

    def __getitem__(self, i: int) -> Tuple[int, int]:
        if not 0 <= i < self.size:
            raise IndexError("hot set index out of range")
        if i < self.text_len:
            return (TEXT_VBASE + i // self.text_per_page,
                    i % self.text_per_page * self.text_step)
        i -= self.text_len
        return (DATA_VBASE + i // self.data_per_page,
                i % self.data_per_page * self.data_step)

    def __iter__(self) -> Iterator[Tuple[int, int]]:
        for vpage in range(TEXT_VBASE, TEXT_VBASE + self.text_pages):
            for block in range(0, self.blocks_per_page, self.text_step):
                yield vpage, block
        for vpage in range(DATA_VBASE, DATA_VBASE + self.data_pages):
            for block in range(0, self.blocks_per_page, self.data_step):
                yield vpage, block


@dataclass
class Process:
    """One schedulable process."""

    pid: int
    slot: int
    name: str
    image: Image
    driver: Iterator  # yields workload actions
    priority: int = 20
    state: ProcState = ProcState.RUNNABLE
    last_cpu: int = -1
    # Private pages: virtual page -> physical frame.
    data_frames: Dict[int, int] = field(default_factory=dict)
    # Data pages still shared copy-on-write with the parent after fork.
    cow_pages: Set[int] = field(default_factory=set)
    # Hot working set the user-mode engine sweeps: (vpage, block-in-page).
    # Empty until the engine builds it; an unpickled process holds the
    # expanded list that __getstate__ wrote.
    hot_blocks: Union[HotSet, List[Tuple[int, int]]] = field(default_factory=list)
    sweep_cursor: int = 0
    # Number of data pages the process may demand-fault (heap size).
    data_pages: int = 16
    # Carried state for partially-executed Compute actions.
    pending_action: Optional[object] = None
    # Statistics.
    migrations: int = 0
    dispatches: int = 0
    syscalls: int = 0
    # Wakeup bookkeeping (what the process sleeps on).
    sleep_channel: Optional[object] = None
    exited: bool = False

    def runnable(self) -> bool:
        return self.state is ProcState.RUNNABLE

    # ------------------------------------------------------------------
    # Pickling: the driver is a live generator, which CPython cannot
    # serialize. A pickled process (run cache, multiprocessing) is only
    # ever *analyzed*, never resumed, so the driver is dropped on dump
    # and replaced with an exhausted iterator on load — stepping a
    # restored process simply exits it instead of crashing. The hot set
    # is written as its expanded list of pairs, the form it had before
    # HotSet existed, so pickled runs and checkpoints stay
    # byte-identical to the ones already stored.
    # ------------------------------------------------------------------
    def __getstate__(self):
        state = self.__dict__.copy()
        state["driver"] = None
        if type(self.hot_blocks) is HotSet:
            state["hot_blocks"] = list(self.hot_blocks)
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        if self.driver is None:
            self.driver = iter(())

    def note_dispatch(self, cpu_id: int) -> bool:
        """Record a dispatch; True if this dispatch migrated the process."""
        migrated = self.last_cpu not in (-1, cpu_id)
        if migrated:
            self.migrations += 1
        self.last_cpu = cpu_id
        self.dispatches += 1
        return migrated

    def hot_set(
        self, text_fraction: float = 0.5, data_fraction: float = 0.6,
        blocks_per_page: int = 256,
    ) -> HotSet:
        """The hot blocks of the current image and heap.

        ``text_fraction`` of each text page and ``data_fraction`` of each
        currently-known data page are hot; the engine walks them
        cyclically, which is what re-exposes OS-displaced blocks as
        *Ap_dispos* misses (Section 4.3).
        """
        return HotSet(
            self.image.text_pages, max(1, int(1 / max(text_fraction, 1e-6))),
            self.data_pages, max(1, int(1 / max(data_fraction, 1e-6))),
            blocks_per_page,
        )

    def build_hot_set(
        self, rng, text_fraction: float = 0.5, data_fraction: float = 0.6,
        blocks_per_page: int = 256,
    ) -> None:
        """Choose the hot blocks the user-mode engine sweeps (:meth:`hot_set`)."""
        hot = self.hot_set(text_fraction, data_fraction, blocks_per_page)
        # Keep the sweep order sequential (spatial locality drives both
        # the TLB behaviour and the cache behaviour); only the starting
        # point is randomized.
        self.hot_blocks = hot
        self.sweep_cursor = rng.randrange(len(hot)) if hot else 0
