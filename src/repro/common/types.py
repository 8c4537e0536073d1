"""Typed vocabulary used across the simulator and the analysis pipeline.

The enums mirror the paper's own taxonomies:

- :class:`MissClass` is Table 2 (architectural classification of OS misses),
- :class:`HighLevelOp` is Table 8 (functional classification),
- :class:`AccessKind` distinguishes the bus transaction kinds the hardware
  monitor can observe.
"""

from __future__ import annotations

import enum


class Mode(enum.Enum):
    """What a CPU is executing."""

    USER = "user"
    KERNEL = "kernel"
    IDLE = "idle"

    # Members are singletons, so the C-level identity hash is exact and
    # much cheaper than Enum's Python-level name hash — this enum keys
    # the per-mode cycle buckets the processors update on every
    # reference.
    __hash__ = object.__hash__


class RefDomain(enum.Enum):
    """Who issued a memory reference — the OS or the application.

    Idle-loop execution counts as OS code (the paper reports "OS in the
    Idle Loop" separately in Figure 1) and is tracked through
    :class:`Mode`, not here.
    """

    OS = "os"
    APP = "app"

    __hash__ = object.__hash__  # singleton identity hash (see Mode)


class AccessKind(enum.Enum):
    """Kind of memory access issued by a CPU."""

    IFETCH = "ifetch"
    DREAD = "dread"
    DWRITE = "dwrite"
    UNCACHED_READ = "uncached_read"   # escape references and PIO
    SYNC = "sync"                     # diverted to the synchronization bus


class MissClass(enum.Enum):
    """Architectural classification of cache misses (paper Table 2)."""

    COLD = "cold"          # processor's first access to the block
    DISPOS = "dispos"      # displaced by an intervening OS reference
    DISPAP = "dispap"      # displaced by an intervening application reference
    SHARING = "sharing"    # D-misses from OS data shared/migrating among CPUs
    INVAL = "inval"        # I-misses from I-cache invalidation on page reuse
    UNCACHED = "uncached"  # accesses that bypass the caches

    __hash__ = object.__hash__  # singleton identity hash (see Mode)


class HighLevelOp(enum.Enum):
    """High-level OS operations (paper Table 8)."""

    EXPENSIVE_TLB_FAULT = "expensive_tlb_fault"
    CHEAP_TLB_FAULT = "cheap_tlb_fault"
    IO_SYSCALL = "io_syscall"
    SGINAP_SYSCALL = "sginap_syscall"
    OTHER_SYSCALL = "other_syscall"
    INTERRUPT = "interrupt"

    __hash__ = object.__hash__  # singleton identity hash (see Mode)


class InterruptKind(enum.Enum):
    """Interrupt sources modelled (paper Table 8: disk, terminal,
    inter-CPU and clock interrupts)."""

    CLOCK = "clock"
    DISK = "disk"
    TERMINAL = "terminal"
    INTER_CPU = "inter_cpu"
    NETWORK = "network"
