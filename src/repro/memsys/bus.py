"""The shared snooping bus.

Every second-level cache miss, coherence upgrade, and uncached access
becomes a :class:`BusTransaction`. The hardware monitor
(:mod:`repro.monitor.hwmonitor`) attaches as a listener and records the
(time, CPU, physical address) triple of each transaction — exactly what
the paper's monitor stored (Section 2.1).

Synchronization accesses do *not* travel on this bus: the 4D/340 diverts
them to a dedicated synchronization bus (modelled in
:mod:`repro.sync.syncbus`), which is why the paper's monitor could not see
them.
"""

from __future__ import annotations

import enum
from typing import Callable, List, NamedTuple


class BusOp(enum.Enum):
    """Bus transaction kinds distinguishable by a bus snooper."""

    READ = "read"            # cache fill for a read / instruction fetch
    WRITE = "write"          # cache fill for a write, or ownership upgrade
    UNCACHED_READ = "uncached_read"  # cache-bypassing read (escapes, PIO)

    # Members are singletons; the C-level identity hash beats Enum's
    # Python-level hash on the per-transaction monitor/analysis paths.
    __hash__ = object.__hash__


class BusTransaction(NamedTuple):
    """One observable bus transaction.

    ``time_cycles`` is in 30 ns processor cycles; the monitor quantizes to
    its own 60 ns tick when recording.
    """

    time_cycles: int
    cpu: int
    addr: int
    op: BusOp


Listener = Callable[[BusTransaction], None]


class Bus:
    """Broadcast medium connecting the CPUs, memory and the monitor."""

    def __init__(self) -> None:
        self._listeners: List[Listener] = []
        self.transaction_count = 0

    def attach(self, listener: Listener) -> None:
        """Attach a snooper called on every transaction."""
        self._listeners.append(listener)

    def detach(self, listener: Listener) -> None:
        self._listeners.remove(listener)

    def transaction(self, time_cycles: int, cpu: int, addr: int, op: BusOp) -> None:
        """Issue one transaction and notify all snoopers."""
        self.transaction_count += 1
        if self._listeners:
            txn = BusTransaction(time_cycles, cpu, addr, op)
            for listener in self._listeners:
                listener(txn)
