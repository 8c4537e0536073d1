"""The shared snooping bus.

Every second-level cache miss, coherence upgrade, and uncached access
becomes one bus transaction, handed to each listener as the four values
``(time_cycles, cpu, addr, op)``. The hardware monitor
(:mod:`repro.monitor.hwmonitor`) attaches as a listener and records the
(time, CPU, physical address) triple of each transaction — exactly what
the paper's monitor stored (Section 2.1).

Synchronization accesses do *not* travel on this bus: the 4D/340 diverts
them to a dedicated synchronization bus (modelled in
:mod:`repro.sync.syncbus`), which is why the paper's monitor could not see
them.
"""

from __future__ import annotations

from typing import Callable, List

# Transaction kinds a bus snooper can tell apart. These are also the op
# codes of the monitor's trace entries, so a transaction reaches the
# trace buffer without translation.
OP_READ = 0       # cache fill for a read / instruction fetch
OP_WRITE = 1      # cache fill for a write, or ownership upgrade
OP_UNCACHED = 2   # cache-bypassing read (escapes, PIO)

# listener(time_cycles, cpu, addr, op); ``time_cycles`` is in 30 ns
# processor cycles (the monitor quantizes to its own 60 ns tick).
Listener = Callable[[int, int, int, int], None]


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

    def transaction(self, time_cycles: int, cpu: int, addr: int, op: int) -> None:
        """Issue one transaction and notify all snoopers."""
        self.transaction_count += 1
        for listener in self._listeners:
            listener(time_cycles, cpu, addr, op)
