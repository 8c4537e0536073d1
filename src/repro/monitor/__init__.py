"""The measurement apparatus of the paper, modelled faithfully:

- :class:`~repro.monitor.hwmonitor.HardwareMonitor` — the bus-attached
  trace buffer (2 M entries, 60 ns timestamps, physical address + CPU id
  per transaction; Section 2.1).
- :class:`~repro.monitor.escapes.Instrumentation` — the odd-address
  uncached *escape reference* encoding through which the instrumented OS
  transfers events (OS entry/exit, pid changes, TLB updates, I-cache
  flushes, block operations) into the trace (Section 2.2).
- :class:`~repro.monitor.master.MasterTracer` — the real-time master
  process that suspends the workload, dumps the buffer and resumes it, so
  an unbounded stretch can be traced without overflow (Section 2.1).
"""

from repro.monitor.hwmonitor import (
    HardwareMonitor,
    Trace,
    TraceSegment,
    OP_READ,
    OP_WRITE,
    OP_UNCACHED,
)
from repro.monitor.escapes import (
    Instrumentation,
    EventType,
    ESCAPE_SIGNAL_BASE,
)
from repro.monitor.master import MasterTracer
from repro.monitor.tracefile import load_trace, save_trace

__all__ = [
    "load_trace",
    "save_trace",
    "HardwareMonitor",
    "Trace",
    "TraceSegment",
    "OP_READ",
    "OP_WRITE",
    "OP_UNCACHED",
    "Instrumentation",
    "EventType",
    "ESCAPE_SIGNAL_BASE",
    "MasterTracer",
]
