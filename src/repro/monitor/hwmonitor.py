"""The bus-snooping hardware monitor.

The real monitor "stores the physical address and ID of the originating
processor for over 2 million bus transactions" and measures time "with a
granularity of 60 ns" (Section 2.1). Synchronization accesses are
diverted to the synchronization bus and are invisible to it.

Trace entries are 4-tuples ``(tick, cpu, addr, op)`` — ``tick`` in 60 ns
monitor ticks, ``op`` one of :data:`OP_READ` / :data:`OP_WRITE` /
:data:`OP_UNCACHED`. Plain tuples keep multi-hundred-thousand-entry
traces cheap.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Tuple

from repro.common.backref import BackRef, HoldsBackRefs
from repro.memsys.bus import OP_READ, OP_UNCACHED, OP_WRITE, Bus

__all__ = [
    "BufferOverflow", "HardwareMonitor", "OP_READ", "OP_UNCACHED", "OP_WRITE",
    "Trace", "TraceEntry", "TraceSegment",
]

TraceEntry = Tuple[int, int, int, int]  # (tick, cpu, addr, op)


@dataclass
class TraceSegment:
    """One continuous stretch of recorded bus activity.

    The master process (Section 2.1) starts a new segment after every
    buffer dump; analysis treats segments independently and sums.
    """

    start_cycles: int
    entries: List[TraceEntry] = field(default_factory=list)
    end_cycles: int = 0

    def __len__(self) -> int:
        return len(self.entries)

    def duration_cycles(self) -> int:
        return max(0, self.end_cycles - self.start_cycles)


@dataclass
class Trace:
    """A complete monitor trace: all recorded segments."""

    segments: List[TraceSegment] = field(default_factory=list)

    def all_entries(self) -> Iterator[TraceEntry]:
        for segment in self.segments:
            yield from segment.entries

    def __len__(self) -> int:
        return sum(len(s) for s in self.segments)

    def duration_cycles(self) -> int:
        return sum(s.duration_cycles() for s in self.segments)


class BufferOverflow(RuntimeError):
    """The trace buffer filled before the master could dump it."""


class HardwareMonitor(HoldsBackRefs):
    """Attachable bus snooper with a bounded trace buffer.

    ``strict_capacity`` makes the buffer behave like the real hardware —
    transactions beyond capacity raise :class:`BufferOverflow` — which is
    how tests demonstrate that the master's threshold protocol is actually
    needed. The default is forgiving (the entry is still recorded) so
    analysis never silently loses data.
    """

    bus = BackRef()

    def __init__(
        self,
        bus: Bus,
        capacity: int = 2 * 1024 * 1024,
        cycle_ns: float = 30.0,
        tick_ns: float = 60.0,
        strict_capacity: bool = False,
    ):
        self.bus = bus
        self.capacity = capacity
        self.strict_capacity = strict_capacity
        self._cycles_per_tick = tick_ns / cycle_ns
        self.recording = False
        self.trace = Trace()
        self._segment: TraceSegment = TraceSegment(start_cycles=0)
        self.dropped = 0
        # Provenance of a mixed-fidelity run (repro.fidelity): the cycle
        # at which recording switched from the atomic fast-forward tier
        # to the detailed tier. None for pure detailed/atomic runs.
        self.seam_cycles = None
        bus.attach(self._snoop)

    # ------------------------------------------------------------------
    # Bus listener
    # ------------------------------------------------------------------
    def _snoop(self, time_cycles: int, cpu: int, addr: int, op: int) -> None:
        if not self.recording:
            return
        segment = self._segment
        buffer = segment.entries
        if len(buffer) >= self.capacity:
            if self.strict_capacity:
                raise BufferOverflow(
                    f"trace buffer overflowed at {self.capacity} entries"
                )
            self.dropped += 1
        buffer.append((int(time_cycles / self._cycles_per_tick), cpu, addr, op))
        segment.end_cycles = time_cycles

    # ------------------------------------------------------------------
    # Control (exercised by the master process)
    # ------------------------------------------------------------------
    def start(self, now_cycles: int) -> None:
        """Begin recording a new segment."""
        self._segment = TraceSegment(start_cycles=now_cycles, end_cycles=now_cycles)
        self.recording = True

    def stop(self, now_cycles: int) -> TraceSegment:
        """Stop recording; archive and return the finished segment."""
        self.recording = False
        self._segment.end_cycles = max(self._segment.end_cycles, now_cycles)
        segment = self._segment
        self.trace.segments.append(segment)
        return segment

    def note_seam(self, now_cycles: int) -> None:
        """Record the atomic→detailed hand-off point of a mixed run."""
        self.seam_cycles = now_cycles

    def fill_fraction(self) -> float:
        """How full the current buffer is (the master's threshold test)."""
        return len(self._segment.entries) / self.capacity if self.capacity else 1.0

    def buffered_entries(self) -> int:
        return len(self._segment.entries)
