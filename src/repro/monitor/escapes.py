"""Escape-reference encoding: how the instrumented OS talks to the trace.

The paper's scheme (Section 2.2): the OS owns a range of physical
addresses where only OS code lives, and transfers information by issuing
**uncached byte reads of odd addresses**. A read of a distinguished odd
address in the escape window *signals* an event; the data payload is sent
as further uncached reads whose addresses are the payload values shifted
left one bit with the least-significant bit set (hence odd, hence never
confusable with real code fetches, which are block aligned). The
postprocessor (:class:`repro.analysis.decode.TraceAnalyzer`) pairs each
signal with the next N uncached reads from the same CPU.

We encode the same event vocabulary the paper lists: entries/exits from
the OS, the ID of the running processes, TLB changes (needed to translate
physical back to virtual), entries/exits from interrupts, and cache
flushes — plus block-operation markers, which stand in for the paper's
per-subroutine instrumentation used to attribute dynamically-allocated
data (Section 2.2, last paragraph).
"""

from __future__ import annotations

import enum
from typing import Dict, Optional

from repro.memsys.memory import ESCAPE_BASE

ESCAPE_SIGNAL_BASE = ESCAPE_BASE


class EventType(enum.IntEnum):
    """Escape event vocabulary. Values index the signal address."""

    TRACE_START = 1      # payloads: none
    OS_ENTER = 2         # payloads: high-level op code (HighLevelOp index)
    OS_EXIT = 3          # payloads: none
    IDLE_ENTER = 4       # payloads: none
    IDLE_EXIT = 5        # payloads: none
    PID_SET = 6          # payloads: pid
    TLB_UPDATE = 7       # payloads: index, vpage, frame, pid*2 + is_text
    ICACHE_FLUSH = 8     # payloads: frame
    BLOCKOP_BEGIN = 9    # payloads: kind code, first block, block count
    BLOCKOP_END = 10     # payloads: none
    INTR_ENTER = 11      # payloads: interrupt kind code
    INTR_EXIT = 12       # payloads: none


PAYLOAD_COUNT: Dict[EventType, int] = {
    EventType.TRACE_START: 0,
    EventType.OS_ENTER: 1,
    EventType.OS_EXIT: 0,
    EventType.IDLE_ENTER: 0,
    EventType.IDLE_EXIT: 0,
    EventType.PID_SET: 1,
    EventType.TLB_UPDATE: 4,
    EventType.ICACHE_FLUSH: 1,
    EventType.BLOCKOP_BEGIN: 3,
    EventType.BLOCKOP_END: 0,
    EventType.INTR_ENTER: 1,
    EventType.INTR_EXIT: 0,
}


def signal_address(event: EventType) -> int:
    """The odd escape-window address that announces ``event``."""
    return ESCAPE_SIGNAL_BASE + 2 * int(event) + 1


def payload_address(value: int) -> int:
    """Encode a payload value as an odd byte address (shift left, set LSB)."""
    if value < 0:
        raise ValueError("escape payloads must be non-negative")
    return (value << 1) | 1


def decode_payload(addr: int) -> int:
    return addr >> 1


def signal_event(addr: int) -> Optional[EventType]:
    """The event a signal address announces, or None if not a signal."""
    if addr < ESCAPE_SIGNAL_BASE or not addr & 1:
        return None
    code = (addr - ESCAPE_SIGNAL_BASE - 1) // 2
    try:
        return EventType(code)
    except ValueError:
        return None


class Instrumentation:
    """OS-side emitter of escape sequences.

    Emission goes through the issuing CPU's :class:`Processor` so each
    escape costs exactly what the paper says: one uncached bus access per
    signal or payload read. When ``enabled`` is False the methods are
    no-ops — the uninstrumented kernel.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled

    def _emit(self, proc, event: EventType, *payloads: int) -> None:
        if not self.enabled:
            return
        if len(payloads) != PAYLOAD_COUNT[event]:
            raise ValueError(
                f"{event.name} needs {PAYLOAD_COUNT[event]} payloads, got {len(payloads)}"
            )
        proc.uncached_read(signal_address(event))
        for value in payloads:
            proc.uncached_read(payload_address(value))

    # ------------------------------------------------------------------
    # The event vocabulary (Section 2.2)
    # ------------------------------------------------------------------
    def trace_start(self, proc) -> None:
        self._emit(proc, EventType.TRACE_START)

    def os_enter(self, proc, op_code: int) -> None:
        self._emit(proc, EventType.OS_ENTER, op_code)

    def os_exit(self, proc) -> None:
        self._emit(proc, EventType.OS_EXIT)

    def idle_enter(self, proc) -> None:
        self._emit(proc, EventType.IDLE_ENTER)

    def idle_exit(self, proc) -> None:
        self._emit(proc, EventType.IDLE_EXIT)

    def pid_set(self, proc, pid: int) -> None:
        self._emit(proc, EventType.PID_SET, pid)

    def tlb_update(
        self, proc, index: int, vpage: int, frame: int, pid: int, is_text: bool
    ) -> None:
        self._emit(
            proc, EventType.TLB_UPDATE, index, vpage, frame, pid * 2 + int(is_text)
        )

    def icache_flush(self, proc, frame: int) -> None:
        self._emit(proc, EventType.ICACHE_FLUSH, frame)

    def blockop_begin(self, proc, kind_code: int, first_block: int, count: int) -> None:
        self._emit(proc, EventType.BLOCKOP_BEGIN, kind_code, first_block, count)

    def blockop_end(self, proc) -> None:
        self._emit(proc, EventType.BLOCKOP_END)

    def intr_enter(self, proc, kind_code: int) -> None:
        self._emit(proc, EventType.INTR_ENTER, kind_code)

    def intr_exit(self, proc) -> None:
        self._emit(proc, EventType.INTR_EXIT)


class NullInstrumentation(Instrumentation):
    """Always-off instrumentation (zero perturbation)."""

    def __init__(self) -> None:
        super().__init__(enabled=False)
