"""Interrupt handlers: clock, disk, terminal, inter-CPU, network.

"Any interrupt, such as disk and terminal I/O, inter-CPU, or clock
interrupts" (Table 8). Interrupts "execute long stretches of code while
referencing relatively few data items", which is why they contribute
more to instruction misses than to data misses (Figure 9).

Routing models the 4D/340: device interrupts (disk, terminal) are taken
on ``MachineParams.device_cpu`` (CPU 0); network functions run on
``network_cpu`` (CPU 1, Section 2.2); the clock ticks on every CPU every
10 ms.
"""

from __future__ import annotations

from repro.common.backref import BackRef, HoldsBackRefs
from repro.common.types import InterruptKind
from repro.kernel.structures import StructName

_INTR_CODE = {kind: i for i, kind in enumerate(InterruptKind)}

# Every N-th clock tick recomputes priorities over the process table.
_SCHEDPRIO_PERIOD = 4
# Process-table entries swept per priority recomputation.
_SCHEDPRIO_SWEEP = 24


class Interrupts(HoldsBackRefs):
    """The interrupt handlers, each a code walk plus structure touches."""

    k = BackRef()

    def __init__(self, kernel):
        self.k = kernel
        self.counts = {kind: 0 for kind in InterruptKind}
        self._clock_ticks = [0] * kernel.params.num_cpus

    def _enter(self, proc, kind: InterruptKind) -> None:
        self.counts[kind] += 1
        if self.k.checks is not None:
            self.k.checks.lockdep.on_interrupt_entry(
                proc.cpu_id, proc.cycles, kind.name
            )
        self.k.instr.intr_enter(proc, _INTR_CODE[kind])

    def _exit(self, proc) -> None:
        if self.k.checks is not None:
            self.k.checks.lockdep.on_interrupt_exit(proc.cpu_id, proc.cycles)
        self.k.instr.intr_exit(proc)

    # ------------------------------------------------------------------
    # Clock (10 ms period, per CPU)
    # ------------------------------------------------------------------
    def clock(self, proc) -> bool:
        """One clock tick. Returns True if the current process's quantum
        expired and a reschedule is needed."""
        k = self.k
        self._enter(proc, InterruptKind.CLOCK)
        proc.ifetch_range(*k.routine_span("clock_intr"))
        # Outstanding callouts (alarms/timeouts) under Calock.
        with k.locks.held(proc, "calock"):
            proc.ifetch_range(*k.routine_span("callout_run"))
            tick = self._clock_ticks[proc.cpu_id]
            proc.dread(k.datamap.callout_entry(tick))
            proc.dwrite(k.datamap.callout_entry(tick + 1))
        due = k.pop_due_timers(proc)
        for process in due:
            k.scheduler.setrq(proc, process)
        self._clock_ticks[proc.cpu_id] += 1
        if self._clock_ticks[proc.cpu_id] % _SCHEDPRIO_PERIOD == 0:
            self._recompute_priorities(proc)
        self._exit(proc)
        current = k.current[proc.cpu_id]
        if current is None:
            return False
        elapsed = proc.cycles - k.quantum_start_cycles[proc.cpu_id]
        return elapsed >= k.tuning.quantum_cycles

    def _recompute_priorities(self, proc) -> None:
        """Priority decay sweep over part of the process table.

        p_cpu decays over time, pulling CPU-bound processes back toward
        the base priority so they are not starved forever.
        """
        k = self.k
        proc.ifetch_range(*k.routine_span("runq_schedprio"))
        proc.dread(k.datamap.hi_ndproc_base)
        tick = self._clock_ticks[proc.cpu_id]
        # The sweep writes p_cpu of entries whose processes may be
        # running on other CPUs, without Runqlk — an intentional lossy
        # decay update (System V clock code), annotated as such.
        with k.race_exempt(proc, StructName.PROC_TABLE):
            for i in range(_SCHEDPRIO_SWEEP):
                slot = (tick * _SCHEDPRIO_SWEEP + i) % 128
                proc.dwrite(k.datamap.proc_entry(slot))
        for process in k.processes.values():
            if process.priority > 20:
                process.priority -= 1

    # ------------------------------------------------------------------
    # Disk completion
    # ------------------------------------------------------------------
    def disk(self, proc, payloads) -> None:
        self._enter(proc, InterruptKind.DISK)
        proc.ifetch_range(*self.k.routine_span("disk_intr"))
        proc.ifetch_range(*self.k.routine_span("disk_driver_hot"))
        for payload in payloads:
            self.k.fs.complete_io(proc, payload)
        self._exit(proc)

    # ------------------------------------------------------------------
    # Terminal input (the simulated-user typing of the ed sessions)
    # ------------------------------------------------------------------
    def terminal(self, proc, session_id: int, nchars: int) -> None:
        k = self.k
        self._enter(proc, InterruptKind.TERMINAL)
        proc.ifetch_range(*k.routine_span("tty_intr"))
        with k.locks.held_lock(proc, k.locks.streams(session_id)):
            proc.ifetch_range(*k.routine_span("tty_driver_hot"))
            proc.ifetch_range(*k.routine_span("streams_core"))
            # One queue touch per burst of characters.
            proc.dwrite(k.datamap.kheap_scratch(session_id))
        k.tty_input[session_id] = k.tty_input.get(session_id, 0) + nchars
        k.wakeup(("tty", session_id), proc)
        self._exit(proc)

    # ------------------------------------------------------------------
    # Inter-CPU
    # ------------------------------------------------------------------
    def inter_cpu(self, proc) -> None:
        self._enter(proc, InterruptKind.INTER_CPU)
        proc.ifetch_range(*self.k.routine_span("ipi_intr"))
        self._exit(proc)

    # ------------------------------------------------------------------
    # Network (CPU 1: trace-transfer daemons, and request arrivals)
    # ------------------------------------------------------------------
    def network(self, proc, session_id=None, nchars: int = 0) -> None:
        """One network interrupt on the network CPU.

        Bare ``network(proc)`` is the trace-transfer daemon kick
        (Section 2.1). With a ``session_id`` it delivers an inbound
        request (repro.workloads.netserver): the handler queues the
        bytes on the session's stream under its ``streams_x`` lock —
        the one lock family the IRQ lockdep rules allow here — and
        wakes the server sleeping in ``tty_read``.
        """
        k = self.k
        self._enter(proc, InterruptKind.NETWORK)
        proc.ifetch_range(*k.routine_span("net_intr"))
        proc.ifetch_range(*k.routine_span("net_driver_hot"))
        if session_id is not None:
            with k.locks.held_lock(proc, k.locks.streams(session_id)):
                proc.ifetch_range(*k.routine_span("streams_core"))
                proc.dwrite(k.datamap.kheap_scratch(session_id))
            k.tty_input[session_id] = k.tty_input.get(session_id, 0) + nchars
            k.wakeup(("tty", session_id), proc)
        self._exit(proc)
