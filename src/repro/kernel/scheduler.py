"""Run queue(s) and context switching.

The paper's second major miss source is process migration: the Kernel
Stack, User Structure and Process Table "store per-process state that is
accessed only by the CPU executing that process. If these data
structures appear to be shared, therefore, it is because the process
migrates among CPUs" (Section 4.2.2).

Three scheduling policies, all from the paper:

- **default** (the measured IRIX): one global run queue guarded by
  ``Runqlk`` — the most contended lock in Table 12 and the one whose
  contention Figure 11 shows growing with CPU count; any CPU takes the
  best-priority process, so processes migrate freely;
- **affinity** (`affinity=True`): prefer processes that last ran on this
  CPU, within a priority band — the Section 4.2.2 fix for migration
  misses;
- **distributed run queues** (`num_queues>1`): Section 6's proposal for
  larger machines — one queue (and one lock) per CPU cluster, with
  processes encouraged to stay in their cluster's queue and stealing
  only for load balance.
"""

from __future__ import annotations

from typing import List, Optional

from repro.common.backref import BackRef, HoldsBackRefs
from repro.kernel.process import ProcState, Process
from repro.kernel.structures import PCB_BYTES

# How much of the new process's kernel stack a context switch touches.
_KSTACK_TOUCH_BYTES = 256
# Queue imbalance tolerated before a wakeup spills to another cluster.
_BALANCE_SLACK = 2


class Scheduler(HoldsBackRefs):
    """Run queue(s) + dispatch."""

    k = BackRef()

    def __init__(self, kernel, affinity: bool = False, num_queues: int = 1):
        self.k = kernel
        self.affinity = affinity
        self.num_queues = max(1, num_queues)
        self.queues: List[List[Process]] = [[] for _ in range(self.num_queues)]
        self.context_switches = 0
        self.migrations = 0
        self.cross_queue_steals = 0

    # ------------------------------------------------------------------
    # Queue topology
    # ------------------------------------------------------------------
    @property
    def run_queue(self) -> List[Process]:
        """The global queue (queue 0); the whole queue when undistributed."""
        return self.queues[0]

    def queue_of_cpu(self, cpu_id: int) -> int:
        """The cluster queue a CPU serves."""
        num_cpus = self.k.params.num_cpus
        return cpu_id * self.num_queues // num_cpus

    def _home_queue(self, process: Process) -> int:
        if process.last_cpu < 0:
            return 0
        return self.queue_of_cpu(process.last_cpu)

    # ------------------------------------------------------------------
    # Run queue operations (the Table 5 "Management of the Run Queue")
    # ------------------------------------------------------------------
    def setrq(self, proc, process: Process) -> None:
        """Make a process runnable (wakeup, preemption, sginap).

        With distributed queues the process goes to its home cluster's
        queue unless that queue is clearly overloaded ("processes can
        then be encouraged to remain in the same run queue", Section 6).
        """
        k = self.k
        queue_index = self._home_queue(process)
        if self.num_queues > 1:
            shortest = min(range(self.num_queues), key=lambda i: len(self.queues[i]))
            if len(self.queues[queue_index]) > len(self.queues[shortest]) + _BALANCE_SLACK:
                queue_index = shortest
        with k.locks.held_lock(proc, k.locks.runq(queue_index)):
            proc.ifetch_range(*k.routine_span("runq_setrq"))
            proc.dwrite(k.datamap.runq_base)
            proc.dwrite(k.datamap.proc_entry(process.slot))
            process.state = ProcState.RUNNABLE
            if k.checks is not None:
                k.checks.races.on_queue_op(
                    proc.cpu_id, proc.cycles, queue_index, "enqueue"
                )
            self.queues[queue_index].append(process)

    def pick_next(self, proc) -> Optional[Process]:
        """Take the best-priority runnable process off this CPU's queue.

        System V scheduling: lower priority value wins; CPU-bound
        processes decay (their value grows at every quantum expiry) while
        processes that sleep or yield keep good priorities. With
        ``affinity``, a same-CPU candidate is preferred among those
        within one priority step of the best. With distributed queues,
        an empty home queue steals from the longest other queue.
        """
        queue_index = self.queue_of_cpu(proc.cpu_id)
        chosen = self._pick_from(proc, queue_index)
        if chosen is None and self.num_queues > 1:
            victim = max(range(self.num_queues), key=lambda i: len(self.queues[i]))
            if self.queues[victim]:
                chosen = self._pick_from(proc, victim)
                if chosen is not None:
                    self.cross_queue_steals += 1
        return chosen

    def _pick_from(self, proc, queue_index: int) -> Optional[Process]:
        k = self.k
        queue = self.queues[queue_index]
        with k.locks.held_lock(proc, k.locks.runq(queue_index)):
            proc.ifetch_range(*k.routine_span("runq_findproc"))
            proc.dread(k.datamap.runq_base)
            proc.dread(k.datamap.hi_ndproc_base)
            if not queue:
                return None
            index = 0
            best = queue[0].priority
            for i, candidate in enumerate(queue):
                proc.dread(k.datamap.proc_entry(candidate.slot))
                if candidate.priority < best:
                    best = candidate.priority
                    index = i
            if self.affinity:
                for i, candidate in enumerate(queue):
                    if (
                        candidate.priority <= best + 4
                        and candidate.last_cpu in (-1, proc.cpu_id)
                    ):
                        index = i
                        break
            if k.checks is not None:
                k.checks.races.on_queue_op(
                    proc.cpu_id, proc.cycles, queue_index, "dequeue"
                )
            chosen = queue.pop(index)
            proc.ifetch_range(*k.routine_span("runq_remrq"))
            proc.dwrite(k.datamap.proc_entry(chosen.slot))
            return chosen

    def runnable_waiting(self) -> bool:
        """Lock-free peek used by the idle loop (no Runqlk traffic)."""
        return any(self.queues)

    # ------------------------------------------------------------------
    # Context switch
    # ------------------------------------------------------------------
    def context_switch(
        self, proc, old: Optional[Process], new: Process
    ) -> bool:
        """Switch the CPU to ``new``; returns True if ``new`` migrated.

        The register save/restore through the PCB sections is exactly the
        operation the paper flags: "register saving and restoring have a
        noticeable performance impact" (Section 4.2.2).
        """
        k = self.k
        self.context_switches += 1
        if k.checks is not None:
            k.checks.lockdep.on_context_switch(proc.cpu_id, proc.cycles)
        proc.ifetch_range(*k.routine_span("runq_switch"))
        if old is not None:
            proc.ifetch_range(*k.routine_span("runq_save_ctx"))
            proc.dtouch_range(k.datamap.pcb_base(old.slot), PCB_BYTES, write=True)
            proc.dwrite(k.datamap.proc_entry(old.slot))
        proc.ifetch_range(*k.routine_span("runq_restore_ctx"))
        proc.dtouch_range(k.datamap.pcb_base(new.slot), PCB_BYTES, write=False)
        proc.dwrite(k.datamap.proc_entry(new.slot))
        # The kernel immediately runs on the new process's kernel stack.
        proc.dtouch_range(k.datamap.kstack_base(new.slot), _KSTACK_TOUCH_BYTES,
                          write=True)
        migrated = new.note_dispatch(proc.cpu_id)
        if migrated:
            self.migrations += 1
        new.state = ProcState.RUNNING
        k.current[proc.cpu_id] = new
        proc.current_pid = new.pid
        k.instr.pid_set(proc, new.pid)
        k.quantum_start_cycles[proc.cpu_id] = proc.cycles
        return migrated

    def preempt_current(self, proc) -> None:
        """Quantum expiry: current process back to the queue.

        Burning a full quantum decays the process's priority (System V
        p_cpu accounting).
        """
        k = self.k
        current = k.current[proc.cpu_id]
        if current is None:
            return
        current.priority = min(current.priority + 4, 60)
        self.setrq(proc, current)
        k.current[proc.cpu_id] = None
        self.dispatch(proc)

    def dispatch(self, proc) -> Optional[Process]:
        """Pick and switch to the next process, if any."""
        k = self.k
        old = k.current[proc.cpu_id]
        chosen = self.pick_next(proc)
        if chosen is None:
            if old is None:
                proc.current_pid = 0
            return None
        self.context_switch(proc, old, chosen)
        return chosen
