"""User-mode execution engine.

Executes workload-driver actions on a CPU: sampled working-set
references for :class:`~repro.workloads.actions.Compute` (every touch
goes through the TLB, so UTLB faults, expensive faults and copy-on-write
behaviour all emerge), system calls through the kernel's Table 8
operation wrappers, and the user-level spinlock protocol whose backoff is
the ``sginap`` storm of Multpgm (Figure 2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.common.types import HighLevelOp
from repro.kernel.process import DATA_VBASE, Process
from repro.workloads import actions as A
from repro.workloads.base import EngineConfig

# Outcomes of running one slice / one action.
RAN = "ran"            # budget exhausted, process still current
BLOCKED = "blocked"    # process slept; CPU switched or idles
EXITED = "exited"
SWITCHED = "switched"  # voluntary yield moved the CPU to another process

_DONE = "done"
_PARTIAL = "partial"

# The synchronization library's protocol (Table 8): spin count before
# sginap, and per-iteration cost.
LIBRARY_SPINS = 20
SPIN_CYCLES = 30
USER_LOCK_ACQUIRE_CYCLES = 40   # uncached test + set
USER_LOCK_RELEASE_CYCLES = 20

_IFETCH_ISSUE = 4  # mirrors processor.IFETCH_ISSUE_CYCLES
_DTOUCH_ISSUE = 1  # mirrors processor.DTOUCH_ISSUE_CYCLES


@dataclass
class UserLock:
    """A user-level spinlock word (application shared memory).

    Critical sections execute atomically within an engine slice, so the
    lock remembers the release time of the last hold interval; an attempt
    whose local time falls inside a recorded interval was, in machine
    time, contended (same technique as :class:`KernelLock`). A holder
    preempted or blocked mid-section keeps ``holder_pid`` set across
    slices — the case that produces the long sginap storms.
    """

    holder_pid: Optional[int] = None
    release_time: int = 0   # local-clock end of the last hold interval
    acquires: int = 0
    contended_acquires: int = 0


class UserEngine:
    """Drives workload processes on CPUs."""

    def __init__(self, kernel, config: EngineConfig, rng):
        self.k = kernel
        self.cfg = config
        self.rng = rng
        self.user_locks: Dict[int, UserLock] = {}
        self.app_sync_spins = 0
        self.lock_sginaps = 0
        self._blocks_per_page = kernel.params.page_bytes // kernel.params.block_bytes

    # ------------------------------------------------------------------
    # Slice execution
    # ------------------------------------------------------------------
    def run_slice(self, proc, process: Process, budget_cycles: int) -> str:
        """Run ``process`` on ``proc`` for up to ``budget_cycles``."""
        deadline = proc.cycles + budget_cycles
        while proc.cycles < deadline:
            if self.k.current[proc.cpu_id] is not process:
                return SWITCHED
            action = process.pending_action
            if action is None:
                if self.k.driver_log is not None:
                    self.k.driver_log.append(("n", process.pid))
                try:
                    action = next(process.driver)
                except StopIteration:
                    self._do_exit(proc, process)
                    return EXITED
                process.pending_action = action
            outcome = self._execute(proc, process, action, deadline)
            if outcome == _DONE:
                process.pending_action = None
                continue
            if outcome == _PARTIAL:
                continue  # compute will re-check the deadline
            if outcome == EXITED:
                process.pending_action = None
                return EXITED
            return outcome  # BLOCKED or SWITCHED (pending action retained)
        return RAN

    # ------------------------------------------------------------------
    # Action dispatch
    # ------------------------------------------------------------------
    def _execute(self, proc, process: Process, action, deadline: int) -> str:
        k = self.k
        if isinstance(action, A.Compute):
            return self._do_compute(proc, process, action, deadline)
        if isinstance(action, A.ReadFile):
            with k.os_invocation(proc, HighLevelOp.IO_SYSCALL):
                done, action.progress = k.syscalls.read(
                    proc, process, action.ino, action.offset, action.nbytes,
                    action.progress,
                )
                if not done:
                    k.block_current(proc)
            return _DONE if done else BLOCKED
        if isinstance(action, A.WriteFile):
            with k.os_invocation(proc, HighLevelOp.IO_SYSCALL):
                k.syscalls.write(
                    proc, process, action.ino, action.offset, action.nbytes
                )
            return _DONE
        if isinstance(action, A.OpenFile):
            with k.os_invocation(proc, HighLevelOp.IO_SYSCALL):
                k.syscalls.open(proc, process, action.ino)
            return _DONE
        if isinstance(action, A.Sginap):
            # A plain yield is complete once issued, even if the CPU
            # switched away; clear it so resumption does not re-yield.
            process.pending_action = None
            return self._do_sginap(proc, process)
        if isinstance(action, A.UserLockAcquire):
            return self._do_user_lock_acquire(proc, process, action)
        if isinstance(action, A.UserLockRelease):
            lock = self.user_locks.setdefault(action.lock_id, UserLock())
            proc.advance(USER_LOCK_RELEASE_CYCLES)
            lock.holder_pid = None
            lock.release_time = proc.cycles
            return _DONE
        if isinstance(action, A.Fork):
            with k.os_invocation(proc, HighLevelOp.OTHER_SYSCALL):
                action.child = k.syscalls.fork(
                    proc, process, action.name, action.driver_factory()
                )
            return _DONE
        if isinstance(action, A.Exec):
            with k.os_invocation(proc, HighLevelOp.OTHER_SYSCALL):
                k.syscalls.exec(proc, process, action.image, action.data_pages)
            return _DONE
        if isinstance(action, A.WaitChild):
            with k.os_invocation(proc, HighLevelOp.OTHER_SYSCALL):
                done = k.syscalls.wait_for(proc, process, action.child)
                if not done:
                    k.block_current(proc)
            return _DONE if done else BLOCKED
        if isinstance(action, A.ExitProc):
            self._do_exit(proc, process)
            return EXITED
        if isinstance(action, A.SleepFor):
            # One-shot: the wakeup completes the action (re-executing it
            # after the timer fired would sleep forever).
            process.pending_action = None
            with k.os_invocation(proc, HighLevelOp.OTHER_SYSCALL):
                k.syscalls.misc(proc, process, "time")
                wake = proc.cycles + k.params.ms_to_cycles(action.ms)
                k.sleep_until(process, wake)
                k.block_current(proc)
            return BLOCKED
        if isinstance(action, A.TermWait):
            pending = k.tty_input.get(action.session_id, 0)
            if pending > 0:
                k.tty_input[action.session_id] = 0
                with k.os_invocation(proc, HighLevelOp.IO_SYSCALL):
                    k.syscalls.tty_read(proc, process, action.session_id, pending)
                return _DONE
            with k.os_invocation(proc, HighLevelOp.IO_SYSCALL):
                k.syscalls.misc(proc, process, "ioctl")
                k.sleep(process, ("tty", action.session_id))
                k.block_current(proc)
            return BLOCKED
        if isinstance(action, A.TermWrite):
            with k.os_invocation(proc, HighLevelOp.IO_SYSCALL):
                k.syscalls.tty_write(proc, process, action.session_id, action.nchars)
            return _DONE
        if isinstance(action, A.Brk):
            with k.os_invocation(proc, HighLevelOp.OTHER_SYSCALL):
                k.syscalls.brk(proc, process, action.data_pages)
            return _DONE
        if isinstance(action, A.SemOp):
            with k.os_invocation(proc, HighLevelOp.OTHER_SYSCALL):
                ok = k.syscalls.semop(proc, process, action.sem_id, action.delta)
                if not ok:
                    k.block_current(proc)
            return _DONE if ok else BLOCKED
        if isinstance(action, A.Misc):
            with k.os_invocation(proc, HighLevelOp.OTHER_SYSCALL):
                k.syscalls.misc(proc, process, action.flavor)
            return _DONE
        raise TypeError(f"unknown action {action!r}")

    # ------------------------------------------------------------------
    # Compute: sampled working-set references
    # ------------------------------------------------------------------
    def _do_compute(self, proc, process: Process, action: A.Compute,
                    deadline: int) -> str:
        cfg = self.cfg
        remaining = action.cycles - action.done_cycles
        chunk = min(remaining, max(0, deadline - proc.cycles))
        if chunk <= 0:
            return _PARTIAL if remaining > 0 else _DONE
        if not process.hot_blocks:
            process.build_hot_set(
                self.rng, cfg.hot_text_fraction, cfg.hot_data_fraction,
                self._blocks_per_page,
            )
        ran, blocked = self._run_user_refs(proc, process, chunk, action)
        action.done_cycles += ran
        if blocked:
            return BLOCKED
        return _DONE if action.done_cycles >= action.cycles else _PARTIAL

    def _run_user_refs(self, proc, process: Process, cycles: int,
                       action: A.Compute) -> "tuple[int, bool]":
        """Issue sampled references worth ``cycles`` of computation.

        Returns (user cycles consumed, blocked?). Kernel time spent in
        faults is *not* counted against the compute budget (it shows up
        as system time, as on the real machine).
        """
        cfg = self.cfg
        k = self.k
        rng = self.rng
        hot = process.hot_blocks
        if not hot:
            proc.advance(cycles)
            return cycles, False
        n_touches = max(1, int(cycles * cfg.touches_per_kcycle / 1000))
        gap = max(0, cycles // n_touches - _IFETCH_ISSUE)
        bpp = self._blocks_per_page
        consumed = 0
        cursor = process.sweep_cursor
        advance = proc.advance
        # Hit fast path: a direct-mapped hit (for writes, an owned one)
        # costs zero stall and moves no state, so it needs only the
        # bookkeeping below (Processor._instr_hits/_data_hits say which
        # level proves a hit in each tier). Hoisted per slice — the seam
        # can only flip `memsys.atomic` between slices. A deep-check
        # probe must see every data block reference, so it disables the
        # data side.
        memsys = proc.memsys
        atomic = memsys.atomic
        cpu_id = proc.cpu_id
        ipresent = proc._instr_hits()
        dpresent = proc._data_hits() if proc.block_probe is None else ()
        owner_get = memsys._owner.get
        for _ in range(n_touches):
            if rng.random() < cfg.jump_probability:
                cursor = rng.randrange(len(hot))
            vpage, block = hot[cursor]
            cursor = (cursor + 1) % len(hot)
            is_text = vpage < DATA_VBASE
            write = (not is_text) and rng.random() < action.write_fraction
            frame = k.translate(proc, process, vpage, write)
            if frame is None:
                process.sweep_cursor = cursor
                return consumed, True
            pblock = frame * bpp + block
            if is_text:
                if pblock in ipresent:
                    if atomic:
                        memsys.atomic_refs += 1
                    proc.refs_retired += 1
                    advance(_IFETCH_ISSUE + gap)
                    consumed += gap + _IFETCH_ISSUE
                    continue
                proc.ifetch_block(pblock)
            elif pblock in dpresent and (not write or owner_get(pblock) == cpu_id):
                if atomic:
                    memsys.atomic_refs += 1
                proc.refs_retired += 1
                advance(_DTOUCH_ISSUE + gap)
                consumed += gap + _IFETCH_ISSUE
                continue
            elif write:
                proc.dwrite_block(pblock)
            else:
                proc.dread_block(pblock)
            advance(gap)
            consumed += gap + _IFETCH_ISSUE
        process.sweep_cursor = cursor
        return consumed, False

    # ------------------------------------------------------------------
    # User locks and yields
    # ------------------------------------------------------------------
    def _do_user_lock_acquire(self, proc, process: Process,
                              action: A.UserLockAcquire) -> str:
        lock = self.user_locks.setdefault(action.lock_id, UserLock())
        if lock.holder_pid is None:
            wait = lock.release_time - proc.cycles
            if wait > 0 and wait <= LIBRARY_SPINS * SPIN_CYCLES:
                # Contended, but the (already-recorded) hold interval ends
                # before the library gives up: spin it out and take it.
                spins = wait // SPIN_CYCLES + 1
                action.spins_done += spins
                self.app_sync_spins += spins
                proc.advance_to(lock.release_time)
            elif wait > 0:
                # Contended beyond the library's patience: 20 spins, then
                # sginap; the retry (after reschedule) will find it free.
                return self._spin_then_sginap(proc, process, action)
            lock.holder_pid = process.pid
            lock.acquires += 1
            if action.spins_done:
                lock.contended_acquires += 1
            proc.advance(USER_LOCK_ACQUIRE_CYCLES)
            return _DONE
        if lock.holder_pid == process.pid:
            raise RuntimeError(
                f"process {process.pid} re-acquiring user lock {action.lock_id}"
            )
        # Held by a process that is descheduled or blocked mid-section.
        return self._spin_then_sginap(proc, process, action)

    def _spin_then_sginap(self, proc, process: Process,
                          action: A.UserLockAcquire) -> str:
        proc.advance(LIBRARY_SPINS * SPIN_CYCLES)
        action.spins_done += LIBRARY_SPINS
        self.app_sync_spins += LIBRARY_SPINS
        self.lock_sginaps += 1
        outcome = self._do_sginap(proc, process)
        # Still current (nobody else to run): retry the lock immediately.
        return _PARTIAL if outcome == _DONE else outcome

    def _do_sginap(self, proc, process: Process) -> str:
        """Issue the sginap system call; SWITCHED if the CPU moved on."""
        k = self.k
        with k.os_invocation(proc, HighLevelOp.SGINAP_SYSCALL):
            k.syscalls.sginap(proc, process)
        return _DONE if k.current[proc.cpu_id] is process else SWITCHED

    def _do_exit(self, proc, process: Process) -> None:
        k = self.k
        with k.os_invocation(proc, HighLevelOp.OTHER_SYSCALL):
            k.syscalls.exit(proc, process)
