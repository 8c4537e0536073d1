"""repro.sanitizers: lockdep, race and coherence invariant checking.

Two kinds of tests: *adversarial* ones inject exactly one violation —
an out-of-order lock acquisition, an unlocked Process Table write, a
double-dirty cache line — and assert the matching checker reports
exactly that, fully attributed; *clean* ones assert the real kernel
(including full simulated runs of every workload) passes with zero
violations.
"""

import pickle

import pytest

from repro.common.types import HighLevelOp
from repro.kernel.process import ProcState
from repro.kernel.structures import StructName
from repro.sanitizers import CheckRegistry
from repro.sanitizers.races import STRUCT_PROTECTION
from repro import api
from repro.api import Simulation
from repro.sim.usermode import LIBRARY_SPINS, SPIN_CYCLES, UserLock
from repro.workloads import actions as A
from tests.test_kernel_core import make_kernel


def make_checked_kernel(num_cpus=4):
    """A bare machine with the full sanitizer registry installed."""
    kernel, cpus = make_kernel(num_cpus=num_cpus)
    checks = CheckRegistry(num_cpus, kernel.datamap, "test").install(
        kernel, cpus, kernel.memsys
    )
    return kernel, cpus, checks


def violations(checks, checker=None, kind=None):
    found = checks.report_data.violations
    if checker is not None:
        found = [v for v in found if v.checker == checker]
    if kind is not None:
        found = [v for v in found if v.kind == kind]
    return found


# ----------------------------------------------------------------------
# Lockdep
# ----------------------------------------------------------------------
class TestLockdep:
    def test_out_of_order_acquisition_reported(self):
        """The injected inversion: memlock -> ifree then ifree -> memlock."""
        kernel, cpus, checks = make_checked_kernel()
        locks = kernel.locks
        with locks.held(cpus[0], "memlock"):
            with locks.held(cpus[0], "ifree"):
                pass
        with locks.held(cpus[1], "ifree"):
            with locks.held(cpus[1], "memlock"):
                pass
        found = violations(checks, "lockdep", "lock-order-cycle")
        assert len(found) == 1
        violation = found[0]
        # Attributed to the acquiring CPU, naming both lock families and
        # both acquisition sites of the inverting edge.
        assert violation.cpu == 1
        assert "memlock" in violation.message and "ifree" in violation.message
        assert violation.details["new_edge"] == "ifree -> memlock"
        assert "test_sanitizers.py" in violation.details["held_at"]
        assert "test_sanitizers.py" in violation.details["acquired_at"]
        # The cycle chain shows the previously recorded reverse edge too.
        assert any("memlock -> ifree" in step
                   for step in violation.details["cycle"])

    def test_consistent_order_is_clean(self):
        kernel, cpus, checks = make_checked_kernel()
        locks = kernel.locks
        for cpu in (0, 1, 0):
            with locks.held(cpus[cpu], "memlock"):
                with locks.held(cpus[cpu], "ifree"):
                    pass
        assert checks.report_data.ok

    def test_inversion_reported_once(self):
        """A real inversion recurs; the pair is reported only once."""
        kernel, cpus, checks = make_checked_kernel()
        locks = kernel.locks
        with locks.held(cpus[0], "memlock"):
            with locks.held(cpus[0], "ifree"):
                pass
        for _ in range(3):
            with locks.held(cpus[1], "ifree"):
                with locks.held(cpus[1], "memlock"):
                    pass
        assert len(violations(checks, "lockdep", "lock-order-cycle")) == 1

    def test_same_family_nesting_is_self_cycle(self):
        """Nothing orders instances within a lock array."""
        kernel, cpus, checks = make_checked_kernel()
        locks = kernel.locks
        with locks.held_lock(cpus[0], locks.ino(1)):
            with locks.held_lock(cpus[0], locks.ino(2)):
                pass
        found = violations(checks, "lockdep", "lock-order-cycle")
        assert len(found) == 1
        assert found[0].details["new_edge"] == "ino_x -> ino_x"

    def test_recursive_acquire_reported(self):
        kernel, cpus, checks = make_checked_kernel()
        lock = kernel.locks.lock("calock")
        checks.lockdep.on_acquire(0, 100, lock)
        checks.lockdep.on_acquire(0, 200, lock)
        found = violations(checks, "lockdep", "recursive-acquire")
        assert len(found) == 1
        assert "calock" in found[0].message

    def test_held_at_context_switch_reported(self):
        kernel, cpus, checks = make_checked_kernel()
        kernel.locks.acquire(cpus[0], kernel.locks.lock("memlock"))
        checks.lockdep.on_context_switch(0, cpus[0].cycles)
        found = violations(checks, "lockdep", "held-at-context-switch")
        assert len(found) == 1
        assert "memlock" in found[0].details["held"][0]

    def test_held_at_interrupt_entry_reported(self):
        kernel, cpus, checks = make_checked_kernel()
        kernel.locks.acquire(cpus[2], kernel.locks.lock("runqlk"))
        checks.lockdep.on_interrupt_entry(2, cpus[2].cycles, "CLOCK")
        found = violations(checks, "lockdep", "held-at-interrupt-entry")
        assert len(found) == 1
        assert found[0].cpu == 2
        assert "CLOCK" in found[0].message

    def test_held_at_finish_reported(self):
        kernel, cpus, checks = make_checked_kernel()
        kernel.locks.acquire(cpus[0], kernel.locks.lock("semlock"))
        checks.lockdep.finalize(12345)
        assert len(violations(checks, "lockdep", "held-at-finish")) == 1

    def test_balanced_use_leaves_no_held_state(self):
        kernel, cpus, checks = make_checked_kernel()
        with kernel.locks.held(cpus[0], "memlock"):
            pass
        checks.lockdep.finalize(99999)
        checks.coherence.scan(99999)
        assert checks.report_data.ok


# ----------------------------------------------------------------------
# Race checker
# ----------------------------------------------------------------------
class TestRaceChecker:
    def test_unlocked_proc_table_write_attributed(self):
        """The injected race: write another CPU's running process entry."""
        kernel, cpus, checks = make_checked_kernel()
        from repro.kernel.process import Image

        image = Image("x", text_pages=2, file_ino=1)
        process = kernel.create_process("p", image, iter(()))
        process.state = ProcState.RUNNING
        kernel.current[1] = process
        cpus[0].dwrite(kernel.datamap.proc_entry(process.slot))
        found = violations(checks, "race", "unlocked-write")
        assert len(found) == 1
        violation = found[0]
        assert violation.cpu == 0
        assert violation.details["structure"] == "Process Table"
        assert violation.details["slot"] == process.slot
        assert violation.details["running_on"] == "cpu1"
        assert violation.details["held_locks"] == "(none)"

    def test_proc_table_write_under_runqlk_is_clean(self):
        kernel, cpus, checks = make_checked_kernel()
        with kernel.locks.held(cpus[0], "runqlk"):
            cpus[0].dwrite(kernel.datamap.proc_entry(3))
        assert checks.report_data.ok

    def test_own_entry_write_is_clean(self):
        """A process's syscalls update its own entry locklessly (IRIX)."""
        kernel, cpus, checks = make_checked_kernel()
        from repro.kernel.process import Image

        image = Image("x", text_pages=2, file_ino=1)
        process = kernel.create_process("p", image, iter(()))
        process.state = ProcState.RUNNING
        kernel.current[0] = process
        cpus[0].dwrite(kernel.datamap.proc_entry(process.slot))
        assert checks.report_data.ok

    def test_proc_table_read_is_lock_free(self):
        kernel, cpus, checks = make_checked_kernel()
        cpus[0].dread(kernel.datamap.proc_entry(5))
        assert checks.report_data.ok

    def test_run_queue_read_requires_runqlk(self):
        kernel, cpus, checks = make_checked_kernel()
        cpus[0].dread(kernel.datamap.runq_base)
        found = violations(checks, "race", "unlocked-read")
        assert len(found) == 1
        assert found[0].details["structure"] == "Run Queue"
        assert found[0].details["required"] == "runqlk"

    def test_callout_write_requires_calock(self):
        kernel, cpus, checks = make_checked_kernel()
        cpus[0].dwrite(kernel.datamap.callout_entry(0))
        found = violations(checks, "race", "unlocked-write")
        assert len(found) == 1
        assert found[0].details["structure"] == "Callout"

    def test_either_protecting_family_suffices(self):
        """Inode headers may be covered by ino_x or the ifree list lock."""
        kernel, cpus, checks = make_checked_kernel()
        with kernel.locks.held_lock(cpus[0], kernel.locks.ino(2)):
            cpus[0].dwrite(kernel.datamap.inode_entry(2))
        with kernel.locks.held(cpus[0], "ifree"):
            cpus[0].dwrite(kernel.datamap.inode_entry(3))
        assert checks.report_data.ok

    def test_race_exempt_annotation_suppresses(self):
        kernel, cpus, checks = make_checked_kernel()
        with kernel.race_exempt(cpus[0], StructName.CALLOUT):
            cpus[0].dwrite(kernel.datamap.callout_entry(1))
        assert checks.report_data.ok
        # The exemption is scoped: the same write outside it fires.
        cpus[0].dwrite(kernel.datamap.callout_entry(1))
        assert not checks.report_data.ok

    def test_race_exempt_is_per_cpu(self):
        kernel, cpus, checks = make_checked_kernel()
        with kernel.race_exempt(cpus[0], StructName.CALLOUT):
            cpus[1].dwrite(kernel.datamap.callout_entry(1))
        assert len(violations(checks, "race")) == 1

    def test_race_exempt_nests(self):
        kernel, cpus, checks = make_checked_kernel()
        with kernel.race_exempt(cpus[0], StructName.CALLOUT):
            with kernel.race_exempt(cpus[0], StructName.CALLOUT):
                pass
            cpus[0].dwrite(kernel.datamap.callout_entry(1))
        assert checks.report_data.ok

    def test_exempt_without_checks_is_noop(self):
        kernel, cpus = make_kernel()
        assert kernel.checks is None
        with kernel.race_exempt(cpus[0], StructName.CALLOUT):
            cpus[0].dwrite(kernel.datamap.callout_entry(1))

    def test_protection_map_covers_locked_structures(self):
        """Every Table 11 lock family protects at least one structure."""
        protected = {
            family
            for rule in STRUCT_PROTECTION.values()
            for family in rule.families
        }
        for family in ("runqlk", "memlock", "calock", "semlock",
                       "bfreelock", "ifree", "ino_x", "shr_x"):
            assert family in protected


# ----------------------------------------------------------------------
# Coherence checker
# ----------------------------------------------------------------------
# An address outside the kernel-structure window, so the race checker
# stays quiet while the coherence checker is exercised.
_ADDR = 0x50_0000


class TestCoherenceChecker:
    def test_double_dirty_line_attributed(self):
        """The injected fault: sneak a stale copy into another L2."""
        kernel, cpus, checks = make_checked_kernel()
        memsys = kernel.memsys
        block = _ADDR // memsys.block_bytes
        cpus[0].dwrite(_ADDR)
        assert memsys._owner[block] == 0
        memsys.hierarchies[1].dl2.access(block)  # behind the bus's back
        found = checks.coherence.scan(end_cycles=1000)
        assert len(found) == 1
        violation = found[0]
        assert violation.kind == "double-dirty"
        assert violation.details["line"] == hex(block * memsys.block_bytes)
        assert violation.details["owner"] == "cpu0"
        assert violation.details["stale_copy"] == "cpu1"

    def test_snoop_invalidate_is_clean(self):
        """Normal write sharing: ownership migrates, remote tags clear."""
        kernel, cpus, checks = make_checked_kernel()
        memsys = kernel.memsys
        block = _ADDR // memsys.block_bytes
        cpus[0].dwrite(_ADDR)
        cpus[1].dwrite(_ADDR)
        assert memsys._owner[block] == 1
        assert not memsys.hierarchies[0].dl2.lookup(block)
        checks.coherence.scan(end_cycles=1000)
        assert checks.report_data.ok

    def test_read_downgrades_exclusive_line(self):
        kernel, cpus, checks = make_checked_kernel()
        memsys = kernel.memsys
        block = _ADDR // memsys.block_bytes
        cpus[0].dwrite(_ADDR)
        cpus[1].dread(_ADDR)
        assert block not in memsys._owner
        checks.coherence.scan(end_cycles=1000)
        assert checks.report_data.ok

    def test_silent_write_fill_detected(self):
        """Stale ownership (the bug class the owner-map fix removed):
        the owner's line vanishes but the map still says it owns it, so
        its next write fills with no bus transaction."""
        kernel, cpus, checks = make_checked_kernel()
        memsys = kernel.memsys
        block = _ADDR // memsys.block_bytes
        cpus[0].dwrite(_ADDR)
        memsys.hierarchies[0].invalidate_data(block)  # owner map now stale
        cpus[0].dwrite(_ADDR)
        found = violations(checks, "coherence", "silent-write-fill")
        assert len(found) == 1
        assert found[0].details["line"] == hex(block * memsys.block_bytes)

    def test_full_icache_flush_checked(self):
        kernel, cpus, checks = make_checked_kernel()
        memsys = kernel.memsys
        cpus[0].ifetch_range(0x1_0000, 256)
        memsys.flush_all_icaches()
        assert checks.coherence.flushes_checked == 1
        assert checks.report_data.ok
        # Injected incomplete flush: a line resurrected behind the back.
        memsys.hierarchies[1].icache.access(5)
        checks.coherence.after_full_icache_flush()
        found = violations(checks, "coherence", "icache-flush-incomplete")
        assert len(found) == 1
        assert found[0].cpu == 1

    def test_write_miss_eviction_releases_ownership(self):
        """The regression the fix addressed: a write miss that evicts an
        owned victim must clear the victim's owner-map entry."""
        kernel, cpus, checks = make_checked_kernel()
        memsys = kernel.memsys
        ways = memsys.hierarchies[0].dl2.assoc
        sets = memsys.hierarchies[0].dl2.num_sets
        base_block = _ADDR // memsys.block_bytes
        # Fill one L2 set past associativity with owned lines.
        for i in range(ways + 1):
            cpus[0].dwrite((base_block + i * sets) * memsys.block_bytes)
        owned = [b for b in memsys._owner if memsys._owner[b] == 0]
        resident = [b for b in owned if memsys.hierarchies[0].dl2.lookup(b)]
        assert owned == resident  # no owned-but-evicted ghosts
        checks.coherence.scan(end_cycles=1000)
        assert checks.report_data.ok


# ----------------------------------------------------------------------
# LL/SC checker (the cached-lock what-if shadow model)
# ----------------------------------------------------------------------
class TestLLSCChecker:
    def test_clean_protocol_validates_every_pair(self):
        kernel, cpus, checks = make_checked_kernel()
        locks = kernel.locks
        for cpu in (0, 1, 0, 2):
            with locks.held(cpus[cpu], "runqlk"):
                cpus[cpu].advance(100)
        assert checks.llsc.pairs_validated == 4
        checks.llsc.finalize(max(p.cycles for p in cpus))
        assert checks.report_data.ok

    def test_sc_after_invalidation_attributed(self):
        """The injected fault: resurrect cpu0's lock-line copy after a
        remote store invalidated it, then let cpu0's SC succeed on it."""
        kernel, cpus, checks = make_checked_kernel()
        locks = kernel.locks
        with locks.held(cpus[0], "memlock"):
            pass
        with locks.held(cpus[1], "memlock"):
            pass  # cpu1's store invalidated cpu0's copy in both models
        kernel.llsc._valid_copy["memlock"][0] = True  # behind the model's back
        # Move past cpu1's release so the next event is the uncontended
        # acquire itself (an LL/SC pair, not a spin read).
        cpus[0].advance_to(cpus[1].cycles + 1000)
        with locks.held(cpus[0], "memlock"):
            pass
        found = violations(checks, "llsc", "sc-after-invalidation")
        assert len(found) == 1
        violation = found[0]
        assert violation.cpu == 0
        assert violation.details["lock"] == "memlock"
        assert violation.details["copy_owner"] == "cpu0"
        assert violation.details["simulator_valid"] is True
        assert violation.details["model_valid"] is False
        assert "SC on memlock" in violation.message

    def test_reservation_not_cleared_attributed(self):
        """A remote copy the snoop should have killed survives a store."""
        kernel, cpus, checks = make_checked_kernel()
        locks = kernel.locks
        with locks.held(cpus[1], "memlock"):
            pass
        with locks.held(cpus[0], "memlock"):
            pass  # invalidates cpu1's copy
        kernel.llsc._valid_copy["memlock"][1] = True  # stale survivor
        cpus[0].advance_to(max(p.cycles for p in cpus) + 1000)
        with locks.held(cpus[0], "memlock"):
            pass
        found = violations(checks, "llsc", "reservation-not-cleared")
        assert len(found) == 1
        assert found[0].details["copy_owner"] == "cpu1"

    def test_spurious_invalidation_attributed(self):
        """The inverse corruption: a copy vanishes with no remote store."""
        kernel, cpus, checks = make_checked_kernel()
        locks = kernel.locks
        with locks.held(cpus[0], "memlock"):
            pass
        kernel.llsc._valid_copy["memlock"][0] = False
        cpus[1].advance_to(cpus[0].cycles + 1000)
        with locks.held(cpus[1], "memlock"):
            pass
        found = violations(checks, "llsc", "spurious-invalidation")
        assert len(found) == 1
        assert found[0].details["copy_owner"] == "cpu0"

    def test_resync_reports_corruption_once(self):
        """After one report the model resyncs; later clean events pass."""
        kernel, cpus, checks = make_checked_kernel()
        locks = kernel.locks
        with locks.held(cpus[0], "memlock"):
            pass
        with locks.held(cpus[1], "memlock"):
            pass
        kernel.llsc._valid_copy["memlock"][0] = True
        for cpu in (0, 1, 0, 1):
            cpus[cpu].advance_to(max(p.cycles for p in cpus) + 1000)
            with locks.held(cpus[cpu], "memlock"):
                pass
        assert len(violations(checks, "llsc")) == 1

    def test_uncached_traffic_reconciles(self):
        """uncached accesses == 2*acquires + releases + spins, per family."""
        kernel, cpus, checks = make_checked_kernel()
        locks = kernel.locks
        for cpu in (0, 1, 2, 0):
            with locks.held(cpus[cpu], "calock"):
                cpus[cpu].advance(50)
        checks.llsc.finalize(max(p.cycles for p in cpus))
        assert checks.report_data.ok
        # Now corrupt the simulator's count: the reconciliation fires.
        kernel.llsc.per_lock["calock"].uncached_accesses += 1
        checks.llsc.finalize(99999)
        found = violations(checks, "llsc", "traffic-mismatch")
        assert len(found) == 1
        assert found[0].details["family"] == "calock"

    def test_cached_miss_divergence_reported(self):
        kernel, cpus, checks = make_checked_kernel()
        with kernel.locks.held(cpus[0], "memlock"):
            pass
        kernel.llsc.per_lock["memlock"].cached_misses += 2
        checks.llsc.finalize(1000)
        found = violations(checks, "llsc", "cached-miss-divergence")
        assert len(found) == 1
        assert found[0].details["simulator_misses"] == (
            found[0].details["model_misses"] + 2
        )

    def test_syncbus_counters_reconcile(self):
        kernel, cpus, checks = make_checked_kernel()
        with kernel.locks.held(cpus[0], "runqlk"):
            pass
        kernel.syncbus.stats.reads += 1
        checks.llsc.finalize(1000)
        found = violations(checks, "llsc", "syncbus-mismatch")
        assert len(found) == 1
        assert "reads" in found[0].message


# ----------------------------------------------------------------------
# The irq dimension of lockdep
# ----------------------------------------------------------------------
class TestIrqLockdep:
    def test_irq_unsafe_acquire_in_irq_attributed(self):
        """The injected fault: a handler takes memlock (no handler does)."""
        kernel, cpus, checks = make_checked_kernel()
        locks = kernel.locks
        with locks.held(cpus[0], "memlock"):
            pass  # record the process-context site first
        checks.lockdep.on_interrupt_entry(1, 500, "DISK")
        with locks.held(cpus[1], "memlock"):
            pass
        checks.lockdep.on_interrupt_exit(1, 600)
        found = violations(checks, "lockdep", "irq-unsafe-acquire-in-irq")
        assert len(found) == 1
        violation = found[0]
        assert violation.cpu == 1
        assert violation.details["family"] == "memlock"
        assert "test_sanitizers.py" in violation.details["irq_site"]
        assert "test_sanitizers.py" in violation.details["process_site"]
        assert "runqlk" in violation.details["irq_safe_families"]

    def test_irq_safe_families_in_irq_are_clean(self):
        """The real handlers' locks: calock + runqlk under the clock."""
        kernel, cpus, checks = make_checked_kernel()
        checks.lockdep.on_interrupt_entry(0, 100, "CLOCK")
        with kernel.locks.held(cpus[0], "calock"):
            with kernel.locks.held(cpus[0], "runqlk"):
                pass
        checks.lockdep.on_interrupt_exit(0, 200)
        assert checks.report_data.ok

    def test_irq_unsafe_family_reported_once(self):
        kernel, cpus, checks = make_checked_kernel()
        checks.lockdep.on_interrupt_entry(0, 100, "DISK")
        for _ in range(3):
            with kernel.locks.held(cpus[0], "memlock"):
                pass
        checks.lockdep.on_interrupt_exit(0, 400)
        assert len(violations(checks, "lockdep",
                              "irq-unsafe-acquire-in-irq")) == 1

    def test_non_irq_family_held_across_interrupt_is_clean(self):
        """No handler takes memlock, so holding it at entry cannot
        self-deadlock — the old blanket nothing-held assert over-fired."""
        kernel, cpus, checks = make_checked_kernel()
        kernel.locks.acquire(cpus[0], kernel.locks.lock("memlock"))
        checks.lockdep.on_interrupt_entry(0, cpus[0].cycles, "CLOCK")
        assert not violations(checks, "lockdep", "held-at-interrupt-entry")

    def test_irq_used_family_held_at_entry_still_fires(self):
        """runqlk is taken by handlers: holding it at entry is the
        classic interrupt self-deadlock."""
        kernel, cpus, checks = make_checked_kernel()
        kernel.locks.acquire(cpus[2], kernel.locks.lock("runqlk"))
        checks.lockdep.on_interrupt_entry(2, cpus[2].cycles, "CLOCK")
        found = violations(checks, "lockdep", "held-at-interrupt-entry")
        assert len(found) == 1
        assert found[0].cpu == 2

    def test_interrupt_exit_restores_process_context(self):
        kernel, cpus, checks = make_checked_kernel()
        checks.lockdep.on_interrupt_entry(0, 100, "CLOCK")
        checks.lockdep.on_interrupt_exit(0, 200)
        with kernel.locks.held(cpus[0], "memlock"):
            pass  # process context again: no irq violation
        assert checks.report_data.ok
        assert checks.lockdep.interrupt_entries == 1

    def test_netserver_interrupt_path_end_to_end(self):
        """The network-arrival handler takes streams_x in IRQ context
        against the servers' process-context stream reads — the hostile
        load the irq dimension was built for — and lockdep stays clean."""
        from repro.sim._session import Simulation

        sim = Simulation("netserver", seed=5, check=True)
        run = sim.run(5.0, warmup_ms=10.0)
        lockdep = sim.checks.lockdep
        assert lockdep.interrupt_entries > 0
        # streams_x was actually acquired from both contexts.
        assert "streams_x" in lockdep.family_irq_site
        assert "streams_x" in lockdep.family_proc_site
        report = run.check_report
        assert report is not None and report.ok, report.to_text()


# ----------------------------------------------------------------------
# Object-level run-queue locking (the distributed-queue variant's bug)
# ----------------------------------------------------------------------
class TestRunQueueObjectCheck:
    def _distributed_kernel(self, num_queues=4):
        from repro.common.params import MachineParams
        from repro.cpu.processor import Processor
        from repro.kernel.kernel import Kernel, KernelTuning
        from repro.kernel.vm import VmTuning
        from repro.memsys.system import MemorySystem

        params = MachineParams(num_cpus=4)
        memsys = MemorySystem(params)
        cpus = [Processor(i, params, memsys) for i in range(4)]
        tuning = KernelTuning(num_run_queues=num_queues,
                              vm=VmTuning(baseline_frames=512))
        kernel = Kernel(params, memsys, cpus, tuning=tuning)
        checks = CheckRegistry(4, kernel.datamap, "test").install(
            kernel, cpus, memsys
        )
        return kernel, cpus, checks

    def test_unlocked_enqueue_reported(self):
        kernel, cpus, checks = make_checked_kernel()
        checks.races.on_queue_op(0, 1000, 0, "enqueue")
        found = violations(checks, "race", "runq-wrong-lock")
        assert len(found) == 1
        assert found[0].details["required"] == "runqlk"
        assert found[0].details["held_locks"] == "(none)"

    def test_locked_enqueue_is_clean(self):
        kernel, cpus, checks = make_checked_kernel()
        with kernel.locks.held(cpus[0], "runqlk"):
            checks.races.on_queue_op(0, 1000, 0, "enqueue")
        assert checks.report_data.ok

    def test_wrong_cluster_lock_reported(self):
        """The injected fault: mutate queue 1 under queue 0's lock."""
        kernel, cpus, checks = self._distributed_kernel()
        with kernel.locks.held_lock(cpus[0], kernel.locks.runq(0)):
            checks.races.on_queue_op(0, 1000, 1, "dequeue")
        found = violations(checks, "race", "runq-wrong-lock")
        assert len(found) == 1
        violation = found[0]
        assert violation.details["required"] == "runqlk_1"
        assert "runqlk_0" in violation.details["held_locks"]

    def test_matching_cluster_lock_is_clean(self):
        kernel, cpus, checks = self._distributed_kernel()
        for queue in range(4):
            with kernel.locks.held_lock(cpus[0], kernel.locks.runq(queue)):
                checks.races.on_queue_op(0, 1000, queue, "enqueue")
        assert checks.report_data.ok
        assert checks.races.queue_ops_checked == 4


# ----------------------------------------------------------------------
# Deep mode: block-sweep attribution
# ----------------------------------------------------------------------
class TestDeepMode:
    def test_block_sweeps_attributed_to_structures(self):
        kernel, cpus = make_kernel()
        checks = CheckRegistry(4, kernel.datamap, "test", deep=True).install(
            kernel, cpus, kernel.memsys
        )
        block_bytes = kernel.memsys.block_bytes
        proc_block = kernel.datamap.proc_entry(0) // block_bytes
        for _ in range(3):
            cpus[0].dread_block(proc_block)
        cpus[0].dwrite_block(proc_block)
        assert checks.races.blocks_checked == 4
        assert checks.races.block_sweeps.get("Process Table", 0) == 4

    def test_shallow_mode_skips_block_probe(self):
        kernel, cpus, checks = make_checked_kernel()
        assert all(p.block_probe is None for p in cpus)
        assert checks.races.blocks_checked == 0

    def test_deep_counter_in_report(self):
        kernel, cpus = make_kernel()
        checks = CheckRegistry(4, kernel.datamap, "test", deep=True).install(
            kernel, cpus, kernel.memsys
        )
        report = checks.report()
        assert "block_sweeps" in report.counters

    def test_env_deep_enables(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHECK", "deep")
        sim = Simulation("pmake", seed=3)
        assert sim.checks is not None
        assert sim.checks.deep
        assert all(p.block_probe is not None for p in sim.processors)


# ----------------------------------------------------------------------
# The sginap backoff protocol (Table 8's library spin/yield discipline)
# ----------------------------------------------------------------------
class TestSginapBackoff:
    def _engine(self):
        from tests.test_engine import make_engine

        def driver(_i):
            yield A.Compute(10**9)

        return make_engine(driver)

    def test_twenty_spins_then_sginap(self):
        """Held beyond the library's patience: exactly 20 spins, one
        sginap syscall, and the acquire action is retained for retry."""
        kernel, cpus, engine, procs = self._engine()
        engine.user_locks[7] = UserLock(holder_pid=999)  # never releases
        action = A.UserLockAcquire(7)
        before = cpus[0].cycles
        engine._execute(cpus[0], procs[0], action, before + 10**9)
        assert action.spins_done == LIBRARY_SPINS
        assert engine.app_sync_spins == LIBRARY_SPINS
        assert engine.lock_sginaps == 1
        assert cpus[0].cycles - before >= LIBRARY_SPINS * SPIN_CYCLES
        assert kernel.invocation_ops[HighLevelOp.SGINAP_SYSCALL] == 1

    def test_short_wait_spins_out_without_sginap(self):
        """A hold interval ending within 20 spins is spun out in place."""
        kernel, cpus, engine, procs = self._engine()
        release_at = cpus[0].cycles + 10 * SPIN_CYCLES
        engine.user_locks[7] = UserLock(holder_pid=None,
                                        release_time=release_at)
        action = A.UserLockAcquire(7)
        engine._execute(cpus[0], procs[0], action, cpus[0].cycles + 10**9)
        assert engine.lock_sginaps == 0
        assert 0 < action.spins_done <= LIBRARY_SPINS
        assert engine.user_locks[7].holder_pid == procs[0].pid
        assert engine.user_locks[7].contended_acquires == 1

    def test_uncontended_acquire_never_spins(self):
        kernel, cpus, engine, procs = self._engine()
        action = A.UserLockAcquire(7)
        engine._execute(cpus[0], procs[0], action, cpus[0].cycles + 10**9)
        assert action.spins_done == 0
        assert engine.app_sync_spins == 0
        assert engine.lock_sginaps == 0

    def test_backoff_repeats_per_retry(self):
        kernel, cpus, engine, procs = self._engine()
        engine.user_locks[7] = UserLock(holder_pid=999)
        action = A.UserLockAcquire(7)
        for _ in range(3):
            engine._execute(cpus[0], procs[0], action,
                            cpus[0].cycles + 10**9)
        assert action.spins_done == 3 * LIBRARY_SPINS
        assert engine.lock_sginaps == 3


# ----------------------------------------------------------------------
# Table 12 locality counters under checked, deterministic contention
# ----------------------------------------------------------------------
class TestLocalityUnderChecking:
    def test_seeded_contention_counters_and_clean_lockdep(self):
        """A seeded contention scenario: counters must match a reference
        computation and lockdep must stay silent throughout."""
        import random

        kernel, cpus, checks = make_checked_kernel()
        locks = kernel.locks
        rng = random.Random(1992)
        names = ["memlock", "runqlk", "ifree", "calock"]
        expected_local = {name: 0 for name in names}
        last_cpu = {}
        for _ in range(200):
            cpu = rng.randrange(4)
            name = rng.choice(names)
            if last_cpu.get(name) == cpu:
                expected_local[name] += 1
            last_cpu[name] = cpu
            with locks.held(cpus[cpu], name):
                cpus[cpu].advance(rng.randrange(50, 500))
        for name in names:
            stats = locks.lock(name).stats
            assert stats.same_cpu_no_intervening == expected_local[name]
            if stats.acquires:
                assert stats.locality_pct == pytest.approx(
                    100.0 * expected_local[name] / stats.acquires
                )
        assert checks.lockdep.acquires_checked == 200
        checks.lockdep.finalize(max(p.cycles for p in cpus))
        assert checks.report_data.ok

    def test_nested_contention_stays_ordered(self):
        """Consistent memlock -> ifree nesting across CPUs: contended,
        but never inverted — lockdep passes."""
        kernel, cpus, checks = make_checked_kernel()
        locks = kernel.locks
        for round_index in range(20):
            cpu = round_index % 4
            with locks.held(cpus[cpu], "memlock"):
                with locks.held(cpus[cpu], "ifree"):
                    cpus[cpu].advance(200)
        assert locks.lock("memlock").stats.acquires == 20
        assert checks.report_data.ok


# ----------------------------------------------------------------------
# Full simulated runs
# ----------------------------------------------------------------------
class TestCheckedRuns:
    @pytest.mark.parametrize("workload", ["pmake", "multpgm", "oracle"])
    def test_short_run_is_clean(self, workload):
        run = api.run(
            workload, horizon_ms=3.0, warmup_ms=20.0, seed=5,
            check=True,
        )
        report = run.check_report
        assert report is not None
        assert report.ok, report.to_text()
        # The checkers actually saw traffic.
        assert report.counters["lock_acquires"] > 0
        assert report.counters["structure_accesses"] > 0
        assert report.counters["bus_writes"] > 0

    def test_disabled_by_default(self):
        sim = Simulation("pmake", seed=3)
        assert sim.checks is None
        assert sim.kernel.checks is None
        assert sim.kernel.locks.checks is None
        assert sim.memsys.checker is None
        assert all(p.access_probe is None for p in sim.processors)

    def test_env_enables(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHECK", "1")
        sim = Simulation("pmake", seed=3)
        assert sim.checks is not None

    def test_unchecked_run_has_no_report(self):
        run = api.run(
            "pmake", horizon_ms=1.0, warmup_ms=5.0, seed=5
        )
        assert run.check_report is None

    def test_checked_run_pickles_with_report(self):
        run = api.run(
            "pmake", horizon_ms=1.0, warmup_ms=5.0, seed=5,
            check=True,
        )
        clone = pickle.loads(pickle.dumps(run))
        report = clone.check_report
        assert report is not None and report.ok
        assert report.counters == run.check_report.counters

    def test_summary_names_workload(self):
        run = api.run(
            "pmake", horizon_ms=1.0, warmup_ms=5.0, seed=5,
            check=True,
        )
        assert "pmake" in run.check_report.summary()
        assert "clean" in run.check_report.summary()


# ----------------------------------------------------------------------
# Trace-vs-checker cross-validation (AnalysisReport.crosscheck)
# ----------------------------------------------------------------------
class TestCrosscheck:
    """The monitor and the coherence checker count the same bus
    transactions from opposite ends of the machine; on a clean run the
    two accountings must agree *exactly*."""

    @pytest.mark.parametrize("workload", ["pmake", "multpgm", "oracle"])
    def test_monitor_matches_checker_exactly(self, workload):
        from repro.analysis.report import analyze_trace

        run = api.run(
            workload, horizon_ms=3.0, warmup_ms=20.0, seed=5,
            check=True,
        )
        report = analyze_trace(run)
        assert report.check_counters == run.check_report.counters
        comparison = report.crosscheck()
        assert comparison is not None
        for name, (seen, checked, matched) in comparison.items():
            assert seen > 0, name
            assert matched, (name, seen, checked)
        assert report.crosscheck_ok()

    def test_write_transactions_subset_of_writes(self):
        run = api.run(
            "pmake", horizon_ms=2.0, warmup_ms=10.0, seed=5,
            check=True,
        )
        counters = run.check_report.counters
        assert 0 < counters["bus_write_transactions"] <= counters["bus_writes"]

    def test_unchecked_run_has_no_crosscheck(self):
        from repro.analysis.report import analyze_trace

        run = api.run(
            "pmake", horizon_ms=1.0, warmup_ms=5.0, seed=5
        )
        report = analyze_trace(run)
        assert report.check_counters is None
        assert report.crosscheck() is None
        assert report.crosscheck_lines() == []
        assert report.crosscheck_ok()  # vacuously true

    def test_crosscheck_lines_flag_mismatch(self):
        from repro.analysis.report import analyze_trace

        run = api.run(
            "pmake", horizon_ms=1.0, warmup_ms=5.0, seed=5,
            check=True,
        )
        report = analyze_trace(run)
        assert all("[ok]" in line for line in report.crosscheck_lines())
        # Corrupt one checker counter: the comparison must turn red.
        report.check_counters["bus_reads"] += 1
        assert not report.crosscheck_ok()
        assert any("MISMATCH" in line for line in report.crosscheck_lines())
