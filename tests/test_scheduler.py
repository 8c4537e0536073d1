"""Scheduler: run queue, priorities, context switches, migration."""

import pytest

from repro.kernel.process import Image, ProcState
from tests.test_kernel_core import dummy_driver, make_kernel


@pytest.fixture
def env():
    kernel, cpus = make_kernel()
    image = Image("x", text_pages=1, file_ino=1)
    procs = [kernel.create_process(f"p{i}", image, dummy_driver()) for i in range(3)]
    return kernel, cpus, procs


class TestRunQueue:
    def test_setrq_makes_runnable(self, env):
        kernel, cpus, procs = env
        kernel.scheduler.setrq(cpus[0], procs[0])
        assert procs[0].state is ProcState.RUNNABLE
        assert kernel.scheduler.runnable_waiting()

    def test_setrq_takes_runqlk(self, env):
        kernel, cpus, procs = env
        before = kernel.locks.lock("runqlk").stats.acquires
        kernel.scheduler.setrq(cpus[0], procs[0])
        assert kernel.locks.lock("runqlk").stats.acquires == before + 1

    def test_pick_next_empty(self, env):
        kernel, cpus, _ = env
        assert kernel.scheduler.pick_next(cpus[0]) is None

    def test_pick_best_priority(self, env):
        kernel, cpus, procs = env
        procs[0].priority = 40
        procs[1].priority = 10
        kernel.scheduler.setrq(cpus[0], procs[0])
        kernel.scheduler.setrq(cpus[0], procs[1])
        assert kernel.scheduler.pick_next(cpus[0]) is procs[1]

    def test_fifo_tiebreak(self, env):
        kernel, cpus, procs = env
        kernel.scheduler.setrq(cpus[0], procs[0])
        kernel.scheduler.setrq(cpus[0], procs[1])
        assert kernel.scheduler.pick_next(cpus[0]) is procs[0]


class TestContextSwitch:
    def test_dispatch_sets_current(self, env):
        kernel, cpus, procs = env
        kernel.scheduler.setrq(cpus[0], procs[0])
        chosen = kernel.scheduler.dispatch(cpus[0])
        assert chosen is procs[0]
        assert kernel.current[0] is procs[0]
        assert procs[0].state is ProcState.RUNNING
        assert cpus[0].current_pid == procs[0].pid

    def test_first_dispatch_not_migration(self, env):
        kernel, cpus, procs = env
        kernel.scheduler.setrq(cpus[0], procs[0])
        kernel.scheduler.dispatch(cpus[0])
        assert kernel.scheduler.migrations == 0

    def test_cross_cpu_dispatch_is_migration(self, env):
        kernel, cpus, procs = env
        kernel.scheduler.setrq(cpus[0], procs[0])
        kernel.scheduler.dispatch(cpus[0])
        kernel.current[0] = None
        kernel.scheduler.setrq(cpus[0], procs[0])
        kernel.scheduler.dispatch(cpus[1])
        assert kernel.scheduler.migrations == 1
        assert procs[0].migrations == 1

    def test_switch_touches_pcb_of_both(self, env):
        kernel, cpus, procs = env
        kernel.scheduler.setrq(cpus[0], procs[0])
        kernel.scheduler.dispatch(cpus[0])
        kernel.scheduler.setrq(cpus[0], procs[1])
        kernel.scheduler.context_switch(cpus[0], procs[0], procs[1])
        # The PCB region saw traffic (ground truth records D misses there).
        pcb_misses = [
            count for (dom, kind, cls), count
            in kernel.memsys.truth.counts.items()
            if kind == "D"
        ]
        assert sum(pcb_misses) > 0

    def test_preempt_decays_priority(self, env):
        kernel, cpus, procs = env
        kernel.scheduler.setrq(cpus[0], procs[0])
        kernel.scheduler.dispatch(cpus[0])
        before = procs[0].priority
        kernel.scheduler.preempt_current(cpus[0])
        assert procs[0].priority == before + 4

    def test_quantum_reset_on_dispatch(self, env):
        kernel, cpus, procs = env
        cpus[0].advance(12345)
        kernel.scheduler.setrq(cpus[0], procs[0])
        kernel.scheduler.dispatch(cpus[0])
        assert kernel.quantum_start_cycles[0] == cpus[0].cycles


class TestAffinity:
    def test_affinity_prefers_last_cpu(self, env):
        kernel, cpus, procs = env
        kernel.scheduler.affinity = True
        procs[0].last_cpu = 1
        procs[1].last_cpu = 0
        procs[0].priority = procs[1].priority = 20
        kernel.scheduler.setrq(cpus[0], procs[0])
        kernel.scheduler.setrq(cpus[0], procs[1])
        # CPU0 should prefer the process that last ran on it.
        assert kernel.scheduler.pick_next(cpus[0]) is procs[1]

    def test_affinity_bounded_by_priority(self, env):
        kernel, cpus, procs = env
        kernel.scheduler.affinity = True
        procs[0].last_cpu = 1
        procs[0].priority = 10
        procs[1].last_cpu = 0
        procs[1].priority = 40  # far worse: affinity must not pick it
        kernel.scheduler.setrq(cpus[0], procs[0])
        kernel.scheduler.setrq(cpus[0], procs[1])
        assert kernel.scheduler.pick_next(cpus[0]) is procs[0]

    def test_affinity_reduces_migrations_in_workload(self):
        """The paper's proposed optimization: affinity scheduling cuts
        migrations relative to the IRIX default."""
        from repro.kernel.kernel import KernelTuning
        from repro.kernel.vm import VmTuning
        from repro.api import Simulation

        def run(affinity):
            tuning = KernelTuning(
                quantum_ms=5.0, affinity_scheduling=affinity, vm=VmTuning()
            )
            sim = Simulation("multpgm", seed=5, tuning=tuning)
            sim.run(15.0, warmup_ms=30.0)
            sched = sim.kernel.scheduler
            return sched.migrations / max(1, sched.context_switches)

        assert run(True) < run(False)
