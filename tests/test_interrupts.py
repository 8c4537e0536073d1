"""Interrupt handlers: clock, quantum expiry, disk, terminal."""

import pytest

from repro.common.types import HighLevelOp, InterruptKind, Mode
from repro.kernel.process import Image, ProcState
from tests.test_kernel_core import dummy_driver, make_kernel


@pytest.fixture
def env():
    kernel, cpus = make_kernel()
    image = Image("x", text_pages=1, file_ino=1)
    process = kernel.create_process("p", image, dummy_driver())
    return kernel, cpus, process


class TestClock:
    def test_tick_counts(self, env):
        kernel, cpus, _ = env
        with kernel.os_invocation(cpus[0], HighLevelOp.INTERRUPT):
            kernel.interrupts.clock(cpus[0])
        assert kernel.interrupts.counts[InterruptKind.CLOCK] == 1

    def test_tick_takes_calock(self, env):
        kernel, cpus, _ = env
        before = kernel.locks.lock("calock").stats.acquires
        with kernel.os_invocation(cpus[0], HighLevelOp.INTERRUPT):
            kernel.interrupts.clock(cpus[0])
        assert kernel.locks.lock("calock").stats.acquires == before + 1

    def test_no_resched_without_current(self, env):
        kernel, cpus, _ = env
        with kernel.os_invocation(cpus[0], HighLevelOp.INTERRUPT):
            assert not kernel.interrupts.clock(cpus[0])

    def test_quantum_expiry_detected(self, env):
        kernel, cpus, process = env
        kernel.scheduler.setrq(cpus[0], process)
        kernel.scheduler.dispatch(cpus[0])
        cpus[0].advance(kernel.tuning.quantum_cycles + 1)
        with kernel.os_invocation(cpus[0], HighLevelOp.INTERRUPT):
            assert kernel.interrupts.clock(cpus[0])

    def test_fresh_quantum_not_expired(self, env):
        kernel, cpus, process = env
        kernel.scheduler.setrq(cpus[0], process)
        kernel.scheduler.dispatch(cpus[0])
        with kernel.os_invocation(cpus[0], HighLevelOp.INTERRUPT):
            assert not kernel.interrupts.clock(cpus[0])

    def test_clock_delivers_timers(self, env):
        kernel, cpus, process = env
        kernel.sleep_until(process, 100)
        cpus[0].advance(200)
        with kernel.os_invocation(cpus[0], HighLevelOp.INTERRUPT):
            kernel.interrupts.clock(cpus[0])
        assert process.state is ProcState.RUNNABLE

    def test_priority_decay_every_fourth_tick(self, env):
        kernel, cpus, process = env
        process.priority = 40
        for _ in range(4):
            with kernel.os_invocation(cpus[0], HighLevelOp.INTERRUPT):
                kernel.interrupts.clock(cpus[0])
        assert process.priority == 39


class TestDevices:
    def test_disk_interrupt_completes_io(self, env):
        kernel, cpus, process = env
        kernel.fs.register_file(100, 8192, "f")
        kernel.current[0] = process
        process.state = ProcState.RUNNING
        cpus[0].set_mode(Mode.USER)
        kernel.fs.do_read(cpus[0], process, 100, 0, 1024, 0)
        kernel.current[0] = None
        due = kernel.fs.disk.next_time()
        device = cpus[kernel.params.device_cpu]
        device.advance_to(due + 1)
        kernel.service_disk(device)
        assert kernel.interrupts.counts[InterruptKind.DISK] == 1
        assert process.state is ProcState.RUNNABLE

    def test_terminal_interrupt_buffers_and_wakes(self, env):
        kernel, cpus, process = env
        kernel.sleep(process, ("tty", 3))
        with kernel.os_invocation(cpus[0], HighLevelOp.INTERRUPT):
            kernel.interrupts.terminal(cpus[0], 3, 12)
        assert kernel.tty_input[3] == 12
        assert process.state is ProcState.RUNNABLE

    def test_inter_cpu_footprint(self, env):
        kernel, cpus, _ = env
        with kernel.os_invocation(cpus[1], HighLevelOp.INTERRUPT):
            kernel.interrupts.inter_cpu(cpus[1])
        assert kernel.interrupts.counts[InterruptKind.INTER_CPU] == 1

    def test_network_on_cpu1(self, env):
        kernel, cpus, _ = env
        with kernel.os_invocation(cpus[1], HighLevelOp.INTERRUPT):
            kernel.interrupts.network(cpus[1])
        assert kernel.interrupts.counts[InterruptKind.NETWORK] == 1
