"""Hardware monitor and the master tracing process."""

import pytest

from repro.memsys.bus import OP_READ, OP_WRITE, Bus
from repro.monitor.hwmonitor import BufferOverflow, HardwareMonitor
from repro.monitor.master import MasterConfig, MasterTracer


def make_monitor(capacity=100, strict=False):
    bus = Bus()
    monitor = HardwareMonitor(bus, capacity=capacity, strict_capacity=strict)
    return bus, monitor


class TestRecording:
    def test_not_recording_by_default(self):
        bus, monitor = make_monitor()
        bus.transaction(0, 0, 0x100, OP_READ)
        assert len(monitor.trace) == 0

    def test_records_when_started(self):
        bus, monitor = make_monitor()
        monitor.start(0)
        bus.transaction(10, 2, 0x100, OP_READ)
        monitor.stop(20)
        entries = list(monitor.trace.all_entries())
        assert entries == [(5, 2, 0x100, 0)]  # 10 cycles = 5 ticks

    def test_timestamp_quantization(self):
        bus, monitor = make_monitor()
        monitor.start(0)
        bus.transaction(61, 0, 0x10, OP_WRITE)
        monitor.stop(100)
        (tick, _, _, op), = monitor.trace.all_entries()
        assert tick == 30  # 61 cycles / 2 cycles-per-tick
        assert op == 1

    def test_segments_accumulate(self):
        bus, monitor = make_monitor()
        monitor.start(0)
        bus.transaction(1, 0, 0x10, OP_READ)
        monitor.stop(10)
        monitor.start(100)
        bus.transaction(101, 0, 0x20, OP_READ)
        monitor.stop(110)
        assert len(monitor.trace.segments) == 2
        assert len(monitor.trace) == 2

    def test_segment_duration(self):
        bus, monitor = make_monitor()
        monitor.start(100)
        segment = monitor.stop(600)
        assert segment.duration_cycles() == 500

    def test_fill_fraction(self):
        bus, monitor = make_monitor(capacity=10)
        monitor.start(0)
        for i in range(5):
            bus.transaction(i, 0, i * 16, OP_READ)
        assert monitor.fill_fraction() == pytest.approx(0.5)

    def test_strict_overflow_raises(self):
        bus, monitor = make_monitor(capacity=2, strict=True)
        monitor.start(0)
        bus.transaction(0, 0, 0, OP_READ)
        bus.transaction(1, 0, 16, OP_READ)
        with pytest.raises(BufferOverflow):
            bus.transaction(2, 0, 32, OP_READ)

    def test_forgiving_overflow_counts_drops(self):
        bus, monitor = make_monitor(capacity=2)
        monitor.start(0)
        for i in range(4):
            bus.transaction(i, 0, i * 16, OP_READ)
        assert monitor.dropped == 2


class TestMasterTracer:
    def make(self, capacity=100, threshold=0.5):
        bus, monitor = make_monitor(capacity=capacity)
        master = MasterTracer(
            monitor, cycles_per_ms=33333.0,
            config=MasterConfig(check_interval_ms=1.0, dump_threshold=threshold),
        )
        return bus, monitor, master

    def test_below_threshold_no_dump(self):
        bus, monitor, master = self.make()
        master.start(0)
        bus.transaction(1, 0, 0x10, OP_READ)
        assert master.service(100) == 0
        assert master.dumps == 0

    def test_dump_past_threshold(self):
        bus, monitor, master = self.make(capacity=10, threshold=0.5)
        master.start(0)
        for i in range(6):
            bus.transaction(i, 0, i * 16, OP_READ)
        suspend = master.service(1000)
        assert suspend > 0
        assert master.dumps == 1
        assert master.dumped_entries == 6
        # A new segment is recording after the dump.
        assert monitor.recording
        assert monitor.buffered_entries() == 0

    def test_master_prevents_overflow(self):
        """With the master's threshold protocol, a strict buffer never
        overflows even for long activity (the Section 2.1 design goal)."""
        bus, monitor = make_monitor(capacity=50, strict=True)
        master = MasterTracer(
            monitor, cycles_per_ms=33333.0,
            config=MasterConfig(check_interval_ms=0.001, dump_threshold=0.5),
        )
        master.start(0)
        now = 0
        for i in range(1000):
            now += 40
            if master.due(now):
                now += master.service(now)
            bus.transaction(now, 0, (i % 64) * 16, OP_READ)
        assert master.dumps > 0

    def test_finish_closes_segment(self):
        bus, monitor, master = self.make()
        master.start(0)
        bus.transaction(1, 0, 0x10, OP_READ)
        master.finish(500)
        assert not monitor.recording
        assert len(monitor.trace.segments) == 1

    def test_next_check_advances(self):
        bus, monitor, master = self.make()
        master.start(0)
        assert not master.due(1000)
        assert master.due(50_000)
