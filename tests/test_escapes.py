"""Escape-reference encoding, and its decoding by the postprocessor."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.decode import TraceAnalyzer
from repro.common.params import MachineParams
from repro.cpu.processor import Processor
from repro.memsys.system import MemorySystem
from repro.monitor.escapes import (
    EventType,
    Instrumentation,
    NullInstrumentation,
    PAYLOAD_COUNT,
    decode_payload,
    payload_address,
    signal_address,
    signal_event,
)
from repro.monitor.hwmonitor import OP_READ, OP_UNCACHED


class TestAddressEncoding:
    def test_signal_addresses_are_odd(self):
        for event in EventType:
            assert signal_address(event) & 1

    def test_payload_addresses_are_odd(self):
        for value in (0, 1, 7, 4096, 123456):
            assert payload_address(value) & 1

    def test_payload_roundtrip(self):
        for value in (0, 1, 7, 4096, 123456):
            assert decode_payload(payload_address(value)) == value

    def test_signal_event_roundtrip(self):
        for event in EventType:
            assert signal_event(signal_address(event)) is event

    def test_even_address_is_not_signal(self):
        assert signal_event(signal_address(EventType.OS_ENTER) + 1) is None

    def test_negative_payload_rejected(self):
        with pytest.raises(ValueError):
            payload_address(-1)

    @given(st.integers(0, 1 << 20))
    def test_payload_roundtrip_property(self, value):
        assert decode_payload(payload_address(value)) == value


def emit_and_capture(emit):
    """Run an instrumentation emission and return the uncached addresses."""
    params = MachineParams()
    memsys = MemorySystem(params)
    captured = []
    memsys.bus.attach(lambda _t, cpu, addr, _op: captured.append((cpu, addr)))
    proc = Processor(2, params, memsys)
    emit(Instrumentation(), proc)
    return captured


class TestInstrumentation:
    def test_os_enter_emits_signal_plus_payload(self):
        captured = emit_and_capture(lambda i, p: i.os_enter(p, 3))
        assert len(captured) == 2
        assert captured[0][1] == signal_address(EventType.OS_ENTER)
        assert decode_payload(captured[1][1]) == 3

    def test_tlb_update_emits_five_reads(self):
        captured = emit_and_capture(
            lambda i, p: i.tlb_update(p, 1, 0x20, 0x500, 7, True)
        )
        assert len(captured) == 5

    def test_null_instrumentation_silent(self):
        params = MachineParams()
        memsys = MemorySystem(params)
        proc = Processor(0, params, memsys)
        NullInstrumentation().os_enter(proc, 1)
        assert memsys.bus_uncached == 0

    def test_wrong_payload_count_rejected(self):
        params = MachineParams()
        memsys = MemorySystem(params)
        proc = Processor(0, params, memsys)
        with pytest.raises(ValueError):
            Instrumentation()._emit(proc, EventType.OS_ENTER)  # needs 1


def recording_analyzer(num_cpus=4):
    """The postprocessor every exhibit runs, recording each decoded escape
    as ``(tick, cpu, event, payloads)`` in ``.events`` instead of acting
    on it."""
    analyzer = TraceAnalyzer("escapes", num_cpus, 1024, 1024)
    analyzer.events = []
    analyzer._event = lambda *event: analyzer.events.append(event)
    return analyzer


def feed(analyzer, tick, cpu, addr):
    analyzer.feed([(tick, cpu, addr, OP_UNCACHED)])
    return analyzer.events


class TestDecoder:
    def test_zero_payload_event_immediate(self):
        analyzer = recording_analyzer()
        events = feed(analyzer, 10, 0, signal_address(EventType.OS_EXIT))
        assert events == [(10, 0, EventType.OS_EXIT, ())]

    def test_payload_collection(self):
        analyzer = recording_analyzer()
        assert feed(analyzer, 10, 0, signal_address(EventType.PID_SET)) == []
        events = feed(analyzer, 11, 0, payload_address(42))
        # Stamped at the signal, not at the payload read.
        assert events == [(10, 0, EventType.PID_SET, (42,))]

    def test_interleaved_cpus(self):
        analyzer = recording_analyzer()
        feed(analyzer, 0, 0, signal_address(EventType.PID_SET))
        feed(analyzer, 1, 1, signal_address(EventType.PID_SET))
        feed(analyzer, 2, 1, payload_address(7))
        events = feed(analyzer, 3, 0, payload_address(5))
        assert events == [
            (1, 1, EventType.PID_SET, (7,)),
            (0, 0, EventType.PID_SET, (5,)),
        ]

    def test_stray_odd_read_rejected(self):
        analyzer = recording_analyzer()
        with pytest.raises(ValueError):
            feed(analyzer, 0, 0, payload_address(3))  # no pending signal

    def test_stream_decoder_passes_plain_entries(self):
        """Cacheable entries go to the cache reconstruction, not the
        escape decoder."""
        analyzer = recording_analyzer()
        analyzer.feed([
            (0, 0, 0x1000, OP_READ),
            (1, 0, signal_address(EventType.IDLE_ENTER), OP_UNCACHED),
            (2, 0, 0x2000, OP_READ),
        ])
        assert analyzer.events == [(1, 0, EventType.IDLE_ENTER, ())]
        result = analyzer.result
        assert result.monitor_uncached == 1
        assert result.monitor_instr_reads + result.monitor_data_reads == 2


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(0, 3),
            st.sampled_from(list(EventType)),
            st.lists(st.integers(0, 10000), min_size=4, max_size=4),
        ),
        max_size=40,
    ),
    st.randoms(use_true_random=False),
)
def test_roundtrip_any_event_sequence(events, rng):
    """Whatever events each CPU emits, with the CPUs' reads interleaved
    on the bus, the postprocessor decodes them exactly, in order per CPU,
    each stamped with its signal's tick."""
    pending = {cpu: [] for cpu in range(4)}
    for cpu, event, values in events:
        payloads = tuple(values[: PAYLOAD_COUNT[event]])
        pending[cpu].append((signal_address(event), (event, payloads)))
        pending[cpu] += [(payload_address(value), None) for value in payloads]
    entries = []
    expected = {cpu: [] for cpu in range(4)}
    while any(pending.values()):
        cpu = rng.choice([c for c, reads in pending.items() if reads])
        addr, emitted = pending[cpu].pop(0)
        tick = len(entries)
        entries.append((tick, cpu, addr, OP_UNCACHED))
        if emitted is not None:
            expected[cpu].append((tick, *emitted))
    analyzer = recording_analyzer()
    analyzer.feed(entries)
    decoded = {cpu: [] for cpu in range(4)}
    for tick, cpu, event, payloads in analyzer.events:
        decoded[cpu].append((tick, event, payloads))
    assert decoded == expected
