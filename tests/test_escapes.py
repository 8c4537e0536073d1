"""Escape-reference encoding/decoding."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.params import MachineParams
from repro.cpu.processor import Processor
from repro.memsys.system import MemorySystem
from repro.monitor.escapes import (
    EscapeDecoder,
    EventType,
    Instrumentation,
    NullInstrumentation,
    PAYLOAD_COUNT,
    decode_escape_stream,
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


class TestDecoder:
    def test_zero_payload_event_immediate(self):
        decoder = EscapeDecoder(4)
        event = decoder.feed(10, 0, signal_address(EventType.OS_EXIT))
        assert event is not None and event.type is EventType.OS_EXIT

    def test_payload_collection(self):
        decoder = EscapeDecoder(4)
        assert decoder.feed(10, 0, signal_address(EventType.PID_SET)) is None
        event = decoder.feed(11, 0, payload_address(42))
        assert event.payloads == (42,)
        assert event.tick == 10  # stamped at the signal

    def test_interleaved_cpus(self):
        decoder = EscapeDecoder(4)
        decoder.feed(0, 0, signal_address(EventType.PID_SET))
        decoder.feed(1, 1, signal_address(EventType.PID_SET))
        event1 = decoder.feed(2, 1, payload_address(7))
        event0 = decoder.feed(3, 0, payload_address(5))
        assert event1.cpu == 1 and event1.payloads == (7,)
        assert event0.cpu == 0 and event0.payloads == (5,)

    def test_stray_odd_read_rejected(self):
        decoder = EscapeDecoder(4)
        with pytest.raises(ValueError):
            decoder.feed(0, 0, payload_address(3))  # no pending signal

    def test_stream_decoder_passes_plain_entries(self):
        entries = [
            (0, 0, 0x1000, OP_READ),
            (1, 0, signal_address(EventType.IDLE_ENTER), OP_UNCACHED),
            (2, 0, 0x2000, OP_READ),
        ]
        out = list(decode_escape_stream(entries, 4))
        assert out[0] == entries[0]
        assert out[1].type is EventType.IDLE_ENTER
        assert out[2] == entries[2]


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(0, 3),
            st.sampled_from(list(EventType)),
            st.lists(st.integers(0, 10000), min_size=4, max_size=4),
        ),
        max_size=40,
    )
)
def test_roundtrip_any_event_sequence(events):
    """Whatever events each CPU emits (interleaved), the decoder
    reproduces them exactly, in order, per CPU."""
    decoder = EscapeDecoder(4)
    expected = {cpu: [] for cpu in range(4)}
    decoded = {cpu: [] for cpu in range(4)}
    tick = 0
    for cpu, event, values in events:
        payloads = tuple(values[: PAYLOAD_COUNT[event]])
        expected[cpu].append((event, payloads))
        result = decoder.feed(tick, cpu, signal_address(event))
        tick += 1
        for value in payloads:
            assert result is None or not payloads
            result = decoder.feed(tick, cpu, payload_address(value))
            tick += 1
        assert result is not None
        decoded[cpu].append((result.type, result.payloads))
    assert decoded == expected
