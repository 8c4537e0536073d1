"""Bus broadcast and listener semantics."""

from repro.memsys.bus import OP_READ, OP_UNCACHED, OP_WRITE, Bus


class TestBus:
    def test_transaction_count(self):
        bus = Bus()
        bus.transaction(0, 0, 0x100, OP_READ)
        bus.transaction(1, 1, 0x200, OP_WRITE)
        assert bus.transaction_count == 2

    def test_listener_receives_all(self):
        bus = Bus()
        seen = []
        bus.attach(lambda *txn: seen.append(txn))
        bus.transaction(5, 2, 0x300, OP_UNCACHED)
        assert seen == [(5, 2, 0x300, OP_UNCACHED)]

    def test_multiple_listeners(self):
        bus = Bus()
        a, b = [], []
        bus.attach(lambda *txn: a.append(txn))
        bus.attach(lambda *txn: b.append(txn))
        bus.transaction(0, 0, 0, OP_READ)
        assert len(a) == len(b) == 1

    def test_detach(self):
        bus = Bus()
        seen = []
        listener = lambda *txn: seen.append(txn)
        bus.attach(listener)
        bus.detach(listener)
        bus.transaction(0, 0, 0, OP_READ)
        assert seen == []

    def test_no_listener_is_cheap_and_counted(self):
        bus = Bus()
        for i in range(10):
            bus.transaction(i, 0, i, OP_READ)
        assert bus.transaction_count == 10
