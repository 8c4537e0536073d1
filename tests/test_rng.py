"""Deterministic RNG utilities."""

from repro.common.rng import substream


class TestSubstream:
    def test_deterministic(self):
        a = substream(42, "kernel")
        b = substream(42, "kernel")
        assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]

    def test_label_independence(self):
        a = substream(42, "kernel")
        b = substream(42, "disk")
        assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]

    def test_seed_changes_stream(self):
        a = substream(1, "x")
        b = substream(2, "x")
        assert a.random() != b.random()
