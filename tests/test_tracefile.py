"""Trace persistence round-trips."""

from repro.monitor.hwmonitor import Trace, TraceSegment
from repro.monitor.tracefile import load_trace, save_trace


def make_trace() -> Trace:
    trace = Trace()
    seg1 = TraceSegment(start_cycles=0, end_cycles=1000)
    seg1.entries = [(0, 0, 0x1000, 0), (5, 1, 0x2000, 1), (9, 2, 0xF0001, 2)]
    seg2 = TraceSegment(start_cycles=2000, end_cycles=2000)  # empty
    trace.segments = [seg1, seg2]
    return trace


class TestRoundTrip:
    def test_entries_preserved(self, tmp_path):
        path = tmp_path / "trace.npz"
        original = make_trace()
        save_trace(original, path)
        loaded = load_trace(path)
        assert list(loaded.all_entries()) == list(original.all_entries())

    def test_segment_structure_preserved(self, tmp_path):
        path = tmp_path / "trace.npz"
        save_trace(make_trace(), path)
        loaded = load_trace(path)
        assert len(loaded.segments) == 2
        assert loaded.segments[0].start_cycles == 0
        assert loaded.segments[0].end_cycles == 1000
        assert loaded.segments[1].entries == []

    def test_empty_trace(self, tmp_path):
        path = tmp_path / "empty.npz"
        save_trace(Trace(), path)
        assert len(load_trace(path)) == 0

    def test_real_trace_roundtrip_and_reanalysis(self, tmp_path, pmake_run):
        """A captured trace analyzed from disk gives identical results."""
        from repro.analysis.decode import TraceAnalyzer

        path = tmp_path / "pmake.npz"
        save_trace(pmake_run.trace, path)
        loaded = load_trace(path)
        params = pmake_run.params

        def analyze(trace):
            analyzer = TraceAnalyzer(
                "pmake", params.num_cpus, params.icache.size_bytes,
                params.dcache_l2.size_bytes, layout=pmake_run.kernel.layout,
                datamap=pmake_run.kernel.datamap, keep_imiss_stream=False,
            )
            return analyzer.analyze(trace, stats_from_tick=0)

        direct = analyze(pmake_run.trace)
        from_disk = analyze(loaded)
        assert from_disk.miss_counts == direct.miss_counts
        assert from_disk.user_ticks == direct.user_ticks
