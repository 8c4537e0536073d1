"""Cache sweep (Figure 6 machinery) properties."""

import pytest

from repro.analysis import sweeps
from repro.analysis.report import analyze_trace
from repro.analysis.sweeps import (
    FLUSH_CPU,
    _scalar_icache_config,
    simulate_icache_config,
    simulate_icache_sweep,
    sweep_configs,
)
from repro.api import ExperimentContext, RunSettings
from repro.experiments import figure6
from repro.experiments.registry import run_experiment
from repro.sim.runcache import RunCache


@pytest.fixture(scope="module")
def stream(pmake_run):
    report = analyze_trace(pmake_run)
    return report.analysis.imiss_stream


class TestBaseConfig:
    def test_base_replay_reproduces_every_miss(self, stream):
        """Replaying the 64KB-DM miss stream through a 64KB-DM cache must
        miss on every entry — the stream IS that cache's miss stream."""
        point = simulate_icache_config(stream, 4, 64 * 1024, 1)
        windowed = [e for e in stream if e[0] != FLUSH_CPU and e[3]]
        assert point.total_misses == len(windowed)


class TestMonotonicity:
    def test_bigger_caches_never_miss_more(self, stream):
        points = {
            (p.size_bytes, p.associativity): p
            for p in simulate_icache_sweep(stream, 4)
        }
        sizes = sorted({size for size, _a in points})
        for small, big in zip(sizes, sizes[1:]):
            assert points[(big, 1)].os_misses <= points[(small, 1)].os_misses

    def test_two_way_not_worse_than_direct(self, stream):
        points = {
            (p.size_bytes, p.associativity): p
            for p in simulate_icache_sweep(stream, 4)
        }
        for size in (128 * 1024, 256 * 1024, 512 * 1024, 1024 * 1024):
            assert points[(size, 2)].os_misses <= points[(size, 1)].os_misses * 1.02

    def test_inval_floor_bounded_by_misses(self, stream):
        for point in simulate_icache_sweep(stream, 4):
            assert 0 <= point.os_inval_misses <= point.os_misses

    def test_two_way_base_size_skipped(self, stream):
        points = simulate_icache_sweep(stream, 4)
        assert not any(
            p.size_bytes == 64 * 1024 and p.associativity == 2 for p in points
        )


class TestFlushHandling:
    def test_flush_markers_force_remisses(self):
        # Synthetic stream: fill, flush, refetch -> the refetch must miss
        # and be counted as an inval miss.
        stream = [
            (0, 100, True, True),
            (FLUSH_CPU, 0, False, False),
            (0, 100, True, True),
        ]
        point = simulate_icache_config(stream, 1, 1024 * 1024, 1)
        assert point.os_misses == 2
        assert point.os_inval_misses == 1

    def test_no_flush_big_cache_absorbs_repeats(self):
        stream = [(0, 100, True, True), (0, 100, True, True)]
        point = simulate_icache_config(stream, 1, 1024 * 1024, 1)
        assert point.os_misses == 1

    def test_warmup_entries_fill_but_do_not_count(self):
        stream = [(0, 100, True, False), (0, 100, True, True)]
        point = simulate_icache_config(stream, 1, 1024 * 1024, 1)
        assert point.os_misses == 0  # second access hits the warm line


class TestDispatch:
    def test_sweep_matches_scalar_in_canonical_order(self, stream):
        """1- and 2-way points replay vectorized, 4-way falls back to the
        scalar loop; every point equals the scalar reference, in grid
        order."""
        associativities = (1, 2, 4)
        sizes = (64 * 1024, 128 * 1024, 256 * 1024, 512 * 1024, 1024 * 1024)
        expected = [
            _scalar_icache_config(stream, 4, size, assoc)
            for size, assoc in sweep_configs(sizes, associativities)
        ]
        assert simulate_icache_sweep(
            stream, 4, associativities=associativities
        ) == expected

    def test_figure6_rows_match_scalar_replay(self, monkeypatch):
        """The exhibit built on the default dispatch equals the exhibit
        built with every configuration forced through the scalar loop."""
        ctx = ExperimentContext(
            RunSettings(horizon_ms=20.0, warmup_ms=50.0, seed=3),
            cache=RunCache(),
        )
        ctx.cache_exhibits = False
        rows = run_experiment("figure6", ctx).rows

        def scalar(packed, num_cpus, size_bytes, associativity=1, block_bytes=16):
            return _scalar_icache_config(
                packed.entries, num_cpus, size_bytes, associativity, block_bytes
            )

        monkeypatch.setattr(sweeps, "simulate_icache_config", scalar)
        assert figure6.build(ctx).rows == rows


class TestValidation:
    @pytest.mark.parametrize("assoc", [1, 2, 4])
    @pytest.mark.parametrize("cpu", [4, -2])
    def test_cpu_outside_machine_rejected(self, cpu, assoc):
        stream = [(0, 100, True, True), (cpu, 200, True, True)]
        with pytest.raises(ValueError, match=f"cpu {cpu}"):
            simulate_icache_config(stream, 4, 256 * 1024, assoc)
