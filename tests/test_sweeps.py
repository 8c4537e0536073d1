"""Cache sweep (Figure 6 machinery) properties.

The vectorized replay is held to exact equality with the scalar LRU
replay, the reference every test here compares against.
"""

import random

import pytest

from repro.analysis import sweeps
from repro.analysis.report import analyze_trace
from repro.analysis.sweeps import (
    FLUSH_CPU,
    _scalar_icache_config,
    pack_imiss_stream,
    simulate_icache_config,
    simulate_icache_sweep,
    sweep_configs,
    vector_icache_config,
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


class TestVectorizedSweep:
    def test_vector_matches_scalar_on_real_stream(self, stream):
        packed = pack_imiss_stream(stream)
        for size in (64 * 1024, 256 * 1024, 1024 * 1024):
            assert vector_icache_config(packed, size) == _scalar_icache_config(
                stream, 4, size, 1
            )

    def test_random_streams_match_scalar(self):
        """Adversarial fuzz: flush-heavy synthetic streams across small
        caches must agree with the scalar replay exactly, for both the
        direct-mapped and the 2-way LRU vector replays."""
        rng = random.Random(1992)
        for _ in range(40):
            stream = []
            for _ in range(rng.randrange(0, 300)):
                if rng.random() < 0.08:
                    stream.append((FLUSH_CPU, 0, False, False))
                else:
                    stream.append((
                        rng.randrange(4),
                        rng.randrange(40),
                        rng.random() < 0.5,
                        rng.random() < 0.7,
                    ))
            packed = pack_imiss_stream(stream)
            for size_blocks in (4, 16, 64):
                size = size_blocks * 16
                for assoc in (1, 2):
                    assert vector_icache_config(packed, size, 16, assoc) == \
                        _scalar_icache_config(stream, 4, size, assoc), \
                        (assoc, stream)

    def test_vector_assoc2_matches_scalar_on_real_stream(self, stream):
        packed = pack_imiss_stream(stream)
        for size in (128 * 1024, 512 * 1024, 1024 * 1024):
            assert vector_icache_config(packed, size, 16, 2) == \
                _scalar_icache_config(stream, 4, size, 2)

    def test_vector_rejects_unsupported_associativity(self, stream):
        packed = pack_imiss_stream(stream)
        with pytest.raises(ValueError, match="associativity"):
            vector_icache_config(packed, 256 * 1024, 16, 4)

    def test_assoc2_lru_second_way_hit(self):
        """Two blocks alternate in one 2-way set: everything after the
        two compulsory misses must hit."""
        blocks_apart = 64 * 1024 // (16 * 2)  # same set, 64KB 2-way
        stream = [
            (0, 100, True, True),
            (0, 100 + blocks_apart, True, True),
            (0, 100, True, True),
            (0, 100 + blocks_apart, True, True),
        ]
        packed = pack_imiss_stream(stream)
        point = vector_icache_config(packed, 64 * 1024, 16, 2)
        assert point == _scalar_icache_config(stream, 1, 64 * 1024, 2)
        assert point.os_misses == 2

    def test_assoc2_lru_eviction_order(self):
        """Third distinct block evicts the least-recently-used way."""
        apart = 64 * 1024 // (16 * 2)
        stream = [
            (0, 100, True, True),           # miss, set = [100]
            (0, 100 + apart, True, True),   # miss, set = [100, 100+a]
            (0, 100, True, True),           # hit, refreshes 100
            (0, 100 + 2 * apart, True, True),  # miss, evicts 100+a
            (0, 100, True, True),           # hit (100 survived)
            (0, 100 + apart, True, True),   # miss (was evicted)
        ]
        packed = pack_imiss_stream(stream)
        point = vector_icache_config(packed, 64 * 1024, 16, 2)
        assert point == _scalar_icache_config(stream, 1, 64 * 1024, 2)
        assert point.os_misses == 4

    def test_assoc2_flush_invalidates_both_ways(self):
        apart = 64 * 1024 // (16 * 2)
        stream = [
            (0, 100, True, True),
            (0, 100 + apart, True, True),
            (FLUSH_CPU, 0, False, False),
            (0, 100, True, True),
            (0, 100 + apart, True, True),
        ]
        packed = pack_imiss_stream(stream)
        point = vector_icache_config(packed, 64 * 1024, 16, 2)
        assert point == _scalar_icache_config(stream, 1, 64 * 1024, 2)
        assert point.os_misses == 4
        assert point.os_inval_misses == 2

    def test_flush_forces_inval_remiss(self):
        stream = [
            (0, 100, True, True),
            (FLUSH_CPU, 0, False, False),
            (0, 100, True, True),
        ]
        point = vector_icache_config(pack_imiss_stream(stream), 1024 * 1024)
        assert point.os_misses == 2
        assert point.os_inval_misses == 1

    def test_refill_clears_invalidated_membership(self):
        """Miss-after-flush refills the block; a later conflict miss on
        the same block must NOT count as an Inval miss."""
        blocks_apart = 1024 * 1024 // 16  # same set in a 1MB DM cache
        stream = [
            (0, 100, True, True),
            (FLUSH_CPU, 0, False, False),
            (0, 100, True, True),            # inval remiss, refills
            (0, 100 + blocks_apart, True, True),  # evicts block 100
            (0, 100, True, True),            # conflict miss, not inval
        ]
        packed = pack_imiss_stream(stream)
        point = vector_icache_config(packed, 1024 * 1024)
        assert point == _scalar_icache_config(stream, 1, 1024 * 1024, 1)
        assert point.os_misses == 4
        assert point.os_inval_misses == 1

    def test_warmup_entries_fill_but_do_not_count(self):
        stream = [(0, 100, True, False), (0, 100, True, True)]
        point = vector_icache_config(pack_imiss_stream(stream), 1024 * 1024)
        assert point.os_misses == 0

    def test_empty_stream(self):
        point = vector_icache_config(pack_imiss_stream([]), 64 * 1024)
        assert (point.os_misses, point.os_inval_misses, point.app_misses) \
            == (0, 0, 0)

    def test_sweep_order_is_canonical(self, stream):
        """Direct-mapped sizes ascending, then 2-way sizes ascending with
        the 64KB 2-way point skipped."""
        kb = 1024
        points = simulate_icache_sweep(stream, 4)
        assert [(p.size_bytes // kb, p.associativity) for p in points] == [
            (64, 1), (128, 1), (256, 1), (512, 1), (1024, 1),
            (128, 2), (256, 2), (512, 2), (1024, 2),
        ]
