"""Sharded analysis core: byte-identity against the serial path.

Every test here pins the same contract: the shard count is a
wall-clock knob only — outputs must be *identical* to the serial
reference, field for field and, for the ordered Counter fields the
exhibit tables iterate, key order for key order. The vectorized
Figure 6 replay is held to the same contract against the scalar LRU
replay.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

from repro.analysis.decode import MONITOR_FIELDS, TraceAnalysis
from repro.analysis.report import analyze_trace
from repro.analysis.sweeps import (
    FLUSH_CPU,
    _scalar_icache_config,
    pack_imiss_stream,
    simulate_icache_sweep,
    vector_icache_config,
)
from repro.monitor.hwmonitor import OP_UNCACHED
from repro.sanitizers import SeamMismatch, SeamRecord, verify_seams
from repro.sim.runcache import load_or_run
from repro.sim.sharded import (
    SHARD_STATS,
    ShardStats,
    plan_boundaries,
    resolve_shards,
    sharded_analysis,
)


def _assert_identical(sharded: TraceAnalysis, serial: TraceAnalysis) -> None:
    """Full field compare, including insertion order of Counter fields."""
    for name in TraceAnalysis.__dataclass_fields__:
        got, want = getattr(sharded, name), getattr(serial, name)
        assert got == want, f"{name}: {got!r} != {want!r}"
        if isinstance(want, Counter):
            assert list(got.items()) == list(want.items()), f"{name} key order"


@pytest.fixture(scope="module")
def serial_analysis(pmake_run) -> TraceAnalysis:
    return analyze_trace(pmake_run).analysis


@pytest.fixture(scope="module")
def tiny_run():
    """The smallest run the simulator produces (a few hundred entries)."""
    run, _ = load_or_run(None, "pmake", 0.02, 0.2, seed=3)
    return run


# ----------------------------------------------------------------------
# Shard-count resolution and boundary planning
# ----------------------------------------------------------------------
class TestResolveShards:
    def test_default_is_one(self, monkeypatch):
        monkeypatch.delenv("REPRO_SHARDS", raising=False)
        assert resolve_shards() == 1
        assert resolve_shards(None) == 1

    def test_explicit_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHARDS", "8")
        assert resolve_shards(3) == 3

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHARDS", "6")
        assert resolve_shards() == 6

    def test_bad_env_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHARDS", "lots")
        with pytest.raises(ValueError, match="REPRO_SHARDS"):
            resolve_shards()

    def test_non_positive_rejected(self):
        with pytest.raises(ValueError, match=">= 1"):
            resolve_shards(0)
        with pytest.raises(ValueError, match=">= 1"):
            resolve_shards(-2)


class TestPlanBoundaries:
    def test_even_split(self):
        assert plan_boundaries(100, 4) == [25, 50, 75]

    def test_single_shard_has_no_cuts(self):
        assert plan_boundaries(100, 1) == []

    def test_more_shards_than_entries_collapses(self):
        cuts = plan_boundaries(5, 100)
        assert cuts == [1, 2, 3, 4]  # one chunk per entry, no degenerates

    def test_empty_stream(self):
        assert plan_boundaries(0, 8) == []

    def test_strictly_increasing_interior(self):
        for n in (1, 2, 3, 7, 100, 1001):
            for shards in (1, 2, 3, 8, 64):
                cuts = plan_boundaries(n, shards)
                assert all(0 < c < n for c in cuts)
                assert cuts == sorted(set(cuts))
                assert len(cuts) <= shards - 1


# ----------------------------------------------------------------------
# Sharded analysis == serial analysis
# ----------------------------------------------------------------------
class TestShardedIdentity:
    @pytest.mark.parametrize("shards", [2, 3, 7])
    def test_in_process_chunks_match_serial(
        self, pmake_run, serial_analysis, shards
    ):
        merged = sharded_analysis(pmake_run, shards, use_pool=False)
        _assert_identical(merged, serial_analysis)

    def test_pooled_chunks_match_serial(self, pmake_run, serial_analysis):
        merged = sharded_analysis(pmake_run, 4)
        _assert_identical(merged, serial_analysis)

    def test_boundary_mid_escape_sequence(self, pmake_run, serial_analysis):
        """A seam splitting an escape payload from its header must not
        corrupt decoding — the checkpoint carries the pending escape."""
        entries = [e for s in pmake_run.trace.segments for e in s.entries]
        cut = next(
            i for i in range(1, len(entries))
            if entries[i - 1][3] == OP_UNCACHED and entries[i][3] == OP_UNCACHED
        )
        merged = sharded_analysis(
            pmake_run, 2, boundaries=[cut], use_pool=False
        )
        _assert_identical(merged, serial_analysis)

    def test_more_shards_than_entries(self, tiny_run):
        entries = sum(len(s.entries) for s in tiny_run.trace.segments)
        merged = sharded_analysis(tiny_run, entries + 7, use_pool=False)
        _assert_identical(merged, analyze_trace(tiny_run).analysis)

    def test_shards_one_routes_legacy_serial(self, pmake_run, serial_analysis):
        _assert_identical(
            analyze_trace(pmake_run, shards=1).analysis, serial_analysis
        )

    def test_analyze_trace_routes_sharded(self, pmake_run, serial_analysis):
        _assert_identical(
            analyze_trace(pmake_run, shards=3).analysis, serial_analysis
        )

    def test_without_imiss_stream(self, pmake_run):
        serial = analyze_trace(pmake_run, keep_imiss_stream=False).analysis
        merged = sharded_analysis(
            pmake_run, 3, keep_imiss_stream=False, use_pool=False
        )
        _assert_identical(merged, serial)
        assert merged.imiss_stream == []


# ----------------------------------------------------------------------
# Seam crosscheck
# ----------------------------------------------------------------------
class TestServerWorkloadShardedIdentity:
    """The new server workloads hold the same serial-vs-sharded contract."""

    @pytest.mark.parametrize("name", ["kv", "netserver"])
    def test_serial_vs_four_shards(self, name):
        run, _ = load_or_run(None, name, 4.0, 20.0, seed=3)
        serial = analyze_trace(run).analysis
        sharded = analyze_trace(run, shards=4).analysis
        _assert_identical(sharded, serial)


class TestSeams:
    def _seam(self, cumulative, index=1, entry_index=10):
        counters = dict.fromkeys(MONITOR_FIELDS, 0)
        counters.update(cumulative)
        return SeamRecord(
            index=index, entry_index=entry_index, cumulative=counters
        )

    def _chunks(self, *counts):
        return [
            {**dict.fromkeys(MONITOR_FIELDS, 0), "monitor_writes": count}
            for count in counts
        ]

    def test_matching_seams_report_ok(self):
        seams = [
            self._seam({"monitor_writes": 4}, index=1),
            self._seam({"monitor_writes": 9}, index=2, entry_index=20),
        ]
        lines = verify_seams(seams, self._chunks(4, 5, 1))
        assert len(lines) == 2
        assert all("ok" in line for line in lines)

    def test_divergent_splice_raises(self):
        seams = [self._seam({"monitor_writes": 4})]
        with pytest.raises(SeamMismatch, match="monitor_writes"):
            verify_seams(seams, self._chunks(3, 5))

    def test_no_seams_no_lines(self):
        assert verify_seams([], self._chunks(7)) == []

    def test_sharded_analysis_verifies_every_seam(self, pmake_run):
        SHARD_STATS.reset()
        sharded_analysis(pmake_run, 5, use_pool=False)
        assert len(SHARD_STATS.seam_lines) == 4


# ----------------------------------------------------------------------
# Per-shard throughput accounting
# ----------------------------------------------------------------------
class TestShardStats:
    def test_record_and_stats(self):
        stats = ShardStats()
        stats.record(
            [
                {"shard": 0, "entries": 60, "seconds": 0.5, "refs_per_sec": 120.0},
                {"shard": 1, "entries": 40, "seconds": 0.5, "refs_per_sec": 80.0},
            ],
            scout_seconds=0.25,
            wall_seconds=2.0,
            seam_lines=["seam 1 ok"],
        )
        snap = stats.stats()
        assert snap["total_entries"] == 100
        assert snap["total_refs_per_sec"] == pytest.approx(50.0)
        assert snap["seams_ok"] == 1
        line = stats.stats_line()
        assert "shards[2]" in line and "s0=120/s" in line and "1 seams ok" in line

    def test_reset_reads_serial(self):
        stats = ShardStats()
        stats.record(
            [{"shard": 0, "entries": 1, "seconds": 1.0, "refs_per_sec": 1.0}],
            0.0, 1.0, [],
        )
        stats.reset()
        assert stats.stats_line() == "shards[1] serial"
        assert stats.stats()["total_entries"] == 0

    def test_global_instance_updated_by_run(self, pmake_run):
        SHARD_STATS.reset()
        sharded_analysis(pmake_run, 2, use_pool=False)
        snap = SHARD_STATS.stats()
        assert len(snap["shards"]) == 2
        assert snap["total_entries"] > 0
        assert snap["total_refs_per_sec"] > 0


# ----------------------------------------------------------------------
# Vectorized Figure 6 replay (repro.analysis.sweeps) against the scalar
# reference loop
# ----------------------------------------------------------------------
class TestVectorizedSweep:
    @pytest.fixture(scope="class")
    def stream(self, pmake_run):
        return analyze_trace(pmake_run).analysis.imiss_stream

    def test_vector_matches_scalar_on_real_stream(self, stream):
        packed = pack_imiss_stream(stream)
        for size in (64 * 1024, 256 * 1024, 1024 * 1024):
            assert vector_icache_config(packed, size) == _scalar_icache_config(
                stream, 4, size, 1
            )

    def test_sharded_sweep_matches_serial_sweep(self, pmake_run, stream):
        """The I-miss stream a sharded analysis splices together sweeps to
        the same points as the serial stream, in-process and pooled."""
        serial = simulate_icache_sweep(stream, 4)
        for use_pool in (False, True):
            merged = sharded_analysis(pmake_run, 4, use_pool=use_pool)
            assert simulate_icache_sweep(merged.imiss_stream, 4) == serial

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
