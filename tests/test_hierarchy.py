"""Per-CPU cache hierarchy: two-level data cache with inclusion."""

from repro.common.params import MachineParams
from repro.memsys.cache import EMPTY
from repro.memsys.hierarchy import AccessOutcome, CpuCacheHierarchy


def make_hierarchy() -> CpuCacheHierarchy:
    return CpuCacheHierarchy(0, MachineParams())


class TestInstructionSide:
    def test_first_fetch_misses(self):
        h = make_hierarchy()
        assert h.icache.access(100) == EMPTY

    def test_refetch_hits(self):
        h = make_hierarchy()
        h.icache.access(100)
        assert h.icache.access(100) is None

    def test_conflict_eviction(self):
        h = make_hierarchy()
        h.icache.access(100)
        assert h.icache.access(100 + 4096) == 100  # 64KB/16B = 4096 sets

    def test_instr_resident(self):
        h = make_hierarchy()
        h.icache.access(100)
        assert h.instr_resident(100)
        assert not h.instr_resident(101)


class TestDataSide:
    def test_cold_access_is_full_miss(self):
        h = make_hierarchy()
        outcome, victim = h.daccess(7)
        assert outcome is AccessOutcome.MISS
        assert victim == EMPTY

    def test_immediate_reuse_is_l1_hit(self):
        h = make_hierarchy()
        h.daccess(7)
        outcome, _ = h.daccess(7)
        assert outcome is AccessOutcome.L1_HIT

    def test_l1_conflict_still_hits_l2(self):
        h = make_hierarchy()
        h.daccess(7)
        h.daccess(7 + 4096)       # evicts 7 from 64KB L1, not 256KB L2
        outcome, _ = h.daccess(7)
        assert outcome is AccessOutcome.L2_HIT

    def test_l2_conflict_is_full_miss_again(self):
        h = make_hierarchy()
        h.daccess(7)
        h.daccess(7 + 16384)      # L2 has 16384 sets: evicts 7 everywhere
        outcome, victim = h.daccess(7)
        assert outcome is AccessOutcome.MISS
        assert victim == 7 + 16384

    def test_inclusion_l2_eviction_purges_l1(self):
        h = make_hierarchy()
        h.daccess(7)
        _outcome, victim = h.daccess(7 + 16384)
        assert victim == 7
        # 7 must be gone from L1 too (inclusion), so this is a full miss.
        outcome, _ = h.daccess(7)
        assert outcome is AccessOutcome.MISS

    def test_invalidate_data_reports_l2_residency(self):
        h = make_hierarchy()
        h.daccess(7)
        assert h.invalidate_data(7)
        assert not h.invalidate_data(7)

    def test_invalidate_purges_both_levels(self):
        h = make_hierarchy()
        h.daccess(7)
        h.invalidate_data(7)
        outcome, _ = h.daccess(7)
        assert outcome is AccessOutcome.MISS

    def test_data_resident_tracks_l2(self):
        h = make_hierarchy()
        h.daccess(7)
        assert h.data_resident(7)
