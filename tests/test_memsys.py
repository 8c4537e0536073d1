"""MemorySystem: coherence, classification hooks, stall costs, flushes."""

from repro.common.types import MissClass, RefDomain
from repro.memsys.tracking import DATA, INSTR

OS = RefDomain.OS
APP = RefDomain.APP


def classes(memsys, domain=None, kind=None):
    return memsys.truth.class_counts(domain=domain, kind=kind)


class TestStallCosts:
    def test_ifetch_miss_costs_bus_stall(self, memsys):
        assert memsys.ifetch(0, 0, 100, OS, 0) == 35

    def test_ifetch_hit_is_free(self, memsys):
        memsys.ifetch(0, 0, 100, OS, 0)
        assert memsys.ifetch(1, 0, 100, OS, 0) == 0

    def test_dread_miss_costs_bus_stall(self, memsys):
        assert memsys.dread(0, 0, 100, OS, 0) == 35

    def test_l2_hit_costs_15(self, memsys):
        memsys.dread(0, 0, 100, OS, 0)
        memsys.dread(1, 0, 100 + 4096, OS, 0)  # evict from L1 only
        assert memsys.dread(2, 0, 100, OS, 0) == 15

    def test_uncached_read_costs_bus_stall(self, memsys):
        assert memsys.uncached_read(0, 0, 0xF0001) == 35

    def test_owned_write_is_free(self, memsys):
        memsys.dwrite(0, 0, 100, OS, 0)
        assert memsys.dwrite(1, 0, 100, OS, 0) == 0


class TestCoherence:
    def test_write_invalidates_other_copies(self, memsys):
        memsys.dread(0, 0, 100, OS, 0)   # CPU0 caches it
        memsys.dread(1, 1, 100, OS, 0)   # CPU1 caches it
        memsys.dwrite(2, 1, 100, OS, 0)  # CPU1 writes: CPU0 invalidated
        # CPU0's re-read is a Sharing miss.
        memsys.dread(3, 0, 100, OS, 0)
        assert classes(memsys, OS)[MissClass.SHARING] == 1

    def test_write_upgrade_single_bus_txn(self, memsys):
        memsys.dread(0, 0, 100, OS, 0)
        writes_before = memsys.bus_writes
        memsys.dwrite(1, 0, 100, OS, 0)  # upgrade: cached but unowned
        assert memsys.bus_writes == writes_before + 1

    def test_repeat_writes_by_owner_silent(self, memsys):
        memsys.dwrite(0, 0, 100, OS, 0)
        writes = memsys.bus_writes
        memsys.dwrite(1, 0, 100, OS, 0)
        memsys.dwrite(2, 0, 100, OS, 0)
        assert memsys.bus_writes == writes

    def test_read_by_other_downgrades_ownership(self, memsys):
        memsys.dwrite(0, 0, 100, OS, 0)   # CPU0 owns
        memsys.dread(1, 1, 100, OS, 0)    # CPU1 reads: shared now
        writes = memsys.bus_writes
        memsys.dwrite(2, 0, 100, OS, 0)   # CPU0 must re-upgrade
        assert memsys.bus_writes == writes + 1

    def test_icaches_not_coherent(self, memsys):
        """A data write does NOT invalidate I-cache copies (software
        flushes only, per the 4D/340)."""
        memsys.ifetch(0, 0, 100, OS, 0)
        memsys.dwrite(1, 1, 100, OS, 0)
        assert memsys.ifetch(2, 0, 100, OS, 0) == 0  # still a hit


class TestClassification:
    def test_cold_then_dispos(self, memsys):
        memsys.ifetch(0, 0, 100, OS, 0)
        memsys.ifetch(1, 0, 100 + 4096, OS, 0)  # OS displaces
        memsys.ifetch(2, 0, 100, OS, 0)
        counts = classes(memsys, OS, INSTR)
        assert counts[MissClass.COLD] == 2
        assert counts[MissClass.DISPOS] == 1

    def test_dispap_when_app_displaces(self, memsys):
        memsys.ifetch(0, 0, 100, OS, 0)
        memsys.ifetch(1, 0, 100 + 4096, APP, 0)
        memsys.ifetch(2, 0, 100, OS, 0)
        assert classes(memsys, OS, INSTR)[MissClass.DISPAP] == 1

    def test_dispossame_within_epoch(self, memsys):
        memsys.ifetch(0, 0, 100, OS, 5)
        memsys.ifetch(1, 0, 100 + 4096, OS, 5)
        memsys.ifetch(2, 0, 100, OS, 5)
        assert memsys.truth.dispossame_counts[(OS, INSTR)] == 1

    def test_not_dispossame_across_epochs(self, memsys):
        memsys.ifetch(0, 0, 100, OS, 5)
        memsys.ifetch(1, 0, 100 + 4096, OS, 5)
        memsys.ifetch(2, 0, 100, OS, 6)  # the application ran in between
        assert memsys.truth.dispossame_counts.get((OS, INSTR), 0) == 0

    def test_inval_after_full_flush(self, memsys):
        memsys.ifetch(0, 0, 100, OS, 0)
        memsys.flush_all_icaches()
        memsys.ifetch(1, 0, 100, OS, 0)
        assert classes(memsys, OS, INSTR)[MissClass.INVAL] == 1

    def test_uncached_counted_separately(self, memsys):
        memsys.uncached_read(0, 0, 0xF0001)
        assert classes(memsys, OS)[MissClass.UNCACHED] == 1

    def test_per_cpu_cold(self, memsys):
        memsys.dread(0, 0, 100, OS, 0)
        memsys.dread(1, 1, 100, OS, 0)  # first time for CPU1: also cold
        assert classes(memsys, OS, DATA)[MissClass.COLD] == 2
