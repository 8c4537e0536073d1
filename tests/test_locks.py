"""Kernel spinlocks: statistics, contention, locality."""

import pytest

from repro.cpu.processor import Processor
from repro.kernel.locks import LOCK_FUNCTIONS, LockTable
from repro.memsys.system import MemorySystem
from repro.sync.syncbus import SyncBus


@pytest.fixture
def setup(params):
    memsys = MemorySystem(params)
    cpus = [Processor(i, params, memsys) for i in range(4)]
    locks = LockTable(SyncBus())
    return cpus, locks


class TestInventory:
    def test_table11_locks_exist(self, setup):
        _, locks = setup
        for name in ("memlock", "runqlk", "ifree", "dfbmaplk", "bfreelock",
                     "calock", "semlock"):
            assert locks.lock(name).name == name

    def test_lock_arrays(self, setup):
        _, locks = setup
        assert locks.shr(5).family == "shr_x"
        assert locks.ino(3).family == "ino_x"
        assert locks.streams(1).family == "streams_x"

    def test_array_wraps(self, setup):
        _, locks = setup
        assert locks.shr(0) is locks.shr(128)

    def test_paper_functions_documented(self):
        assert "run queue" in LOCK_FUNCTIONS["runqlk"].lower()
        assert len(LOCK_FUNCTIONS) == 10


class TestAcquireRelease:
    def test_uncontended_acquire(self, setup):
        cpus, locks = setup
        lock = locks.lock("memlock")
        locks.acquire(cpus[0], lock)
        locks.release(cpus[0], lock)
        assert lock.stats.acquires == 1
        assert lock.stats.failed_acquires == 0

    def test_release_by_wrong_cpu_rejected(self, setup):
        cpus, locks = setup
        lock = locks.lock("memlock")
        locks.acquire(cpus[0], lock)
        with pytest.raises(RuntimeError):
            locks.release(cpus[1], lock)

    def test_context_manager(self, setup):
        cpus, locks = setup
        with locks.held(cpus[0], "runqlk") as lock:
            assert lock.holder_cpu == 0
        assert lock.holder_cpu is None

    def test_acquire_charges_syncbus(self, setup):
        cpus, locks = setup
        before = cpus[0].cycles
        with locks.held(cpus[0], "memlock"):
            pass
        # read + write on acquire, write on release: 3 x 25 cycles.
        assert cpus[0].cycles - before == 75

    def test_hold_time_recorded(self, setup):
        cpus, locks = setup
        lock = locks.lock("memlock")
        locks.acquire(cpus[0], lock)
        cpus[0].advance(500)
        locks.release(cpus[0], lock)
        assert lock.stats.hold_cycles_sum >= 500


class TestContention:
    def test_overlapping_interval_counts_failed(self, setup):
        cpus, locks = setup
        lock = locks.lock("runqlk")
        locks.acquire(cpus[0], lock)
        cpus[0].advance(10_000)
        locks.release(cpus[0], lock)
        # CPU1's local clock is still 0: its attempt falls inside the
        # recorded hold interval -> contended.
        locks.acquire(cpus[1], lock)
        locks.release(cpus[1], lock)
        assert lock.stats.failed_acquires == 1
        assert lock.stats.releases_with_waiters == 1
        assert lock.stats.mean_waiters_if_any == 1.0

    def test_waiter_spins_until_release(self, setup):
        cpus, locks = setup
        lock = locks.lock("runqlk")
        locks.acquire(cpus[0], lock)
        cpus[0].advance(10_000)
        locks.release(cpus[0], lock)
        locks.acquire(cpus[1], lock)
        assert cpus[1].cycles >= 10_000  # spun out the hold interval
        locks.release(cpus[1], lock)

    def test_late_attempt_not_contended(self, setup):
        cpus, locks = setup
        lock = locks.lock("runqlk")
        locks.acquire(cpus[0], lock)
        locks.release(cpus[0], lock)
        cpus[1].advance(50_000)
        locks.acquire(cpus[1], lock)
        assert lock.stats.failed_acquires == 0

    def test_failed_pct(self, setup):
        cpus, locks = setup
        lock = locks.lock("runqlk")
        locks.acquire(cpus[0], lock)
        cpus[0].advance(10_000)
        locks.release(cpus[0], lock)
        locks.acquire(cpus[1], lock)
        locks.release(cpus[1], lock)
        assert lock.stats.failed_pct == pytest.approx(50.0)


class TestLocality:
    def test_same_cpu_reacquire_counts(self, setup):
        cpus, locks = setup
        lock = locks.lock("ifree")
        for _ in range(3):
            with locks.held_lock(cpus[0], lock):
                pass
        # First acquire has no predecessor; the next two are local.
        assert lock.stats.same_cpu_no_intervening == 2
        assert lock.stats.locality_pct == pytest.approx(200.0 / 3)

    def test_intervening_cpu_breaks_locality(self, setup):
        cpus, locks = setup
        lock = locks.lock("ifree")
        with locks.held_lock(cpus[0], lock):
            pass
        cpus[1].advance(1_000_000)
        with locks.held_lock(cpus[1], lock):
            pass
        cpus[0].advance(2_000_000)
        with locks.held_lock(cpus[0], lock):
            pass
        assert lock.stats.same_cpu_no_intervening == 0

    def test_llsc_traffic_tracked(self, setup):
        cpus, locks = setup
        lock = locks.lock("ifree")
        for _ in range(10):
            with locks.held_lock(cpus[0], lock):
                pass
        counts = locks.llsc.per_lock["ifree"]
        # Uncached machine: 3 ops per acquire/release cycle.
        assert counts.uncached_accesses == 30
        # Cached machine: one miss to fetch the line, then all local.
        assert counts.cached_misses == 1
        assert counts.cached_to_uncached_pct < 10.0


class TestFamilyStats:
    def test_families_aggregate(self, setup):
        cpus, locks = setup
        with locks.held_lock(cpus[0], locks.shr(1)):
            pass
        with locks.held_lock(cpus[0], locks.shr(2)):
            pass
        stats = locks.family_stats()
        assert stats["shr_x"].acquires == 2

    def test_total_acquires(self, setup):
        cpus, locks = setup
        with locks.held(cpus[0], "memlock"):
            pass
        with locks.held(cpus[0], "calock"):
            pass
        assert locks.total_acquires() == 2

    def test_cycles_between_acquires(self, setup):
        cpus, locks = setup
        lock = locks.lock("memlock")
        for _ in range(4):
            with locks.held_lock(cpus[0], lock):
                pass
        assert lock.stats.cycles_between_acquires(40_000) == pytest.approx(10_000)
