"""Cache model: direct-mapped and set-associative behaviour."""

from hypothesis import given, settings, strategies as st

from repro.common.params import CacheGeometry
from repro.memsys.cache import Cache, EMPTY


def make_cache(size=1024, assoc=1) -> Cache:
    return Cache(CacheGeometry(size, 16, assoc))


class TestDirectMapped:
    def test_first_access_misses_into_free_line(self):
        cache = make_cache()
        assert cache.access(5) == EMPTY
        assert 5 in cache

    def test_second_access_hits(self):
        cache = make_cache()
        cache.access(5)
        assert cache.access(5) is None

    def test_conflicting_block_evicts(self):
        cache = make_cache(size=1024)  # 64 sets
        cache.access(3)
        victim = cache.access(3 + 64)
        assert victim == 3
        assert 3 not in cache
        assert 3 + 64 in cache

    def test_nonconflicting_blocks_coexist(self):
        cache = make_cache(size=1024)
        cache.access(3)
        assert cache.access(4) == EMPTY
        assert 3 in cache and 4 in cache

    def test_lookup_does_not_fill(self):
        cache = make_cache()
        assert not cache.lookup(7)
        assert 7 not in cache

    def test_occupancy(self):
        cache = make_cache(size=1024)
        for block in range(10):
            cache.access(block)
        assert cache.occupancy() == 10


class TestSetAssociative:
    def test_two_way_holds_two_conflicting(self):
        cache = make_cache(size=1024, assoc=2)  # 32 sets
        cache.access(1)
        assert cache.access(1 + 32) == EMPTY
        assert 1 in cache and 1 + 32 in cache

    def test_lru_eviction(self):
        cache = make_cache(size=1024, assoc=2)
        cache.access(1)
        cache.access(1 + 32)
        cache.access(1)  # refresh: 1 is MRU
        victim = cache.access(1 + 64)
        assert victim == 1 + 32

    def test_hit_refreshes_lru(self):
        cache = make_cache(size=1024, assoc=2)
        cache.access(1)
        cache.access(1 + 32)
        assert cache.access(1 + 32) is None  # MRU already
        victim = cache.access(1 + 64)
        assert victim == 1


class TestInvalidation:
    def test_invalidate_present(self):
        cache = make_cache()
        cache.access(9)
        assert cache.invalidate(9)
        assert 9 not in cache

    def test_invalidate_absent(self):
        cache = make_cache()
        assert not cache.invalidate(9)

    def test_invalidate_all_returns_contents(self):
        cache = make_cache(size=1024)
        for block in (1, 2, 3):
            cache.access(block)
        assert cache.invalidate_all() == [1, 2, 3]
        assert cache.occupancy() == 0

    def test_invalidated_line_is_free_again(self):
        cache = make_cache(size=1024)
        cache.access(3)
        cache.invalidate(3)
        assert cache.access(3 + 64) == EMPTY


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(0, 511), min_size=1, max_size=300),
       st.sampled_from([1, 2, 4]))
def test_cache_invariants(blocks, assoc):
    """Occupancy bounds, hit-after-fill, and per-set capacity hold for
    any access sequence."""
    cache = Cache(CacheGeometry(1024, 16, assoc))
    for block in blocks:
        cache.access(block)
        # Immediately after an access the block is resident.
        assert block in cache
    assert cache.occupancy() <= cache.geometry.num_blocks
    # No set exceeds its associativity.
    per_set = {}
    for block in cache.resident_blocks:
        per_set.setdefault(block % cache.num_sets, []).append(block)
    assert all(len(ways) <= assoc for ways in per_set.values())


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(0, 255), min_size=1, max_size=200))
def test_bigger_cache_superset_of_smaller(blocks):
    """A direct-mapped cache of twice the size always retains a superset
    of the smaller cache's contents (the Figure 6 sweep premise)."""
    small = Cache(CacheGeometry(512, 16, 1))
    big = Cache(CacheGeometry(1024, 16, 1))
    for block in blocks:
        small.access(block)
        big.access(block)
    assert small.resident_blocks <= big.resident_blocks
