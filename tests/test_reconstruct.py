"""Trace-side cache reconstruction and its equivalence to a real cache."""

from hypothesis import given, settings, strategies as st

from repro.common.params import CacheGeometry
from repro.common.types import MissClass, RefDomain
from repro.memsys.cache import Cache
from repro.analysis.reconstruct import CpuReconstruction, ReconstructedCache

OS = RefDomain.OS
APP = RefDomain.APP


def make(size=1024):
    return ReconstructedCache(size)


class TestClassification:
    def test_first_fill_cold(self):
        cache = make()
        cls, same = cache.classify_fill(5, OS, 0)
        assert cls is MissClass.COLD and not same

    def test_displacement_by_os(self):
        cache = make()
        cache.classify_fill(5, OS, 0)
        cache.classify_fill(5 + 64, OS, 0)  # evicts 5
        cls, same = cache.classify_fill(5, OS, 0)
        assert cls is MissClass.DISPOS and same

    def test_dispossame_needs_same_epoch(self):
        cache = make()
        cache.classify_fill(5, OS, 1)
        cache.classify_fill(5 + 64, OS, 1)
        cls, same = cache.classify_fill(5, OS, 2)
        assert cls is MissClass.DISPOS and not same

    def test_displacement_by_app(self):
        cache = make()
        cache.classify_fill(5, OS, 0)
        cache.classify_fill(5 + 64, APP, 0)
        cls, _ = cache.classify_fill(5, OS, 0)
        assert cls is MissClass.DISPAP

    def test_invalidation_yields_sharing(self):
        cache = make()
        cache.classify_fill(5, OS, 0)
        assert cache.invalidate(5)
        cls, _ = cache.classify_fill(5, OS, 0)
        assert cls is MissClass.SHARING

    def test_invalidate_absent_false(self):
        cache = make()
        assert not cache.invalidate(5)

    def test_full_flush(self):
        cache = make()
        cache.classify_fill(5, OS, 0)
        cache.classify_fill(6, OS, 0)
        assert cache.invalidate_all() == 2
        cls, _ = cache.classify_fill(5, OS, 0)
        assert cls is MissClass.SHARING  # mapped to INVAL by the caller

    def test_refill_clears_state(self):
        cache = make()
        cache.classify_fill(5, OS, 0)
        cache.invalidate(5)
        cache.classify_fill(5, OS, 0)   # SHARING consumed
        cache.classify_fill(5 + 64, OS, 0)
        cls, _ = cache.classify_fill(5, OS, 0)
        assert cls is MissClass.DISPOS

    def test_resident(self):
        cache = make()
        cache.classify_fill(5, OS, 0)
        assert cache.resident(5)
        assert not cache.resident(6)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 255), min_size=1, max_size=300))
def test_reconstruction_matches_real_cache(blocks):
    """Feeding the reconstruction exactly the real cache's miss stream
    yields identical contents — the property the paper's postprocessing
    (and Figure 6) relies on."""
    real = Cache(CacheGeometry(1024, 16, 1))
    recon = ReconstructedCache(1024)
    for block in blocks:
        if real.access(block) is not None:  # the bus saw a fill
            recon.classify_fill(block, OS, 0)
    for block in set(blocks):
        assert real.lookup(block) == recon.resident(block)


class TestCpuReconstruction:
    def test_holds_both_caches(self):
        recon = CpuReconstruction(64 * 1024, 256 * 1024)
        assert recon.icache.num_sets == 4096
        assert recon.dcache.num_sets == 16384
        assert recon.app_epoch == 0
