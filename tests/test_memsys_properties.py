"""Property-based tests on the memory system's coherence and accounting."""

from hypothesis import given, settings, strategies as st

from repro.common.params import CacheGeometry, MachineParams
from repro.common.types import MissClass, RefDomain
from repro.memsys.system import MemorySystem

# Small caches so invariants get exercised quickly.
SMALL = MachineParams(
    num_cpus=2,
    icache=CacheGeometry(1024),
    dcache_l1=CacheGeometry(1024),
    dcache_l2=CacheGeometry(4096),
)

# An access: (cpu, block, kind) with kind in {read, write, ifetch}.
ACCESS = st.tuples(
    st.integers(0, 1),
    st.integers(0, 600),
    st.sampled_from(["read", "write", "ifetch"]),
)


def replay(accesses):
    memsys = MemorySystem(SMALL)
    time = 0
    for cpu, block, kind in accesses:
        time += 1
        if kind == "read":
            memsys.dread(time, cpu, block, RefDomain.OS, 0)
        elif kind == "write":
            memsys.dwrite(time, cpu, block, RefDomain.OS, 0)
        else:
            memsys.ifetch(time, cpu, block, RefDomain.OS, 0)
    return memsys


@settings(max_examples=40, deadline=None)
@given(st.lists(ACCESS, max_size=300))
def test_written_block_resident_only_where_written(accesses):
    """After any sequence, a block last written by CPU c cannot be
    resident in another CPU's data cache (write-invalidate)."""
    memsys = replay(accesses)
    last_writer = {}
    for i, (cpu, block, kind) in enumerate(accesses):
        if kind == "write":
            last_writer[block] = (i, cpu)
    for block, (when, writer) in last_writer.items():
        # Only if nobody read it afterwards (reads re-share the block).
        reread = any(
            b == block and k == "read" and i > when
            for i, (c, b, k) in enumerate(accesses)
        )
        if reread:
            continue
        for hierarchy in memsys.hierarchies:
            if hierarchy.cpu != writer:
                assert not hierarchy.data_resident(block)


@settings(max_examples=40, deadline=None)
@given(st.lists(ACCESS, max_size=300))
def test_miss_counts_match_bus_traffic(accesses):
    """Classified misses == cacheable bus transactions minus upgrades
    (an upgrade is a write txn for an already-resident block)."""
    memsys = replay(accesses)
    classified = sum(
        count
        for (_d, _k, cls), count in memsys.truth.counts.items()
        if cls is not MissClass.UNCACHED
    )
    assert classified <= memsys.bus_reads + memsys.bus_writes
    assert memsys.bus.transaction_count == memsys.total_bus_transactions()


@settings(max_examples=40, deadline=None)
@given(st.lists(ACCESS, max_size=200))
def test_classification_total_is_total_misses(accesses):
    """Every miss lands in exactly one Table 2 class."""
    memsys = replay(accesses)
    per_class = memsys.truth.class_counts()
    assert sum(per_class.values()) == memsys.truth.total_misses()
    assert all(count >= 0 for count in per_class.values())


@settings(max_examples=30, deadline=None)
@given(st.lists(ACCESS, max_size=200), st.integers(0, 600))
def test_flush_then_refetch_is_inval(accesses, probe):
    """Whatever happened before, after a full I-cache flush the next
    fetch of a previously-cached block classifies as Inval."""
    memsys = replay(accesses)
    memsys.ifetch(10_000, 0, probe, RefDomain.OS, 0)
    memsys.flush_all_icaches()
    before = memsys.truth.class_counts(kind="I").get(MissClass.INVAL, 0)
    memsys.ifetch(10_001, 0, probe, RefDomain.OS, 0)
    after = memsys.truth.class_counts(kind="I").get(MissClass.INVAL, 0)
    assert after == before + 1
