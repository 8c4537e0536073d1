"""Processor: clock, mode accounting, reference issue."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.params import CacheGeometry, MachineParams
from repro.common.types import Mode, RefDomain
from repro.cpu.processor import (
    DTOUCH_ISSUE_CYCLES,
    IFETCH_ISSUE_CYCLES,
    Processor,
)
from repro.memsys.system import MemorySystem


@pytest.fixture
def cpu(params):
    return Processor(0, params, MemorySystem(params))


class TestModeAccounting:
    def test_starts_idle(self, cpu):
        assert cpu.mode is Mode.IDLE

    def test_advance_attributes_to_mode(self, cpu):
        cpu.set_mode(Mode.USER)
        cpu.advance(100)
        cpu.set_mode(Mode.KERNEL)
        cpu.advance(50)
        assert cpu.mode_cycles[Mode.USER] == 100
        assert cpu.mode_cycles[Mode.KERNEL] == 50

    def test_non_idle_cycles(self, cpu):
        cpu.set_mode(Mode.USER)
        cpu.advance(100)
        cpu.set_mode(Mode.IDLE)
        cpu.advance(900)
        assert cpu.non_idle_cycles() == 100

    def test_time_split_sums_to_one(self, cpu):
        cpu.set_mode(Mode.USER)
        cpu.advance(30)
        cpu.set_mode(Mode.IDLE)
        cpu.advance(70)
        split = cpu.time_split()
        assert sum(split.values()) == pytest.approx(1.0)
        assert split[Mode.IDLE] == pytest.approx(0.7)

    def test_rejects_negative_advance(self, cpu):
        with pytest.raises(ValueError):
            cpu.advance(-1)

    def test_advance_to_is_monotonic(self, cpu):
        cpu.advance(100)
        cpu.advance_to(50)  # no-op
        assert cpu.cycles == 100
        cpu.advance_to(200)
        assert cpu.cycles == 200


class TestAppEpoch:
    def test_entering_user_bumps_epoch(self, cpu):
        start = cpu.app_epoch
        cpu.set_mode(Mode.USER)
        assert cpu.app_epoch == start + 1

    def test_reentering_user_from_kernel_bumps(self, cpu):
        cpu.set_mode(Mode.USER)
        epoch = cpu.app_epoch
        cpu.set_mode(Mode.KERNEL)
        cpu.set_mode(Mode.USER)
        assert cpu.app_epoch == epoch + 1

    def test_user_to_user_does_not_bump(self, cpu):
        cpu.set_mode(Mode.USER)
        epoch = cpu.app_epoch
        cpu.set_mode(Mode.USER)
        assert cpu.app_epoch == epoch

    def test_domain_follows_mode(self, cpu):
        cpu.set_mode(Mode.USER)
        assert cpu.domain is RefDomain.APP
        cpu.set_mode(Mode.KERNEL)
        assert cpu.domain is RefDomain.OS
        cpu.set_mode(Mode.IDLE)
        assert cpu.domain is RefDomain.OS


class TestReferenceIssue:
    def test_ifetch_range_advances_issue_and_stall(self, cpu):
        cpu.set_mode(Mode.KERNEL)
        cpu.ifetch_range(0, 160)  # 10 blocks, all cold
        # 10 blocks x (4 issue + 35 stall)
        assert cpu.cycles == 10 * 39
        assert cpu.stall_cycles[Mode.KERNEL] == 350

    def test_refetch_is_cheap(self, cpu):
        cpu.set_mode(Mode.KERNEL)
        cpu.ifetch_range(0, 160)
        before = cpu.cycles
        cpu.ifetch_range(0, 160)
        assert cpu.cycles - before == 40  # issue only

    def test_dtouch_range_write(self, cpu):
        cpu.set_mode(Mode.KERNEL)
        cpu.dtouch_range(0x100000, 64, write=True)
        assert cpu.memsys.bus_writes == 4

    def test_empty_ranges_free(self, cpu):
        cpu.ifetch_range(0, 0)
        cpu.dtouch_range(0, 0)
        assert cpu.cycles == 0

    def test_charge_stall_rejects_negative(self, cpu):
        with pytest.raises(ValueError):
            cpu.charge_stall(-5)

    def test_uncached_read_goes_to_bus(self, cpu):
        cpu.set_mode(Mode.KERNEL)
        cpu.uncached_read(0xF0001)
        assert cpu.memsys.bus_uncached == 1


# ----------------------------------------------------------------------
# The issuing loops against a per-block reference
# ----------------------------------------------------------------------
# The reference issues every block through MemorySystem.ifetch/dread/
# dwrite with per-block clock arithmetic: issue cycles, then the stall
# (uncharged while prefetch_mode is set), each miss stamped with the
# clock after its issue cycles.

_REF_ACCESS = {"i": "ifetch", "r": "dread", "w": "dwrite"}


def _ref_issue(p, kind, block, probe):
    if probe is not None and kind != "i":
        probe(p.cpu_id, block, kind == "w")
    issue = IFETCH_ISSUE_CYCLES if kind == "i" else DTOUCH_ISSUE_CYCLES
    p.refs_retired += 1
    p.cycles += issue
    p.mode_cycles[p.mode] += issue
    access = getattr(p.memsys, _REF_ACCESS[kind])
    stall = access(p.cycles, p.cpu_id, block, p.domain, p.app_epoch)
    if not p.prefetch_mode:
        p.cycles += stall
        p.mode_cycles[p.mode] += stall
        p.stall_cycles[p.mode] += stall


def _ref_op(p, op, args, probe):
    if op in ("ifetch_range", "dtouch_range"):
        base, size = args[0], args[1]
        if size <= 0:
            return
        kind = "i" if op == "ifetch_range" else ("w" if args[2] else "r")
        for block in range(base // 16, (base + size - 1) // 16 + 1):
            _ref_issue(p, kind, block, probe)
    elif op in ("copy_blocks", "clear_blocks"):
        if op == "copy_blocks":
            src, dst, nblocks, loop_block, every = args
        else:
            src, (dst, nblocks, loop_block, every) = None, args
        for i in range(nblocks):
            if src is not None:
                _ref_issue(p, "r", src + i, probe)
            _ref_issue(p, "w", dst + i, probe)
            if i % every == 0:
                _ref_issue(p, "i", loop_block, probe)
    else:
        kind = {"ifetch_block": "i", "dread_block": "r", "dwrite_block": "w"}[op]
        _ref_issue(p, kind, args[0], probe)


# A few dozen blocks over caches of 16-64 blocks: sets collide, blocks
# are shared between CPUs, and hits, upgrades and evictions all occur.
_BLOCK = st.integers(0, 48)
_SWEEP = (_BLOCK, st.integers(-1, 16), _BLOCK, st.integers(1, 5))
_OP = st.one_of(
    st.tuples(st.just("ifetch_range"),
              st.tuples(st.integers(0, 800), st.integers(-16, 256))),
    st.tuples(st.just("dtouch_range"),
              st.tuples(st.integers(0, 800), st.integers(-16, 256),
                        st.booleans())),
    st.tuples(st.just("copy_blocks"), st.tuples(_BLOCK, *_SWEEP)),
    st.tuples(st.just("clear_blocks"), st.tuples(*_SWEEP)),
    st.tuples(st.sampled_from(["ifetch_block", "dread_block", "dwrite_block"]),
              st.tuples(_BLOCK)),
)
# (cpu, mode, prefetch_mode, (op, args))
_STEP = st.tuples(st.integers(0, 3), st.sampled_from(list(Mode)),
                  st.booleans(), _OP)


def _machine(num_cpus, assoc, atomic, probed):
    params = MachineParams(
        num_cpus=num_cpus,
        icache=CacheGeometry(512, associativity=assoc),
        dcache_l1=CacheGeometry(256, associativity=assoc),
        dcache_l2=CacheGeometry(1024, associativity=assoc),
    )
    memsys = MemorySystem(params, record_events=True)
    memsys.atomic = atomic
    txns = []
    memsys.bus.attach(txns.append)
    probes = []
    procs = [Processor(c, params, memsys) for c in range(num_cpus)]
    if probed:
        for proc in procs:
            proc.block_probe = lambda cpu, block, write: probes.append(
                (cpu, block, write))
    return memsys, procs, txns, probes


def _state(memsys, procs, txns, probes):
    truth = memsys.truth
    return {
        "bus": txns,
        "cpus": [
            (p.cycles, dict(p.mode_cycles), dict(p.stall_cycles), p.refs_retired)
            for p in procs
        ],
        "counts": (truth.counts, truth.dispossame_counts, truth.events),
        "caches": [
            (h.icache._ways, h.dl1._ways, h.dl2._ways)
            for h in memsys.hierarchies
        ],
        "owner": memsys._owner,
        "atomic_refs": memsys.atomic_refs,
        "probes": probes,
    }


class TestIssueLoopsMatchPerBlockReference:
    @settings(max_examples=100, deadline=None)
    @given(
        num_cpus=st.integers(2, 4),
        assoc=st.sampled_from([1, 2]),
        atomic=st.booleans(),
        probed=st.booleans(),
        steps=st.lists(_STEP, max_size=40),
    )
    def test_same_bus_clocks_truth_and_caches(
        self, num_cpus, assoc, atomic, probed, steps
    ):
        new = _machine(num_cpus, assoc, atomic, probed)
        ref = _machine(num_cpus, assoc, atomic, probed)
        for cpu, mode, prefetch, (op, args) in steps:
            cpu %= num_cpus
            for procs in (new[1], ref[1]):
                procs[cpu].set_mode(mode)
                procs[cpu].prefetch_mode = prefetch
            getattr(new[1][cpu], op)(*args)
            probe = ref[1][cpu].block_probe
            _ref_op(ref[1][cpu], op, args, probe)
        assert _state(*new) == _state(*ref)
