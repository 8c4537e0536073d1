"""VM subsystem and block operations."""

import pytest

from repro.common.types import Mode
from repro.kernel.vm import USE_DATA, USE_TEXT
from tests.test_kernel_core import make_kernel


@pytest.fixture
def kernel_and_cpus():
    return make_kernel()


class TestVmAllocation:
    def test_alloc_tracks_use(self, kernel_and_cpus):
        kernel, cpus = kernel_and_cpus
        frame = kernel.vm.alloc_frame(cpus[0], USE_DATA, (1, 0x100))
        assert kernel.vm.frame_use[frame] == (USE_DATA, (1, 0x100))

    def test_alloc_takes_memlock(self, kernel_and_cpus):
        kernel, cpus = kernel_and_cpus
        before = kernel.locks.lock("memlock").stats.acquires
        kernel.vm.alloc_frame(cpus[0], USE_DATA, (1, 0x100))
        assert kernel.locks.lock("memlock").stats.acquires == before + 1

    def test_free_untracked_rejected(self, kernel_and_cpus):
        kernel, cpus = kernel_and_cpus
        with pytest.raises(ValueError):
            kernel.vm.free_frame(cpus[0], 99999)

    def test_text_frame_reuse_flushes_icaches(self, kernel_and_cpus):
        kernel, cpus = kernel_and_cpus
        proc = cpus[0]
        frame = kernel.vm.alloc_frame(proc, USE_TEXT, "img")
        # Execute from the frame so I-caches hold its blocks.
        proc.set_mode(Mode.USER)
        proc.ifetch_block(frame * 256)
        kernel.vm.free_frame(proc, frame)
        flushes_before = kernel.vm.stats_icache_flushes
        # FIFO allocator: drain until that frame comes around again.
        for _ in range(kernel.memsys.memory.free_frame_count()):
            got = kernel.vm.alloc_frame(proc, USE_DATA, None)
            if got == frame:
                break
        assert kernel.vm.stats_icache_flushes == flushes_before + 1
        # The refetch is now an Inval miss.
        assert not kernel.memsys.hierarchies[0].instr_resident(frame * 256)

    def test_data_frame_reuse_does_not_flush(self, kernel_and_cpus):
        kernel, cpus = kernel_and_cpus
        frame = kernel.vm.alloc_frame(cpus[0], USE_DATA, None)
        kernel.vm.free_frame(cpus[0], frame)
        flushes = kernel.vm.stats_icache_flushes
        for _ in range(kernel.memsys.memory.free_frame_count()):
            if kernel.vm.alloc_frame(cpus[0], USE_DATA, None) == frame:
                break
        assert kernel.vm.stats_icache_flushes == flushes

    def test_contained_code_override(self, kernel_and_cpus):
        kernel, cpus = kernel_and_cpus
        frame = kernel.vm.alloc_frame(cpus[0], USE_TEXT, "img")
        kernel.vm.free_frame(cpus[0], frame, contained_code=False)
        assert frame not in kernel.vm.frame_was_text


class TestReclaim:
    def test_low_water_triggers_reclaim(self):
        kernel, cpus = make_kernel(baseline_frames=0)
        phys = kernel.memsys.memory
        low_water = kernel.vm.tuning.low_water_frames
        # Fill a buffer-cache frame to make something reclaimable, then
        # drain the pool to the low-water mark.
        kernel.fs.buffer_cache.getblk(cpus[0], 1, 0).valid = True
        while phys.free_frame_count() > low_water:
            kernel.vm.alloc_frame(cpus[0], USE_DATA, None)
        reclaims_before = kernel.vm.stats_reclaims
        kernel.vm.alloc_frame(cpus[0], USE_DATA, None)
        assert kernel.vm.stats_reclaims == reclaims_before + 1

    def test_reclaim_runs_pfdat_traversal(self):
        kernel, cpus = make_kernel(baseline_frames=0)
        kernel.vm.alloc_frame(cpus[0], USE_DATA, None)  # give it a candidate
        traversals = kernel.blockops.traversals
        kernel.vm.reclaim(cpus[0])
        assert kernel.blockops.traversals == traversals + 1

    def test_reclaim_with_nothing_tracked_is_noop(self):
        kernel, cpus = make_kernel(baseline_frames=0)
        assert kernel.vm.reclaim(cpus[0]) == 0


class TestBlockOps:
    def test_bcopy_reads_and_writes(self, kernel_and_cpus):
        kernel, cpus = kernel_and_cpus
        proc = cpus[0]
        proc.set_mode(Mode.KERNEL)
        reads = kernel.memsys.bus_reads
        writes = kernel.memsys.bus_writes
        kernel.blockops.bcopy(proc, 0x500000, 0x600000, 4096)
        assert kernel.memsys.bus_reads - reads >= 256      # source misses
        assert kernel.memsys.bus_writes - writes >= 256    # dest fills
        assert kernel.blockops.bytes_copied == 4096

    def test_bclear_writes_only(self, kernel_and_cpus):
        kernel, cpus = kernel_and_cpus
        proc = cpus[0]
        proc.set_mode(Mode.KERNEL)
        kernel.blockops.bclear(proc, 0x500000, 4096)
        assert kernel.blockops.clears == 1
        assert kernel.blockops.bytes_cleared == 4096

    def test_zero_sizes_noop(self, kernel_and_cpus):
        kernel, cpus = kernel_and_cpus
        kernel.blockops.bcopy(cpus[0], 0, 0x1000, 0)
        kernel.blockops.bclear(cpus[0], 0x1000, 0)
        assert kernel.blockops.copies == 0
        assert kernel.blockops.clears == 0

    def test_traverse_touches_pfdat(self, kernel_and_cpus):
        kernel, cpus = kernel_and_cpus
        proc = cpus[0]
        proc.set_mode(Mode.KERNEL)
        misses_before = kernel.memsys.truth.total_misses()
        kernel.blockops.pfdat_traverse(proc, 0, 256)
        assert kernel.memsys.truth.total_misses() > misses_before

    def test_traverse_wraps_around(self, kernel_and_cpus):
        kernel, cpus = kernel_and_cpus
        proc = cpus[0]
        proc.set_mode(Mode.KERNEL)
        kernel.blockops.pfdat_traverse(proc, 8100, 200)  # wraps past 8192
        assert kernel.blockops.traversals == 1

    def test_blockop_emits_escapes_when_instrumented(self):
        from repro.monitor.escapes import Instrumentation

        from repro.common.params import MachineParams
        from repro.cpu.processor import Processor
        from repro.kernel.kernel import Kernel, KernelTuning
        from repro.kernel.vm import VmTuning
        from repro.memsys.system import MemorySystem

        params = MachineParams()
        memsys = MemorySystem(params)
        cpus = [Processor(i, params, memsys) for i in range(4)]
        kernel = Kernel(
            params, memsys, cpus, instr=Instrumentation(),
            tuning=KernelTuning(vm=VmTuning(baseline_frames=64)),
        )
        uncached = memsys.bus_uncached
        kernel.blockops.bclear(cpus[0], 0x500000, 1024)
        # BLOCKOP_BEGIN (1 signal + 3 payloads) + BLOCKOP_END (1 signal).
        assert memsys.bus_uncached - uncached == 5
