"""Per-CPU execution context.

All memory references in the simulator — kernel and application alike —
are issued through a :class:`Processor`, which

- keeps the CPU's local cycle clock,
- attributes elapsed cycles to user / system / idle time (the Table 1
  execution-time split),
- carries the classification context (who is executing: OS or
  application, and the CPU's *application epoch* used to detect
  ``Dispossame`` misses), and
- charges the paper's stall costs for every miss the memory system
  reports.

References are issued at cache-block granularity: one instruction block
(16 bytes = four R3000 instructions) costs four issue cycles, one data
touch costs one cycle, and misses add the 35-cycle bus stall
(Section 3.1).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.common.params import MachineParams
from repro.common.types import Mode, RefDomain
from repro.cpu.tlb import Tlb
from repro.memsys.system import MemorySystem

# Issue cost of one fetched instruction block (4 instructions at ~1 CPI).
IFETCH_ISSUE_CYCLES = 4
# Issue cost of one data touch (the load/store itself).
DTOUCH_ISSUE_CYCLES = 1


class Processor:
    """One CPU: clock, mode accounting and reference issue."""

    def __init__(self, cpu_id: int, params: MachineParams, memsys: MemorySystem):
        self.cpu_id = cpu_id
        self.params = params
        self.memsys = memsys
        self.tlb = Tlb(params.tlb_entries)
        self.cycles = 0
        self.mode = Mode.IDLE
        self.domain = RefDomain.OS
        # Incremented whenever the CPU returns to application code; used
        # to distinguish Dispossame (OS self-displacement with no
        # intervening application run, Table 2).
        self.app_epoch = 0
        self.current_pid: int = 0  # 0 = nobody (idle)
        self.mode_cycles: Dict[Mode, int] = {m: 0 for m in Mode}
        self.stall_cycles: Dict[Mode, int] = {m: 0 for m in Mode}
        # Block-granularity references this CPU has issued, across all
        # fidelity tiers; the fidelity layer reports per-tier reference
        # throughput (refs/s of wall clock) from these.
        self.refs_retired = 0
        self._block_bytes = params.block_bytes
        # When set, miss latencies are not charged as stall time: the
        # data was prefetched ahead of use ("if the data to be copied or
        # cleared is prefetched in advance while other computation is in
        # progress, the latency of the misses is hidden" — Section 4.2.2).
        # Bus traffic and cache effects still happen.
        self.prefetch_mode = False
        # Sanitizer hook (repro.sanitizers): called with
        # (cpu_id, addr, write) on the word-granularity reference paths
        # the kernel uses for structure touches. None when checking is
        # off; the block-granularity user paths are never probed.
        self.access_probe = None
        # Deep-mode hook: called with (cpu_id, block, write) on the
        # block-granularity sweep paths (dread_block/dwrite_block), so
        # bcopy/PCB/kernel-stack sweeps can be attributed to structures.
        # None unless checking runs with check="deep".
        self.block_probe = None

    # ------------------------------------------------------------------
    # Mode transitions
    # ------------------------------------------------------------------
    def set_mode(self, mode: Mode) -> None:
        if mode is Mode.USER and self.mode is not Mode.USER:
            self.app_epoch += 1
        self.mode = mode
        self.domain = RefDomain.APP if mode is Mode.USER else RefDomain.OS

    # ------------------------------------------------------------------
    # Time
    # ------------------------------------------------------------------
    def advance(self, cycles: int) -> None:
        """Burn ``cycles`` of computation in the current mode."""
        if cycles < 0:
            raise ValueError("cannot advance time backwards")
        self.cycles += cycles
        self.mode_cycles[self.mode] += cycles

    def advance_to(self, target_cycles: int) -> None:
        """Advance the local clock to an absolute time (idle waits)."""
        if target_cycles > self.cycles:
            self.advance(target_cycles - self.cycles)

    def _stall(self, cycles: int) -> None:
        if cycles and not self.prefetch_mode:
            self.cycles += cycles
            self.mode_cycles[self.mode] += cycles
            self.stall_cycles[self.mode] += cycles

    def charge_stall(self, cycles: int) -> None:
        """Charge an externally-computed stall (synchronization bus ops)."""
        if cycles < 0:
            raise ValueError("stall cycles must be non-negative")
        self._stall(cycles)

    # ------------------------------------------------------------------
    # Reference issue (physical addresses)
    # ------------------------------------------------------------------
    # A hit on a direct-mapped level costs no stall and moves no state:
    # the bus, the monitor, coherence and ground truth never see it. So
    # every method below resolves hits itself with a membership test and
    # calls into the memory system only for references that can stall or
    # change state. The range loops also keep a local clock: each miss is
    # stamped with the issue cycles plus the stalls before it (none while
    # ``prefetch_mode`` hides them), and the CPU's clock and mode
    # counters are settled once per range.

    def _instr_hits(self):
        """Blocks a fetch hits without stalling or moving state: the
        I-cache's, in both tiers, when it is direct-mapped (else none)."""
        m = self.memsys
        return m.hierarchies[self.cpu_id].icache._present if m._icache_dm else ()

    def _data_hits(self):
        """Blocks a data read hits without stalling or moving state.

        The first-level cache in the detailed tier; the second level in
        the atomic tier, which does not model the first. Empty when that
        level is associative (a hit there refreshes LRU order, so it goes
        through the memory system). A write hits only if the CPU also
        owns the block.
        """
        m = self.memsys
        hier = m.hierarchies[self.cpu_id]
        if m.atomic:
            return hier.dl2._present if m._dl2_dm else ()
        return hier.dl1._present if hier.dl1.assoc == 1 else ()

    def _settle(self, elapsed: int, stall: int) -> None:
        """Charge a range's issue-plus-stall cycles in the current mode."""
        self.cycles += elapsed
        self.mode_cycles[self.mode] += elapsed
        self.stall_cycles[self.mode] += stall

    def ifetch_range(self, base: int, size: int) -> None:
        """Execute straight-line code spanning ``[base, base+size)``."""
        if size <= 0:
            return
        block_bytes = self._block_bytes
        first = base // block_bytes
        last = (base + size - 1) // block_bytes
        nblocks = last - first + 1
        self.refs_retired += nblocks
        m = self.memsys
        if m.atomic:
            self.advance(nblocks * IFETCH_ISSUE_CYCLES)
            self._stall(m.atomic_ifetch_range(
                self.cpu_id, first, nblocks, self.domain, self.app_epoch
            ))
            return
        present = self._instr_hits()
        fetch = m.ifetch
        cpu, domain, epoch = self.cpu_id, self.domain, self.app_epoch
        charge = not self.prefetch_mode
        now = start = self.cycles
        stall = 0
        for block in range(first, last + 1):
            now += IFETCH_ISSUE_CYCLES
            if block not in present:
                cost = fetch(now, cpu, block, domain, epoch)
                if charge:
                    now += cost
                    stall += cost
        self._settle(now - start, stall)

    def ifetch_block(self, block: int) -> None:
        """Fetch one instruction block (loop bodies, idle loop)."""
        self.refs_retired += 1
        self.advance(IFETCH_ISSUE_CYCLES)
        m = self.memsys
        if block in self._instr_hits():
            if m.atomic:
                m.atomic_refs += 1
            return
        self._stall(
            m.ifetch(self.cycles, self.cpu_id, block, self.domain, self.app_epoch)
        )

    def _data_ref(self, block: int, write: bool) -> None:
        """Issue one data block reference."""
        self.refs_retired += 1
        self.advance(DTOUCH_ISSUE_CYCLES)
        m = self.memsys
        if block in self._data_hits() and (
            not write or m._owner.get(block) == self.cpu_id
        ):
            if m.atomic:
                m.atomic_refs += 1
            return
        access = m.dwrite if write else m.dread
        self._stall(
            access(self.cycles, self.cpu_id, block, self.domain, self.app_epoch)
        )

    def dread(self, addr: int) -> None:
        """Load from one data address."""
        if self.access_probe is not None:
            self.access_probe(self.cpu_id, addr, False)
        self._data_ref(addr // self._block_bytes, False)

    def dwrite(self, addr: int) -> None:
        """Store to one data address."""
        if self.access_probe is not None:
            self.access_probe(self.cpu_id, addr, True)
        self._data_ref(addr // self._block_bytes, True)

    def dread_block(self, block: int) -> None:
        if self.block_probe is not None:
            self.block_probe(self.cpu_id, block, False)
        self._data_ref(block, False)

    def dwrite_block(self, block: int) -> None:
        if self.block_probe is not None:
            self.block_probe(self.cpu_id, block, True)
        self._data_ref(block, True)

    def dtouch_range(self, base: int, size: int, write: bool = False) -> None:
        """Sweep a data range block by block (structure touches, block ops)."""
        if size <= 0:
            return
        if self.access_probe is not None:
            # Structure sweeps stay within one region; attribute by base.
            self.access_probe(self.cpu_id, base, write)
        block_bytes = self._block_bytes
        first = base // block_bytes
        last = (base + size - 1) // block_bytes
        nblocks = last - first + 1
        self.refs_retired += nblocks
        m = self.memsys
        probe = self.block_probe
        if m.atomic and probe is None:
            self.advance(nblocks * DTOUCH_ISSUE_CYCLES)
            self._stall(m.atomic_dtouch(
                self.cpu_id, first, nblocks, write, self.domain, self.app_epoch
            ))
            return
        present = self._data_hits()
        owner_get = m._owner.get
        access = m.dwrite if write else m.dread
        cpu, domain, epoch = self.cpu_id, self.domain, self.app_epoch
        charge = not self.prefetch_mode
        now = start = self.cycles
        stall = hits = 0
        for block in range(first, last + 1):
            if probe is not None:
                probe(cpu, block, write)
            now += DTOUCH_ISSUE_CYCLES
            if block in present and (not write or owner_get(block) == cpu):
                hits += 1
                continue
            cost = access(now, cpu, block, domain, epoch)
            if charge:
                now += cost
                stall += cost
        if m.atomic:
            m.atomic_refs += hits
        self._settle(now - start, stall)

    def copy_blocks(self, src_block: int, dst_block: int, nblocks: int,
                    loop_block: int, refetch_every: int) -> None:
        """bcopy's inner loop: read source, write destination, with the
        loop-body refetch every ``refetch_every`` blocks."""
        self._sweep(src_block, dst_block, nblocks, loop_block, refetch_every)

    def clear_blocks(self, dst_block: int, nblocks: int,
                     loop_block: int, refetch_every: int) -> None:
        """bclear's inner loop: write destination blocks with refetch."""
        self._sweep(None, dst_block, nblocks, loop_block, refetch_every)

    def _sweep(self, src_block: Optional[int], dst_block: int, nblocks: int,
               loop_block: int, refetch_every: int) -> None:
        """Block-op loop shared by bcopy (``src_block`` given) and bclear.

        Per block: read the source block, write the destination block,
        and fetch the loop body on every ``refetch_every``-th block.
        """
        if nblocks <= 0:
            return
        n_if = (nblocks + refetch_every - 1) // refetch_every
        reads = nblocks if src_block is not None else 0
        self.refs_retired += reads + nblocks + n_if
        m = self.memsys
        probe = self.block_probe
        if m.atomic and probe is None:
            self.advance(
                (reads + nblocks) * DTOUCH_ISSUE_CYCLES + n_if * IFETCH_ISSUE_CYCLES
            )
            self._stall(m.atomic_sweep(
                self.cpu_id, dst_block, nblocks, loop_block, refetch_every,
                self.domain, self.app_epoch, src_block=src_block,
            ))
            return
        ipresent = self._instr_hits()
        dpresent = self._data_hits()
        owner_get = m._owner.get
        read, write, fetch = m.dread, m.dwrite, m.ifetch
        cpu, domain, epoch = self.cpu_id, self.domain, self.app_epoch
        charge = not self.prefetch_mode
        now = start = self.cycles
        stall = hits = 0
        for i in range(nblocks):
            if src_block is not None:
                block = src_block + i
                if probe is not None:
                    probe(cpu, block, False)
                now += DTOUCH_ISSUE_CYCLES
                if block in dpresent:
                    hits += 1
                else:
                    cost = read(now, cpu, block, domain, epoch)
                    if charge:
                        now += cost
                        stall += cost
            block = dst_block + i
            if probe is not None:
                probe(cpu, block, True)
            now += DTOUCH_ISSUE_CYCLES
            if block in dpresent and owner_get(block) == cpu:
                hits += 1
            else:
                cost = write(now, cpu, block, domain, epoch)
                if charge:
                    now += cost
                    stall += cost
            if i % refetch_every == 0:
                now += IFETCH_ISSUE_CYCLES
                if loop_block in ipresent:
                    hits += 1
                else:
                    cost = fetch(now, cpu, loop_block, domain, epoch)
                    if charge:
                        now += cost
                        stall += cost
        if m.atomic:
            m.atomic_refs += hits
        self._settle(now - start, stall)

    def uncached_read(self, addr: int) -> None:
        """Cache-bypassing byte read (escape references)."""
        self.refs_retired += 1
        self.advance(DTOUCH_ISSUE_CYCLES)
        self._stall(self.memsys.uncached_read(self.cycles, self.cpu_id, addr, self.domain))

    # ------------------------------------------------------------------
    # Accounting queries
    # ------------------------------------------------------------------
    def non_idle_cycles(self) -> int:
        return self.mode_cycles[Mode.USER] + self.mode_cycles[Mode.KERNEL]

    def time_split(self) -> Dict[Mode, float]:
        """Fraction of this CPU's time in each mode (Table 1 columns 2-4)."""
        total = sum(self.mode_cycles.values())
        if total == 0:
            return {m: 0.0 for m in Mode}
        return {m: cycles / total for m, cycles in self.mode_cycles.items()}
