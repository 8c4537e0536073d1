"""The complete memory system: caches + coherence + bus + memory.

:class:`MemorySystem` is the single entry point through which CPUs touch
memory. It

- walks the per-CPU cache hierarchies,
- maintains write-invalidate coherence between the data caches (the
  4D/340's snooping protocol), issuing bus transactions for fills and
  ownership upgrades,
- leaves instruction caches incoherent (software-flushed on page
  reallocation, per Table 2's *Inval* class),
- reports every bus transaction to attached listeners (the hardware
  monitor), and
- feeds the ground-truth classifier.

Return values are CPU stall cycles, using the paper's own cost model:
35 cycles per bus access, ~15 cycles for an L1 data miss that hits in L2
(Section 3.1).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.common.params import MachineParams
from repro.common.types import RefDomain
from repro.memsys.bus import Bus, BusOp
from repro.memsys.cache import EMPTY
from repro.memsys.hierarchy import AccessOutcome, CpuCacheHierarchy
from repro.memsys.memory import PhysicalMemory
from repro.memsys.tracking import DATA, INSTR, GroundTruth

# Sentinel meaning "block owned by no single CPU" (shared or uncached).
SHARED = -1


class MemorySystem:
    """All CPUs' caches plus the bus, memory and coherence state."""

    def __init__(
        self,
        params: MachineParams,
        bus: Optional[Bus] = None,
        record_events: bool = False,
    ):
        self.params = params
        self.bus = bus if bus is not None else Bus()
        self.memory = PhysicalMemory(params)
        self.hierarchies: List[CpuCacheHierarchy] = [
            CpuCacheHierarchy(cpu, params) for cpu in range(params.num_cpus)
        ]
        self.truth = GroundTruth(params.num_cpus, record_events=record_events)
        # block -> owning CPU for exclusively-held (written) blocks.
        self._owner: Dict[int, int] = {}
        # Fidelity tier (repro.fidelity): when ``atomic`` is True the
        # memory system services references *functionally* — cache tags,
        # coherence ownership and ground-truth warmth state keep
        # evolving, and misses still cost their model latency — but no
        # bus transactions are issued, no monitor sees anything, and no
        # statistics counters advance. Only the bus-visible levels are
        # kept warm (I-cache and L2): the first-level data cache is
        # invisible to the bus and is flushed at the atomic→detailed
        # seam, so a resident data block costs nothing here and a miss
        # costs the bus latency (the ≤15-cycle L1/L2 refinement is the
        # tier's one timing approximation). ``atomic_refs`` counts
        # references served this way (the ``fast_forward`` budget of a
        # mixed-fidelity run).
        self.atomic = False
        self.atomic_refs = 0
        # Direct-mapped caches (the default geometry) make a hit a pure
        # membership test — `access()` cannot reorder a one-way set — so
        # the atomic paths shortcut it. Associative variants (Figure 6)
        # fall back to the full access for exact LRU.
        self._dl2_dm = params.dcache_l2.associativity == 1
        self._icache_dm = params.icache.associativity == 1
        # Prebound per-CPU state: ground-truth handles for the scalar
        # atomic paths (the batched sweeps rebuild them per call), and
        # each CPU's snoop targets with their present-sets, so that the
        # write-invalidation loops of both tiers pre-test membership
        # instead of calling into every other hierarchy. All referenced
        # containers are mutated in place, never replaced, so the
        # bindings stay valid for the system's lifetime.
        self._itruth = [self.truth.cpu_truth(c, INSTR) for c in range(params.num_cpus)]
        self._dtruth = [self.truth.cpu_truth(c, DATA) for c in range(params.num_cpus)]
        self._snoop = [
            [
                (h, h.dl1._present, h.dl2._present)
                for h in self.hierarchies if h.cpu != cpu
            ]
            for cpu in range(params.num_cpus)
        ]
        # Sanitizer hook: a CoherenceChecker when invariant checking is
        # on (repro.sanitizers); None-guarded on miss/upgrade paths only.
        self.checker = None
        self.block_bytes = params.block_bytes
        # Counters the experiments use directly.
        self.bus_reads = 0
        self.bus_writes = 0
        self.bus_uncached = 0

    # ------------------------------------------------------------------
    # Instruction fetch
    # ------------------------------------------------------------------
    def ifetch(
        self, time_cycles: int, cpu: int, block: int, domain: RefDomain, app_epoch: int
    ) -> int:
        """Fetch one instruction block; returns stall cycles."""
        if self.atomic:
            self.atomic_refs += 1
            icache = self.hierarchies[cpu].icache
            if self._icache_dm:
                if block in icache._present:
                    return 0
                victim = icache.fill(block)
            else:
                victim = icache.access(block)
                if victim is None:
                    return 0
            truth = self._itruth[cpu]
            if victim != EMPTY:
                truth.evicted_by[victim] = (domain, app_epoch)
                truth.invalidated.discard(victim)
            truth.ever_cached.add(block)
            truth.evicted_by.pop(block, None)
            truth.invalidated.discard(block)
            return self.params.bus_stall_cycles
        icache = self.hierarchies[cpu].icache
        if block in icache._present:
            icache.access(block)  # refresh LRU
            return 0
        victim = icache.fill(block)
        if victim != EMPTY:
            self.truth.record_eviction(cpu, INSTR, victim, domain, app_epoch)
        self.truth.classify_and_record(time_cycles, cpu, INSTR, block, domain, app_epoch)
        self.bus_reads += 1
        self.bus.transaction(time_cycles, cpu, block * self.block_bytes, BusOp.READ)
        return self.params.bus_stall_cycles

    # ------------------------------------------------------------------
    # Data access
    # ------------------------------------------------------------------
    def dread(
        self, time_cycles: int, cpu: int, block: int, domain: RefDomain, app_epoch: int
    ) -> int:
        """Read one data block; returns stall cycles."""
        if self.atomic:
            # Functional tier: L2 tags, ownership and warmth state keep
            # moving and the bus latency is charged on a miss, but there
            # is no bus transaction, no checker and no counter traffic.
            self.atomic_refs += 1
            dl2 = self.hierarchies[cpu].dl2
            if self._dl2_dm:
                if block in dl2._present:
                    return 0
                victim = dl2.fill(block)
            else:
                victim = dl2.access(block)
                if victim is None:
                    return 0
            owner = self._owner
            truth = self._dtruth[cpu]
            if victim != EMPTY:
                truth.evicted_by[victim] = (domain, app_epoch)
                truth.invalidated.discard(victim)
                if owner.get(victim) == cpu:
                    del owner[victim]
            truth.ever_cached.add(block)
            truth.evicted_by.pop(block, None)
            truth.invalidated.discard(block)
            own = owner.get(block, SHARED)
            if own != SHARED and own != cpu:
                owner.pop(block, None)
            return self.params.bus_stall_cycles
        outcome, victim = self.hierarchies[cpu].daccess(block)
        if outcome is AccessOutcome.L1_HIT:
            return 0
        if outcome is AccessOutcome.L2_HIT:
            return self.params.l2_hit_stall_cycles
        if victim != EMPTY:
            self.truth.record_eviction(cpu, DATA, victim, domain, app_epoch)
            if self._owner.get(victim) == cpu:
                del self._owner[victim]
        self.truth.classify_and_record(time_cycles, cpu, DATA, block, domain, app_epoch)
        # Reading a block exclusively held elsewhere downgrades it to shared.
        owner = self._owner.get(block, SHARED)
        if owner != SHARED and owner != cpu:
            self._owner.pop(block, None)
        self.bus_reads += 1
        self.bus.transaction(time_cycles, cpu, block * self.block_bytes, BusOp.READ)
        if self.checker is not None:
            self.checker.after_data_read(time_cycles, cpu, block)
        return self.params.bus_stall_cycles

    def dwrite(
        self, time_cycles: int, cpu: int, block: int, domain: RefDomain, app_epoch: int
    ) -> int:
        """Write one data block; returns stall cycles.

        Writing a block not exclusively owned issues a bus transaction
        that invalidates every other CPU's copy — those invalidations are
        what later surface as *Sharing* misses (Table 2).
        """
        if self.atomic:
            self.atomic_refs += 1
            dl2 = self.hierarchies[cpu].dl2
            owner = self._owner
            if self._dl2_dm:
                # Reaching here with the block resident means only the
                # ownership test failed — resident is NOT proven absent
                # (unlike the read paths), so fill() needs its own
                # presence check.
                if block in dl2._present:
                    if owner.get(block) == cpu:
                        return 0
                    victim = None
                else:
                    victim = dl2.fill(block)
            else:
                victim = dl2.access(block)
            stall = 0
            if victim is not None:
                truth = self._dtruth[cpu]
                if victim != EMPTY:
                    truth.evicted_by[victim] = (domain, app_epoch)
                    truth.invalidated.discard(victim)
                    if owner.get(victim) == cpu:
                        del owner[victim]
                truth.ever_cached.add(block)
                truth.evicted_by.pop(block, None)
                truth.invalidated.discard(block)
            if owner.get(block, SHARED) != cpu:
                record_inval = self.truth.record_invalidation
                for other, o_dl1p, o_dl2p in self._snoop[cpu]:
                    if (
                        (block in o_dl2p or block in o_dl1p)
                        and other.invalidate_data(block)
                    ):
                        record_inval(other.cpu, DATA, block)
                owner[block] = cpu
                stall += self.params.bus_stall_cycles
            return stall
        outcome, victim = self.hierarchies[cpu].daccess(block)
        stall = 0
        if outcome is AccessOutcome.L2_HIT:
            stall += self.params.l2_hit_stall_cycles
        if outcome is AccessOutcome.MISS:
            if victim != EMPTY:
                self.truth.record_eviction(cpu, DATA, victim, domain, app_epoch)
                if self._owner.get(victim) == cpu:
                    # Evicting an owned line writes it back: nobody owns
                    # it any more. (Without this, a later write to the
                    # victim by this CPU would fill the cache with no
                    # bus transaction — a fill the monitor cannot see.)
                    del self._owner[victim]
            self.truth.classify_and_record(
                time_cycles, cpu, DATA, block, domain, app_epoch
            )
        transacted = False
        icache_before = ()
        if self._owner.get(block, SHARED) != cpu:
            if self.checker is not None:
                icache_before = self.checker.snapshot_icaches(block)
            # Gain ownership: one bus transaction invalidating other copies.
            for other, o_dl1p, o_dl2p in self._snoop[cpu]:
                if (
                    (block in o_dl2p or block in o_dl1p)
                    and other.invalidate_data(block)
                ):
                    self.truth.record_invalidation(other.cpu, DATA, block)
            self._owner[block] = cpu
            self.bus_writes += 1
            self.bus.transaction(
                time_cycles, cpu, block * self.block_bytes, BusOp.WRITE
            )
            stall += self.params.bus_stall_cycles
            transacted = True
        if self.checker is not None and (
            transacted or outcome is AccessOutcome.MISS
        ):
            self.checker.after_data_write(
                time_cycles, cpu, block, outcome is AccessOutcome.MISS,
                transacted, icache_before,
            )
        return stall

    # ------------------------------------------------------------------
    # Atomic-tier batched sweeps
    # ------------------------------------------------------------------
    # Block sweeps (bcopy, bclear, structure touches) dominate the
    # fast-forward's wall clock; these loops evolve exactly the same
    # state and charge exactly the same latency as issuing the per-block
    # dread/dwrite/ifetch sequence through the atomic paths above, with
    # the per-reference call overhead amortized. They reach into Cache
    # and GroundTruth internals deliberately — this is the one sanctioned
    # performance seam, kept adjacent to the methods it mirrors.

    def atomic_sweep(
        self,
        cpu: int,
        dst_block: int,
        nblocks: int,
        loop_block: int,
        refetch_every: int,
        domain: RefDomain,
        app_epoch: int,
        src_block: Optional[int] = None,
    ) -> int:
        """bcopy/bclear inner loop; returns total stall cycles.

        Writes ``nblocks`` blocks from ``dst_block``, reading the
        corresponding source block first when ``src_block`` is given,
        with the loop-body refetch folded in (the loop block is fetched
        by the preceding ``ifetch_range``, so at most the first refetch
        can miss; data sweeps cannot evict I-cache lines).
        """
        hier = self.hierarchies[cpu]
        dl2 = hier.dl2
        dm = self._dl2_dm
        dl2_access = dl2.fill if dm else dl2.access
        present = dl2._present
        truth = self.truth.cpu_truth(cpu, DATA)
        ever_add = truth.ever_cached.add
        evicted = truth.evicted_by
        evicted_pop = evicted.pop
        inval_discard = truth.invalidated.discard
        owner = self._owner
        owner_get = owner.get
        record_inval = self.truth.record_invalidation
        others = self._snoop[cpu]
        bus = self.params.bus_stall_cycles
        ev = (domain, app_epoch)
        stall = 0
        n_if = (nblocks + refetch_every - 1) // refetch_every
        for i in range(nblocks):
            if src_block is not None:
                b = src_block + i
                if not (dm and b in present):
                    victim = dl2_access(b)
                    if victim is not None:
                        if victim != EMPTY:
                            evicted[victim] = ev
                            inval_discard(victim)
                            if owner_get(victim) == cpu:
                                del owner[victim]
                        ever_add(b)
                        evicted_pop(b, None)
                        inval_discard(b)
                        own = owner_get(b)
                        if own is not None and own != cpu:
                            del owner[b]
                        stall += bus
            b = dst_block + i
            if not (dm and b in present):
                victim = dl2_access(b)
                if victim is not None:
                    if victim != EMPTY:
                        evicted[victim] = ev
                        inval_discard(victim)
                        if owner_get(victim) == cpu:
                            del owner[victim]
                    ever_add(b)
                    evicted_pop(b, None)
                    inval_discard(b)
            if owner_get(b) != cpu:
                for other, o_dl1p, o_dl2p in others:
                    if (b in o_dl2p or b in o_dl1p) and other.invalidate_data(b):
                        record_inval(other.cpu, DATA, b)
                owner[b] = cpu
                stall += bus
        if n_if > 0:
            stall += self.ifetch(0, cpu, loop_block, domain, app_epoch)
            self.atomic_refs += n_if - 1
        reads = nblocks if src_block is not None else 0
        self.atomic_refs += nblocks + reads
        return stall

    def atomic_dtouch(
        self,
        cpu: int,
        first_block: int,
        nblocks: int,
        write: bool,
        domain: RefDomain,
        app_epoch: int,
    ) -> int:
        """``dtouch_range``'s loop in one call; returns stall cycles."""
        hier = self.hierarchies[cpu]
        dl2 = hier.dl2
        dm = self._dl2_dm
        dl2_access = dl2.fill if dm else dl2.access
        present = dl2._present
        truth = self.truth.cpu_truth(cpu, DATA)
        ever_add = truth.ever_cached.add
        evicted = truth.evicted_by
        evicted_pop = evicted.pop
        inval_discard = truth.invalidated.discard
        owner = self._owner
        owner_get = owner.get
        record_inval = self.truth.record_invalidation
        others = self._snoop[cpu]
        bus = self.params.bus_stall_cycles
        ev = (domain, app_epoch)
        stall = 0
        for b in range(first_block, first_block + nblocks):
            if not (dm and b in present):
                victim = dl2_access(b)
                if victim is not None:
                    if victim != EMPTY:
                        evicted[victim] = ev
                        inval_discard(victim)
                        if owner_get(victim) == cpu:
                            del owner[victim]
                    ever_add(b)
                    evicted_pop(b, None)
                    inval_discard(b)
                    if not write:
                        own = owner_get(b)
                        if own is not None and own != cpu:
                            del owner[b]
                        stall += bus
            if write and owner_get(b) != cpu:
                for other, o_dl1p, o_dl2p in others:
                    if (b in o_dl2p or b in o_dl1p) and other.invalidate_data(b):
                        record_inval(other.cpu, DATA, b)
                owner[b] = cpu
                stall += bus
        self.atomic_refs += nblocks
        return stall

    def atomic_ifetch_range(
        self, cpu: int, first_block: int, nblocks: int,
        domain: RefDomain, app_epoch: int,
    ) -> int:
        """``ifetch_range``'s loop in one call; returns stall cycles."""
        icache = self.hierarchies[cpu].icache
        dm = self._icache_dm
        icache_access = icache.fill if dm else icache.access
        present = icache._present
        truth = self.truth.cpu_truth(cpu, INSTR)
        ever_add = truth.ever_cached.add
        evicted = truth.evicted_by
        evicted_pop = evicted.pop
        inval_discard = truth.invalidated.discard
        ev = (domain, app_epoch)
        bus = self.params.bus_stall_cycles
        stall = 0
        for b in range(first_block, first_block + nblocks):
            if dm and b in present:
                continue
            victim = icache_access(b)
            if victim is None:
                continue
            if victim != EMPTY:
                evicted[victim] = ev
                inval_discard(victim)
            ever_add(b)
            evicted_pop(b, None)
            inval_discard(b)
            stall += bus
        self.atomic_refs += nblocks
        return stall

    # ------------------------------------------------------------------
    # Uncached accesses (escape references)
    # ------------------------------------------------------------------
    def uncached_read(
        self, time_cycles: int, cpu: int, addr: int, domain: RefDomain = RefDomain.OS
    ) -> int:
        """Cache-bypassing byte read; always one bus transaction.

        The paper's instrumentation transfers information to the trace
        through these (Section 2.2); they cost "as cheaply ... as one or
        more cache misses".
        """
        if self.atomic:
            self.atomic_refs += 1
            return self.params.bus_stall_cycles
        self.truth.record_uncached(domain)
        self.bus_uncached += 1
        self.bus.transaction(time_cycles, cpu, addr, BusOp.UNCACHED_READ)
        return self.params.bus_stall_cycles

    # ------------------------------------------------------------------
    # Instruction-cache invalidation (page reallocation)
    # ------------------------------------------------------------------
    def flush_icache_range(self, base_addr: int, size: int) -> int:
        """Invalidate an address range from every CPU's I-cache.

        Called by the kernel when a physical page that contained code is
        reallocated. Returns the number of lines invalidated across all
        CPUs (the seeds of future *Inval* misses).
        """
        first_block = base_addr // self.block_bytes
        num_blocks = -(-size // self.block_bytes)
        flushed = 0
        for hierarchy in self.hierarchies:
            for block in hierarchy.invalidate_instr_range(first_block, num_blocks):
                self.truth.record_invalidation(hierarchy.cpu, INSTR, block)
                flushed += 1
        if self.checker is not None:
            self.checker.after_icache_flush(first_block, num_blocks)
        return flushed

    def flush_all_icaches(self) -> int:
        """Invalidate every CPU's entire I-cache.

        The R3000 has no selective I-cache coherence; reallocating a
        frame that held code forces a full flush, whose re-fetches become
        *Inval* misses (Table 2, Figure 6).
        """
        flushed = 0
        for hierarchy in self.hierarchies:
            for block in hierarchy.icache.invalidate_all():
                self.truth.record_invalidation(hierarchy.cpu, INSTR, block)
                flushed += 1
        if self.checker is not None:
            self.checker.after_full_icache_flush()
        return flushed

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def total_bus_transactions(self) -> int:
        return self.bus_reads + self.bus_writes + self.bus_uncached
