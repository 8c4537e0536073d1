"""Single-pass trace analysis: the paper's postprocessing program.

Consumes nothing but what the hardware monitor recorded — bus
transactions with (60 ns tick, CPU id, physical address, read/write/
uncached kind) — and rebuilds everything the paper reports:

- escape decoding (Section 2.2): OS entries/exits, running pids, TLB
  changes (physical→virtual page typing), I-cache flushes, block
  operations, interrupts;
- cache-content reconstruction (the caches are direct mapped and
  physically addressed, so the fill sequence determines the contents);
- Table 2 miss classification, including Dispossame;
- attribution of data misses to kernel structures (Figure 8, Tables 4/6)
  and instruction misses to routines (Figure 5);
- functional attribution to the Table 8 operation vocabulary (Figures
  2/9);
- OS-invocation segmentation (Figures 1/3) and UTLB fault accounting;
- user/system/idle time accounting from the escape timestamps (Table 1).

Statistics are accumulated only inside the measurement window
(``stats_from_tick``); everything before it still drives the
reconstruction, mirroring the paper's tracing of a long-running system.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.common.params import CYCLES_PER_TICK
from repro.common.types import MissClass, RefDomain
from repro.kernel.blockops import KIND_NAMES
from repro.kernel.kernel import CODE_OP
from repro.kernel.layout import KernelLayout
from repro.kernel.structures import KernelDataMap, StructName
from repro.kernel.tlbfault import UTLB_OP_CODE
from repro.common.types import InterruptKind
from repro.memsys.memory import KTEXT_BASE, KTEXT_SIZE
from repro.monitor.escapes import (
    EventType,
    PAYLOAD_COUNT,
    decode_payload,
    signal_event,
)
from repro.monitor.hwmonitor import OP_UNCACHED, OP_WRITE, Trace
from repro.analysis.reconstruct import EMPTY, CpuReconstruction

_KTEXT_END = KTEXT_BASE + KTEXT_SIZE
_INSTR = "I"
_DATA = "D"

_INTR_KINDS = list(InterruptKind)

# Figure 5's X-axis granularity: address buckets of 1 KB.
FIG5_BUCKET_BYTES = 1024


@dataclass
class OsInvocation:
    """One OS invocation (Figure 1/3 unit)."""

    op: str
    start_tick: int
    duration_ticks: int
    imisses: int
    dmisses: int


@dataclass
class AppInterval:
    """One application invocation between OS invocations (Figure 1)."""

    duration_ticks: int
    imisses: int
    dmisses: int
    utlb_faults: int


@dataclass
class TraceAnalysis:
    """Everything extracted from one trace."""

    workload: str
    num_cpus: int
    measured_ticks: int = 0
    # Time split (ticks) per mode, summed over CPUs.
    user_ticks: int = 0
    sys_ticks: int = 0
    idle_ticks: int = 0
    # Misses: (domain, 'I'/'D', MissClass) -> count.
    miss_counts: Counter = field(default_factory=Counter)
    dispossame: Counter = field(default_factory=Counter)  # (domain, kind)
    upgrades: int = 0          # bus ownership upgrades (stall, not misses)
    escape_reads: int = 0      # instrumentation bus traffic
    # Raw monitor transaction counts over the FULL trace (warmup
    # included, unlike the windowed statistics above). These are the
    # trace-level side of the checker cross-validation: every recorded
    # bus transaction, bucketed the way the memory system issues them.
    monitor_instr_reads: int = 0
    monitor_data_reads: int = 0
    monitor_writes: int = 0
    monitor_uncached: int = 0
    # Attribution.
    sharing_by_struct: Counter = field(default_factory=Counter)
    dmiss_by_struct_class: Counter = field(default_factory=Counter)
    imiss_dispos_by_routine: Counter = field(default_factory=Counter)
    imiss_dispos_addr_hist: Counter = field(default_factory=Counter)
    # All OS I-misses per routine (any class): the heat profile the
    # code-layout optimizer consumes.
    imiss_by_routine: Counter = field(default_factory=Counter)
    # Functional attribution: (op_label, kind) -> misses; op_label counts.
    op_misses: Counter = field(default_factory=Counter)
    op_counts: Counter = field(default_factory=Counter)
    # Block operations.
    blockop_misses: Counter = field(default_factory=Counter)   # kind -> D misses
    blockop_log: List[Tuple[str, int]] = field(default_factory=list)
    # Migration misses by operation (Table 5): Sharing misses on the
    # per-process structures, bucketed by the operation that touches
    # them — Eframe <-> low-level exception handling, PCB/Run Queue <->
    # run-queue management, user-structure body inside an I/O system
    # call <-> read/write recognition & setup.
    migration_op_misses: Counter = field(default_factory=Counter)
    # Invocation structure.
    invocations: List[OsInvocation] = field(default_factory=list)
    app_intervals: List[AppInterval] = field(default_factory=list)
    utlb_count: int = 0
    utlb_ticks: int = 0
    utlb_misses: int = 0
    # The OS-induced application misses (Figure 10).
    ap_dispos: Counter = field(default_factory=Counter)  # kind -> count
    # I-miss stream for the Figure 6 re-simulation:
    # (cpu, block, domain_is_os, in_window); cpu == -1 marks a full flush.
    imiss_stream: List[Tuple[int, int, bool, bool]] = field(default_factory=list)

    # ------------------------------------------------------------------
    # Convenience queries
    # ------------------------------------------------------------------
    def total_misses(self, domain: Optional[RefDomain] = None) -> int:
        return sum(
            count for (dom, _k, _c), count in self.miss_counts.items()
            if domain is None or dom is domain
        )

    def class_counts(
        self, domain: Optional[RefDomain] = None, kind: Optional[str] = None
    ) -> Counter:
        out: Counter = Counter()
        for (dom, knd, cls), count in self.miss_counts.items():
            if domain is not None and dom is not domain:
                continue
            if kind is not None and knd != kind:
                continue
            out[cls] += count
        return out

    def non_idle_ticks(self) -> int:
        return self.user_ticks + self.sys_ticks


class _CpuState:
    """Decoder state for one CPU."""

    __slots__ = (
        "os_depth", "idle", "pid", "op_stack", "blockop", "pending",
        "last_tick", "state", "inv_start", "inv_imiss", "inv_dmiss",
        "inv_is_utlb", "app_start", "app_imiss", "app_dmiss", "app_utlb",
        "intr_depth",
    )

    def __init__(self) -> None:
        self.os_depth = 0
        self.idle = False
        self.pid = 0
        self.op_stack: List[str] = []
        self.blockop: Optional[str] = None
        self.pending: Optional[Tuple[EventType, int, List[int]]] = None
        self.last_tick = 0
        self.state = "user"
        self.inv_start = -1
        self.inv_imiss = 0
        self.inv_dmiss = 0
        self.inv_is_utlb = False
        self.app_start = -1
        self.app_imiss = 0
        self.app_dmiss = 0
        self.app_utlb = 0
        self.intr_depth = 0

    def mode(self) -> str:
        if self.idle:
            return "idle"
        if self.os_depth > 0:
            return "os"
        return "user"


def _op_label(code: int) -> str:
    if code == UTLB_OP_CODE:
        return "utlb"
    return CODE_OP[code].value


class TraceAnalyzer:
    """The postprocessor."""

    def __init__(
        self,
        workload: str,
        num_cpus: int,
        icache_bytes: int,
        dcache_bytes: int,
        layout: Optional[KernelLayout] = None,
        datamap: Optional[KernelDataMap] = None,
        block_bytes: int = 16,
        keep_imiss_stream: bool = True,
    ):
        self.layout = layout if layout is not None else KernelLayout()
        self.datamap = datamap if datamap is not None else KernelDataMap()
        self.block_bytes = block_bytes
        self.keep_imiss_stream = keep_imiss_stream
        self.result = TraceAnalysis(workload, num_cpus)
        self._cpus = [_CpuState() for _ in range(num_cpus)]
        self._recons = [
            CpuReconstruction(icache_bytes, dcache_bytes, block_bytes)
            for _ in range(num_cpus)
        ]
        self._frame_is_text: Dict[int, bool] = {}
        self._window_start = 0

    # ------------------------------------------------------------------
    def analyze(self, trace: Trace, stats_from_tick: int = 0) -> TraceAnalysis:
        self._window_start = stats_from_tick
        end_tick = 0
        for segment in trace.segments:
            self.feed(segment.entries)
            end_tick = max(end_tick, segment.end_cycles // CYCLES_PER_TICK)
        # Flush each CPU's trailing time and close the window.
        for cpu_state in self._cpus:
            self._account_time(cpu_state, end_tick)
        self.result.measured_ticks = max(0, end_tick - self._window_start)
        return self.result

    def feed(self, entries) -> None:
        """Process one segment's trace entries (a method of its own so
        per-layer profiling can time the decode loop apart from set-up).

        Escapes go through :meth:`_escape`. Every cacheable entry — a
        miss or an ownership upgrade — is decoded inline, in this order:

        1. the instruction test (kernel text, or a frame the TLB updates
           marked as text);
        2. the domain (OS while in the OS or idle, else application);
        3. for a write, invalidating the other CPUs' reconstructed data
           copies, in ascending CPU id;
        4. the upgrade test (a write to a block this CPU's data cache
           still holds is an upgrade, not a miss);
        5. the direct-mapped fill and its Table 2 classification — the
           same steps as :meth:`ReconstructedCache.classify_fill`, which
           stays the reference the tests hold this loop to;
        6. the I-miss stream;
        7. the per-invocation counters;
        8. the statistics inside the measurement window.

        Keeping this order keeps every Counter's insertion order, so the
        pickled :class:`TraceAnalysis` does not depend on the loop's
        shape.
        """
        result = self.result
        cpus = self._cpus
        recons = self._recons
        escape = self._escape
        window_start = self._window_start
        block_bytes = self.block_bytes
        frame_is_text = self._frame_is_text
        keep_imiss = self.keep_imiss_stream
        imiss_append = result.imiss_stream.append
        miss_counts = result.miss_counts
        dispossame_counts = result.dispossame
        op_misses = result.op_misses
        imiss_by_routine = result.imiss_by_routine
        imiss_dispos_by_routine = result.imiss_dispos_by_routine
        imiss_dispos_addr_hist = result.imiss_dispos_addr_hist
        dmiss_by_struct_class = result.dmiss_by_struct_class
        sharing_by_struct = result.sharing_by_struct
        migration_op_misses = result.migration_op_misses
        blockop_misses = result.blockop_misses
        ap_dispos = result.ap_dispos
        routine_at = self.layout.routine_at
        structure_at = self.datamap.structure_at
        OS, APP = RefDomain.OS, RefDomain.APP
        COLD, DISPOS, DISPAP = MissClass.COLD, MissClass.DISPOS, MissClass.DISPAP
        SHARING, INVAL = MissClass.SHARING, MissClass.INVAL
        # Each reconstructed cache's containers, bound once: they are
        # only ever mutated in place. Every CPU's data cache has the
        # same geometry, so one set index serves all of them.
        icaches = [_fill_state(recon.icache) for recon in recons]
        dcaches = [_fill_state(recon.dcache) for recon in recons]
        dsets = recons[0].dcache.num_sets
        # What a write by each CPU invalidates: the other CPUs' data
        # caches, in ascending CPU id.
        others = [
            [(lines, evicted_by, invalidated)
             for other, (lines, _n, _e, evicted_by, invalidated) in enumerate(dcaches)
             if other != cpu]
            for cpu in range(len(dcaches))
        ]
        writes = instr_reads = data_reads = upgrades = 0
        for entry in entries:
            tick, cpu, addr, op = entry
            if op == OP_UNCACHED:
                escape(entry)
                continue
            cpu_state = cpus[cpu]
            block = addr // block_bytes
            is_instr = addr < _KTEXT_END or frame_is_text.get(addr >> 12, False)
            if cpu_state.os_depth > 0 or cpu_state.idle:
                domain, is_os = OS, True
            else:
                domain, is_os = APP, False
            if op == OP_WRITE:
                writes += 1
                # Write-invalidate coherence: every other copy dies.
                index = block % dsets
                for lines, evicted_by, invalidated in others[cpu]:
                    if lines[index] == block:
                        lines[index] = EMPTY
                        invalidated.add(block)
                        evicted_by.pop(block, None)
                if dcaches[cpu][0][index] == block:
                    # Ownership upgrade, not a miss.
                    if tick >= window_start:
                        upgrades += 1
                    continue
            elif is_instr:
                instr_reads += 1
            else:
                data_reads += 1
            # The fill, classified first (Table 2).
            lines, nsets, ever_cached, evicted_by, invalidated = (
                icaches if is_instr else dcaches
            )[cpu]
            app_epoch = recons[cpu].app_epoch
            dispossame = False
            if block in invalidated:
                miss_class = INVAL if is_instr else SHARING
            elif block not in ever_cached:
                miss_class = COLD
            else:
                displaced = evicted_by.get(block)
                if displaced is None:
                    # Cached, never displaced, yet missing: the trace
                    # did not show the loss (cannot happen with a
                    # complete trace); treat as cold.
                    miss_class = COLD
                elif displaced[0] is OS:
                    miss_class = DISPOS
                    dispossame = displaced[1] == app_epoch
                else:
                    miss_class = DISPAP
            index = block % nsets
            victim = lines[index]
            if victim != EMPTY and victim != block:
                evicted_by[victim] = (domain, app_epoch)
                invalidated.discard(victim)
            lines[index] = block
            ever_cached.add(block)
            evicted_by.pop(block, None)
            invalidated.discard(block)
            in_window = tick >= window_start
            # The I-miss stream and the per-invocation counters
            # (window filtering happens when the invocation closes).
            if is_instr:
                kind = _INSTR
                if keep_imiss:
                    imiss_append((cpu, block, is_os, in_window))
                if is_os:
                    cpu_state.inv_imiss += 1
                else:
                    cpu_state.app_imiss += 1
            else:
                kind = _DATA
                if is_os:
                    cpu_state.inv_dmiss += 1
                else:
                    cpu_state.app_dmiss += 1
            if not in_window:
                continue
            miss_counts[(domain, kind, miss_class)] += 1
            if dispossame:
                dispossame_counts[(domain, kind)] += 1
            if not is_os:
                if miss_class is DISPOS:
                    ap_dispos[kind] += 1
                continue
            # Functional attribution (innermost op label), then
            # routine / structure attribution.
            op_stack = cpu_state.op_stack
            if op_stack:
                op_misses[(op_stack[-1], kind)] += 1
            if is_instr:
                routine_name = routine_at(addr)
                if routine_name is not None:
                    imiss_by_routine[routine_name] += 1
                if miss_class is DISPOS:
                    if routine_name is not None:
                        imiss_dispos_by_routine[routine_name] += 1
                    imiss_dispos_addr_hist[addr // FIG5_BUCKET_BYTES] += 1
                continue
            struct = structure_at(addr)
            dmiss_by_struct_class[(struct, miss_class)] += 1
            if miss_class is SHARING:
                sharing_by_struct[struct] += 1
                if struct is StructName.EFRAME:
                    migration_op_misses["low_level_exception"] += 1
                elif struct in (StructName.PCB, StructName.RUN_QUEUE):
                    migration_op_misses["run_queue_mgmt"] += 1
                elif (
                    struct is StructName.USTRUCT_REST
                    and op_stack
                    and op_stack[-1] == "io_syscall"
                ):
                    migration_op_misses["rw_setup"] += 1
            if cpu_state.blockop is not None:
                blockop_misses[cpu_state.blockop] += 1
        result.monitor_writes += writes
        result.monitor_instr_reads += instr_reads
        result.monitor_data_reads += data_reads
        result.upgrades += upgrades

    def seed_seam(self, seam_state: Optional[list]) -> None:
        """Adopt a mixed-fidelity run's warm-state dump
        (``TracedRun.seam_state``) before feeding its trace.

        The trace of a mixed run begins at the atomic→detailed seam;
        without the dump the reconstruction starts from empty caches and
        blank classification history, so the first post-seam miss on
        every block the atomic tier warmed would be classed COLD. The
        dump carries exactly what :class:`ReconstructedCache` tracks —
        resident blocks, ``ever_cached``, ``evicted_by``, ``invalidated``
        — plus each CPU's application epoch, straight from the
        simulator's own bookkeeping. Call on a freshly built analyzer
        only (the structures are merged with ``update``, which assumes
        they start empty).
        """
        if not seam_state:
            return
        for recon, entry in zip(self._recons, seam_state):
            recon.app_epoch = entry["app_epoch"]
            for cache, key in ((recon.icache, "icache"), (recon.dcache, "dcache")):
                dump = entry[key]
                for block in dump["resident"]:
                    cache.lines[block % cache.num_sets] = block
                cache.ever_cached.update(dump["ever_cached"])
                cache.evicted_by.update(dump["evicted_by"])
                cache.invalidated.update(dump["invalidated"])

    # ------------------------------------------------------------------
    # Time accounting
    # ------------------------------------------------------------------
    def _account_time(self, cpu_state: _CpuState, now_tick: int) -> None:
        start = max(cpu_state.last_tick, self._window_start)
        span = now_tick - start
        if span > 0:
            if cpu_state.state == "user":
                self.result.user_ticks += span
            elif cpu_state.state == "os":
                self.result.sys_ticks += span
            else:
                self.result.idle_ticks += span
        cpu_state.last_tick = max(cpu_state.last_tick, now_tick)
        cpu_state.state = cpu_state.mode()

    # ------------------------------------------------------------------
    # Escape events
    # ------------------------------------------------------------------
    def _escape(self, entry) -> None:
        tick, cpu, addr, _op = entry
        self.result.monitor_uncached += 1
        if tick >= self._window_start:
            self.result.escape_reads += 1
        cpu_state = self._cpus[cpu]
        pending = cpu_state.pending
        if pending is None:
            event = signal_event(addr)
            if event is None:
                raise ValueError(
                    f"stray uncached read {addr:#x} by CPU {cpu}: not an escape signal"
                )
            if PAYLOAD_COUNT[event] == 0:
                self._event(tick, cpu, event, ())
            else:
                cpu_state.pending = (event, tick, [])
            return
        event, start_tick, payloads = pending
        payloads.append(decode_payload(addr))
        if len(payloads) == PAYLOAD_COUNT[event]:
            cpu_state.pending = None
            self._event(start_tick, cpu, event, tuple(payloads))

    def _event(self, tick: int, cpu: int, event: EventType, payloads) -> None:
        cpu_state = self._cpus[cpu]
        result = self.result
        in_window = tick >= self._window_start
        if event is EventType.OS_ENTER:
            self._account_time(cpu_state, tick)
            label = _op_label(payloads[0])
            cpu_state.op_stack.append(label)
            cpu_state.os_depth += 1
            if in_window:
                result.op_counts[label] += 1
            if cpu_state.os_depth == 1:
                # Close the application interval (UTLB spikes don't).
                if label == "utlb":
                    cpu_state.app_utlb += 1
                    cpu_state.inv_is_utlb = True
                else:
                    self._close_app_interval(cpu_state, tick)
                    cpu_state.inv_is_utlb = False
                cpu_state.inv_start = tick
                cpu_state.inv_imiss = 0
                cpu_state.inv_dmiss = 0
            cpu_state.state = cpu_state.mode()
        elif event is EventType.OS_EXIT:
            self._account_time(cpu_state, tick)
            label = cpu_state.op_stack.pop() if cpu_state.op_stack else "?"
            cpu_state.os_depth = max(0, cpu_state.os_depth - 1)
            if cpu_state.os_depth == 0:
                started_in_window = cpu_state.inv_start >= self._window_start
                if cpu_state.inv_is_utlb:
                    if started_in_window:
                        result.utlb_count += 1
                        result.utlb_ticks += tick - cpu_state.inv_start
                        result.utlb_misses += (
                            cpu_state.inv_imiss + cpu_state.inv_dmiss
                        )
                else:
                    if started_in_window:
                        result.invocations.append(
                            OsInvocation(
                                label,
                                cpu_state.inv_start,
                                tick - cpu_state.inv_start,
                                cpu_state.inv_imiss,
                                cpu_state.inv_dmiss,
                            )
                        )
                    # A fresh application interval begins.
                    cpu_state.app_start = tick
                    cpu_state.app_imiss = 0
                    cpu_state.app_dmiss = 0
                    cpu_state.app_utlb = 0
                if cpu_state.pid:
                    self._recons[cpu].app_epoch += 1
            cpu_state.state = cpu_state.mode()
        elif event is EventType.IDLE_ENTER:
            self._account_time(cpu_state, tick)
            cpu_state.idle = True
            cpu_state.state = "idle"
        elif event is EventType.IDLE_EXIT:
            self._account_time(cpu_state, tick)
            cpu_state.idle = False
            cpu_state.state = cpu_state.mode()
        elif event is EventType.PID_SET:
            cpu_state.pid = payloads[0]
        elif event is EventType.TLB_UPDATE:
            _index, _vpage, frame, pid_text = payloads
            self._frame_is_text[frame] = bool(pid_text & 1)
        elif event is EventType.ICACHE_FLUSH:
            for recon in self._recons:
                recon.icache.invalidate_all()
            if self.keep_imiss_stream:
                result.imiss_stream.append((-1, 0, False, False))
        elif event is EventType.BLOCKOP_BEGIN:
            kind_code, _first, count = payloads
            kind = KIND_NAMES.get(kind_code, "?")
            cpu_state.blockop = kind
            if in_window:
                result.blockop_log.append((kind, count * self.block_bytes))
        elif event is EventType.BLOCKOP_END:
            cpu_state.blockop = None
        elif event is EventType.INTR_ENTER:
            kind = _INTR_KINDS[payloads[0]]
            cpu_state.intr_depth += 1
            if in_window:
                result.op_counts[f"intr_{kind.value}"] += 1
        elif event is EventType.INTR_EXIT:
            cpu_state.intr_depth = max(0, cpu_state.intr_depth - 1)
        # TRACE_START needs no action.

    def _close_app_interval(self, cpu_state: _CpuState, tick: int) -> None:
        if cpu_state.app_start >= self._window_start and not cpu_state.idle:
            self.result.app_intervals.append(
                AppInterval(
                    tick - cpu_state.app_start,
                    cpu_state.app_imiss,
                    cpu_state.app_dmiss,
                    cpu_state.app_utlb,
                )
            )
        cpu_state.app_start = -1


def _fill_state(cache):
    """A :class:`ReconstructedCache`'s containers, in the order the
    decode loop unpacks them."""
    return (
        cache.lines, cache.num_sets, cache.ever_cached, cache.evicted_by,
        cache.invalidated,
    )
