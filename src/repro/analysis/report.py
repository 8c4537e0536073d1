"""Derived metrics: Table 1-style rollups from a trace analysis.

The stall model is the paper's (Section 3.1): every bus access stalls
the issuing CPU for 35 cycles, and stall time is compared against
non-idle execution time.

For checked runs the report also carries the sanitizers' event
counters (``check_counters``) so the two independent accountings of
bus traffic — what the hardware monitor recorded versus what the
coherence checker was shown by the memory system — can be compared
line by line via :meth:`AnalysisReport.crosscheck`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.common.params import CYCLES_PER_TICK
from repro.common.types import MissClass, RefDomain
from repro.analysis.decode import TraceAnalysis, TraceAnalyzer
from repro.sim.runcache import young_gc_only

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim._session import TracedRun


@dataclass
class AnalysisReport:
    """Table 1 style summary of one traced run."""

    analysis: TraceAnalysis
    bus_stall_cycles: int = 35
    # Sanitizer event counters (CheckReport.counters) for checked runs;
    # None when the run was built without check=True.
    check_counters: Optional[Dict[str, int]] = field(default=None)

    # ------------------------------------------------------------------
    # Execution-time split (Table 1 columns 2-4)
    # ------------------------------------------------------------------
    @property
    def user_pct(self) -> float:
        return self._time_pct(self.analysis.user_ticks)

    @property
    def sys_pct(self) -> float:
        return self._time_pct(self.analysis.sys_ticks)

    @property
    def idle_pct(self) -> float:
        return self._time_pct(self.analysis.idle_ticks)

    def _time_pct(self, ticks: int) -> float:
        total = (
            self.analysis.user_ticks
            + self.analysis.sys_ticks
            + self.analysis.idle_ticks
        )
        return 100.0 * ticks / total if total else 0.0

    # ------------------------------------------------------------------
    # Miss shares (Table 1 column 5)
    # ------------------------------------------------------------------
    @property
    def os_miss_fraction_pct(self) -> float:
        total = self.analysis.total_misses()
        if not total:
            return 0.0
        return 100.0 * self.analysis.total_misses(RefDomain.OS) / total

    # ------------------------------------------------------------------
    # Stall fractions (Table 1 columns 6-8)
    # ------------------------------------------------------------------
    def _stall_pct(self, misses: int) -> float:
        non_idle_cycles = self.analysis.non_idle_ticks() * CYCLES_PER_TICK
        if not non_idle_cycles:
            return 0.0
        return 100.0 * misses * self.bus_stall_cycles / non_idle_cycles

    @property
    def total_stall_pct(self) -> float:
        """Application + OS miss stall / non-idle time."""
        return self._stall_pct(self.analysis.total_misses())

    @property
    def os_stall_pct(self) -> float:
        """OS miss stall / non-idle time."""
        return self._stall_pct(self.analysis.total_misses(RefDomain.OS))

    @property
    def os_plus_induced_stall_pct(self) -> float:
        """OS misses plus the application misses the OS induced
        (Ap_dispos) / non-idle time."""
        induced = sum(self.analysis.ap_dispos.values())
        return self._stall_pct(self.analysis.total_misses(RefDomain.OS) + induced)

    def stall_pct_for(self, misses: int) -> float:
        """Stall fraction for an arbitrary miss count (component rows)."""
        return self._stall_pct(misses)

    # ------------------------------------------------------------------
    # OS miss class shares normalized to 100 (Figures 4/7 convention)
    # ------------------------------------------------------------------
    def os_class_share_pct(self, kind: str, miss_class: MissClass) -> float:
        total = self.analysis.total_misses(RefDomain.OS)
        if not total:
            return 0.0
        count = self.analysis.miss_counts.get(
            (RefDomain.OS, kind, miss_class), 0
        )
        return 100.0 * count / total

    # ------------------------------------------------------------------
    # Trace-vs-checker cross-validation (checked runs only)
    # ------------------------------------------------------------------
    def crosscheck(self) -> Optional[Dict[str, Tuple[int, int, bool]]]:
        """Compare monitor-side and checker-side bus accounting.

        The hardware monitor and the coherence checker count the same
        bus transactions from opposite ends of the machine: the monitor
        records what appears on the bus, the checker is handed every
        miss/upgrade event by the memory system. For a checked run this
        returns ``{quantity: (monitor, checker, matched)}`` for the two
        quantities that must agree exactly:

        - ``data_reads`` — recorded DREAD transactions vs
          ``bus_reads`` (one ``after_data_read`` hook per dread fill);
        - ``write_transactions`` — recorded WRITE transactions vs
          ``bus_write_transactions`` (the ownership-gaining subset of
          write events; plain ``bus_writes`` also fires on the
          silent-fill check path and so over-counts by design).

        Returns ``None`` for unchecked runs. Instruction fetches are
        deliberately excluded: the monitor keeps recording IFETCH
        entries while a CPU spins in the idle loop during master buffer
        dumps, but those fetches are outside the checker's hook points.
        """
        if not self.check_counters:
            return None
        monitor = self.analysis
        pairs = {
            "data_reads": (
                monitor.monitor_data_reads,
                self.check_counters.get("bus_reads", 0),
            ),
            "write_transactions": (
                monitor.monitor_writes,
                self.check_counters.get("bus_write_transactions", 0),
            ),
        }
        return {
            name: (seen, checked, seen == checked)
            for name, (seen, checked) in pairs.items()
        }

    def crosscheck_lines(self) -> List[str]:
        """Human-readable rendering of :meth:`crosscheck` (may be [])."""
        comparison = self.crosscheck()
        if comparison is None:
            return []
        lines = []
        for name, (seen, checked, matched) in sorted(comparison.items()):
            verdict = "ok" if matched else "MISMATCH"
            lines.append(
                f"crosscheck {name}: monitor={seen} checker={checked} "
                f"[{verdict}]"
            )
        return lines

    def crosscheck_ok(self) -> bool:
        """True when unchecked or every compared quantity matches."""
        comparison = self.crosscheck()
        if comparison is None:
            return True
        return all(matched for _, _, matched in comparison.values())


def analyze_trace(
    run: "TracedRun",
    keep_imiss_stream: bool = True,
) -> AnalysisReport:
    """Run the full postprocessing pipeline on a traced run.

    Only young collections run meanwhile: the decode builds hundreds of
    thousands of objects and no cycle among them, so a full collection
    would walk them and every live engine and free nothing.
    """
    with young_gc_only():
        params = run.params
        analyzer = TraceAnalyzer(
            run.workload_name,
            params.num_cpus,
            icache_bytes=params.icache.size_bytes,
            dcache_bytes=params.dcache_l2.size_bytes,
            layout=run.kernel.layout,
            datamap=run.kernel.datamap,
            block_bytes=params.block_bytes,
            keep_imiss_stream=keep_imiss_stream,
        )
        # Mixed-fidelity runs: seed the reconstruction with the
        # simulator's warm-state dump from the atomic→detailed seam.
        analyzer.seed_seam(getattr(run, "seam_state", None))
        analysis = analyzer.analyze(
            run.trace, stats_from_tick=run.measure_from_cycles // CYCLES_PER_TICK
        )
        check_report = getattr(run, "check_report", None)
        counters = dict(check_report.counters) if check_report else None
        return AnalysisReport(
            analysis,
            bus_stall_cycles=params.bus_stall_cycles,
            check_counters=counters,
        )
