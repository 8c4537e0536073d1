"""Shared derivations the exhibit modules build on."""

from __future__ import annotations

from typing import Dict, Tuple

from repro.common.types import MissClass, RefDomain
from repro.analysis.decode import TraceAnalysis
from repro.kernel.structures import StructName

# The per-process private-state structures whose Sharing misses the paper
# conservatively attributes to process migration (Section 4.2.2).
USTRUCT_PARTS = (StructName.PCB, StructName.EFRAME, StructName.USTRUCT_REST)


def os_misses(analysis: TraceAnalysis, kind: str) -> int:
    return sum(analysis.class_counts(RefDomain.OS, kind).values())


def migration_misses(analysis: TraceAnalysis) -> Dict[str, int]:
    """Sharing misses on Kernel Stack / User Structure / Process Table.

    "We conservatively assume that [migration] only causes the Sharing
    misses in the three data structures considered" (Table 4).
    """
    sharing = analysis.sharing_by_struct
    kstack = sharing.get(StructName.KERNEL_STACK, 0)
    ustruct = sum(sharing.get(part, 0) for part in USTRUCT_PARTS)
    proctable = sharing.get(StructName.PROC_TABLE, 0)
    return {
        "kernel_stack": kstack,
        "user_structure": ustruct,
        "process_table": proctable,
        "total": kstack + ustruct + proctable,
    }


def migration_shares_pct(analysis: TraceAnalysis) -> Dict[str, float]:
    """Table 4's percentages: migration misses / OS data misses."""
    d_total = os_misses(analysis, "D")
    counts = migration_misses(analysis)
    if not d_total:
        return {key: 0.0 for key in counts}
    return {key: 100.0 * value / d_total for key, value in counts.items()}


def blockop_shares_pct(analysis: TraceAnalysis) -> Dict[str, float]:
    """Table 6's percentages: block-op misses / OS data misses."""
    d_total = os_misses(analysis, "D")
    out = {}
    for kind in ("copy", "clear", "traverse"):
        count = analysis.blockop_misses.get(kind, 0)
        out[kind] = 100.0 * count / d_total if d_total else 0.0
    out["total"] = sum(out.values())
    return out


def blockop_miss_total(analysis: TraceAnalysis) -> int:
    return sum(analysis.blockop_misses.values())


def _class_shares_pct(analysis: TraceAnalysis, kind: str) -> Dict[MissClass, float]:
    total = analysis.total_misses(RefDomain.OS)
    if not total:
        return {}
    return {
        cls: 100.0 * count / total
        for cls, count in analysis.class_counts(RefDomain.OS, kind).items()
    }


def imiss_class_shares_pct(analysis: TraceAnalysis) -> Dict[MissClass, float]:
    """Figure 4(a): I-miss classes as % of ALL OS misses."""
    return _class_shares_pct(analysis, "I")


def dmiss_class_shares_pct(analysis: TraceAnalysis) -> Dict[MissClass, float]:
    """Figure 7(a): D-miss classes as % of ALL OS misses."""
    return _class_shares_pct(analysis, "D")


def invocation_interval_ms(analysis: TraceAnalysis) -> float:
    """Mean time between OS invocations (Figure 1), machine-wide per CPU.

    The paper's interval is per CPU: total traced CPU-time divided by the
    number of OS invocations, expressed in ms of 30 ns cycles.
    """
    if not analysis.invocations:
        return float("inf")
    cpu_ticks = analysis.measured_ticks * analysis.num_cpus
    cycles = cpu_ticks * 2
    return cycles / len(analysis.invocations) / (1e6 / 30.0)


def mean_invocation_misses(analysis: TraceAnalysis) -> Tuple[float, float]:
    """Average (I, D) misses per OS invocation (Figure 1)."""
    if not analysis.invocations:
        return 0.0, 0.0
    n = len(analysis.invocations)
    return (
        sum(inv.imisses for inv in analysis.invocations) / n,
        sum(inv.dmisses for inv in analysis.invocations) / n,
    )
