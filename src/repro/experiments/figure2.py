"""Figure 2: frequency of the operations executed by the OS in Multpgm
(UTLB faults excluded)."""

from __future__ import annotations

from repro.experiments import paperdata
from repro.experiments._base import Exhibit, ExperimentContext

EXHIBIT_ID = "figure2"
TITLE = "Frequency of OS operations in Multpgm (no UTLB faults)"

_COLUMNS = ("operation", "paper_share%", "measured_share%")

# Aggregate the analyzer's fine op labels into the figure's buckets.
_BUCKETS = {
    "sginap": ("sginap_syscall",),
    "tlb_faults": ("expensive_tlb_fault", "cheap_tlb_fault"),
    "io_syscalls": ("io_syscall",),
    "other_syscalls": ("other_syscall",),
    "clock_interrupts": ("intr_clock",),
    "other_interrupts": (
        "intr_disk", "intr_terminal", "intr_inter_cpu", "intr_network",
    ),
}


def operation_shares(analysis) -> dict:
    """Share of each Figure 2 bucket among all OS operations."""
    counts = {}
    for bucket, labels in _BUCKETS.items():
        counts[bucket] = sum(analysis.op_counts.get(label, 0) for label in labels)
    # The bare 'interrupt' op_count double-counts the INTR_* buckets
    # (every interrupt invocation also logs its kind); use the kinds.
    total = sum(counts.values())
    if not total:
        return {bucket: 0.0 for bucket in counts}
    return {bucket: 100.0 * count / total for bucket, count in counts.items()}


def build(ctx: ExperimentContext) -> Exhibit:
    exhibit = Exhibit(EXHIBIT_ID, TITLE, _COLUMNS)
    shares = operation_shares(ctx.report("multpgm").analysis)
    paper_shares = {
        "sginap": paperdata.FIGURE2["sginap"],
        "tlb_faults": paperdata.FIGURE2["tlb_faults"],
        "io_syscalls": paperdata.FIGURE2["io_syscalls"],
        "clock_interrupts": paperdata.FIGURE2["clock_interrupts"],
    }
    for bucket, measured in sorted(shares.items(), key=lambda kv: -kv[1]):
        exhibit.add_row(bucket, paper_shares.get(bucket, "-"), measured)
    exhibit.note("paper: ~50% sginap, ~20% TLB faults, ~20% I/O, ~5% clock")
    return exhibit


def chart(ctx: ExperimentContext) -> str:
    """Figure 2 as an ASCII bar chart (reads the built exhibit)."""
    from repro.analysis.charts import bar_chart

    items = [(row[0], row[2]) for row in ctx.exhibit(EXHIBIT_ID).rows]
    return bar_chart(items, title="OS operation mix in Multpgm", unit="%")
