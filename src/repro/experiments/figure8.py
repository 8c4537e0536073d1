"""Figure 8: Sharing misses by contributing kernel data structure."""

from __future__ import annotations

from repro.experiments import paperdata
from repro.experiments._base import Exhibit, ExperimentContext
from repro.experiments.derive import USTRUCT_PARTS
from repro.kernel.structures import StructName

EXHIBIT_ID = "figure8"
TITLE = "OS Sharing misses by data structure"

_COLUMNS = ("workload", "structure", "share_of_sharing%")
# The row after each workload's structures.
_PRIVATE_TOTAL = "[private state total]"


def structure_shares(analysis) -> dict:
    total = sum(analysis.sharing_by_struct.values())
    if not total:
        return {}
    return {
        struct: 100.0 * count / total
        for struct, count in analysis.sharing_by_struct.items()
    }


def private_state_share(analysis) -> float:
    """Kernel Stack + User Structure + Process Table share (paper:
    together 40-65% of Sharing misses)."""
    shares = structure_shares(analysis)
    parts = (StructName.KERNEL_STACK, StructName.PROC_TABLE) + USTRUCT_PARTS
    return sum(shares.get(part, 0.0) for part in parts)


def build(ctx: ExperimentContext) -> Exhibit:
    exhibit = Exhibit(EXHIBIT_ID, TITLE, _COLUMNS)
    for workload in paperdata.WORKLOADS:
        analysis = ctx.report(workload).analysis
        shares = structure_shares(analysis)
        for struct, share in sorted(shares.items(), key=lambda kv: -kv[1]):
            if share >= 1.0:
                exhibit.add_row(workload, struct.value, share)
        exhibit.add_row(workload, _PRIVATE_TOTAL, private_state_share(analysis))
    low, high = paperdata.FIGURE8["private_state_share_range_pct"]
    exhibit.note(
        f"paper: per-process private state accounts for {low:.0f}-{high:.0f}% "
        "of Sharing misses — migration, not true sharing"
    )
    return exhibit


def chart(ctx: ExperimentContext) -> str:
    """Figure 8 as per-workload bar charts (reads the built exhibit)."""
    from repro.analysis.charts import bar_chart

    rows = ctx.exhibit(EXHIBIT_ID).rows
    blocks = []
    for workload in paperdata.WORKLOADS:
        items = [
            (row[1], row[2]) for row in rows
            if row[0] == workload and row[1] != _PRIVATE_TOTAL
        ]
        blocks.append(bar_chart(
            items, title=f"{workload}: Sharing misses by structure", unit="%"
        ))
    return "\n\n".join(blocks)
