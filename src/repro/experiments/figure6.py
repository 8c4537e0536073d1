"""Figure 6: effect of I-cache size and associativity on OS I-misses.

Replays each workload's I-miss stream against direct-mapped and two-way
caches from 64 KB to 1 MB, reporting the OS miss rate relative to the
base machine and the Inval floor for the direct-mapped series.
"""

from __future__ import annotations

from typing import Dict, List

from repro.analysis.sweeps import SweepPoint, simulate_icache_sweep
from repro.experiments import paperdata
from repro.experiments._base import Exhibit, ExperimentContext

EXHIBIT_ID = "figure6"
TITLE = "OS I-miss rate vs I-cache size/associativity (relative to 64KB DM)"

_COLUMNS = ("workload", "size_kb", "assoc", "relative_missrate", "inval_floor")

SIZES = (64 * 1024, 128 * 1024, 256 * 1024, 512 * 1024, 1024 * 1024)


def sweep_workload(ctx: ExperimentContext, workload: str) -> List[SweepPoint]:
    analysis = ctx.report(workload).analysis
    return simulate_icache_sweep(
        analysis.imiss_stream, analysis.num_cpus, sizes=SIZES
    )


def relative_series(points: List[SweepPoint]) -> Dict:
    base = next(
        p for p in points if p.size_bytes == 64 * 1024 and p.associativity == 1
    )
    series = {}
    for p in points:
        rel = p.os_misses / base.os_misses if base.os_misses else 0.0
        inval = p.os_inval_misses / base.os_misses if base.os_misses else 0.0
        series[(p.size_bytes, p.associativity)] = (rel, inval)
    return series


def build(ctx: ExperimentContext) -> Exhibit:
    exhibit = Exhibit(EXHIBIT_ID, TITLE, _COLUMNS)
    for workload in paperdata.WORKLOADS:
        points = sweep_workload(ctx, workload)
        series = relative_series(points)
        for (size, assoc), (rel, inval) in sorted(series.items()):
            exhibit.add_row(
                workload, size // 1024, assoc, rel,
                inval if assoc == 1 else "-",
            )
    exhibit.note(
        "paper: two-way associativity gives a noticeable reduction; "
        "Pmake/Multpgm saturate near 256 KB against the Inval floor, "
        "Oracle keeps falling to 1 MB"
    )
    return exhibit


def chart(ctx: ExperimentContext) -> str:
    """Figure 6 as per-workload relative miss-rate series (reads the
    built exhibit)."""
    from repro.analysis.charts import series_chart

    rows = ctx.exhibit(EXHIBIT_ID).rows
    blocks = []
    for workload in paperdata.WORKLOADS:
        title = f"{workload}: OS I-miss rate relative to 64KB DM"
        for assoc, name in ((1, "direct-mapped"), (2, "two-way")):
            series = {
                f"{row[1]}KB": row[3] for row in rows
                if row[0] == workload and row[2] == assoc
            }
            blocks.append(series_chart(
                list(series), {name: list(series.values())}, title=title
            ))
            title = ""
    return "\n".join(blocks)
