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
    """Figure 6 as per-workload relative miss-rate series."""
    from repro.analysis.charts import series_chart

    blocks = []
    for workload in paperdata.WORKLOADS:
        series = relative_series(sweep_workload(ctx, workload))
        dm = {
            f"{size // 1024}KB": series[(size, 1)][0]
            for size in SIZES if (size, 1) in series
        }
        two_way = {
            f"{size // 1024}KB": series[(size, 2)][0]
            for size in SIZES if (size, 2) in series
        }
        blocks.append(series_chart(
            list(dm),
            {"direct-mapped": list(dm.values())},
            title=f"{workload}: OS I-miss rate relative to 64KB DM",
        ))
        blocks.append(series_chart(
            list(two_way),
            {"two-way": list(two_way.values())},
        ))
    return "\n".join(blocks)
