"""Figure 11: lock contention vs number of CPUs (Multpgm).

Runs Multpgm on machines with 1-8 CPUs and reports failed acquires per
millisecond for the most contended locks (spins excluded, idle time
included — exactly the figure's Y axis).
"""

from __future__ import annotations

from typing import Dict, List

from repro.analysis.lockstats import CONTENDED_LOCKS, contention_cells
from repro.experiments._base import Exhibit, ExperimentContext

EXHIBIT_ID = "figure11"
TITLE = "Failed lock acquires per ms vs number of CPUs (Multpgm)"

_COLUMNS = ("lock", "1cpu", "2cpu", "4cpu", "6cpu", "8cpu")

CPU_COUNTS = (1, 2, 4, 6, 8)


def contention_series(
    ctx: ExperimentContext, cpu_counts=CPU_COUNTS
) -> Dict[str, List[float]]:
    """failed acquires/ms per lock family, one cell per CPU count.

    Each point is the context's machine geometry at that CPU count (a
    geometry equal to a preset is that preset, as in ``figure-scaling``),
    at the context's engine settings, seed and sweep window.
    """
    horizon, warmup = ctx.settings.sweep_window()
    series: Dict[str, List[float]] = {lock: [] for lock in CONTENDED_LOCKS}
    for ncpus in cpu_counts:
        run = ctx.private_run(
            "multpgm", cpus=ncpus, horizon_ms=horizon, warmup_ms=warmup
        )
        cells = contention_cells(run.kernel, warmup + horizon)
        for lock, cell in zip(CONTENDED_LOCKS, cells):
            series[lock].append(cell)
    return series


def build(ctx: ExperimentContext) -> Exhibit:
    exhibit = Exhibit(EXHIBIT_ID, TITLE, _COLUMNS)
    for lock, cells in contention_series(ctx).items():
        exhibit.add_row(lock, *cells)
    exhibit.note(
        "paper: contention rises with CPU count and Runqlk rises fastest — "
        "'contention for Runqlk will be significant for machines with more "
        "CPUs'"
    )
    return exhibit


def chart(ctx: ExperimentContext) -> str:
    """Figure 11 as contention-vs-CPUs series (reuses the built exhibit)."""
    from repro.analysis.charts import series_chart
    from repro.experiments.registry import run_experiment

    exhibit = run_experiment(EXHIBIT_ID, ctx)
    series = {row[0]: [float(v) for v in row[1:]] for row in exhibit.rows}
    return series_chart(
        list(CPU_COUNTS), series,
        title="Failed acquires per ms vs number of CPUs (Multpgm)",
        unit="/ms",
    )
