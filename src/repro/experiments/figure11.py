"""Figure 11: lock contention vs number of CPUs (Multpgm).

Runs Multpgm on machines with 1-8 CPUs and reports failed acquires per
millisecond for the most contended locks (spins excluded, idle time
included — exactly the figure's Y axis).
"""

from __future__ import annotations

from typing import Dict, List

from repro.analysis.lockstats import failed_acquires_per_ms
from repro.experiments._base import Exhibit, ExperimentContext

EXHIBIT_ID = "figure11"
TITLE = "Failed lock acquires per ms vs number of CPUs (Multpgm)"

_COLUMNS = ("lock", "1cpu", "2cpu", "4cpu", "6cpu", "8cpu")

CPU_COUNTS = (1, 2, 4, 6, 8)
# Shorter window: five whole-machine runs are expensive.
_HORIZON_MS, _WARMUP_MS = 40.0, 250.0

_LOCKS_SHOWN = ("runqlk", "memlock", "bfreelock", "calock")


def contention_series(
    ctx: ExperimentContext, cpu_counts=CPU_COUNTS,
    horizon_ms: float = _HORIZON_MS, warmup_ms: float = _WARMUP_MS,
) -> Dict[str, List[float]]:
    """failed acquires/ms per lock family, one value per CPU count.

    Each point is the context's machine geometry at that CPU count,
    at the context's engine settings and seed.
    """
    series: Dict[str, List[float]] = {lock: [] for lock in _LOCKS_SHOWN}
    for ncpus in cpu_counts:
        run = ctx.private_run(
            "multpgm", cpus=ncpus, horizon_ms=horizon_ms, warmup_ms=warmup_ms
        )
        rates = failed_acquires_per_ms(run.kernel, warmup_ms + horizon_ms)
        for lock in _LOCKS_SHOWN:
            series[lock].append(rates.get(lock, 0.0))
    return series


def build(ctx: ExperimentContext) -> Exhibit:
    exhibit = Exhibit(EXHIBIT_ID, TITLE, _COLUMNS)
    series = contention_series(ctx)
    for lock, values in series.items():
        exhibit.add_row(lock, *[round(v, 3) for v in values])
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
