"""Figure 11: lock contention vs number of CPUs (Multpgm).

Runs Multpgm on machines with 1-8 CPUs and reports failed acquires per
millisecond for the most contended locks (spins excluded, idle time
included — exactly the figure's Y axis).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional

from repro.analysis.lockstats import failed_acquires_per_ms
from repro.experiments._base import Exhibit, ExperimentContext, RunSettings
from repro.machines import resolve_machine

EXHIBIT_ID = "figure11"
TITLE = "Failed lock acquires per ms vs number of CPUs (Multpgm)"

_COLUMNS = ("lock", "1cpu", "2cpu", "4cpu", "6cpu", "8cpu")

CPU_COUNTS = (1, 2, 4, 6, 8)
# Shorter window: five whole-machine runs are expensive.
_SETTINGS = RunSettings(horizon_ms=40.0, warmup_ms=250.0, seed=7)

_LOCKS_SHOWN = ("runqlk", "memlock", "bfreelock", "calock")


def contention_series(
    seed: int = 7, cpu_counts=CPU_COUNTS,
    horizon_ms: float = _SETTINGS.horizon_ms,
    warmup_ms: float = _SETTINGS.warmup_ms,
    ctx: Optional[ExperimentContext] = None,
) -> Dict[str, List[float]]:
    """failed acquires/ms per lock family, one value per CPU count.

    With a ``ctx``, every point runs at the context's engine settings
    (its machine geometry at that point's CPU count) and registers its
    run with the context.
    """
    from repro.sim._session import Simulation

    engine = ctx.settings.sim_kwargs() if ctx is not None else {}
    machine = resolve_machine(engine.pop("machine", None))
    series: Dict[str, List[float]] = {lock: [] for lock in _LOCKS_SHOWN}
    for ncpus in cpu_counts:
        params = dataclasses.replace(machine, num_cpus=ncpus, network_cpu=None)
        sim = Simulation("multpgm", params=params, seed=seed, **engine)
        run = sim.run(horizon_ms, warmup_ms=warmup_ms)
        if ctx is not None:
            ctx.note_private_run(run)
        wall_ms = (warmup_ms + horizon_ms)
        rates = failed_acquires_per_ms(sim.kernel, wall_ms)
        for lock in _LOCKS_SHOWN:
            series[lock].append(rates.get(lock, 0.0))
    return series


def build(ctx: ExperimentContext) -> Exhibit:
    exhibit = Exhibit(EXHIBIT_ID, TITLE, _COLUMNS)
    series = contention_series(seed=ctx.settings.seed, ctx=ctx)
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
