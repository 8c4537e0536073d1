"""Scaling sweep: lock contention and OS misses past 4 CPUs.

The paper measured a 4-CPU 4D/340 and predicted that "contention for
Runqlk will be significant for machines with more CPUs" (Section 6).
This exhibit extends the Figure 11 / Table 2 measurements along the
:mod:`repro.machines` preset ladder: each row runs Multpgm on one preset
geometry (L2, memory, bus stall and run-queue count scaled together) and
reports the contended Table 11 lock families' failed-acquire rates plus
the Table 2 SHARING (ping-pong) miss rate and the OS share of all
misses.

Rows are built through the shared :class:`ExperimentContext`, so
``--check`` (sanitizers sized to each geometry), ``--fidelity mixed``
and the persistent run cache all apply to every point of the sweep.
"""

from __future__ import annotations

from typing import List

from repro.analysis.lockstats import CONTENDED_LOCKS, contention_cells
from repro.common.types import MissClass, RefDomain
from repro.experiments._base import Exhibit, ExperimentContext
from repro.machines import DEFAULT_MACHINE, LADDER, MACHINES

EXHIBIT_ID = "figure-scaling"
TITLE = "Lock contention and OS misses vs CPU count (Multpgm)"

_COLUMNS = (
    "machine", "cpus", "runq", "runqlk/ms", "memlock/ms",
    "bfreelock/ms", "calock/ms", "pingpong/ms", "os_miss%",
)

WORKLOAD = "multpgm"

# The ladder is swept up to this preset by default; pick a machine
# (``--machine cpus64`` caps the ladder there) to change the swept
# geometries.
_DEFAULT_TOP = "cpus16"


def sweep_machines(ctx: ExperimentContext) -> List[str]:
    """The preset names this sweep will run, smallest first."""
    machine = ctx.settings.machine
    top = _DEFAULT_TOP
    if isinstance(machine, str) and machine in LADDER \
            and machine != DEFAULT_MACHINE:
        top = machine
    return LADDER[: LADDER.index(top) + 1]


def build(ctx: ExperimentContext) -> Exhibit:
    exhibit = Exhibit(EXHIBIT_ID, TITLE, _COLUMNS)
    horizon, warmup = ctx.settings.sweep_window()
    for name in sweep_machines(ctx):
        run = ctx.run(
            WORKLOAD, machine=name, horizon_ms=horizon, warmup_ms=warmup
        )
        report = ctx.report(
            WORKLOAD, machine=name, horizon_ms=horizon, warmup_ms=warmup
        )
        exhibit.add_check_coverage(run)
        sharing = report.analysis.class_counts(RefDomain.OS)[MissClass.SHARING]
        preset = MACHINES[name]
        exhibit.add_row(
            name,
            preset.params.num_cpus,
            preset.run_queues,
            *contention_cells(run.kernel, warmup + horizon),
            round(sharing / horizon, 3),
            round(report.os_miss_fraction_pct, 1),
        )
    exhibit.note(
        "each geometry scales L2, memory, bus stall and run-queue count "
        "together (one queue per 4-CPU cluster, Section 6); even so, "
        "sharing misses and lock traffic grow with CPU count — the "
        "paper's Runqlk prediction, extended past 8 CPUs"
    )
    return exhibit


def chart(ctx: ExperimentContext) -> str:
    """The sweep as contention-vs-CPUs series (reuses the built exhibit)."""
    from repro.analysis.charts import series_chart

    exhibit = ctx.exhibit(EXHIBIT_ID)
    cpus = [int(row[1]) for row in exhibit.rows]
    series = {
        lock: [float(row[3 + i]) for row in exhibit.rows]
        for i, lock in enumerate(CONTENDED_LOCKS)
    }
    series["pingpong"] = [float(row[7]) for row in exhibit.rows]
    return series_chart(
        cpus, series,
        title="Lock contention and sharing misses vs number of CPUs",
        unit="/ms",
    )
