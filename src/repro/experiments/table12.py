"""Table 12: characteristics of the most frequently acquired locks in
Pmake."""

from __future__ import annotations

from repro.analysis.lockstats import SINGLETON_LOCKS, lock_table_rows
from repro.experiments import paperdata
from repro.experiments._base import Exhibit, ExperimentContext

EXHIBIT_ID = "table12"
TITLE = "Lock characteristics in Pmake"

_COLUMNS = (
    "lock", "source", "kcycles_between_acq", "failed%", "waiters_if_any",
    "same_cpu_no_interv%", "cached/uncached%",
)


def build(ctx: ExperimentContext) -> Exhibit:
    exhibit = Exhibit(EXHIBIT_ID, TITLE, _COLUMNS)
    run = ctx.run("pmake")
    exhibit.add_check_coverage(run)
    total_cycles = max(proc.cycles for proc in run.processors)
    rows = {
        row.name: row
        for row in lock_table_rows(
            run.kernel, total_cycles, min_acquires=1, families=list(SINGLETON_LOCKS)
        )
    }
    for lock in SINGLETON_LOCKS:
        paper = paperdata.TABLE12[lock]
        exhibit.add_row(lock, "paper", *paper)
        row = rows.get(lock)
        if row is None:
            exhibit.add_row(lock, "measured", "-", "-", "-", "-", "-")
            continue
        exhibit.add_row(
            lock, "measured",
            row.kcycles_between_acquires, row.failed_pct, row.waiters_if_any,
            row.same_cpu_no_intervening_pct, row.cached_to_uncached_pct,
        )
    exhibit.note(
        "inter-acquire cycles include idle time; failed acquires ignore "
        "spinning; cached/uncached is the LL/SC what-if bus-traffic ratio"
    )
    return exhibit
