"""Ablation: cache-affinity scheduling (Section 4.2.2's migration fix).

"Affinity scheduling is one technique that removes misses by encouraging
processes to remain in the same CPU while still tolerating process
migration for load balance." Runs Multpgm — the migration-heaviest
workload — with and without it.
"""

from __future__ import annotations

from repro.analysis.report import analyze_trace
from repro.experiments._base import Exhibit, ExperimentContext
from repro.experiments.derive import migration_misses

EXHIBIT_ID = "ablation-affinity"
TITLE = "Cache-affinity scheduling vs the IRIX default (Multpgm)"

_COLUMNS = ("metric", "default", "affinity", "change%")


def _metrics(run, report) -> dict:
    sched = run.kernel.scheduler
    return {
        "context switches": sched.context_switches,
        "migrations": sched.migrations,
        "migration D-misses": migration_misses(report.analysis)["total"],
        "OS stall %": round(report.os_stall_pct, 1),
        "app Ap_dispos misses": sum(report.analysis.ap_dispos.values()),
    }


def build(ctx: ExperimentContext) -> Exhibit:
    exhibit = Exhibit(EXHIBIT_ID, TITLE, _COLUMNS)
    default_run = ctx.run("multpgm")
    default = _metrics(default_run, ctx.report("multpgm"))
    affinity_run = ctx.private_run(
        "multpgm", tuning={"affinity_scheduling": True}
    )
    affinity = _metrics(
        affinity_run, analyze_trace(affinity_run, keep_imiss_stream=False)
    )
    exhibit.add_check_coverage(default_run, affinity_run)
    for metric in default:
        a, b = default[metric], affinity[metric]
        change = 100.0 * (b - a) / a if a else 0.0
        exhibit.add_row(metric, a, b, round(change, 1))
    exhibit.note(
        "affinity keeps load balance (similar context-switch counts) while "
        "cutting migrations and their Sharing misses, as the paper predicts"
    )
    return exhibit
