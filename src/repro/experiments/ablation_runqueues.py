"""Ablation: distributed run queues on a larger machine (Section 6).

"The run queue should be distributed across clusters ... Processes can
then be encouraged to remain in the same run queue and therefore run
mostly on the CPUs of one cluster." Runs Multpgm on an 8-CPU machine
with one global queue vs one queue per 2-CPU cluster and compares
Runqlk contention (the Figure 11 metric) and migrations.
"""

from __future__ import annotations

from repro.analysis.lockstats import failed_acquires_per_ms
from repro.experiments._base import Exhibit, ExperimentContext

EXHIBIT_ID = "ablation-runqueues"
TITLE = "Global vs distributed run queues on 8 CPUs (Multpgm)"

_COLUMNS = ("metric", "global_queue", "per_cluster_queues", "change%")

NUM_CPUS = 8
NUM_CLUSTERS = 4


def _run(ctx: ExperimentContext, num_queues: int):
    settings = ctx.settings
    run = ctx.private_run(
        "multpgm", cpus=NUM_CPUS, tuning={"num_run_queues": num_queues}
    )
    wall_ms = settings.warmup_ms + settings.horizon_ms
    rates = failed_acquires_per_ms(run.kernel, wall_ms)
    runqlk = run.kernel.locks.family_stats()["runqlk"]
    sched = run.kernel.scheduler
    return run, {
        "runqlk failed acquires/ms": round(rates.get("runqlk", 0.0), 3),
        "runqlk failed %": round(runqlk.failed_pct, 2),
        "migrations": sched.migrations,
        "cross-queue steals": sched.cross_queue_steals,
        "context switches": sched.context_switches,
    }


def build(ctx: ExperimentContext) -> Exhibit:
    exhibit = Exhibit(EXHIBIT_ID, TITLE, _COLUMNS)
    global_run, global_queue = _run(ctx, num_queues=1)
    clustered_run, clustered = _run(ctx, num_queues=NUM_CLUSTERS)
    exhibit.add_check_coverage(global_run, clustered_run)
    for metric in global_queue:
        a, b = global_queue[metric], clustered[metric]
        change = 100.0 * (b - a) / a if a else 0.0
        exhibit.add_row(metric, a, b, round(change, 1))
    exhibit.note(
        "distributing the queue splits Runqlk contention across per-cluster "
        "locks and keeps processes inside their cluster (fewer migrations), "
        "the Section 6 prediction"
    )
    return exhibit
