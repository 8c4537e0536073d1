"""Skew sweep: buffer-cache residency and lock traffic vs Zipf exponent.

The paper's workloads decide buffer-cache residency by program structure
(Pmake re-reads a fixed source set; Oracle's database fits in memory).
The server extensions decide it by *popularity*: KV draws keys from a
Zipf distribution over a keyspace ~100x the buffer cache, so the skew
knob alone moves the hit rate from hopeless (uniform) to comfortable
(YCSB-style hot sets). Each row runs KV at one skew through the shared
:class:`ExperimentContext` and reports the buffer-cache hit rate, the
Table 2 OS miss categories (cold and sharing, per traced ms) and the
Table 11 failed-acquire rates of the two lock families server traffic
actually contends: ``bfreelock`` and ``streams_x``.

The final row runs Netserver at its default skew: its arrivals land as
network interrupts taking ``streams_x`` in interrupt context against the
server processes' stream reads/writes — the process-vs-IRQ contention
Table 11 could not show on the paper's workloads.

Rows go through ``ctx.run(workload_args=...)``, so ``--check``,
``--fidelity`` and the persistent run cache apply to every point, and
each tuned point keys separately in the cache.
"""

from __future__ import annotations

from repro.analysis.lockstats import contention_cells
from repro.common.types import MissClass, RefDomain
from repro.experiments._base import Exhibit, ExperimentContext
from repro.workloads import canonical_workload_args, workload_arg_names

EXHIBIT_ID = "figure-skew"
TITLE = "Buffer-cache residency and lock traffic vs Zipf skew"

_COLUMNS = (
    "workload", "skew", "bchit%", "cold/ms", "sharing/ms",
    "bfreelock/ms", "streams_x/ms", "os_miss%",
)

# The swept Zipf exponents: uniform, web-ish, YCSB's 0.99, and a hot-set
# so tight the cache-dwarfing keyspace stops mattering.
SKEWS = (0.0, 0.7, 0.99, 1.2)

_LOCKS_SHOWN = ("bfreelock", "streams_x")



def _row(ctx, exhibit, workload, skew, args, horizon, warmup) -> None:
    run = ctx.run(
        workload, workload_args=args, horizon_ms=horizon, warmup_ms=warmup
    )
    report = ctx.report(
        workload, workload_args=args, horizon_ms=horizon, warmup_ms=warmup
    )
    exhibit.add_check_coverage(run)
    bcache = run.kernel.fs.buffer_cache
    lookups = bcache.hits + bcache.misses
    hit_pct = 100.0 * bcache.hits / lookups if lookups else 0.0
    per_class = report.analysis.class_counts(RefDomain.OS)
    exhibit.add_row(
        workload,
        f"{skew:g}",  # string: Exhibit._fmt would render 0.99 as "1.0"
        round(hit_pct, 1),
        round(per_class[MissClass.COLD] / horizon, 3),
        round(per_class[MissClass.SHARING] / horizon, 3),
        *contention_cells(run.kernel, warmup + horizon, _LOCKS_SHOWN),
        round(report.os_miss_fraction_pct, 1),
    )


def _accepted(workload: str, base: dict) -> dict:
    """Restrict context-level knobs to the ones ``workload`` takes.

    The sweep covers two workloads with different knob sets, so a
    kv-only ``--workload-arg keys=...`` must not reach netserver.
    """
    taken = workload_arg_names(workload)
    return {k: v for k, v in base.items() if k in taken}


def build(ctx: ExperimentContext) -> Exhibit:
    from repro.workloads.netserver import NetserverWorkload

    exhibit = Exhibit(EXHIBIT_ID, TITLE, _COLUMNS)
    horizon, warmup = ctx.settings.sweep_window()
    # Context-level --workload-arg knobs (get_fraction, keys, ...) apply
    # to every swept point that accepts them; the sweep pins the skew.
    base = dict(ctx.settings.workload_args)
    for skew in SKEWS:
        args = _accepted("kv", base)
        args["skew"] = skew
        _row(ctx, exhibit, "kv", skew, canonical_workload_args(args),
             horizon, warmup)
    # Netserver at its default skew: the interrupt-side streams_x load.
    _row(ctx, exhibit, "netserver", NetserverWorkload().skew,
         canonical_workload_args(_accepted("netserver", base)),
         horizon, warmup)
    exhibit.note(
        "kv keyspace ~32 MB vs a ~272 KB buffer cache: at skew 0 the "
        "cache holds ~1% of the keys, so residency (bchit%) is decided "
        "entirely by the Zipf exponent; bfreelock traffic follows the "
        "miss rate (every miss churns a buffer header)"
    )
    exhibit.note(
        "netserver's streams_x failed-acquires come from network "
        "interrupts on the network CPU racing the server processes' "
        "stream reads — contention the paper's workloads never drive"
    )
    return exhibit


def chart(ctx: ExperimentContext) -> str:
    """Hit rate and lock traffic vs skew (reuses the built exhibit)."""
    from repro.analysis.charts import series_chart
    from repro.experiments.registry import run_experiment

    exhibit = run_experiment(EXHIBIT_ID, ctx)
    kv_rows = [row for row in exhibit.rows if row[0] == "kv"]
    skews = [str(row[1]) for row in kv_rows]
    series = {
        "bchit%": [float(row[2]) for row in kv_rows],
        "bfreelock/ms": [float(row[5]) for row in kv_rows],
    }
    return series_chart(
        skews, series,
        title="KV buffer-cache hit rate and bfreelock traffic vs skew",
    )
