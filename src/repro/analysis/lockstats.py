"""Synchronization statistics: Tables 10-12 and Figure 11.

Lock accesses travel on the synchronization bus, invisible to the
hardware monitor; the paper reads statistics the OS keeps about its own
locks through pages mapped into a user process (Section 2.2). Our
equivalent reads the kernel's :class:`LockTable`, the sync-bus counters,
and the LL/SC what-if simulator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.common.types import Mode

#: Figure 11's lock families, the four Multpgm contends most;
#: ``figure-scaling`` prints the same cells per machine.
CONTENDED_LOCKS = ("runqlk", "memlock", "bfreelock", "calock")

#: Table 12's singleton locks, the ones Pmake acquires most; the mixed
#: tier's validator bounds the same families' failed%.
SINGLETON_LOCKS = ("memlock", "runqlk", "ifree", "dfbmaplk", "bfreelock", "calock")


@dataclass
class LockRow:
    """One Table 12 row."""

    name: str
    kcycles_between_acquires: float
    failed_pct: float
    waiters_if_any: float
    same_cpu_no_intervening_pct: float
    cached_to_uncached_pct: float
    acquires: int


def lock_table_rows(
    kernel,
    total_cycles: int,
    min_acquires: int = 10,
    families: Optional[List[str]] = None,
) -> List[LockRow]:
    """Per-lock-family statistics (Table 12).

    ``total_cycles`` should be the run's wall-clock cycles (the paper's
    inter-acquire cycles "include CPU idle time").
    """
    stats_by_family = kernel.locks.family_stats()
    rows = []
    for family, stats in stats_by_family.items():
        if families is not None and family not in families:
            continue
        if stats.acquires < min_acquires:
            continue
        llsc = kernel.llsc.per_lock.get(family)
        rows.append(
            LockRow(
                name=family,
                kcycles_between_acquires=(
                    stats.cycles_between_acquires(total_cycles) / 1000.0
                ),
                failed_pct=stats.failed_pct,
                waiters_if_any=stats.mean_waiters_if_any,
                same_cpu_no_intervening_pct=stats.locality_pct,
                cached_to_uncached_pct=(
                    llsc.cached_to_uncached_pct if llsc is not None else 0.0
                ),
                acquires=stats.acquires,
            )
        )
    rows.sort(key=lambda row: row.kcycles_between_acquires)
    return rows


@dataclass
class SyncStallSummary:
    """Table 10: sync stall on the real machine vs the LL/SC what-if."""

    current_machine_pct: float
    cached_rmw_pct: float
    sync_ops: int


def sync_stall_summary(kernel, processors) -> SyncStallSummary:
    """Stall time due to OS synchronization / non-idle execution time."""
    non_idle = sum(
        proc.mode_cycles[Mode.USER] + proc.mode_cycles[Mode.KERNEL]
        for proc in processors
    )
    if not non_idle:
        return SyncStallSummary(0.0, 0.0, 0)
    current = kernel.syncbus.stats.total_stall_cycles()
    cached = kernel.llsc.cached_stall_cycles()
    return SyncStallSummary(
        current_machine_pct=100.0 * current / non_idle,
        cached_rmw_pct=100.0 * cached / non_idle,
        sync_ops=kernel.syncbus.stats.total_ops,
    )


def failed_acquires_per_ms(kernel, wall_ms: float) -> Dict[str, float]:
    """Figure 11's Y axis, per lock family ("the Y-axis includes idle
    time": rates are over wall time)."""
    if wall_ms <= 0:
        return {}
    return {
        family: stats.failed_acquires / wall_ms
        for family, stats in kernel.locks.family_stats().items()
        if stats.acquires > 0
    }


def contention_cells(
    kernel, wall_ms: float, locks=CONTENDED_LOCKS
) -> List[float]:
    """:func:`failed_acquires_per_ms` of each of ``locks``, rounded to
    the three places an exhibit cell shows (0 for a lock never taken)."""
    rates = failed_acquires_per_ms(kernel, wall_ms)
    return [round(rates.get(lock, 0.0), 3) for lock in locks]
