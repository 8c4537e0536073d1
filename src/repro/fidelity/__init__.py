"""Engine fidelity tiers: detailed, atomic, and the mixed schedule.

The detailed engine simulates every reference with full bus arbitration
and stall accounting — exact, but the limiting factor for long-horizon
sweeps. Following gem5's AtomicSimpleCPU/TimingSimpleCPU split, this
package adds a functional-first **atomic** tier (references update cache
tags, TLBs, coherence ownership and lock state, but cost nothing and
emit nothing) and a **mixed** schedule that fast-forwards the warmup
atomically, then hands off to the detailed tier for the measured window
through an explicit :class:`~repro.fidelity.checkpoint.EngineCheckpoint`.

The tier is selected with ``RunSettings.fidelity`` (or ``--fidelity`` /
``REPRO_FIDELITY``); ``fast_forward`` (``--fast-forward`` /
``REPRO_FAST_FORWARD``) optionally caps the atomic stretch at N
references instead of running it to the seam deadline.

:mod:`repro.fidelity.validate` is the bounded-error harness: it runs a
workload both ways and asserts every Table 2/11/12 statistic from the
mixed run's measured window lands within a configurable relative-error
bound of the detailed run — the discipline of "Validating Simplified
Processor Models in Architectural Studies".
"""

from __future__ import annotations

import copy

FIDELITY_LEVELS = ("detailed", "atomic", "mixed")


class UnsupportedFidelityError(ValueError):
    """A feature was combined with a fidelity tier that cannot honor it.

    The invariant checkers (repro.sanitizers) assume detailed-mode event
    streams — bus transactions, stall charging, per-access probes — so
    ``check=`` with ``fidelity="atomic"`` raises this instead of
    silently reporting coverage the run never had. Mixed runs are fine:
    checkers run inside the detailed window only.
    """


def validate_fidelity(fidelity: str) -> str:
    if fidelity not in FIDELITY_LEVELS:
        raise ValueError(
            f"unknown fidelity {fidelity!r}; expected one of "
            f"{', '.join(FIDELITY_LEVELS)}"
        )
    return fidelity


def validate_fast_forward(fast_forward: int, fidelity: str) -> int:
    """The atomic reference budget as an int, refused where it cannot
    take effect: only the mixed tier hands off from atomic to detailed,
    so at any other tier a budget would key a run identical to the
    budget-free one."""
    fast_forward = int(fast_forward)
    if fast_forward < 0:
        raise ValueError("fast_forward must be >= 0")
    if fast_forward and fidelity != "mixed":
        raise ValueError(
            f"fast_forward={fast_forward} needs fidelity 'mixed', not {fidelity!r}"
        )
    return fast_forward


def snapshot_window_counters(sim) -> dict:
    """Copy the cumulative counters at the measurement-window boundary.

    Taken by the run loop when the first CPU crosses the warmup mark, for
    every fidelity tier. Lock statistics (Tables 11/12) and ground-truth
    miss counts are cumulative over the whole run, so the validation
    harness subtracts this snapshot to compare *windowed* statistics
    between mixed and detailed runs.
    """
    return {
        "lock_families": copy.deepcopy(sim.kernel.locks.family_stats()),
        "syncbus_reads": sim.kernel.syncbus.stats.reads,
        "syncbus_writes": sim.kernel.syncbus.stats.writes,
        "truth_counts": sim.memsys.truth.counts.copy(),
        "dispossame_counts": sim.memsys.truth.dispossame_counts.copy(),
        "refs_retired": {p.cpu_id: p.refs_retired for p in sim.processors},
        "atomic_refs": sim.memsys.atomic_refs,
    }


__all__ = [
    "FIDELITY_LEVELS",
    "UnsupportedFidelityError",
    "snapshot_window_counters",
    "validate_fast_forward",
    "validate_fidelity",
]
