"""Bounded-error validation of the mixed fidelity tier.

The atomic tier trades exact timing for speed, so a mixed run's measured
window sees a machine whose warmup progressed slightly differently than
a detailed run's (the tier's one timing approximation: resident accesses
cost zero instead of the occasional L1-miss/L2-hit refinement). This
harness quantifies that drift the way simplified-model papers do: run
the same (workload, horizon, warmup, seed) both ways and assert every
Table 2 / 11 / 12 statistic from the mixed run's measured window lands
within a fixed error bound of the detailed run.

Two kinds of bound:

- **shares** (Table 2 miss-class shares, Table 12 failed%): absolute
  percentage points. Short windows make ratio bounds meaningless for
  shares near zero.
- **counts** (Table 11 windowed acquires, Table 12 sync-bus traffic):
  *symmetric* relative error ``|m - d| / max(d, m)``, checked only
  above a count floor. Windowed lock counts of a bursty workload are
  intrinsically noisy — two detailed runs at different seeds differ by
  more than 100% on some families at short horizons — so the bounds
  are sized just above that intrinsic seed-to-seed variance; longer
  horizons tighten the comparison.

Windowing: lock and sync-bus counters are cumulative over the whole
run, so the loop's warmup-boundary snapshot
(:func:`repro.fidelity.snapshot_window_counters`) is subtracted from
the end-of-run totals on both sides before comparing.

Wall-clock is measured three ways: detailed (cold), mixed (cold — pays
the fast-forward), and mixed warm (restore the seam checkpoint, run only
the detailed window) — the steady state of a cached sweep, which is
where the tier's headline speedup lives.

``python -m repro.fidelity.validate [workload ...]`` prints the JSON
report and exits non-zero if any statistic lands out of bound.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.analysis.lockstats import SINGLETON_LOCKS
from repro.common.types import MissClass

# Table 2 rows compared per cache kind.
_CLASSES = (
    MissClass.COLD,
    MissClass.DISPOS,
    MissClass.DISPAP,
    MissClass.SHARING,
    MissClass.INVAL,
)

# The error bounds: max share drift in percentage points, max symmetric
# relative error on windowed counts, and the event count below which a
# count is not compared (there everything is seed noise).
SHARE_BOUND_PP = 18.0
REL_BOUND = 0.75
COUNT_FLOOR = 50


@dataclass
class StatCheck:
    """One compared statistic."""

    table: str        # table2 | table11 | table12
    name: str
    detailed: float
    mixed: float
    error: float      # percentage points (shares) or relative (counts)
    bound: float
    kind: str         # "share_pp" | "relative"
    ok: bool

    def to_dict(self) -> Dict[str, object]:
        return {
            "table": self.table,
            "name": self.name,
            "detailed": self.detailed,
            "mixed": self.mixed,
            "error": round(self.error, 4),
            "bound": self.bound,
            "kind": self.kind,
            "ok": self.ok,
        }


@dataclass
class FidelityValidation:
    """Full comparison for one workload."""

    workload: str
    horizon_ms: float
    warmup_ms: float
    seed: int
    machine: str
    fast_forward: int
    fast_forwarded_refs: int
    seam_cycles: Optional[int]
    checks: List[StatCheck] = field(default_factory=list)
    # Wall-clock (simulation only; the analysis pass is tier-independent).
    detailed_seconds: float = 0.0
    mixed_cold_seconds: float = 0.0
    mixed_warm_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return all(check.ok for check in self.checks)

    @property
    def failures(self) -> List[StatCheck]:
        return [check for check in self.checks if not check.ok]

    @property
    def speedup_cold(self) -> float:
        if not self.mixed_cold_seconds:
            return 0.0
        return self.detailed_seconds / self.mixed_cold_seconds

    @property
    def speedup_warm(self) -> float:
        """Detailed vs checkpoint-restored mixed — the cached-sweep case."""
        if not self.mixed_warm_seconds:
            return 0.0
        return self.detailed_seconds / self.mixed_warm_seconds

    def to_dict(self) -> Dict[str, object]:
        return {
            "workload": self.workload,
            "horizon_ms": self.horizon_ms,
            "warmup_ms": self.warmup_ms,
            "seed": self.seed,
            "machine": self.machine,
            "fast_forward": self.fast_forward,
            "fast_forwarded_refs": self.fast_forwarded_refs,
            "seam_cycles": self.seam_cycles,
            "ok": self.ok,
            "checks": [check.to_dict() for check in self.checks],
            "wall_clock": {
                "detailed_seconds": round(self.detailed_seconds, 3),
                "mixed_cold_seconds": round(self.mixed_cold_seconds, 3),
                "mixed_warm_seconds": round(self.mixed_warm_seconds, 3),
                "speedup_cold": round(self.speedup_cold, 2),
                "speedup_warm": round(self.speedup_warm, 2),
            },
        }

    def summary(self) -> str:
        verdict = "ok" if self.ok else f"{len(self.failures)} OUT OF BOUND"
        machine = "" if self.machine == "4d340" else f"@{self.machine}"
        return (
            f"validate-fidelity {self.workload}{machine}: "
            f"{len(self.checks)} stats "
            f"[{verdict}] detailed={self.detailed_seconds:.2f}s "
            f"mixed={self.mixed_cold_seconds:.2f}s "
            f"(warm {self.mixed_warm_seconds:.2f}s, "
            f"{self.speedup_warm:.1f}x)"
        )


class _MemoryStore:
    """Single-slot stand-in for the run cache's checkpoint store."""

    def __init__(self) -> None:
        self.payload = None

    def store(self, key, payload) -> bool:
        self.payload = payload
        return True


def _windowed_family(run) -> Dict[str, Dict[str, int]]:
    """Per-family lock counters over the measured window."""
    snapshot = run.simulation.measure_snapshot or {}
    base = snapshot.get("lock_families", {})
    out: Dict[str, Dict[str, int]] = {}
    for family, stats in run.kernel.locks.family_stats().items():
        start = base.get(family)
        out[family] = {
            "acquires": stats.acquires - (start.acquires if start else 0),
            "failed": stats.failed_acquires
            - (start.failed_acquires if start else 0),
        }
    return out


def _windowed_syncbus(run) -> Dict[str, int]:
    snapshot = run.simulation.measure_snapshot or {}
    stats = run.kernel.syncbus.stats
    return {
        "reads": stats.reads - snapshot.get("syncbus_reads", 0),
        "writes": stats.writes - snapshot.get("syncbus_writes", 0),
    }


def compare_runs(
    detailed_run,
    mixed_run,
    detailed_report,
    mixed_report,
) -> List[StatCheck]:
    """Every Table 2/11/12 statistic, detailed vs mixed, with verdicts."""
    checks: List[StatCheck] = []

    def share(table: str, name: str, d: float, m: float) -> None:
        error = abs(m - d)
        checks.append(
            StatCheck(
                table, name, round(d, 3), round(m, 3), error,
                SHARE_BOUND_PP, "share_pp", error <= SHARE_BOUND_PP,
            )
        )

    def count(table: str, name: str, d: float, m: float) -> None:
        if max(d, m) < COUNT_FLOOR:
            return
        error = abs(m - d) / max(d, m, 1.0)
        checks.append(
            StatCheck(
                table, name, d, m, error, REL_BOUND, "relative",
                error <= REL_BOUND,
            )
        )

    # Table 2: OS miss-class shares (normalized to 100 across classes).
    share(
        "table2", "os_miss_fraction",
        detailed_report.os_miss_fraction_pct, mixed_report.os_miss_fraction_pct,
    )
    for kind in ("I", "D"):
        for miss_class in _CLASSES:
            share(
                "table2", f"os_{kind}_{miss_class.name.lower()}",
                detailed_report.os_class_share_pct(kind, miss_class),
                mixed_report.os_class_share_pct(kind, miss_class),
            )

    # Table 11: windowed acquires per lock family.
    det_locks = _windowed_family(detailed_run)
    mix_locks = _windowed_family(mixed_run)
    for family in sorted(set(det_locks) | set(mix_locks)):
        d = det_locks.get(family, {}).get("acquires", 0)
        m = mix_locks.get(family, {}).get("acquires", 0)
        count("table11", f"{family}_acquires", d, m)

    # Table 12: failed% for the singleton locks + sync-bus traffic.
    for family in SINGLETON_LOCKS:
        d = det_locks.get(family)
        m = mix_locks.get(family)
        if d is None or m is None:
            continue
        if max(d["acquires"], m["acquires"]) < COUNT_FLOOR:
            continue
        d_failed = 100.0 * d["failed"] / d["acquires"] if d["acquires"] else 0.0
        m_failed = 100.0 * m["failed"] / m["acquires"] if m["acquires"] else 0.0
        share("table12", f"{family}_failed_pct", d_failed, m_failed)
    det_bus = _windowed_syncbus(detailed_run)
    mix_bus = _windowed_syncbus(mixed_run)
    for name in ("reads", "writes"):
        count("table12", f"syncbus_{name}", det_bus[name], mix_bus[name])

    return checks


def validate_workload(
    workload: str,
    horizon_ms: float = 40.0,
    warmup_ms: float = 260.0,
    seed: int = 7,
    machine: str = "4d340",
    fast_forward: int = 0,
) -> FidelityValidation:
    """Run ``workload`` detailed and mixed on one machine geometry,
    compare, and time all tiers."""
    from repro.analysis.report import analyze_trace
    from repro.sim._session import Simulation

    started = time.perf_counter()
    detailed_run = Simulation(workload, seed=seed, machine=machine).run(
        horizon_ms, warmup_ms=warmup_ms
    )
    detailed_seconds = time.perf_counter() - started

    store = _MemoryStore()
    sim = Simulation(
        workload, seed=seed, machine=machine, fidelity="mixed",
        fast_forward=fast_forward,
    )
    sim.checkpoint_cache = store
    sim.checkpoint_cache_key = "in-memory"
    started = time.perf_counter()
    mixed_run = sim.run(horizon_ms, warmup_ms=warmup_ms)
    mixed_cold_seconds = time.perf_counter() - started

    # Warm path: restore the seam checkpoint, run only the window.
    mixed_warm_seconds = 0.0
    if store.payload is not None:
        started = time.perf_counter()
        warm_sim = store.payload["checkpoint"].restore()
        warm_sim.continue_run(horizon_ms)
        mixed_warm_seconds = time.perf_counter() - started

    detailed_report = analyze_trace(detailed_run, keep_imiss_stream=False)
    mixed_report = analyze_trace(mixed_run, keep_imiss_stream=False)
    validation = FidelityValidation(
        workload=workload,
        horizon_ms=horizon_ms,
        warmup_ms=warmup_ms,
        seed=seed,
        machine=machine,
        fast_forward=fast_forward,
        fast_forwarded_refs=mixed_run.fast_forwarded_refs,
        seam_cycles=mixed_run.seam_cycles,
        checks=compare_runs(
            detailed_run, mixed_run, detailed_report, mixed_report
        ),
        detailed_seconds=detailed_seconds,
        mixed_cold_seconds=mixed_cold_seconds,
        mixed_warm_seconds=mixed_warm_seconds,
    )
    return validation


# The settings table rows this harness reads (it always runs both tiers),
# over its own 40/260 ms window and a mixed base, since the fast-forward
# budget is the mixed run's.
_SETTINGS = ("horizon_ms", "warmup_ms", "seed", "machine", "fast_forward")


def main(argv: Optional[List[str]] = None) -> int:
    from repro.experiments import paperdata
    from repro.experiments._base import (
        RunSettings,
        add_settings_arguments,
        resolve_settings,
    )

    base = RunSettings(horizon_ms=40.0, warmup_ms=260.0, fidelity="mixed")
    parser = argparse.ArgumentParser(
        prog="python -m repro.fidelity.validate",
        description="Bounded-error validation of the mixed fidelity tier",
    )
    parser.add_argument("workloads", nargs="*", default=list(paperdata.WORKLOADS))
    add_settings_arguments(parser, names=_SETTINGS, base=base)
    parser.add_argument(
        "--min-speedup", type=float, default=0.0,
        help="fail unless the warm (checkpoint-restored) mixed run beats "
             "the detailed run by at least this factor (default 0 = off)",
    )
    args = parser.parse_args(argv)
    try:
        settings = resolve_settings(args=args, base=base, names=_SETTINGS)
    except ValueError as exc:
        parser.error(str(exc))
    results = [
        validate_workload(
            workload,
            horizon_ms=settings.horizon_ms,
            warmup_ms=settings.warmup_ms,
            seed=settings.seed,
            machine=settings.machine,
            fast_forward=settings.fast_forward,
        )
        for workload in args.workloads
    ]
    print(json.dumps([result.to_dict() for result in results], indent=2))
    ok = True
    for result in results:
        print(result.summary(), file=sys.stderr)
        for failure in result.failures:
            print(
                f"  OUT OF BOUND {failure.table}/{failure.name}: "
                f"detailed={failure.detailed} mixed={failure.mixed} "
                f"error={failure.error:.3f} > {failure.bound}",
                file=sys.stderr,
            )
        if not result.ok:
            ok = False
        if args.min_speedup and result.speedup_warm < args.min_speedup:
            print(
                f"  TOO SLOW {result.workload}: warm speedup "
                f"{result.speedup_warm:.2f}x < {args.min_speedup}x",
                file=sys.stderr,
            )
            ok = False
    return 0 if ok else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
