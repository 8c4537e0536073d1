"""Benchmark the engine tiers: detailed vs atomic vs mixed simulation.

These gate the fidelity subsystem's raison d'être through the
perf-trajectory comparison: the atomic tier's median must keep its
distance below the detailed tier's, or ``benchmarks/compare.py`` flags
the shape change. ``test_atomic_is_faster`` additionally asserts the
ordering outright, so the speedup is checked even where the baseline
comparison is skipped.
"""

from __future__ import annotations

import time

from benchmarks.conftest import SETTINGS
from repro.api import Simulation

# Each tier is timed over several simulations of the same window, so one
# noisy run cannot move the median the perf gate compares.
ROUNDS = 5


def _simulate(fidelity: str):
    sim = Simulation("pmake", seed=SETTINGS.seed, fidelity=fidelity)
    return sim.run(SETTINGS.horizon_ms, warmup_ms=SETTINGS.warmup_ms)


def test_bench_sim_detailed(benchmark):
    run = benchmark.pedantic(
        _simulate, args=("detailed",), rounds=ROUNDS, iterations=1
    )
    assert run.fidelity == "detailed"


def test_bench_sim_atomic(benchmark):
    run = benchmark.pedantic(
        _simulate, args=("atomic",), rounds=ROUNDS, iterations=1
    )
    assert run.fidelity == "atomic"
    assert run.fast_forwarded_refs > 0


def test_bench_sim_mixed(benchmark):
    run = benchmark.pedantic(
        _simulate, args=("mixed",), rounds=ROUNDS, iterations=1
    )
    assert run.fidelity == "mixed"
    assert run.fast_forwarded_refs > 0


def _best_time(fidelity: str, repeats: int = 3) -> float:
    """Fastest of ``repeats`` simulations: in a benchmark session that
    holds several traced runs, one full garbage collection can take
    longer than a whole atomic run."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        _simulate(fidelity)
        best = min(best, time.perf_counter() - start)
    return best


def test_atomic_is_faster():
    """The functional-first tier must beat the detailed engine on the
    same window — gated here, not just claimed in the docs."""
    detailed_s = _best_time("detailed")
    atomic_s = _best_time("atomic")
    assert atomic_s < detailed_s, (
        f"atomic {atomic_s:.3f}s not faster than detailed {detailed_s:.3f}s"
    )
