"""Shared state for the benchmark harness.

One :class:`ExperimentContext` is shared by every benchmark, so the
three workload simulations run once per session; each exhibit benchmark
then measures its own derivation work and prints the paper-vs-measured
table it regenerates.
"""

from __future__ import annotations

import gc

import pytest

from repro.api import ExperimentContext
from repro.experiments._base import resolve_settings
from repro.sim.runcache import RunCache

# Full-quality settings (the same steady-state window the experiments
# CLI uses by default). Only the window rows read the environment: CI
# shrinks it with REPRO_BENCH_HORIZON_MS / REPRO_BENCH_WARMUP_MS to keep
# its benchmark-artifact job fast, while REPRO_MACHINE, REPRO_FIDELITY
# and REPRO_FAST_FORWARD leave the timed workload as the baseline has it.
SETTINGS = resolve_settings(names=("horizon_ms", "warmup_ms"))


@pytest.fixture(autouse=True)
def same_gc_state():
    """Start every timed entry from the same cyclic-GC state.

    The runs a session holds (and the garbage earlier entries leave)
    otherwise set when full collections fire and how much each one
    walks, so an entry's time would depend on what ran before it. Each
    entry starts with garbage collected and every older object frozen
    out of the collector's view.
    """
    gc.collect()
    gc.freeze()
    yield
    gc.unfreeze()


@pytest.fixture(scope="session")
def ctx() -> ExperimentContext:
    # The persistent run cache means only the first benchmark session on
    # a given source tree pays for the three base simulations; exhibit
    # derivation (what the benchmarks measure) is never cached, so the
    # numbers stay honest. REPRO_NO_CACHE=1 opts out.
    context = ExperimentContext(SETTINGS, cache=RunCache())
    # Exhibit-level disk hits would short-circuit the very work the
    # benchmarks exist to time; keep this context run/report-only.
    context.cache_exhibits = False
    return context


@pytest.fixture(scope="session")
def warm_ctx(ctx) -> ExperimentContext:
    """Context with all three workloads already simulated and analyzed,
    so individual benchmarks time only their own derivation."""
    for workload in ("pmake", "multpgm", "oracle"):
        ctx.report(workload)
    return ctx


def run_exhibit(benchmark, ctx, exhibit_id: str):
    """Benchmark one exhibit build and print its table."""
    from repro.experiments.registry import run_experiment

    exhibit = benchmark.pedantic(
        run_experiment, args=(exhibit_id, ctx), rounds=1, iterations=1
    )
    print()
    print(exhibit.to_text())
    return exhibit
