"""Benchmark the server workloads: kv, netserver, and the skew sweep.

The two simulations gate the new workload family's cost through the
perf-trajectory comparison (a regression in the interrupt-delivery or
buffer-cache paths shows up here first); the figure-skew benchmark
times the whole sweep the way the exhibit benchmarks time the paper's
tables.
"""

from __future__ import annotations

from benchmarks.conftest import ROUNDS, SETTINGS, run_exhibit
from repro.api import Simulation


def _simulate(name: str):
    sim = Simulation(name, seed=SETTINGS.seed)
    return sim.run(SETTINGS.horizon_ms, warmup_ms=SETTINGS.warmup_ms)


def test_bench_sim_kv(benchmark):
    run = benchmark.pedantic(_simulate, args=("kv",), rounds=ROUNDS, iterations=1)
    bcache = run.kernel.fs.buffer_cache
    assert bcache.hits + bcache.misses > 0


def test_bench_sim_netserver(benchmark):
    run = benchmark.pedantic(
        _simulate, args=("netserver",), rounds=ROUNDS, iterations=1
    )
    from repro.common.types import InterruptKind

    assert run.kernel.interrupts.counts[InterruptKind.NETWORK] > 0


def test_bench_figure_skew(benchmark, ctx):
    exhibit = run_exhibit(benchmark, ctx, "figure-skew")
    assert [row[0] for row in exhibit.rows] == \
        ["kv", "kv", "kv", "kv", "netserver"]
