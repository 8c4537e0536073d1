"""Benchmark the CPU-scaling sweep: Multpgm across machine presets.

The sweep is pinned to the 4- and 8-CPU geometries so the benchmark
times a fixed amount of work regardless of the default ladder top.
"""

from benchmarks.conftest import run_exhibit
from repro.experiments import scaling


def test_bench_scaling_8cpu(benchmark, ctx, monkeypatch):
    monkeypatch.setattr(scaling, "_DEFAULT_TOP", "cpus8")
    exhibit = run_exhibit(benchmark, ctx, "figure-scaling")
    assert [row[1] for row in exhibit.rows] == [4, 8]
