"""Benchmark the trace analysis pass and the Figure 6 cache sweep.

Two measurements on the same pmake trace: the full postprocessing pass
and the Figure 6 sweep. The sweep is asserted identical to the scalar
reference replay before timing, so the benchmark can never "win" by
drifting from the reference output.
"""

from __future__ import annotations

import pytest

from repro.analysis.report import analyze_trace
from repro.analysis.sweeps import _scalar_icache_config, simulate_icache_sweep


@pytest.fixture(scope="module")
def pmake_run(warm_ctx):
    return warm_ctx.run("pmake")


@pytest.fixture(scope="module")
def imiss_stream(warm_ctx):
    return warm_ctx.report("pmake").analysis.imiss_stream


def test_bench_analysis(benchmark, pmake_run):
    report = benchmark.pedantic(
        analyze_trace, args=(pmake_run,), rounds=5, iterations=1
    )
    entries = sum(len(segment.entries) for segment in pmake_run.trace.segments)
    benchmark.extra_info["trace_entries"] = entries
    benchmark.extra_info["refs_per_sec"] = round(
        entries / benchmark.stats.stats.median
    )
    assert report.analysis.measured_ticks > 0


def test_bench_sweep(benchmark, imiss_stream):
    points = simulate_icache_sweep(imiss_stream, 4)
    assert points == [
        _scalar_icache_config(imiss_stream, 4, p.size_bytes, p.associativity)
        for p in points
    ]  # identical or the timing is void
    benchmark.pedantic(
        simulate_icache_sweep, args=(imiss_stream, 4), rounds=5, iterations=1
    )
    benchmark.extra_info["stream_entries"] = len(imiss_stream)
