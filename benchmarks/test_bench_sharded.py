"""Benchmark the sharded analysis core and the Figure 6 cache sweep.

Three measurements on the same pmake trace: the full postprocessing
pass (serial vs sharded) and the Figure 6 sweep. The serial analysis is
the denominator of the speedup the sharded core exists for; the sharded
analysis and the sweep are asserted identical to their scalar
references before timing, so a benchmark can never "win" by drifting
from the reference output.

``REPRO_BENCH_SHARDS`` (default 4) sets the shard count.
"""

from __future__ import annotations

import os

import pytest

from repro.analysis.report import analyze_trace
from repro.analysis.sweeps import _scalar_icache_config, simulate_icache_sweep

SHARDS = int(os.environ.get("REPRO_BENCH_SHARDS", "4"))


@pytest.fixture(scope="module")
def pmake_run(warm_ctx):
    return warm_ctx.run("pmake")


@pytest.fixture(scope="module")
def imiss_stream(warm_ctx):
    return warm_ctx.report("pmake").analysis.imiss_stream


def _entries(run) -> int:
    return sum(len(segment.entries) for segment in run.trace.segments)


def _time_analysis(benchmark, run, shards: int):
    result = benchmark.pedantic(
        analyze_trace, args=(run,), kwargs={"shards": shards},
        rounds=1, iterations=1,
    )
    benchmark.extra_info["trace_entries"] = _entries(run)
    benchmark.extra_info["refs_per_sec"] = round(
        _entries(run) / benchmark.stats.stats.median
    )
    benchmark.extra_info["shards"] = shards
    return result


def test_bench_analysis_serial(benchmark, pmake_run):
    report = _time_analysis(benchmark, pmake_run, shards=1)
    assert report.analysis.measured_ticks > 0


def test_bench_analysis_sharded(benchmark, pmake_run):
    serial = analyze_trace(pmake_run).analysis
    report = _time_analysis(benchmark, pmake_run, shards=SHARDS)
    assert report.analysis == serial  # identical or the timing is void


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
