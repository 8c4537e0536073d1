"""Benchmark deriving the exhibits that only read analyzed runs.

Once the three workloads are simulated and analyzed, each of these 22
exhibits derives in well under a millisecond: too little to time one
by one against timer and scheduler noise. This benchmark builds all of
them in every round, over 5 rounds, so the perf gate gets one
derivation entry that measures work rather than noise.
"""

from repro.experiments.registry import get_experiment

DERIVED_EXHIBITS = (
    "figure1", "figure2", "figure3", "figure4", "figure5", "figure7",
    "figure8", "figure9", "figure10",
    "table1", "table2", "table3", "table4", "table5", "table6",
    "table7", "table8", "table9", "table10", "table11", "table12",
    "tr-distributions",
)


def derive_all(ctx):
    """Build every exhibit afresh (the context's exhibit memo is not
    consulted, so each round repeats the whole derivation)."""
    return [get_experiment(exhibit_id).build(ctx) for exhibit_id in DERIVED_EXHIBITS]


def test_bench_derive_exhibits(benchmark, warm_ctx):
    exhibits = benchmark.pedantic(
        derive_all, args=(warm_ctx,), rounds=5, iterations=1
    )
    benchmark.extra_info["exhibits"] = len(exhibits)
    for exhibit in exhibits:
        print()
        print(exhibit.to_text())
        assert exhibit.rows
