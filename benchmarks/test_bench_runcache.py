"""Benchmark loading the three base runs from the run cache.

This is the load a warm cache hit pays before any exhibit derives:
``warm-rebuild`` in ``benchmarks/e2e`` spends most of each round in it.
The session's runs are stored once into a private cache directory; each
round then loads all three through a fresh :class:`RunCache`, with the
previous round's payloads dropped and garbage collected in the untimed
set-up, as the end-to-end harness does before each round.
"""

from __future__ import annotations

import gc

from repro.sim.runcache import RunCache

WORKLOADS = ("pmake", "multpgm", "oracle")
ROUNDS = 5


def test_bench_runcache_load(benchmark, warm_ctx, tmp_path, monkeypatch):
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
    settings = warm_ctx.settings
    store = RunCache(cache_dir=tmp_path)
    keys = []
    for workload in WORKLOADS:
        key = store.run_key(
            workload, settings.horizon_ms, settings.warmup_ms, settings.seed,
            settings.sim_kwargs(),
        )
        payload = {"run": warm_ctx.run(workload), "report": warm_ctx.report(workload)}
        assert store.store(key, payload)
        keys.append(key)
    loaded, hits = [], []

    def fresh_round():
        loaded.clear()
        gc.collect()
        return (RunCache(cache_dir=tmp_path),), {}

    def load_all(cache):
        loaded.extend(cache.load(key) for key in keys)
        hits.append(cache.hits)

    benchmark.pedantic(load_all, setup=fresh_round, rounds=ROUNDS, iterations=1)
    assert hits == [len(keys)] * ROUNDS
    assert all(payload["run"] is not None for payload in loaded)
    benchmark.extra_info["load_mb"] = round(
        sum(store._path(key).stat().st_size for key in keys) / 1e6, 3
    )
