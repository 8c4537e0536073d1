"""Self-test of the benchmark harness, at a tiny 2 ms / 20 ms window.

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

from benchmarks.e2e import compare, harness
from benchmarks.e2e.tracing import (
    SIM_LAYERS, Recorder, _raw_attribute, coarse_targets, hot_targets, instrument,
)
from benchmarks.e2e.workloads import WORKLOADS, decode, encode, merge

BENCHMARK = harness.load_json(harness.BENCHMARK_JSON)


def tiny(name: str):
    """The named workload at a 2 ms / 20 ms window."""
    return dataclasses.replace(WORKLOADS[name], horizon_ms=2.0, warmup_ms=20.0)


@pytest.fixture(autouse=True)
def _hermetic(monkeypatch):
    for name in list(os.environ):
        if name.startswith("REPRO_"):
            monkeypatch.delenv(name)


@pytest.fixture(scope="module")
def records():
    """One traced two-round run of every workload (few served requests)."""
    saved = harness.SERVED_REQUESTS
    harness.SERVED_REQUESTS = 44
    try:
        return {
            name: harness.run_workload(tiny(name), seed=3, rounds=2, trace=True)
            for name in WORKLOADS
        }
    finally:
        harness.SERVED_REQUESTS = saved


def run_round(workload, state, traced=False):
    modules = workload.exhibit_modules()
    with instrument(Recorder(), modules, traced=traced):
        return merge([part() for part in workload.parts(state)])


def test_every_metric_is_emitted_with_its_unit(records):
    for name, record in records.items():
        assert record["correct"], (name, record["errors"])
        for trace, wanted in ((False, "end_to_end"), (True, "per_layer")):
            line = harness.result_line(record, trace=trace)
            assert set(line) == {"correct", "attempted", "failed", "metrics"}
            expected = {m["name"]: m["unit"] for m in BENCHMARK[wanted]}
            assert {k: v["unit"] for k, v in line["metrics"].items()} == expected
            for metric in BENCHMARK[wanted]:
                assert record["metrics"][metric["name"]]["unit"] == metric["unit"]
            json.dumps(line)
        for metric in BENCHMARK["end_to_end"]:
            assert record["metrics"][metric["name"]]["value"] > 0, (name, metric)


def test_digest_is_stable_across_rounds(records):
    for record in records.values():
        assert record["failed"] == 0
        assert record["attempted"] >= 3  # two timed rounds, one traced
    workload = tiny("pmake-detailed")
    state = harness.State(seed=5)
    first, second = run_round(workload, state), run_round(workload, state)
    assert first.digest == second.digest
    assert first.counts == second.counts


def test_traced_counts_equal_untraced_counts():
    workload = tiny("oracle-mixed")
    state = harness.State(seed=5)
    untraced = run_round(workload, state)
    traced = run_round(workload, state, traced=True)
    assert traced.counts == untraced.counts
    assert traced.digest == untraced.digest
    assert untraced.counts["memsys.atomic_refs"] > 0


def test_patched_attributes_are_restored():
    modules = tiny("warm-rebuild").exhibit_modules()
    targets = coarse_targets(modules) + hot_targets()
    originals = [
        (owner, name, _raw_attribute(owner, name))
        for _, owner, names in targets for name in names
    ]
    assert len(originals) > 40
    with pytest.raises(KeyError):
        with instrument(Recorder(), modules, traced=True):
            for owner, name, original in originals:
                assert _raw_attribute(owner, name) is not original
            raise KeyError("unwinds through the patches")
    for owner, name, original in originals:
        assert _raw_attribute(owner, name) is original, (owner, name)


def test_sim_layer_self_times_add_up_to_the_simulation_total(records):
    for name, record in records.items():
        layers = record["traced_layers"]
        total = layers["sim.setup"]["total_s"] + layers["sim.loop"]["total_s"]
        self_sum = sum(layers[layer]["self_s"] for layer in SIM_LAYERS if layer in layers)
        assert total > 0
        assert abs(self_sum - total) <= 0.05 * total, (name, self_sum, total)
        # The master tracer only wakes once a trace buffer fills, which a
        # 22 ms run may not reach.
        for layer in set(SIM_LAYERS) - {"monitor.master"}:
            assert record["metrics"][f"{layer}.calls"]["value"] > 0, (name, layer)


def test_served_phase_checks_every_reply(records):
    metrics = records["warm-rebuild"]["metrics"]
    assert metrics["service.requests"]["value"] == 44
    assert 0 < metrics["service.p50_ms"]["value"] <= metrics["service.p99_ms"]["value"]
    assert metrics["service.warm_hit_ratio"]["value"] > 0.5
    assert metrics["runcache.loads"]["value"] == 3


def test_workload_definitions_round_trip():
    for workload in WORKLOADS.values():
        assert decode(encode(workload)) == workload


def test_pinned_digests_belong_to_the_current_definitions():
    spec = harness.load_json(harness.SPEC_JSON)
    assert set(spec["pinned"]) == set(WORKLOADS)
    for name, pin in spec["pinned"].items():
        assert pin["seed"] == spec["default_seed"]
        assert harness.pinned_digest(WORKLOADS[name], pin["seed"]) == pin["digest"]


def test_hermetic_env_strips_repro_knobs():
    env = harness.hermetic_env({"REPRO_CHECK": "1", "REPRO_SHARDS": "4", "KEEP": "x"})
    assert not [k for k in env if k.startswith("REPRO_")]
    assert env["KEEP"] == "x"
    assert str(harness.ROOT / "src") in env["PYTHONPATH"].split(os.pathsep)


def _doc(value, spread=0.0, cores=2, seed=7):
    entry = {"value": value, "unit": "s", "median": value,
             "q1": value * (1 - spread / 2), "q3": value * (1 + spread / 2),
             "min": value * (1 - spread), "max": value * (1 + spread), "n": 5}
    metrics = {m["name"]: dict(entry) for m in BENCHMARK["end_to_end"]}
    return {"host_cores": cores, "seed": seed, "workloads": {
        "pmake-detailed": {"metrics": metrics, "environment": {"settings": {"h": 1}}},
    }}


def test_compare_verdicts():
    bound = 0.2
    base = _doc(1.0)["workloads"]["pmake-detailed"]["metrics"]["setup_s"]
    worse = _doc(1.3)["workloads"]["pmake-detailed"]["metrics"]["setup_s"]
    noisy = _doc(1.05, spread=0.5)["workloads"]["pmake-detailed"]["metrics"]["setup_s"]
    assert compare.verdict(base, base, bound, True) == "same"
    assert compare.verdict(base, worse, bound, True) == "worse"
    assert compare.verdict(worse, base, bound, True) == "better"
    assert compare.verdict(base, noisy, bound, True) == "unresolved"
    assert compare.verdict(base, worse, bound, False) == "better"


def test_compare_refuses_different_hosts(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(_doc(1.0)))
    b.write_text(json.dumps(_doc(1.0, cores=4)))
    assert compare.main(str(a), str(b), out=open(tmp_path / "out", "w")) == 2
    b.write_text(json.dumps(_doc(1.0)))
    assert compare.main(str(a), str(b), out=open(tmp_path / "out", "w")) == 0


def test_fails_without_the_program(tmp_path):
    """Only BENCHMARK.json and the benchmark's own files: no result."""
    shutil.copy(harness.BENCHMARK_JSON, tmp_path / "BENCHMARK.json")
    shutil.copytree(harness.HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "pmake-detailed",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
