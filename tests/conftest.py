"""Shared fixtures.

Traced-run fixtures are session scoped: a short simulation per workload
is reused by every analysis/integration test that only reads it. They
also go through the persistent run cache (`repro.sim.runcache`), so
repeated pytest sessions against unchanged simulator sources reload the
runs from disk instead of re-simulating; the key embeds a source digest,
so editing the simulator invalidates them automatically. Set
``REPRO_NO_CACHE=1`` to force fresh simulations.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager

import pytest

from repro.common.params import MachineParams
from repro.memsys.system import MemorySystem
from repro.sim.runcache import RunCache, load_or_run
from repro.api import TracedRun

_CACHE = RunCache()


@pytest.fixture
def cache_env(monkeypatch):
    """For tests that pin their own cache dirs: the ambient env must not
    silently disable or relocate them (CI runs tier-1 under
    ``REPRO_NO_CACHE=1``). Not autouse, so a bare ``RunCache()`` still
    honours the env."""
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)


@pytest.fixture
def cli_settings(monkeypatch):
    """``cli_settings(argv, exhibit="table1")``: the RunSettings the
    experiments CLI resolves for ``run <exhibit> <argv>``, captured where
    it would build its context, so nothing is simulated."""
    from repro.experiments import cli

    class Captured(Exception):
        pass

    def capture(settings, cache=None):
        raise Captured(settings)

    def settings_for(argv, exhibit="table1"):
        monkeypatch.setattr(cli, "ExperimentContext", capture)
        with pytest.raises(Captured) as excinfo:
            cli.main(["run", exhibit] + list(argv))
        return excinfo.value.args[0]

    return settings_for


@pytest.fixture
def odd_thresholds():
    """Distinctive GC thresholds, so a restore to the defaults shows."""
    original = gc.get_threshold()
    gc.set_threshold(691, 9, 11)
    try:
        yield (691, 9, 11)
    finally:
        gc.set_threshold(*original)


@pytest.fixture
def gc_collections():
    """``with gc_collections() as counts:`` counts the collections
    started inside the block, by generation, after a full collection
    that zeroes the collector's own counters."""

    @contextmanager
    def counting():
        counts = [0, 0, 0]

        def record(phase, info):
            if phase == "start":
                counts[info["generation"]] += 1

        gc.collect()
        gc.callbacks.append(record)
        try:
            yield counts
        finally:
            gc.callbacks.remove(record)

    return counting


@pytest.fixture
def params() -> MachineParams:
    return MachineParams()


@pytest.fixture
def memsys(params) -> MemorySystem:
    return MemorySystem(params)


def _run(workload: str, horizon_ms: float, warmup_ms: float, **kwargs) -> TracedRun:
    run, _ = load_or_run(
        _CACHE, workload, horizon_ms, warmup_ms, seed=3, sim_kwargs=kwargs
    )
    return run


@pytest.fixture(scope="session")
def pmake_run() -> TracedRun:
    """A short Pmake run with ground-truth events enabled."""
    return _run("pmake", horizon_ms=25.0, warmup_ms=60.0)


@pytest.fixture(scope="session")
def multpgm_run() -> TracedRun:
    return _run("multpgm", horizon_ms=20.0, warmup_ms=50.0)


@pytest.fixture(scope="session")
def oracle_run() -> TracedRun:
    return _run("oracle", horizon_ms=20.0, warmup_ms=50.0)


@pytest.fixture(scope="session", params=["pmake", "multpgm", "oracle"])
def any_run(request, pmake_run, multpgm_run, oracle_run) -> TracedRun:
    return {
        "pmake": pmake_run,
        "multpgm": multpgm_run,
        "oracle": oracle_run,
    }[request.param]


@pytest.fixture(scope="session")
def pmake_report(pmake_run):
    from repro.analysis.report import analyze_trace

    return analyze_trace(pmake_run)


@pytest.fixture(scope="session")
def nowarmup_run() -> TracedRun:
    """A run measured from t=0 so trace statistics can be compared with
    the simulator's cumulative ground truth."""
    return _run("pmake", horizon_ms=40.0, warmup_ms=0.0)


@pytest.fixture(scope="session")
def nowarmup_report(nowarmup_run):
    from repro.analysis.report import analyze_trace

    return analyze_trace(nowarmup_run)
