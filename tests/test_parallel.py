"""Parallel runner determinism: serial and --jobs N output must be identical."""

from __future__ import annotations

import dataclasses

import pytest

from repro.experiments import parallel
from repro.api import ExperimentContext, RunSettings
from repro.experiments.registry import run_experiment
from repro.sim.runcache import RunCache

# Tiny windows keep the three-per-context simulations cheap.
_SMALL = RunSettings(horizon_ms=4.0, warmup_ms=10.0, seed=5)
_EXHIBITS = ["table1", "table3", "figure3"]


@pytest.fixture(scope="module")
def serial_texts():
    ctx = ExperimentContext(_SMALL)
    return {e: run_experiment(e, ctx).to_text() for e in _EXHIBITS}


def test_default_jobs_bounds():
    jobs = parallel.default_jobs()
    assert 1 <= jobs <= 3


def test_parallel_matches_serial_without_cache(serial_texts):
    ctx = ExperimentContext(_SMALL)
    built = parallel.run_exhibits(ctx, _EXHIBITS, jobs=3)
    assert [e for e, _ in built] == _EXHIBITS
    for exhibit_id, exhibit in built:
        assert exhibit.to_text() == serial_texts[exhibit_id]


@pytest.mark.usefixtures("cache_env")
def test_parallel_matches_serial_with_cache(serial_texts, tmp_path):
    cold = ExperimentContext(_SMALL, cache=RunCache(cache_dir=tmp_path))
    built = parallel.run_exhibits(cold, _EXHIBITS, jobs=3)
    for exhibit_id, exhibit in built:
        assert exhibit.to_text() == serial_texts[exhibit_id]

    # Second, warm context: everything must come from disk, unchanged.
    warm = ExperimentContext(_SMALL, cache=RunCache(cache_dir=tmp_path))
    rebuilt = parallel.run_exhibits(warm, _EXHIBITS, jobs=3)
    for exhibit_id, exhibit in rebuilt:
        assert exhibit.to_text() == serial_texts[exhibit_id]
    assert warm.cache.hits == len(_EXHIBITS)
    assert warm.cache.misses == 0


@pytest.mark.parametrize(
    "settings",
    [
        dataclasses.replace(_SMALL, fidelity="mixed"),
        dataclasses.replace(_SMALL, machine="cpus8"),
    ],
    ids=["mixed", "cpus8"],
)
def test_parallel_matches_serial_at_non_default_settings(settings):
    """The pool's base runs are simulated at the context's settings,
    not at the default engine tier and machine."""
    serial_ctx = ExperimentContext(settings)
    serial = {e: run_experiment(e, serial_ctx).to_text() for e in _EXHIBITS}
    built = parallel.run_exhibits(ExperimentContext(settings), _EXHIBITS, jobs=3)
    assert {e: exhibit.to_text() for e, exhibit in built} == serial


def test_parallel_keeps_only_base_runs(serial_texts):
    """Workers return only exhibits: the caller's context holds the three
    base runs and none of the five runs figure-skew's sweep adds."""
    ctx = ExperimentContext(_SMALL)
    parallel.run_exhibits(ctx, ["table1", "figure-skew"], jobs=2)
    assert {"table1", "figure-skew"} <= set(ctx.exhibit_cache)
    assert ctx.exhibit_cache["table1"].to_text() == serial_texts["table1"]
    assert set(ctx._runs) == {
        (workload, ctx.settings) for workload in parallel.BASE_WORKLOADS
    }
    # Further serial derivations reuse the base runs.
    assert run_experiment("table4", ctx).to_text()


def test_single_exhibit_stays_serial(serial_texts):
    """jobs>1 with one target must not spin up a pool (and must match)."""
    ctx = ExperimentContext(_SMALL)
    built = parallel.run_exhibits(ctx, ["table1"], jobs=3)
    assert built[0][1].to_text() == serial_texts["table1"]


def test_jobs_one_is_pure_serial(serial_texts):
    ctx = ExperimentContext(_SMALL)
    built = parallel.run_exhibits(ctx, _EXHIBITS, jobs=1)
    for exhibit_id, exhibit in built:
        assert exhibit.to_text() == serial_texts[exhibit_id]


def test_cli_defaults_track_runsettings(monkeypatch, cli_settings):
    """argparse defaults must come from RunSettings, not hardcoded copies."""
    for name in ("REPRO_BENCH_HORIZON_MS", "REPRO_BENCH_WARMUP_MS",
                 "REPRO_FIDELITY", "REPRO_FAST_FORWARD", "REPRO_MACHINE",
                 "REPRO_CHECK"):
        monkeypatch.delenv(name, raising=False)
    assert cli_settings([]) == RunSettings()


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_cli_rejects_unknown_exhibit_before_any_work(
    monkeypatch, capsys, cli_settings, jobs
):
    """An unknown id exits 2 with the choices, before a context or pool
    exists (a context would mean settings were resolved and work began)."""
    from repro.experiments import cli

    def no_context(*args, **kwargs):
        raise AssertionError("context built for an unknown exhibit")

    monkeypatch.setattr(cli, "ExperimentContext", no_context)
    assert cli.main(["run", "bogus", "--jobs", jobs, "--no-cache"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: unknown exhibit 'bogus'; choose from")
    assert "table1" in captured.err
    assert captured.out == ""
    # An alias still resolves and reaches the context.
    settings = cli_settings(["--jobs", jobs], exhibit="scaling")
    assert isinstance(settings, RunSettings)


@pytest.mark.usefixtures("cache_env")
def test_parallel_cache_stats_count_worker_stores(tmp_path):
    """Pool workers store the base runs and exhibits; the caller's cache
    counts those stores, so its stats line matches the files on disk,
    and each entry is probed once, as a cold serial run probes it."""
    stats = {}
    for jobs in (1, 2):
        cache_dir = tmp_path / f"jobs{jobs}"
        ctx = ExperimentContext(_SMALL, cache=RunCache(cache_dir=cache_dir))
        parallel.run_exhibits(ctx, ["table1", "table3"], jobs=jobs)
        written = len(list(cache_dir.glob("*.pkl")))
        assert written == 5  # three base runs and two exhibits
        assert ctx.cache.stores == ctx.cache.misses == written
        stats[jobs] = ctx.cache.stats()
    assert stats[2] == stats[1]


def test_cli_parallel_output_matches_serial(tmp_path, capsys):
    from repro.experiments.cli import main

    args = ["--horizon-ms", "4", "--warmup-ms", "10", "--no-cache"]
    assert main(["run", "table3", "--jobs", "1"] + args) == 0
    serial_out = capsys.readouterr().out
    assert main(["run", "table3", "--jobs", "3"] + args) == 0
    parallel_out = capsys.readouterr().out
    assert parallel_out == serial_out
    assert "table3" in serial_out


class TestWorkerFailureSurfacing:
    """Worker failures must abort the run loudly — never degrade to serial."""

    def test_worker_boundary_wraps_with_traceback(self):
        def boom():
            raise KeyError("inner detail")

        with pytest.raises(parallel.ParallelWorkerError) as exc_info:
            parallel._worker_boundary("exhibit 'x'", boom)
        message = str(exc_info.value)
        assert "exhibit 'x'" in message
        assert "KeyError" in message
        assert "Traceback" in message  # worker-side traceback ships as text
        # No __cause__ chaining: causes do not survive pool pickling.
        assert exc_info.value.__cause__ is None

    def test_worker_boundary_passes_results_through(self):
        assert parallel._worker_boundary("t", lambda a, b: a + b, 1, 2) == 3

    def test_pool_map_wraps_pool_level_deaths(self):
        class DeadPool:
            def map(self, fn, tasks, chunksize=1):
                raise ImportError("No module named 'numpy'")

        with pytest.raises(
            parallel.ParallelWorkerError, match="stage-x pool failed"
        ) as exc_info:
            parallel._pool_map(DeadPool(), None, [], "stage-x")
        assert "ImportError" in str(exc_info.value)

    def test_pool_map_reraises_worker_errors_verbatim(self):
        class FailingPool:
            def map(self, fn, tasks, chunksize=1):
                raise parallel.ParallelWorkerError("worker failed on exhibit 'y'")

        with pytest.raises(parallel.ParallelWorkerError, match="exhibit 'y'"):
            parallel._pool_map(FailingPool(), None, [], "stage")

    @pytest.mark.skipif(
        __import__("multiprocessing").get_start_method() != "fork",
        reason="in-parent monkeypatch reaches workers only under fork",
    )
    def test_failing_build_aborts_real_pool_run(self, monkeypatch):
        def broken_inner(exhibit_id):
            raise RuntimeError("simulated worker crash")

        monkeypatch.setattr(parallel, "_build_exhibit_inner", broken_inner)
        ctx = ExperimentContext(_SMALL)
        with pytest.raises(
            parallel.ParallelWorkerError, match="simulated worker crash"
        ):
            parallel.run_exhibits(ctx, _EXHIBITS, jobs=3)

    def test_cli_exits_3_on_worker_failure(self, monkeypatch, capsys):
        from repro.experiments import cli

        def boom(ctx, targets, jobs=None):
            raise parallel.ParallelWorkerError(
                "worker failed on exhibit 'table3': ValueError: boom"
            )

        monkeypatch.setattr(cli.parallel, "run_exhibits", boom)
        rc = cli.main([
            "run", "table3", "--jobs", "2",
            "--horizon-ms", "1", "--warmup-ms", "2", "--no-cache",
        ])
        assert rc == 3
        captured = capsys.readouterr()
        assert "parallel run failed" in captured.err
        assert "table3" in captured.err
        assert captured.out == ""  # no partial exhibit output
