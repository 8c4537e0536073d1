"""Parallel runner determinism: serial and --jobs N output must be identical."""

from __future__ import annotations

import dataclasses

import pytest

from repro.experiments import paperdata, parallel
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
    for exhibit_id, build in built:
        assert build.exhibit.to_text() == serial_texts[exhibit_id]


@pytest.mark.usefixtures("cache_env")
def test_parallel_matches_serial_with_cache(serial_texts, tmp_path):
    cold = ExperimentContext(_SMALL, cache=RunCache(cache_dir=tmp_path))
    built = parallel.run_exhibits(cold, _EXHIBITS, jobs=3)
    for exhibit_id, build in built:
        assert build.exhibit.to_text() == serial_texts[exhibit_id]

    # Second, warm context: everything must come from disk, unchanged.
    warm = ExperimentContext(_SMALL, cache=RunCache(cache_dir=tmp_path))
    rebuilt = parallel.run_exhibits(warm, _EXHIBITS, jobs=3)
    for exhibit_id, build in rebuilt:
        assert build.exhibit.to_text() == serial_texts[exhibit_id]
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
    assert {e: build.exhibit.to_text() for e, build in built} == serial


def test_parallel_keeps_only_base_runs(serial_texts):
    """Each exhibit builds on a fresh context, in this process or a
    worker: the caller's context holds the three base runs and none of
    the five runs figure-skew's sweep adds."""
    for jobs in (1, 2):
        ctx = ExperimentContext(_SMALL)
        parallel.run_exhibits(ctx, ["table1", "figure-skew"], jobs=jobs)
        assert {"table1", "figure-skew"} <= set(ctx.exhibit_cache)
        assert ctx.exhibit_cache["table1"].to_text() == serial_texts["table1"]
        assert set(ctx._runs) == {
            (workload, ctx.settings) for workload in paperdata.WORKLOADS
        }, jobs
        # Further serial derivations reuse the base runs.
        assert run_experiment("table4", ctx).to_text()


def test_serial_build_simulates_only_what_it_reads(monkeypatch):
    """A cold serial table7 simulates pmake, the one run it reads: the
    build is handed the caller's runs, not pre-warmed base runs."""
    from repro.sim._session import Simulation

    built = []
    original = Simulation.__init__

    def spy(self, workload, *args, **kwargs):
        built.append(workload)
        original(self, workload, *args, **kwargs)

    monkeypatch.setattr(Simulation, "__init__", spy)
    ctx = ExperimentContext(_SMALL)
    parallel.run_exhibits(ctx, ["table7"], jobs=1)
    assert built == ["pmake"]
    assert set(ctx._runs) == {("pmake", ctx.settings)}


def test_single_exhibit_stays_serial(serial_texts):
    """jobs>1 with one target must not spin up a pool (and must match)."""
    ctx = ExperimentContext(_SMALL)
    built = parallel.run_exhibits(ctx, ["table1"], jobs=3)
    assert built[0][1].exhibit.to_text() == serial_texts["table1"]


def test_jobs_one_is_pure_serial(serial_texts):
    ctx = ExperimentContext(_SMALL)
    built = parallel.run_exhibits(ctx, _EXHIBITS, jobs=1)
    for exhibit_id, build in built:
        assert build.exhibit.to_text() == serial_texts[exhibit_id]


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


def _verdict_lines(built):
    return sorted(
        (verdict.report.summary(), verdict.crosscheck)
        for _, build in built for verdict in build.verdicts
    )


_CHECKED = dataclasses.replace(_SMALL, horizon_ms=2.0, warmup_ms=5.0, check=True)
# All three base runs, and two private variant runs.
_CHECKED_EXHIBITS = ["table2", "ablation-runqueues"]


def test_checked_verdicts_match_across_jobs(monkeypatch):
    """Serial or pooled, a checked build reports each run behind the
    exhibits once: the three base runs and the ablation's two runs.
    Only the two private runs, which have no held report, are analyzed
    for their verdicts."""
    monkeypatch.delenv("REPRO_CHECK", raising=False)
    analyzed = []
    analyze_trace = parallel.analyze_trace

    def spy(run, **kwargs):
        analyzed.append(run.workload_name)
        return analyze_trace(run, **kwargs)

    monkeypatch.setattr(parallel, "analyze_trace", spy)
    verdicts = {}
    for jobs in (1, 2):
        ctx = ExperimentContext(_CHECKED)
        built = parallel.run_exhibits(ctx, _CHECKED_EXHIBITS, jobs=jobs)
        verdicts[jobs] = _verdict_lines(built)
        if jobs == 1:  # pool workers append to their own copy
            assert analyzed == ["multpgm", "multpgm"]
        assert all(
            v.report.ok and v.crosscheck_ok
            for _, build in built for v in build.verdicts
        )
    assert verdicts[1] == verdicts[2]
    workloads = sorted(summary.split("[")[1].split("]")[0]
                       for summary, _ in verdicts[1])
    assert workloads == ["multpgm", "multpgm", "multpgm", "oracle", "pmake"]


@pytest.mark.skipif(
    __import__("multiprocessing").get_start_method() != "fork",
    reason="in-parent monkeypatch reaches workers only under fork",
)
def test_cli_check_exits_2_on_injected_mismatch(monkeypatch, capsys):
    """The corrupted checker counter of test_sanitizers'
    ``test_crosscheck_lines_flag_mismatch`` fails --check at every
    --jobs, pool workers included."""
    from repro.experiments import cli

    monkeypatch.delenv("REPRO_CHECK", raising=False)
    analyze_trace = parallel.analyze_trace

    def corrupted(run, **kwargs):
        report = analyze_trace(run, **kwargs)
        report.check_counters["bus_reads"] += 1
        return report

    # Everywhere a verdict's report is made: load_or_run (it imports
    # analyze_trace at call time) for the held base runs, and
    # check_verdicts for the private runs, which have none.
    monkeypatch.setattr("repro.analysis.report.analyze_trace", corrupted)
    monkeypatch.setattr(parallel, "analyze_trace", corrupted)
    # `run all` over two exhibits, so --jobs 2 takes the pool path.
    monkeypatch.setattr(
        cli, "EXPERIMENTS", {e: None for e in _CHECKED_EXHIBITS}
    )
    for jobs in ("1", "2"):
        rc = cli.main([
            "run", "all", "--check", "--jobs", jobs, "--no-cache",
            "--horizon-ms", "2", "--warmup-ms", "5", "--seed", "5",
        ])
        assert rc == 2, jobs
        lines = [
            line for line in capsys.readouterr().err.splitlines()
            if "crosscheck data_reads" in line
        ]
        assert len(lines) == 5, jobs
        assert all("MISMATCH" in line for line in lines), lines


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
        def broken_build(exhibit_id, *args):
            raise RuntimeError("simulated worker crash")

        monkeypatch.setattr(parallel, "build_exhibit", broken_build)
        ctx = ExperimentContext(_SMALL)
        with pytest.raises(
            parallel.ParallelWorkerError, match="simulated worker crash"
        ):
            parallel.run_exhibits(ctx, _EXHIBITS, jobs=3)

    def test_cli_exits_3_on_worker_failure(self, monkeypatch, capsys):
        """A failed build exits 3 naming the exhibit, with the build's
        traceback, serial or parallel."""
        from repro.experiments import cli

        def broken_build(exhibit_id, *args):
            raise ValueError("boom")

        monkeypatch.setattr(parallel, "build_exhibit", broken_build)
        for jobs in ("1", "2"):
            rc = cli.main([
                "run", "table3", "--jobs", jobs,
                "--horizon-ms", "1", "--warmup-ms", "2", "--no-cache",
            ])
            assert rc == 3, jobs
            captured = capsys.readouterr()
            assert "exhibit build failed" in captured.err
            assert "exhibit 'table3': ValueError: boom" in captured.err
            assert "Traceback" in captured.err
            assert captured.out == ""  # no partial exhibit output
