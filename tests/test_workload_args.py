"""Workload-args plumbing: cache-key discipline end to end.

The rule under test: tuned runs (non-empty ``workload_args``) must key
distinctly at every cache layer, while the empty default normalizes away
so every pre-existing key — run cache, exhibit cache, in-memory context
cache — stays byte-identical to before the knob existed.
"""

import dataclasses

import pytest

from repro.experiments._base import ExperimentContext, RunSettings
from repro.sim.runcache import RunCache, load_or_run

ARGS = (("skew", 1.2),)


@pytest.fixture
def cache(tmp_path):
    return RunCache(cache_dir=str(tmp_path / "cache"))


class TestCacheRepr:
    def test_default_is_legacy_byte_identical(self):
        assert RunSettings().cache_repr() == (
            "RunSettings(horizon_ms=80.0, warmup_ms=500.0, seed=7, "
            "check=False)"
        )

    def test_tuned_settings_enter_repr(self):
        settings = RunSettings(workload_args=ARGS)
        assert settings.cache_repr().endswith(
            "check=False, workload_args=(('skew', 1.2),))"
        )

    def test_dict_and_pairs_repr_identically(self):
        by_dict = RunSettings(workload_args={"skew": 1.2}).cache_repr()
        by_pairs = RunSettings(workload_args=ARGS).cache_repr()
        assert by_dict == by_pairs


class TestResolved:
    def test_empty_args_leave_sim_kwargs_empty(self):
        ctx = ExperimentContext(RunSettings())
        assert ctx._settings_for({}).sim_kwargs() == {}
        assert ctx._settings_for({"workload_args": ()}).sim_kwargs() == {}

    def test_tuned_args_resolve_canonically(self):
        ctx = ExperimentContext(RunSettings())
        settings = ctx._settings_for(
            {"workload_args": {"skew": 1.2, "keys": 64}}
        )
        assert settings.sim_kwargs() == {
            "workload_args": (("keys", 64), ("skew", 1.2))
        }

    def test_settings_args_flow_into_runs(self):
        ctx = ExperimentContext(RunSettings(workload_args=ARGS))
        assert ctx._settings_for({}).sim_kwargs() == {"workload_args": ARGS}

    def test_memory_key_canonicalizes(self):
        """The context keys runs by resolved settings: a dict and its
        pair-tuple form key (and hash) identically."""
        ctx = ExperimentContext(RunSettings())
        by_dict = ctx._settings_for({"workload_args": {"skew": 1.2}})
        by_pairs = ctx._settings_for({"workload_args": ARGS})
        bare = ctx._settings_for({})
        empty = ctx._settings_for({"workload_args": ()})
        assert by_dict == by_pairs and hash(by_dict) == hash(by_pairs)
        assert bare == empty and hash(bare) == hash(empty)
        assert by_pairs != bare


@pytest.mark.usefixtures("cache_env")
class TestRunKeys:
    def test_tuned_key_differs(self, cache):
        base = cache.run_key("kv", 2.0, 0.0, 3)
        tuned = cache.run_key("kv", 2.0, 0.0, 3, {"workload_args": ARGS})
        assert base != tuned

    def test_empty_args_normalize_to_default_entry(self, cache):
        """A default run and an explicit empty-args run share one entry."""
        load_or_run(cache, "kv", 1.0, 0.0, 3, {})
        load_or_run(cache, "kv", 1.0, 0.0, 3, {"workload_args": ()})
        assert cache.hits == 1 and cache.misses == 1

    def test_tuned_run_misses_default_entry(self, cache):
        load_or_run(cache, "kv", 1.0, 0.0, 3, {})
        run, _ = load_or_run(
            cache, "kv", 1.0, 0.0, 3, {"workload_args": ARGS}
        )
        assert cache.hits == 0 and cache.misses == 2
        assert run.simulation.workload.skew == 1.2

    def test_tuned_entry_round_trips(self, cache):
        load_or_run(cache, "kv", 1.0, 0.0, 3, {"workload_args": ARGS})
        fresh = RunCache(cache_dir=cache.cache_dir)
        run, _ = load_or_run(
            fresh, "kv", 1.0, 0.0, 3, {"workload_args": ARGS}
        )
        assert fresh.hits == 1
        assert run.simulation.workload.skew == 1.2


class TestServicePlumbing:
    def test_malformed_query_arg_is_400(self):
        from repro.service.app import ServiceApp, ServiceConfig

        app = ServiceApp(ServiceConfig(no_cache=True))
        reply = app.handle("GET", "/exhibits/table1", "workload_arg=skew")
        assert reply.status == 400
        assert "name=value" in reply.json()["error"]

    def test_apply_fidelity_folds_args_into_settings(self):
        """A service job carries the configured settings with the
        request's overrides applied; the knobs fold into its key."""
        from repro.service.jobs import Job

        settings = RunSettings()
        same = dataclasses.replace(settings, fidelity="detailed", fast_forward=0)
        assert Job("j1", "table1", same).variant == Job("j2", "table1", settings).variant
        tuned = dataclasses.replace(settings, workload_args={"skew": 1.2})
        assert tuned.workload_args == ARGS
        assert tuned.cache_repr() != settings.cache_repr()
        job = Job("j3", "table1", tuned)
        assert job.variant != Job("j4", "table1", settings).variant
        assert job.to_dict()["workload_args"] == [["skew", 1.2]]

    def test_cli_rejects_malformed_args(self, capsys):
        from repro.experiments.cli import main

        code = main(["run", "table1", "--workload-arg", "skew"])
        assert code == 2
        assert "name=value" in capsys.readouterr().err


class TestSkewExperiment:
    @pytest.fixture(scope="class")
    def exhibit(self):
        from repro.experiments.registry import run_experiment

        ctx = ExperimentContext(RunSettings(horizon_ms=6.0, warmup_ms=60.0))
        built = run_experiment("figure-skew", ctx)
        # Every swept point is a distinct tuned run in the context cache.
        assert len(ctx._runs) == len(built.rows)
        # Alias and canonical id share the context cache entry.
        assert run_experiment("skew", ctx) is built
        return built

    def test_row_structure(self, exhibit):
        assert [row[0] for row in exhibit.rows] == \
            ["kv", "kv", "kv", "kv", "netserver"]
        assert [row[1] for row in exhibit.rows[:4]] == \
            ["0", "0.7", "0.99", "1.2"]

    def test_hit_rate_responds_to_skew(self, exhibit):
        by_skew = {row[1]: float(row[2]) for row in exhibit.rows[:4]}
        assert by_skew["1.2"] > by_skew["0"] + 5.0
        assert by_skew["0.99"] >= by_skew["0"]

    def test_netserver_drives_streams_lock(self, exhibit):
        netserver = exhibit.rows[-1]
        streams_col = list(exhibit.columns).index("streams_x/ms")
        assert float(netserver[streams_col]) > 0.0

    def test_kv_only_knobs_do_not_reach_netserver(self):
        """A tuned sweep with kv-only knobs must not crash the last row."""
        from repro.experiments.figure_skew import _accepted
        from repro.workloads.kv import KvWorkload
        from repro.workloads.netserver import NetserverWorkload

        base = {"keys": 4096, "workers": 3, "skew": 1.2, "servers": 2}
        assert _accepted(KvWorkload, base) == {
            "keys": 4096, "workers": 3, "skew": 1.2
        }
        assert _accepted(NetserverWorkload, base) == {
            "skew": 1.2, "servers": 2
        }

    def test_chart_renders(self, exhibit):
        from repro.experiments.figure_skew import EXHIBIT_ID, chart
        from repro.experiments.registry import run_experiment

        ctx = ExperimentContext(RunSettings(horizon_ms=6.0, warmup_ms=60.0))
        ctx.exhibit_cache[EXHIBIT_ID] = exhibit
        figure = chart(ctx)
        assert "bchit%" in figure and "0.99" in figure
