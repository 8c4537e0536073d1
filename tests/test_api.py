"""repro.api: the stable facade, keyword validation, the removed
deprecation shims and the structured exhibit output that rides on them."""

import importlib
import json

import pytest

from repro import api
from repro.api import Exhibit, ExperimentContext, RunSettings

_SHORT = dict(horizon_ms=1.0, warmup_ms=5.0, seed=5)


class TestFacadeSurface:
    def test_all_names_importable(self):
        for name in api.__all__:
            assert getattr(api, name) is not None

    def test_run_returns_traced_run(self):
        run = api.run("pmake", **_SHORT)
        assert isinstance(run, api.TracedRun)
        assert run.check_report is None

    def test_run_checked(self):
        run = api.run("pmake", check=True, **_SHORT)
        assert run.check_report is not None
        assert run.check_report.ok, run.check_report.to_text()

    def test_report_from_existing_run(self):
        run = api.run("pmake", **_SHORT)
        report = api.report("pmake", run=run)
        assert isinstance(report, api.AnalysisReport)

    def test_report_simulates_when_no_run_given(self):
        report = api.report("pmake", **_SHORT)
        assert report.os_stall_pct >= 0.0

    def test_sim_kwargs_pass_through(self):
        from repro.kernel.kernel import KernelTuning

        run = api.run("pmake", tuning=KernelTuning(quantum_ms=30.0), **_SHORT)
        assert run.kernel.tuning.quantum_ms == 30.0


class TestKeywordValidation:
    def test_unknown_kwarg_rejected_with_names(self):
        with pytest.raises(TypeError) as excinfo:
            api.run("pmake", horizon=5.0)
        message = str(excinfo.value)
        assert "'horizon'" in message
        assert "horizon_ms" in message  # the valid names are listed

    def test_report_validates_too(self):
        with pytest.raises(TypeError, match="sede"):
            api.report("pmake", sede=3)

    def test_removed_shards_knob_rejected_everywhere(self):
        """The analysis is serial only; a leftover ``shards`` setting
        fails loudly at every layer instead of being ignored."""
        from repro.experiments.cli import main as cli_main

        with pytest.raises(TypeError, match="'shards'"):
            api.run("pmake", shards=2)
        with pytest.raises(TypeError, match="'shards'"):
            api.report("pmake", run=object(), shards=2)
        with pytest.raises(TypeError, match="'shards'"):
            api.exhibit("table1", shards=2)
        with pytest.raises(TypeError, match="'shards'"):
            ExperimentContext(RunSettings(**_SHORT)).run("pmake", shards=2)
        with pytest.raises(TypeError, match="shards"):
            RunSettings(shards=2)
        with pytest.raises(SystemExit):
            cli_main(["run", "table1", "--shards", "2"])

    def test_valid_settings_accepted(self):
        # Every RunSettings field spelled correctly goes through.
        run = api.run("pmake", horizon_ms=1.0, warmup_ms=5.0, seed=9)
        assert run is not None


class TestStrictContextOverrides:
    def test_unknown_override_rejected(self):
        ctx = ExperimentContext(RunSettings(**_SHORT))
        with pytest.raises(TypeError) as excinfo:
            ctx.run("pmake", horizont_ms=2.0)
        message = str(excinfo.value)
        assert "'horizont_ms'" in message
        assert "horizon_ms" in message

    def test_report_override_rejected(self):
        ctx = ExperimentContext(RunSettings(**_SHORT))
        with pytest.raises(TypeError):
            ctx.report("pmake", sneed=1)

    def test_valid_overrides_still_work(self):
        ctx = ExperimentContext(RunSettings(**_SHORT))
        run = ctx.run("pmake", seed=11)
        assert run is ctx.run("pmake", seed=11)  # memoized per override set

    def test_checked_override(self):
        ctx = ExperimentContext(RunSettings(**_SHORT))
        run = ctx.run("pmake", check=True)
        assert run.check_report is not None
        held = [(run, ctx.report("pmake", check=True))]
        assert list(ctx._runs.values()) == held


class TestDeprecationShims:
    """The deprecated deep-import paths are gone and fail loudly."""

    def test_sim_session_warns_and_aliases(self):
        with pytest.raises(ModuleNotFoundError, match="repro.sim.session"):
            importlib.import_module("repro.sim.session")

    def test_experiments_base_warns_and_aliases(self):
        with pytest.raises(
            ModuleNotFoundError, match="repro.experiments.base"
        ):
            importlib.import_module("repro.experiments.base")

    def test_shimmed_run_matches_facade_run(self):
        """The old paths are gone; the facade is the one way in."""
        import repro

        with pytest.raises(ModuleNotFoundError):
            from repro.sim.session import run_traced_workload  # noqa: F401
        assert not hasattr(repro, "run_traced_workload")
        run = api.run("pmake", **_SHORT)
        assert run.workload_name == "pmake"


class TestExhibitJson:
    def _exhibit(self):
        exhibit = Exhibit("table0", "A title", ("a", "b"))
        exhibit.add_row("x", 1.5)
        exhibit.add_row("y", 2)
        exhibit.note("a note")
        return exhibit

    def test_round_trip(self):
        exhibit = self._exhibit()
        clone = Exhibit.from_dict(json.loads(exhibit.to_json()))
        assert clone.to_text() == exhibit.to_text()
        assert clone.to_dict() == exhibit.to_dict()

    def test_coverage_round_trips(self):
        exhibit = self._exhibit()
        exhibit.check_coverage.append("sanitizers [pmake]: clean (...)")
        clone = Exhibit.from_dict(exhibit.to_dict())
        assert clone.check_coverage == exhibit.check_coverage
        assert "check: sanitizers" in clone.to_text()

    def test_unchecked_dict_has_no_coverage_key(self):
        assert "check_coverage" not in self._exhibit().to_dict()

    def test_add_check_coverage_skips_unchecked_runs(self):
        exhibit = self._exhibit()
        run = api.run("pmake", **_SHORT)
        exhibit.add_check_coverage(run)
        assert exhibit.check_coverage == []

    def test_add_check_coverage_records_checked_runs(self):
        exhibit = self._exhibit()
        run = api.run("pmake", check=True, **_SHORT)
        exhibit.add_check_coverage(run)
        assert len(exhibit.check_coverage) == 1
        assert "clean" in exhibit.check_coverage[0]


class TestCliJsonFormat:
    def test_json_output_parses_and_matches_text(self, tmp_path, capsys):
        from repro.experiments.cli import main

        argv_common = [
            "run", "table11", "--horizon-ms", "1", "--warmup-ms", "5",
            "--seed", "5", "--jobs", "1", "--cache-dir", str(tmp_path),
        ]
        assert main(argv_common) == 0
        text_out = capsys.readouterr().out
        assert main(argv_common + ["--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert isinstance(payload, list) and len(payload) == 1
        exhibit = Exhibit.from_dict(payload[0])
        assert exhibit.exhibit_id == "table11"
        # The JSON carries exactly what the text rendering shows.
        assert exhibit.to_text() in text_out


class TestExhibitFacade:
    def test_exhibit_builds_without_cache(self):
        exhibit = api.exhibit("table11", cache=False, **_SHORT)
        assert exhibit.exhibit_id == "table11"
        assert exhibit.rows

    @pytest.mark.usefixtures("cache_env")
    def test_exhibit_uses_cache(self, tmp_path):
        from repro.api import RunCache

        cache = RunCache(cache_dir=tmp_path / "c")
        cold = api.exhibit("table11", cache=cache, **_SHORT)
        warm_cache = RunCache(cache_dir=tmp_path / "c")
        warm = api.exhibit("table11", cache=warm_cache, **_SHORT)
        assert warm_cache.hits >= 1 and warm_cache.stores == 0
        assert warm.to_json() == cold.to_json()

    def test_exhibit_rejects_unknown_setting(self):
        with pytest.raises(TypeError, match="horizont_ms"):
            api.exhibit("table11", horizont_ms=1.0)

    def test_exhibit_rejects_ctx_plus_settings(self):
        ctx = ExperimentContext(RunSettings(**_SHORT))
        with pytest.raises(TypeError, match="not both"):
            api.exhibit("table11", ctx=ctx, horizon_ms=1.0)

    def test_exhibit_with_shared_ctx_memoizes_runs(self):
        ctx = ExperimentContext(RunSettings(**_SHORT))
        first = api.exhibit("table11", ctx=ctx)
        second = api.exhibit("table11", ctx=ctx)
        assert first.to_json() == second.to_json()

    def test_list_exhibits_metadata(self):
        listed = api.list_exhibits()
        ids = [meta["id"] for meta in listed]
        assert "table1" in ids and "figure4" in ids
        for meta in listed:
            assert set(meta) == {
                "id", "title", "kind", "paper", "has_chart", "description",
            }
        by_id = {meta["id"]: meta for meta in listed}
        assert by_id["table1"]["kind"] == "table"
        assert by_id["figure4"]["kind"] == "figure"
        assert by_id["table1"]["paper"] is True


class TestCoverageJsonRoundTrip:
    def test_check_coverage_survives_json(self):
        """Regression: the JSON wire format (what repro.service serves)
        must carry check_coverage through from_dict intact."""
        exhibit = Exhibit("table0", "A title", ("a", "b"))
        exhibit.add_row("x", 1.5)
        exhibit.check_coverage.append("sanitizers [pmake]: clean (...)")
        wire = json.loads(exhibit.to_json())
        clone = Exhibit.from_dict(wire)
        assert clone.check_coverage == exhibit.check_coverage
        assert clone.to_json() == exhibit.to_json()

    def test_checked_exhibit_json_round_trip(self):
        ctx = ExperimentContext(
            RunSettings(horizon_ms=1.0, warmup_ms=5.0, seed=5, check=True)
        )
        exhibit = api.exhibit("table11", ctx=ctx)
        assert exhibit.check_coverage, "checked build must record coverage"
        clone = Exhibit.from_dict(json.loads(exhibit.to_json()))
        assert clone.check_coverage == exhibit.check_coverage
        assert clone.to_json() == exhibit.to_json()
