"""The settings table: one row per RunSettings field, every spelling equal.

Each row of :data:`SETTINGS_TABLE` declares a field's CLI flag, env var
and service query param. These tests hold the entry points to it: the
experiments CLI, the env chain, ``?query`` on the service and the
``repro.api.exhibit`` keyword must all produce the same
:class:`RunSettings`, and so the same exhibit cache key.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro import api
from repro.experiments._base import (
    SETTINGS_TABLE,
    Exhibit,
    RunSettings,
    SettingsError,
    resolve_settings,
)
from repro.sim.runcache import RunCache

# RunSettings fields no entry point spells (set them from the library).
LIBRARY_ONLY = frozenset()

# One non-default value per row: (flag/env/query text, keyword value).
SAMPLES = {
    "horizon_ms": ("4", 4.0),
    "warmup_ms": ("12", 12.0),
    "seed": ("5", 5),
    "check": ("1", True),
    "fidelity": ("mixed", "mixed"),
    "fast_forward": ("20000", 20000),
    "machine": ("cpus8", "cpus8"),
    "workload_args": ("skew=1.2", {"skew": 1.2}),
}

# A row whose sample is spelled beside another row's: a fast-forward
# budget is refused unless the tier is mixed.
NEEDS = {"fast_forward": "fidelity"}

_ENV_VARS = [row.env for row in SETTINGS_TABLE if row.env]


class _Captured(Exception):
    pass


def _raise_settings(settings):
    raise _Captured(settings)


@pytest.fixture
def clean_env(monkeypatch):
    for name in _ENV_VARS:
        monkeypatch.delenv(name, raising=False)
    return monkeypatch


def _via_api(monkeypatch, **kwargs):
    import repro.experiments.registry as registry

    monkeypatch.setattr(
        registry, "run_experiment",
        lambda exhibit_id, ctx: _raise_settings(ctx.settings),
    )
    with pytest.raises(_Captured) as excinfo:
        api.exhibit("table1", cache=False, **kwargs)
    return excinfo.value.args[0]


def _via_query(monkeypatch, query):
    app = api.ServiceApp(api.ServiceConfig(no_cache=True))
    monkeypatch.setattr(
        app, "_warm_exhibit", lambda exhibit_id, settings: _raise_settings(settings)
    )
    with pytest.raises(_Captured) as excinfo:
        app.handle("GET", "/exhibits/table1", query)
    return excinfo.value.args[0]


def test_every_field_has_a_row():
    rows = [row.name for row in SETTINGS_TABLE]
    assert len(rows) == len(set(rows))
    fields = set(RunSettings.__dataclass_fields__)
    assert set(rows) | LIBRARY_ONLY == fields
    assert not set(rows) & LIBRARY_ONLY
    assert set(SAMPLES) == set(rows)


@pytest.mark.parametrize("row", SETTINGS_TABLE, ids=lambda row: row.name)
def test_every_spelling_builds_the_same_settings(clean_env, cli_settings, row):
    monkeypatch = clean_env
    rows = [row] + [r for r in SETTINGS_TABLE if r.name == NEEDS.get(row.name)]
    texts = {r.name: SAMPLES[r.name][0] for r in rows}
    values = {r.name: SAMPLES[r.name][1] for r in rows}
    expected = RunSettings(**values)
    assert expected != RunSettings()

    argv = []
    for r in rows:
        argv += [r.flag] if r.parse is None else [r.flag, texts[r.name]]
    spelled = {
        "flag": cli_settings(argv),
        "kwarg": _via_api(monkeypatch, **values),
    }
    if row.query:
        spelled["query"] = _via_query(
            monkeypatch, "&".join(f"{r.query}={texts[r.name]}" for r in rows)
        )
    if row.env:
        for r in rows:
            monkeypatch.setenv(r.env, texts[r.name])
        spelled["env (cli)"] = cli_settings([])
        spelled["env (api)"] = _via_api(monkeypatch)
        for r in rows:
            monkeypatch.delenv(r.env)

    cache = RunCache(enabled=False)
    expected_key = cache.exhibit_key("table1", expected)
    for spelling, settings in spelled.items():
        assert settings == expected, spelling
        assert cache.exhibit_key("table1", settings) == expected_key, spelling


def test_aliases_match_their_flags(clean_env, cli_settings):
    assert cli_settings(["--cpus", "8"]) == cli_settings(["--machine", "cpus8"])
    # --check-deep refines --check, in either order.
    deep = RunSettings(check="deep")
    assert cli_settings(["--check-deep"]) == deep
    assert cli_settings(["--check", "--check-deep"]) == deep
    assert cli_settings(["--check-deep", "--check"]) == deep


def test_explicit_spellings_beat_env(clean_env, cli_settings):
    clean_env.setenv("REPRO_MACHINE", "cpus16")
    clean_env.setenv("REPRO_BENCH_HORIZON_MS", "3")
    expected = RunSettings(horizon_ms=4.0, machine="cpus8")
    argv = ["--machine", "cpus8", "--horizon-ms", "4"]
    assert cli_settings(argv) == expected
    assert _via_api(clean_env, machine="cpus8", horizon_ms=4.0) == expected


def test_query_ignores_env_and_keeps_configured_settings(clean_env):
    """A query overrides the service's configured settings. The env was
    read once, at startup, so a startup flag that beat it keeps winning."""
    clean_env.setenv("REPRO_MACHINE", "cpus16")
    base = RunSettings(horizon_ms=2.0, machine="cpus8")
    assert resolve_settings(query={}, base=base, env={}) == base
    tuned = resolve_settings(query={"fidelity": ["mixed"]}, base=base, env={})
    assert tuned == dataclasses.replace(base, fidelity="mixed")


class TestRejections:
    def test_api_exhibit_rejects_atomic(self, clean_env):
        with pytest.raises(ValueError, match="traced run"):
            api.exhibit("table1", fidelity="atomic", cache=False)

    def test_check_with_atomic_names_check(self):
        with pytest.raises(SettingsError, match="check"):
            resolve_settings({"fidelity": "atomic", "check": True})

    def test_error_carries_choices(self):
        with pytest.raises(SettingsError) as excinfo:
            resolve_settings({"machine": "vax"})
        assert excinfo.value.args[0] == "unknown machine 'vax'"
        assert excinfo.value.choices[0] == "4d340"
        assert str(excinfo.value).endswith("choose from " + ", ".join(
            excinfo.value.choices))

    def test_names_limit_the_rows_read(self, clean_env):
        """validate reads no fidelity row, so REPRO_FIDELITY=atomic (fine
        for a Simulation) does not stop it."""
        clean_env.setenv("REPRO_FIDELITY", "atomic")
        clean_env.setenv("REPRO_FAST_FORWARD", "7")
        mixed = RunSettings(fidelity="mixed")
        settings = resolve_settings(names=("fast_forward",), base=mixed)
        assert settings == RunSettings(fidelity="mixed", fast_forward=7)

    @pytest.mark.parametrize("fidelity", ["detailed", "atomic"])
    def test_fast_forward_needs_mixed(self, clean_env, capsys, fidelity):
        """Only the mixed tier hands off from atomic to detailed, so a
        budget at any other tier is refused by keyword, flag, env var and
        query, before anything is simulated."""
        from repro.experiments.cli import main
        from repro.sim._session import Simulation

        refused = "fast_forward=5000 needs fidelity 'mixed'"
        with pytest.raises(ValueError, match=refused):
            Simulation("pmake", fidelity=fidelity, fast_forward=5000)
        with pytest.raises(ValueError, match=refused):
            api.exhibit("table1", fidelity=fidelity, fast_forward=5000, cache=False)
        argv = ["run", "table1", "--no-cache", "--fidelity", fidelity]
        assert main(argv + ["--fast-forward", "5000"]) == 2
        assert refused in capsys.readouterr().err
        clean_env.setenv("REPRO_FAST_FORWARD", "5000")
        assert main(argv) == 2
        assert refused in capsys.readouterr().err
        clean_env.delenv("REPRO_FAST_FORWARD")
        app = api.ServiceApp(api.ServiceConfig(no_cache=True))
        reply = app.handle(
            "GET", "/exhibits/table1", f"fidelity={fidelity}&fast_forward=5000"
        )
        assert reply.status == 400
        assert refused in reply.json()["error"]


def test_sweep_window():
    assert RunSettings().sweep_window() == (30.0, 250.0)
    assert RunSettings(horizon_ms=4.0).sweep_window() == (4.0, 250.0)
    assert RunSettings(warmup_ms=40.0).sweep_window() == (30.0, 40.0)


@pytest.mark.usefixtures("cache_env")
def test_cli_service_and_api_agree_under_env_machine(
    clean_env, tmp_path, capsys
):
    """Under REPRO_MACHINE=cpus8 the CLI's JSON entry, the served body and
    api.exhibit(...).to_json() are the same exhibit."""
    from repro.experiments.cli import main
    from repro.service.__main__ import build_config, build_parser

    clean_env.setenv("REPRO_MACHINE", "cpus8")
    window = ["--horizon-ms", "2", "--warmup-ms", "5"]
    cache_dir = str(tmp_path / "cache")
    assert main(["run", "table1", "--format", "json", "--jobs", "1",
                 "--cache-dir", cache_dir] + window) == 0
    (entry,) = json.loads(capsys.readouterr().out)

    config = build_config(build_parser().parse_args(
        ["--cache-dir", cache_dir] + window
    ))
    assert config.settings.machine == "cpus8"
    reply = api.ServiceApp(config).handle("GET", "/exhibits/table1")
    assert reply.status == 200  # built by the CLI, served from disk

    built = api.exhibit(
        "table1", horizon_ms=2.0, warmup_ms=5.0,
        cache=RunCache(cache_dir=cache_dir),
    )
    assert reply.body.decode() == built.to_json() + "\n"
    assert Exhibit.from_dict(entry).to_json() == built.to_json()
