"""Persistent run-cache behaviour: hits, invalidation, corruption, escape hatches."""

from __future__ import annotations

import gc
import pickle
import sys
import threading

import pytest

from repro.analysis.report import AnalysisReport
from repro.sim.runcache import (
    _GC_NEVER,
    RunCache,
    cache_disabled_by_env,
    default_cache_dir,
    load_or_run,
    source_digest,
    young_gc_only,
)
from repro.api import RunSettings, TracedRun

# Tiny windows: these tests exercise cache plumbing, not the simulator.
HORIZON, WARMUP, SEED = 2.0, 5.0, 11


# These tests pin their own cache dirs.
pytestmark = pytest.mark.usefixtures("cache_env")


@pytest.fixture
def cache(tmp_path) -> RunCache:
    return RunCache(cache_dir=tmp_path / "cache")


def _get(cache, **kwargs):
    defaults = dict(
        workload="pmake", horizon_ms=HORIZON, warmup_ms=WARMUP, seed=SEED
    )
    defaults.update(kwargs)
    return load_or_run(cache, **defaults)


class TestHitMiss:
    def test_cold_miss_then_warm_hit(self, cache):
        run, _ = _get(cache)
        assert isinstance(run, TracedRun)
        assert (cache.hits, cache.misses, cache.stores) == (0, 1, 1)

        run2, _ = _get(cache)
        assert cache.hits == 1
        # The reloaded run carries the same measured state.
        assert run2.workload_name == run.workload_name
        assert run2.measure_from_cycles == run.measure_from_cycles
        assert list(run2.trace.all_entries()) == list(run.trace.all_entries())

    def test_cold_run_stores_its_report(self, cache):
        _, report = _get(cache)
        assert isinstance(report, AnalysisReport)
        fresh = RunCache(cache_dir=cache.cache_dir)
        _, report2 = _get(fresh)
        assert (fresh.hits, fresh.misses, fresh.stores) == (1, 0, 0)
        assert report2.analysis.user_ticks == report.analysis.user_ticks
        payload = fresh.load(cache.run_key("pmake", HORIZON, WARMUP, SEED))
        assert list(payload) == ["run", "report"]

    def test_report_less_entry_is_a_miss(self, cache):
        """An entry stored without its report is simulated again, and
        the new entry carries the report."""
        run, _ = _get(cache)
        key = cache.run_key("pmake", HORIZON, WARMUP, SEED)
        cache.store(key, {"run": run, "report": None})
        fresh = RunCache(cache_dir=cache.cache_dir)
        rerun, report = _get(fresh)
        assert isinstance(report, AnalysisReport)
        assert fresh.stores == 1
        assert list(rerun.trace.all_entries()) == list(run.trace.all_entries())
        assert isinstance(fresh.load(key)["report"], AnalysisReport)

    def test_context_run_then_report_stores_once(self, cache):
        """A cold ctx.run() then ctx.report() simulates, analyzes and
        stores the run once; both read the same in-memory entry."""
        from repro.api import ExperimentContext

        ctx = ExperimentContext(
            RunSettings(horizon_ms=HORIZON, warmup_ms=WARMUP, seed=SEED),
            cache=cache,
        )
        run = ctx.run("pmake")
        report = ctx.report("pmake")
        assert (cache.misses, cache.stores) == (1, 1)
        assert len(list(cache.cache_dir.glob("run-*.pkl"))) == 1
        assert ctx._runs == {("pmake", ctx.settings): (run, report)}

    def test_run_equivalent_to_fresh_simulation(self, cache):
        """A cache round-trip and a fresh simulation record the same trace."""
        run, _ = _get(cache)
        cached, _ = _get(RunCache(cache_dir=cache.cache_dir))
        fresh, _ = _get(None)
        reference = list(run.trace.all_entries())
        assert list(cached.trace.all_entries()) == reference
        assert list(fresh.trace.all_entries()) == reference


class TestInvalidation:
    def test_settings_change_misses(self, cache):
        _get(cache)
        _get(cache, horizon_ms=HORIZON + 1.0)
        assert cache.hits == 0 and cache.misses == 2

    def test_seed_and_workload_in_key(self, cache):
        base = cache.run_key("pmake", HORIZON, WARMUP, SEED)
        assert base == cache.run_key("pmake", HORIZON, WARMUP, SEED)
        assert base != cache.run_key("pmake", HORIZON, WARMUP, SEED + 1)
        assert base != cache.run_key("multpgm", HORIZON, WARMUP, SEED)

    def test_overrides_in_key(self, cache):
        base = cache.run_key("pmake", HORIZON, WARMUP, SEED)
        over = cache.run_key(
            "pmake", HORIZON, WARMUP, SEED, {"monitor_strict": True}
        )
        assert base != over

    def test_source_digest_stable_and_split(self):
        assert source_digest(False) == source_digest(False)
        assert source_digest(False) != source_digest(True)

    def test_check_flag_in_key(self, cache):
        """Checked and unchecked runs must never cross-reuse."""
        base = cache.run_key("pmake", HORIZON, WARMUP, SEED)
        checked = cache.run_key("pmake", HORIZON, WARMUP, SEED, {"check": True})
        assert base != checked

    def test_checked_run_misses_unchecked_entry(self, cache, monkeypatch):
        monkeypatch.delenv("REPRO_CHECK", raising=False)
        _get(cache)  # unchecked entry
        run, _ = _get(cache, sim_kwargs={"check": True})
        assert cache.hits == 0 and cache.misses == 2
        assert run.check_report is not None and run.check_report.ok
        # The checked entry round-trips with its report attached.
        fresh = RunCache(cache_dir=cache.cache_dir)
        reloaded, _ = load_or_run(
            fresh, "pmake", HORIZON, WARMUP, SEED, sim_kwargs={"check": True}
        )
        assert fresh.hits == 1
        assert reloaded.check_report is not None and reloaded.check_report.ok

    def test_explicit_check_false_matches_default(self, cache, monkeypatch):
        """check=False is normalized away: old unchecked entries stay valid."""
        monkeypatch.delenv("REPRO_CHECK", raising=False)
        _get(cache)
        _get(cache, sim_kwargs={"check": False})
        assert cache.hits == 1 and cache.misses == 1

    def test_env_check_enters_key(self, cache, monkeypatch):
        """REPRO_CHECK=1 resolves into the key (and into the simulation)."""
        monkeypatch.delenv("REPRO_CHECK", raising=False)
        _get(cache)
        monkeypatch.setenv("REPRO_CHECK", "1")
        run, _ = _get(cache)
        assert cache.hits == 0 and cache.misses == 2
        assert run.check_report is not None
        # Same env, second call: hits the checked entry, not the plain one.
        _get(cache)
        assert cache.hits == 1


class TestEnvCheckKeysEveryLayer:
    """REPRO_CHECK enters the settings, so checked runs and exhibits never
    land under a key an unchecked context reads."""

    def test_env_checked_context_leaves_nothing_unchecked(
        self, tmp_path, monkeypatch
    ):
        from repro import api
        from repro.api import ExperimentContext

        window = dict(horizon_ms=HORIZON, warmup_ms=WARMUP, seed=SEED)
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        monkeypatch.setenv("REPRO_CHECK", "1")
        checked = ExperimentContext(
            RunSettings(check=False, **window), cache=RunCache(tmp_path)
        )
        assert checked.run("pmake").check_report is not None
        checked.report("pmake")
        built = api.exhibit("table12", cache=RunCache(tmp_path), **window)
        assert built.check_coverage

        monkeypatch.delenv("REPRO_CHECK")
        plain = ExperimentContext(RunSettings(**window), cache=RunCache(tmp_path))
        assert plain.report("pmake") is not None
        assert plain.run("pmake").check_report is None
        exhibit = api.exhibit("table12", cache=RunCache(tmp_path), **window)
        assert not exhibit.check_coverage
        assert "check:" not in exhibit.to_text()


class TestCorruption:
    def test_corrupt_entry_falls_back_to_simulation(self, cache):
        run, _ = _get(cache)
        key = cache.run_key("pmake", HORIZON, WARMUP, SEED)
        path = cache._path(key)
        path.write_bytes(b"not a pickle at all")

        fresh = RunCache(cache_dir=cache.cache_dir)
        run2, _ = _get(fresh)
        assert fresh.hits == 0 and fresh.misses == 1
        assert list(run2.trace.all_entries()) == list(run.trace.all_entries())
        # The poisoned file was replaced by a good entry.
        with open(path, "rb") as fh:
            assert pickle.load(fh)["run"].workload_name == "pmake"

    def test_wrong_payload_type_is_a_miss(self, cache):
        key = "run-" + "0" * 40
        cache.cache_dir.mkdir(parents=True, exist_ok=True)
        cache._path(key).write_bytes(pickle.dumps([1, 2, 3]))
        assert cache.load(key) is None
        assert not cache._path(key).exists()


class TestEscapeHatches:
    def test_disabled_cache_never_touches_disk(self, tmp_path):
        cache = RunCache(cache_dir=tmp_path / "c", enabled=False)
        _get(cache)
        _get(cache)
        assert not (tmp_path / "c").exists()
        assert (cache.hits, cache.misses, cache.stores) == (0, 0, 0)

    def test_env_no_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        assert cache_disabled_by_env()
        cache = RunCache(cache_dir=tmp_path / "c")
        assert not cache.enabled
        monkeypatch.setenv("REPRO_NO_CACHE", "0")
        assert not cache_disabled_by_env()

    def test_env_cache_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "elsewhere"))
        assert default_cache_dir() == tmp_path / "elsewhere"
        assert RunCache().cache_dir == tmp_path / "elsewhere"

    def test_cli_no_cache_flag(self, tmp_path, capsys):
        from repro.experiments.cli import main

        assert main([
            "run", "table3",
            "--horizon-ms", "1", "--warmup-ms", "2",
            "--jobs", "1", "--no-cache", "--cache-dir", str(tmp_path / "c"),
        ]) == 0
        assert not (tmp_path / "c").exists()
        assert "table3" in capsys.readouterr().out


class TestClaimLock:
    """Advisory cold-run dedup: one claimant populates, waiters reuse."""

    def test_claim_is_exclusive_until_released(self, cache):
        key = cache.run_key("pmake", HORIZON, WARMUP, SEED)
        assert cache.claim(key)
        other = RunCache(cache_dir=cache.cache_dir)
        assert not other.claim(key)
        cache.release(key)
        assert other.claim(key)
        other.release(key)

    def test_claim_always_wins_when_disabled(self, tmp_path):
        disabled = RunCache(cache_dir=tmp_path / "c", enabled=False)
        key = "run-deadbeef"
        assert disabled.claim(key)
        assert disabled.claim(key)  # no claim file exists to collide with
        assert not (tmp_path / "c").exists()

    def test_stale_claim_is_broken(self, cache):
        import os
        import time as _time

        from repro.sim.runcache import STALE_CLAIM_S

        key = cache.run_key("pmake", HORIZON, WARMUP, SEED)
        assert cache.claim(key)
        lock = cache.cache_dir / f"{key}.lock"
        old = _time.time() - STALE_CLAIM_S - 60
        os.utime(lock, (old, old))
        # A fresh contender presumes the holder dead and takes over.
        other = RunCache(cache_dir=cache.cache_dir)
        assert other.claim(key)
        other.release(key)

    def test_release_is_idempotent(self, cache):
        key = cache.run_key("pmake", HORIZON, WARMUP, SEED)
        cache.release(key)  # nothing claimed: no error
        assert cache.claim(key)
        cache.release(key)
        cache.release(key)

    def test_wait_for_returns_none_when_claim_released_empty(self, cache):
        """Claim released without an entry: the waiter gives up and
        simulates itself (returns None immediately, no timeout burn)."""
        key = cache.run_key("pmake", HORIZON, WARMUP, SEED)
        assert cache.wait_for(key, timeout_s=5.0) is None
        assert cache.dedup_hits == 0

    def test_wait_for_times_out(self, cache):
        key = cache.run_key("pmake", HORIZON, WARMUP, SEED)
        other = RunCache(cache_dir=cache.cache_dir)
        assert other.claim(key)
        try:
            assert cache.wait_for(key, timeout_s=0.3, poll_s=0.05) is None
        finally:
            other.release(key)

    def test_wait_for_counts_dedup_hit(self, cache):
        import threading

        run, _ = _get(None)  # simulate once, outside any cache
        key = cache.run_key("pmake", HORIZON, WARMUP, SEED)
        winner = RunCache(cache_dir=cache.cache_dir)
        assert winner.claim(key)

        def publish():
            winner.store(key, {"run": run, "report": None})
            winner.release(key)

        timer = threading.Timer(0.3, publish)
        timer.start()
        try:
            payload = cache.wait_for(key, timeout_s=10.0, poll_s=0.05)
        finally:
            timer.join()
        assert payload is not None and payload["run"] is not None
        assert cache.dedup_hits == 1 and cache.hits == 1
        assert "1 dedup" in cache.stats_line()
        assert cache.stats()["dedup_hits"] == 1

    def test_load_or_run_dedups_against_claim_holder(self, cache):
        import threading

        run, report = _get(None)
        key = cache.run_key("pmake", HORIZON, WARMUP, SEED)
        winner = RunCache(cache_dir=cache.cache_dir)
        assert winner.claim(key)

        def publish():
            winner.store(key, {"run": run, "report": report})
            winner.release(key)

        timer = threading.Timer(0.3, publish)
        timer.start()
        try:
            reused, _ = _get(cache)
        finally:
            timer.join()
        # The loser never simulated: it waited out the winner's claim.
        assert cache.dedup_hits == 1 and cache.stores == 0
        assert list(reused.trace.all_entries()) == list(run.trace.all_entries())
        # And the claim file is gone, so the next cold run is unclaimed.
        assert not (cache.cache_dir / f"{key}.lock").exists()

    def test_load_or_run_releases_claim_after_store(self, cache):
        run, _ = _get(cache)
        assert cache.stores == 1
        assert not list(cache.cache_dir.glob("*.lock"))

    def test_stats_shape(self, cache):
        _get(cache)
        _get(cache)
        stats = cache.stats()
        assert stats == {
            "hits": 1, "misses": 1, "stores": 1, "probes": 2,
            "dedup_hits": 0,
        }
        assert "dedup" not in cache.stats_line()


class TestYoungGcOnly:
    """(Un)pickling runs only young collections, and always restores the
    collector's thresholds, whatever happens inside."""

    def test_load_runs_no_older_collection(self, cache, gc_collections):
        key = "run-" + "1" * 40
        assert cache.store(key, {"rows": [{"i": [i]} for i in range(60_000)]})
        with gc_collections() as counts:
            payload = cache.load(key)
        assert len(payload["rows"]) == 60_000
        assert counts[0] > 0, "young collections must keep running"
        assert counts[1:] == [0, 0], counts

    def test_load_restores_state(self, cache, odd_thresholds):
        cache.store("run-a", {"a": [1]})
        assert cache.load("run-a") == {"a": [1]}
        assert gc.get_threshold() == odd_thresholds and gc.isenabled()

    def test_corrupt_entry_restores_state(self, cache, odd_thresholds):
        cache.cache_dir.mkdir(parents=True)
        cache._path("run-bad").write_bytes(b"\x80\x05garbage")
        assert cache.load("run-bad") is None
        assert not cache._path("run-bad").exists()
        assert gc.get_threshold() == odd_thresholds and gc.isenabled()

    def test_store_restores_state(self, cache, odd_thresholds):
        assert cache.store("run-a", {"a": [1]})
        assert gc.get_threshold() == odd_thresholds and gc.isenabled()

    def test_unpicklable_store_restores_state(self, cache, odd_thresholds):
        assert cache.store("run-a", {"f": lambda: 0}) is False
        assert not list(cache.cache_dir.iterdir())  # temp file removed
        assert gc.get_threshold() == odd_thresholds and gc.isenabled()

    def test_exception_in_nested_blocks_restores_state(self, odd_thresholds):
        never = (_GC_NEVER, _GC_NEVER)
        with pytest.raises(RuntimeError):
            with young_gc_only():
                with young_gc_only():
                    assert gc.get_threshold() == (691,) + never
                # Only the outermost exit restores.
                assert gc.get_threshold() == (691,) + never
                raise RuntimeError("inside the outer block")
        assert gc.get_threshold() == odd_thresholds and gc.isenabled()

    def test_concurrent_loads_and_stores_restore_thresholds(self, cache):
        """Threads entering and leaving blocks in any interleaving leave
        the thresholds they found; a lost update would not."""
        original = gc.get_threshold()
        rounds, errors = 200, []

        def worker(n):
            try:
                mine = RunCache(cache_dir=cache.cache_dir)
                for i in range(rounds):
                    key = f"run-t{n}-{i % 4}"
                    assert mine.store(key, {"n": [n, i]})
                    assert mine.load(key) == {"n": [n, i]}
            except BaseException as exc:  # surfaced on the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=worker, args=(n,)) for n in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
                assert not thread.is_alive(), "a worker thread hung"
        finally:
            sys.setswitchinterval(interval)
        assert not errors, errors
        assert gc.get_threshold() == original and gc.isenabled()


class TestShardInvariance:
    """The analysis is serial only: no shard count can reach a key."""

    def test_exhibit_key_excludes_shards(self, cache):
        with pytest.raises(TypeError):
            RunSettings(shards=4)
        base = cache.exhibit_key("table1", RunSettings())
        assert base == cache.exhibit_key("table1", RunSettings())
        # Output-affecting fields still invalidate.
        assert base != cache.exhibit_key("table1", RunSettings(seed=8))
        assert base != cache.exhibit_key("table2", RunSettings())

    def test_cache_repr_is_byte_compatible_with_legacy_repr(self):
        """cache_repr() renders exactly the original four-field dataclass
        repr, so existing on-disk exhibit entries stay valid."""
        legacy = "RunSettings(horizon_ms=80.0, warmup_ms=500.0, seed=7, check=False)"
        assert RunSettings().cache_repr() == legacy
        assert "shards" not in RunSettings.__dataclass_fields__
