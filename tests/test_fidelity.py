"""Fidelity tiers: checkpoints, cache keys, seam state, error bounds.

Checkpoint round-trip tests assert byte-identity: a run restored from
an :class:`EngineCheckpoint` and continued must record exactly the
trace an uninterrupted run records, at every cut point — including the
awkward ones (an open lock hold interval another CPU would spin
against, pending timer interrupts).
"""

from __future__ import annotations

import gc

import pytest

from repro.analysis.report import analyze_trace
from repro.api import Simulation, UnsupportedFidelityError
from repro.experiments._base import RunSettings, resolve_settings
from repro.fidelity import FIDELITY_LEVELS, validate_fidelity
from repro.fidelity.checkpoint import checkpoint_key
from repro.fidelity.validate import _MemoryStore, compare_runs
from repro.sim.runcache import RunCache, load_or_run

# Tiny windows: these tests exercise the tier plumbing, not statistics.
HORIZON, WARMUP, SEED = 4.0, 10.0, 11


def _trace(run) -> list:
    return list(run.trace.all_entries())


def _app_epochs(run) -> list:
    return [proc.app_epoch for proc in run.processors]


def _lock_stats(run) -> dict:
    return {lock.name: lock.stats for lock in run.kernel.locks.all_locks()}


def _truth(run) -> list:
    """Each CPU's ground-truth miss-classification state."""
    from repro.memsys.tracking import DATA, INSTR

    truth = run.simulation.memsys.truth
    return [
        (
            set(cpu_truth.ever_cached), dict(cpu_truth.evicted_by),
            set(cpu_truth.invalidated),
        )
        for cpu in range(run.params.num_cpus)
        for cpu_truth in (truth.cpu_truth(cpu, INSTR), truth.cpu_truth(cpu, DATA))
    ]


def _detailed_run(**kwargs):
    sim = Simulation("pmake", seed=SEED, **kwargs)
    return sim, sim.run(HORIZON, warmup_ms=WARMUP)


class TestCheckpointRoundTrip:
    @pytest.fixture(scope="class")
    def reference(self):
        """An uninterrupted detailed run (driver log on, as the
        checkpointing runs have it, so the machines are identical)."""
        _, run = _detailed_run(record_drivers=True)
        return _trace(run)

    def _roundtrip(self, reference, *, checkpoint_at=None, checkpoint_when=None):
        sim = Simulation("pmake", seed=SEED, record_drivers=True)
        sim.checkpoint_at = checkpoint_at
        sim.checkpoint_when = checkpoint_when
        interrupted = sim.run(HORIZON, warmup_ms=WARMUP)
        # Capturing must not perturb the capturing run itself.
        assert _trace(interrupted) == reference
        checkpoint = sim.captured_checkpoint
        assert checkpoint is not None, "cut-point predicate never fired"
        resumed = checkpoint.restore().continue_run()
        assert _trace(resumed) == reference
        return checkpoint

    def test_cut_during_warmup(self, reference):
        params = Simulation("pmake", seed=SEED).params
        cut = params.ms_to_cycles(WARMUP) // 2
        self._roundtrip(reference, checkpoint_at=cut)

    def test_cut_inside_measured_window(self, reference):
        params = Simulation("pmake", seed=SEED).params
        cut = params.ms_to_cycles(WARMUP + HORIZON / 2)
        self._roundtrip(reference, checkpoint_at=cut)

    def test_capture_and_restore_keep_gc_thresholds(
        self, reference, odd_thresholds
    ):
        """Capture and restore pickle under young-only GC, and leave the
        collector's thresholds as they found them."""
        params = Simulation("pmake", seed=SEED).params
        self._roundtrip(reference, checkpoint_at=params.ms_to_cycles(WARMUP) // 2)
        assert gc.get_threshold() == odd_thresholds and gc.isenabled()

    def test_cut_mid_lock_spin(self, reference):
        """Cut while a lock hold interval is open against a slower CPU —
        the state a contending acquire would spin on."""

        def mid_spin(sim):
            low_water = min(p.cycles for p in sim.processors)
            return any(
                lock.holder_cpu is not None or lock.release_cycles > low_water
                for lock in sim.kernel.locks._locks.values()
            )

        self._roundtrip(reference, checkpoint_when=mid_spin)

    def test_cut_with_pending_interrupt(self):
        """Cut while timer interrupts are queued for delivery (oracle's
        client think times keep the kernel timer queue populated)."""

        def pending_timer(sim):
            return bool(sim.kernel._timers)

        ref_sim = Simulation("oracle", seed=SEED, record_drivers=True)
        reference = _trace(ref_sim.run(HORIZON, warmup_ms=WARMUP))
        sim = Simulation("oracle", seed=SEED, record_drivers=True)
        sim.checkpoint_when = pending_timer
        interrupted = sim.run(HORIZON, warmup_ms=WARMUP)
        assert _trace(interrupted) == reference
        checkpoint = sim.captured_checkpoint
        assert checkpoint is not None, "timer queue never populated"
        resumed = checkpoint.restore().continue_run()
        assert _trace(resumed) == reference


class TestMixedSeamCheckpoint:
    @pytest.mark.usefixtures("cache_env")
    def test_seam_checkpoint_reuse_is_byte_identical(self, tmp_path):
        """Warm mixed runs (checkpoint restore + window only) equal cold
        mixed runs, via the real run-cache path twice in a row."""
        cache = RunCache(cache_dir=tmp_path / "cache")
        cold, _ = load_or_run(
            cache, "pmake", HORIZON, WARMUP, SEED,
            sim_kwargs={"fidelity": "mixed"},
        )
        # Drop the run entry but keep the checkpoint, so the second call
        # must rebuild the run from the restored seam state.
        run_key = cache.run_key(
            "pmake", HORIZON, WARMUP, SEED, {"fidelity": "mixed"}
        )
        cache._path(run_key).unlink()
        warm_cache = RunCache(cache_dir=tmp_path / "cache")
        warm, _ = load_or_run(
            warm_cache, "pmake", HORIZON, WARMUP, SEED,
            sim_kwargs={"fidelity": "mixed"},
        )
        assert _trace(warm) == _trace(cold)
        assert warm.seam_cycles == cold.seam_cycles
        assert warm.fast_forwarded_refs == cold.fast_forwarded_refs
        # The restored machine is the cold one, not just its trace: the
        # seam's clock alignment ran once on each side.
        assert _app_epochs(warm) == _app_epochs(cold)
        assert warm.seam_state == cold.seam_state
        assert _truth(warm) == _truth(cold)
        # The checkpoint's bytes do not embed its own key.
        [entry] = (tmp_path / "cache").glob("ckpt-*.pkl")
        assert b"ckpt-" not in warm_cache.load(entry.stem)["checkpoint"].blob

    @pytest.mark.usefixtures("cache_env")
    @pytest.mark.parametrize("workload", ["multpgm", "pmake"])
    def test_seam_restore_on_a_multi_queue_preset(self, tmp_path, workload):
        """A restored cpus8 run (two run queues) equals its cold run: the
        driver replay rebuilds the preset machine, not a one-queue copy."""
        sim_kwargs = {"fidelity": "mixed", "machine": "cpus8"}
        cache = RunCache(cache_dir=tmp_path / "cache")
        cold, _ = load_or_run(cache, workload, HORIZON, WARMUP, SEED, sim_kwargs)
        cache._path(
            cache.run_key(workload, HORIZON, WARMUP, SEED, sim_kwargs)
        ).unlink()
        warm, _ = load_or_run(
            RunCache(cache_dir=tmp_path / "cache"), workload, HORIZON, WARMUP,
            SEED, sim_kwargs,
        )
        assert warm is not cold and warm.seam_cycles == cold.seam_cycles
        assert warm.kernel.scheduler.num_queues == 2
        assert _trace(warm) == _trace(cold)
        assert _app_epochs(warm) == _app_epochs(cold)
        assert _lock_stats(warm) == _lock_stats(cold)

    def test_in_memory_seam_checkpoint(self):
        store = _MemoryStore()
        sim = Simulation("pmake", seed=SEED, fidelity="mixed")
        sim.checkpoint_cache = store
        sim.checkpoint_cache_key = "in-memory"
        cold = sim.run(HORIZON, warmup_ms=WARMUP)
        assert store.payload is not None
        warm = store.payload["checkpoint"].restore().continue_run(HORIZON)
        assert _trace(warm) == _trace(cold)


@pytest.mark.usefixtures("cache_env")
class TestCacheKeys:
    def test_fidelity_in_run_key(self, tmp_path):
        cache = RunCache(cache_dir=tmp_path / "cache")
        base = cache.run_key("pmake", HORIZON, WARMUP, SEED)
        atomic = cache.run_key(
            "pmake", HORIZON, WARMUP, SEED, {"fidelity": "atomic"}
        )
        mixed = cache.run_key(
            "pmake", HORIZON, WARMUP, SEED, {"fidelity": "mixed"}
        )
        fast = cache.run_key(
            "pmake", HORIZON, WARMUP, SEED,
            {"fidelity": "mixed", "fast_forward": 100_000},
        )
        assert len({base, atomic, mixed, fast}) == 4

    def test_detailed_normalizes_to_legacy_key(self, tmp_path):
        """fidelity='detailed' / fast_forward=0 are the defaults: they
        normalize out of the key, so pre-fidelity entries stay valid."""
        cache = RunCache(cache_dir=tmp_path / "cache")
        load_or_run(cache, "pmake", HORIZON, WARMUP, SEED)
        run, _ = load_or_run(
            cache, "pmake", HORIZON, WARMUP, SEED,
            sim_kwargs={"fidelity": "detailed", "fast_forward": 0},
        )
        assert cache.hits == 1 and cache.misses == 1
        assert run.fidelity == "detailed"

    def test_tiers_never_cross_reuse(self, tmp_path):
        """A detailed entry must not satisfy a mixed request or vice
        versa — the tier changes the run's bytes."""
        cache = RunCache(cache_dir=tmp_path / "cache")
        detailed, _ = load_or_run(cache, "pmake", HORIZON, WARMUP, SEED)
        mixed, _ = load_or_run(
            cache, "pmake", HORIZON, WARMUP, SEED,
            sim_kwargs={"fidelity": "mixed"},
        )
        # No hits: neither request was satisfied by the other's entry
        # (the mixed path also probes its checkpoint key, so miss counts
        # are not 1:1 with requests).
        assert cache.hits == 0
        assert detailed.fidelity == "detailed"
        assert mixed.fidelity == "mixed"
        # And back: the mixed store does not shadow the detailed entry.
        again, _ = load_or_run(cache, "pmake", HORIZON, WARMUP, SEED)
        assert cache.hits == 1
        assert again.fidelity == "detailed"

    def test_checkpoint_key_dimensions(self, tmp_path):
        cache = RunCache(cache_dir=tmp_path / "cache")
        base = checkpoint_key(cache, "pmake", WARMUP, SEED, 0, {})
        assert base.startswith("ckpt-")
        assert base != checkpoint_key(cache, "multpgm", WARMUP, SEED, 0, {})
        assert base != checkpoint_key(cache, "pmake", WARMUP + 1, SEED, 0, {})
        assert base != checkpoint_key(cache, "pmake", WARMUP, SEED + 1, 0, {})
        assert base != checkpoint_key(cache, "pmake", WARMUP, SEED, 5000, {})
        # fidelity/fast_forward are schedule, not machine, parameters:
        # they do not change the checkpointed warm state's key.
        assert base == checkpoint_key(
            cache, "pmake", WARMUP, SEED, 0,
            {"fidelity": "mixed", "fast_forward": 0},
        )


class TestGuards:
    def test_check_plus_atomic_raises(self):
        with pytest.raises(UnsupportedFidelityError):
            Simulation("pmake", seed=SEED, fidelity="atomic", check=True)

    def test_mixed_with_check_is_allowed(self):
        Simulation("pmake", seed=SEED, fidelity="mixed", check=True)

    def test_unknown_fidelity_rejected(self):
        with pytest.raises(ValueError):
            Simulation("pmake", seed=SEED, fidelity="cycle-accurate")
        with pytest.raises(ValueError):
            validate_fidelity("bogus")

    def test_negative_fast_forward_rejected(self):
        with pytest.raises(ValueError):
            Simulation("pmake", seed=SEED, fidelity="mixed", fast_forward=-1)

    def test_cli_refuses_check_with_atomic(self, capsys):
        from repro.experiments.cli import main

        rc = main(["run", "table1", "--fidelity", "atomic", "--check",
                   "--no-cache"])
        assert rc == 2
        assert "check" in capsys.readouterr().err

    def test_cli_refuses_atomic_exhibits(self, capsys):
        """Atomic runs carry no trace, so exhibit tables built from
        them would be all-zero; the CLI refuses and points at mixed."""
        from repro.experiments.cli import main

        rc = main(["run", "table1", "--fidelity", "atomic", "--no-cache"])
        assert rc == 2
        assert "mixed" in capsys.readouterr().err


class TestEnvResolution:
    """The settings resolver's env chain for the engine-tier fields."""

    def test_fidelity_env_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_FIDELITY", raising=False)
        assert resolve_settings().fidelity == "detailed"
        monkeypatch.setenv("REPRO_FIDELITY", "mixed")
        assert resolve_settings().fidelity == "mixed"
        # An explicit value wins over the environment.
        assert resolve_settings({"fidelity": "detailed"}).fidelity == "detailed"
        monkeypatch.setenv("REPRO_FIDELITY", "bogus")
        with pytest.raises(ValueError, match="unknown fidelity"):
            resolve_settings()
        # Atomic runs carry no trace, so no exhibit can be built from one.
        monkeypatch.setenv("REPRO_FIDELITY", "atomic")
        with pytest.raises(ValueError, match="traced run"):
            resolve_settings()

    def test_fast_forward_env_default(self, monkeypatch):
        # The budget is the mixed tier's; any other tier refuses it.
        mixed = RunSettings(fidelity="mixed")
        monkeypatch.delenv("REPRO_FIDELITY", raising=False)
        monkeypatch.delenv("REPRO_FAST_FORWARD", raising=False)
        assert resolve_settings(base=mixed).fast_forward == 0
        monkeypatch.setenv("REPRO_FAST_FORWARD", "250000")
        assert resolve_settings(base=mixed).fast_forward == 250000
        assert resolve_settings({"fast_forward": 9}, base=mixed).fast_forward == 9
        monkeypatch.setenv("REPRO_FAST_FORWARD", "-3")
        with pytest.raises(ValueError):
            resolve_settings(base=mixed)
        monkeypatch.setenv("REPRO_FAST_FORWARD", "lots")
        with pytest.raises(ValueError, match="must be an integer"):
            resolve_settings(base=mixed)

    def test_levels_frozen(self):
        assert set(FIDELITY_LEVELS) == {"detailed", "atomic", "mixed"}


class TestTierRuns:
    @pytest.fixture(scope="class")
    def mixed_run(self):
        return Simulation("pmake", seed=SEED, fidelity="mixed").run(
            HORIZON, warmup_ms=WARMUP
        )

    def test_default_detailed_is_byte_identical(self):
        """fidelity='detailed' must be a no-op spelling of the default."""
        _, plain = _detailed_run()
        _, explicit = _detailed_run(fidelity="detailed")
        assert _trace(explicit) == _trace(plain)

    def test_atomic_runs_to_completion(self):
        run = Simulation("pmake", seed=SEED, fidelity="atomic").run(
            HORIZON, warmup_ms=WARMUP
        )
        assert run.fidelity == "atomic"
        assert run.fast_forwarded_refs > 0

    def test_mixed_provenance(self, mixed_run):
        assert mixed_run.fidelity == "mixed"
        assert mixed_run.fast_forwarded_refs > 0
        assert mixed_run.seam_cycles is not None
        warmup_cycles = mixed_run.measure_from_cycles
        assert 0 < mixed_run.seam_cycles <= warmup_cycles

    def test_fast_forward_budget_pulls_seam_earlier(self):
        # Small enough to trip before the warmup-seam deadline.
        budget = 5_000
        run = Simulation(
            "pmake", seed=SEED, fidelity="mixed", fast_forward=budget
        ).run(HORIZON, warmup_ms=WARMUP)
        deadline_run = Simulation("pmake", seed=SEED, fidelity="mixed").run(
            HORIZON, warmup_ms=WARMUP
        )
        assert run.seam_cycles < deadline_run.seam_cycles

    def test_seam_state_shape(self, mixed_run):
        state = mixed_run.seam_state
        assert state is not None
        assert len(state) == mixed_run.params.num_cpus
        for entry in state:
            assert entry["app_epoch"] >= 0
            for key in ("icache", "dcache"):
                dump = entry[key]
                assert set(dump) == {
                    "resident", "ever_cached", "evicted_by", "invalidated"
                }
                assert set(dump["resident"]) <= dump["ever_cached"]

    def test_detailed_runs_have_no_seam_state(self):
        _, run = _detailed_run()
        assert run.seam_state is None
        assert run.seam_cycles is None

    def test_seam_seeding_deflates_cold_class(self, mixed_run):
        """Post-seam misses on blocks the atomic warmup cached classify
        as COLD without the seam-state seed; with it they take the
        simulator's recorded history."""
        import dataclasses

        from repro.common.types import MissClass

        seeded = analyze_trace(mixed_run, keep_imiss_stream=False)
        unseeded = analyze_trace(
            dataclasses.replace(mixed_run, seam_state=None),
            keep_imiss_stream=False,
        )
        for kind in ("I", "D"):
            assert seeded.os_class_share_pct(kind, MissClass.COLD) <= \
                unseeded.os_class_share_pct(kind, MissClass.COLD)
        assert seeded.os_class_share_pct("I", MissClass.COLD) < \
            unseeded.os_class_share_pct("I", MissClass.COLD)


class TestCompareRuns:
    def test_self_comparison_is_exact(self, pmake_run):
        report = analyze_trace(pmake_run, keep_imiss_stream=False)
        checks = compare_runs(pmake_run, pmake_run, report, report)
        assert checks, "no statistics compared"
        assert all(check.ok for check in checks)
        assert all(check.error == 0 for check in checks)

    def test_out_of_bound_detected(self, pmake_run, monkeypatch):
        from repro.fidelity import validate

        # An impossible bound: every share fails.
        monkeypatch.setattr(validate, "SHARE_BOUND_PP", -1.0)
        report = analyze_trace(pmake_run, keep_imiss_stream=False)
        checks = compare_runs(pmake_run, pmake_run, report, report)
        shares = [check for check in checks if check.kind == "share_pp"]
        assert shares and all(not check.ok for check in shares)
