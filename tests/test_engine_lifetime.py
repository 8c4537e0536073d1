"""Engine lifetime and the collector.

Every pointer back up the engine's ownership tree (a kernel subsystem's
kernel, the monitor's bus, a checker's registry and the parts it
inspects) is a weak :class:`~repro.common.backref.BackRef`, so a
finished engine dies by refcount when its last owner drops it, and
pickles exactly as a strong attribute would. The run loop and the
analysis therefore run young collections only.
"""

from __future__ import annotations

import gc
import pickle
import re
import weakref
from contextlib import contextmanager
from pathlib import Path

import pytest

import repro
from repro.analysis import report as report_module
from repro.analysis.report import analyze_trace
from repro.common.backref import BackRef, HoldsBackRefs
from repro.sim._session import Simulation
from repro.sim.runcache import RunCache, load_or_run

# Tiny windows: these tests exercise object lifetime, not statistics.
HORIZON, WARMUP, SEED = 2.0, 10.0, 5

SUBSYSTEMS = (
    "vm", "blockops", "fs", "scheduler", "tlbfaults", "syscalls", "interrupts",
)


@contextmanager
def collector_off():
    """Only refcounting frees objects inside the block."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def engine_refs(run) -> dict:
    sim = run.simulation
    return {
        "Kernel": weakref.ref(sim.kernel),
        "MemorySystem": weakref.ref(sim.memsys),
        "Bus": weakref.ref(sim.memsys.bus),
        "HardwareMonitor": weakref.ref(sim.monitor),
    }


def alive(refs: dict) -> list:
    return sorted(name for name, ref in refs.items() if ref() is not None)


# ----------------------------------------------------------------------
# The runs whose engines must die by refcount
# ----------------------------------------------------------------------
def _simulated(**kwargs):
    run = Simulation("pmake", seed=SEED, **kwargs).run(HORIZON, warmup_ms=WARMUP)
    return run, analyze_trace(run)


def _detailed(tmp_path):
    return _simulated()


def _checked(tmp_path):
    run, report = _simulated(check=True)
    assert run.simulation.checks is not None
    return run, report


def _deep_checked(tmp_path):
    run, report = _simulated(check="deep")
    assert run.simulation.checks.deep
    return run, report


MIXED = {"fidelity": "mixed"}


def _mixed_cold(tmp_path):
    cache = RunCache(tmp_path)
    run, report = load_or_run(cache, "pmake", HORIZON, WARMUP, SEED, MIXED)
    assert cache.stores == 2  # the seam checkpoint, then the run
    return run, report


def _mixed_restored(tmp_path):
    cache = RunCache(tmp_path)
    load_or_run(cache, "pmake", HORIZON, WARMUP, SEED, MIXED)
    for entry in tmp_path.glob("run-*.pkl"):
        entry.unlink()
    run, report = load_or_run(cache, "pmake", HORIZON, WARMUP, SEED, MIXED)
    # Only the run was stored again: the window ran from the checkpoint.
    assert cache.stores == 3
    return run, report


def _cache_loaded(tmp_path):
    cache = RunCache(tmp_path)
    load_or_run(cache, "pmake", HORIZON, WARMUP, SEED)
    run, report = load_or_run(cache, "pmake", HORIZON, WARMUP, SEED)
    assert cache.hits == 1
    return run, report


@pytest.mark.usefixtures("cache_env")
class TestFinishedEnginesDieByRefcount:
    @pytest.mark.parametrize("build", [
        _detailed, _checked, _deep_checked, _mixed_cold, _mixed_restored,
        _cache_loaded,
    ], ids=lambda build: build.__name__.strip("_"))
    def test_engine_dies_with_its_run(self, build, tmp_path):
        run, report = build(tmp_path)
        refs = engine_refs(run)
        with collector_off():
            del run, report
            assert alive(refs) == []

    def test_restore_leaves_no_cycle(self, tmp_path):
        """Restoring a checkpoint replays the drivers on a scratch machine
        and grafts the live Images into its workload; nothing of that
        waits for a full collection once the restored run is dropped."""
        gc.collect()
        with collector_off():
            run, report = _mixed_restored(tmp_path)
            del run, report
            assert gc.collect() == 0


# ----------------------------------------------------------------------
# The back-reference mechanism
# ----------------------------------------------------------------------
class _Owner:
    pass


class _Holder(HoldsBackRefs):
    owner = BackRef()

    def __init__(self, owner):
        self.before = 1
        self.owner = owner
        self.after = 2


class TestBackRefs:
    def test_each_back_reference_points_at_the_loaded_owner(self):
        run = Simulation("pmake", seed=SEED, check=True).run(
            HORIZON, warmup_ms=WARMUP
        )
        sim = pickle.loads(pickle.dumps(run)).simulation
        kernel, memsys, checks = sim.kernel, sim.memsys, sim.checks
        held = [(getattr(kernel, name), "k", kernel) for name in SUBSYSTEMS]
        held += [
            (kernel.fs.buffer_cache, "k", kernel),
            (sim.monitor, "bus", memsys.bus),
            (checks.lockdep, "registry", checks),
            (checks.races, "registry", checks),
            (checks.races, "kernel", kernel),
            (checks.coherence, "registry", checks),
            (checks.coherence, "memsys", memsys),
            (checks.llsc, "registry", checks),
            (checks.llsc, "locks", kernel.locks),
        ]
        for holder, name, owner in held:
            where = f"{type(holder).__name__}.{name}"
            assert getattr(holder, name) is owner, where
            assert isinstance(vars(holder)[name], weakref.ref), where

    def test_pickled_state_holds_the_strong_reference_in_its_slot(self):
        owner = _Owner()
        holder = _Holder(owner)
        state = holder.__getstate__()
        assert list(state) == list(vars(holder)) == ["before", "owner", "after"]
        assert state["owner"] is owner
        loaded_holder, loaded_owner = pickle.loads(pickle.dumps((holder, owner)))
        assert loaded_holder.owner is loaded_owner
        assert list(vars(loaded_holder)) == ["before", "owner", "after"]

    def test_none_passes_through(self):
        holder = _Holder(None)
        assert holder.owner is None
        assert pickle.loads(pickle.dumps(holder)).owner is None

    def test_dead_back_reference_raises_naming_class_and_attribute(self):
        holder = _Holder(_Owner())
        with pytest.raises(ReferenceError, match=r"^_Holder\.owner: "):
            holder.owner
        with pytest.raises(ReferenceError, match=r"^_Holder\.owner: "):
            pickle.dumps(holder)

    def test_subsystem_outliving_its_kernel_raises(self):
        with collector_off():
            scheduler = Simulation("pmake", seed=SEED).kernel.scheduler
            with pytest.raises(ReferenceError, match=r"^Scheduler\.k: "):
                scheduler.k


# ----------------------------------------------------------------------
# Young collections only while simulating and analyzing
# ----------------------------------------------------------------------
def _restored_checkpoint():
    sim = Simulation("pmake", seed=SEED, record_drivers=True)
    sim.checkpoint_at = sim.params.ms_to_cycles(WARMUP) // 2
    sim.run(HORIZON, warmup_ms=WARMUP)
    return sim.captured_checkpoint.restore()


class TestYoungCollectionsOnly:
    """No generation-1 or generation-2 collection starts inside a run or
    an analysis, and the collector's settings come back as they were."""

    def _check(self, counts, odd_thresholds):
        assert counts[0] > 0, "young collections must keep running"
        assert counts[1:] == [0, 0], counts
        assert gc.get_threshold() == odd_thresholds and gc.isenabled()

    def test_run(self, odd_thresholds, gc_collections):
        sim = Simulation("pmake", seed=SEED)
        with gc_collections() as counts:
            sim.run(HORIZON, warmup_ms=WARMUP)
        self._check(counts, odd_thresholds)

    def test_continue_run(self, odd_thresholds, gc_collections):
        restored = _restored_checkpoint()
        with gc_collections() as counts:
            restored.continue_run()
        self._check(counts, odd_thresholds)

    def test_analyze_trace(self, odd_thresholds, gc_collections):
        # A longer warmup: the decode of a 10 ms trace allocates too
        # little to reach a generation-1 collection even without the
        # guard.
        run = Simulation("pmake", seed=SEED).run(HORIZON, warmup_ms=30.0)
        with gc_collections() as counts:
            analyze_trace(run)
        self._check(counts, odd_thresholds)

    def test_failed_run_restores_settings(self, odd_thresholds):
        def fail(sim):
            raise RuntimeError("hook failed")

        sim = Simulation("pmake", seed=SEED)
        sim.checkpoint_when = fail
        with pytest.raises(RuntimeError, match="hook failed"):
            sim.run(HORIZON, warmup_ms=WARMUP)
        assert gc.get_threshold() == odd_thresholds and gc.isenabled()

    def test_failed_analysis_restores_settings(self, odd_thresholds, monkeypatch):
        run = Simulation("pmake", seed=SEED).run(HORIZON, warmup_ms=WARMUP)

        def fail(self, trace, stats_from_tick=0):
            raise RuntimeError("decode failed")

        monkeypatch.setattr(report_module.TraceAnalyzer, "analyze", fail)
        with pytest.raises(RuntimeError, match="decode failed"):
            analyze_trace(run)
        assert gc.get_threshold() == odd_thresholds and gc.isenabled()


def test_nothing_in_the_package_steers_the_collector():
    """Output cannot depend on when the collector runs: nothing finalizes
    or forces a collection, and only ``young_gc_only`` sets thresholds."""
    root = Path(repro.__file__).parent
    sources = {
        path.relative_to(root).as_posix(): path.read_text()
        for path in sorted(root.rglob("*.py"))
    }
    steering = re.compile(r"\bgc\.(collect|disable|freeze)\(|\bdef __del__\b")
    assert [name for name, text in sources.items() if steering.search(text)] == []
    assert [
        name for name, text in sources.items() if "gc.set_threshold(" in text
    ] == ["sim/runcache.py"]
