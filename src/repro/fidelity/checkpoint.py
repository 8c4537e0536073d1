"""Explicit engine checkpoints: the atomic→detailed hand-off seam.

A :class:`~repro.sim._session.Simulation` pickles almost completely (the
run cache has relied on that since the snapshot machinery landed): cache
tags, TLBs, coherence ownership, lock and scheduler state, the monitor,
the event heap. The one thing pickling drops is every workload driver —
they are Python generators, and generators cannot be serialized.

:class:`EngineCheckpoint` closes that gap with deterministic replay.
While a run that may be checkpointed executes, the kernel appends every
driver ``next()`` and every process creation to a *driver log* (global
order, ``("n"|"c", pid)``). Restoring a checkpoint rebuilds a scratch
machine from the same workload name and seed — whose setup creates root
processes and generators identical to the original's — grafts the
checkpointed kernel's live :class:`~repro.kernel.process.Image` objects
onto the scratch workload (``exec`` mutates image refcounts and registers
images by name; replayed generators must yield the *restored* objects),
then replays the log: each ``"n"`` advances the named pid's generator,
each ``"c"`` instantiates the child generator from the Fork action its
parent just yielded and rebinds ``fork.child`` to the restored process.
After replay every generator, and the workload RNG they share, sit in
exactly the state the original run had at capture.

Checkpoints are content-addressed in the existing run cache (see
:func:`checkpoint_key`), so repeated mixed-fidelity sweeps reuse the
warmed state instead of re-fast-forwarding.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from typing import Any, Dict, Optional

_CHECKPOINT_FORMAT = 1


@dataclass
class EngineCheckpoint:
    """A restorable snapshot of a mid-run simulation.

    ``blob`` is a self-contained pickle of the simulation taken at
    ``now_cycles`` (always at a slice boundary, with the pending event
    queue entry preserved); the remaining fields identify what the
    snapshot is warm *for*, mirroring the cache-key material.
    """

    format: int
    workload: str
    seed: int
    warmup_ms: float
    fast_forward: int
    now_cycles: int
    blob: bytes

    def restore(self):
        """Rebuild a resumable :class:`Simulation` from this checkpoint.

        Unpickles a private copy of the machine, replays the driver log
        to regrow the workload generators, and re-queues the pending
        event-heap entry, so ``sim.continue_run()`` picks up exactly
        where the capture left off.
        """
        import heapq

        from repro.sim.runcache import young_gc_only

        with young_gc_only():
            state = pickle.loads(self.blob)
        sim = state["sim"]
        _reattach_drivers(sim)
        heapq.heappush(sim._heap, sim._pending_entry)
        return sim


def capture(sim, now_cycles: int) -> EngineCheckpoint:
    """Snapshot ``sim`` at a slice boundary into an :class:`EngineCheckpoint`.

    The simulation must have been running with an active driver log
    (``fidelity="atomic"``/``"mixed"``, or ``record_drivers=True``);
    without it the workload generators cannot be replayed at restore.
    """
    from repro.sim.runcache import young_gc_only

    if sim.kernel.driver_log is None:
        raise ValueError(
            "checkpoint capture requires an active driver log; run with "
            "record_drivers=True (or a non-detailed fidelity)"
        )
    # Detach the capture-control attributes: the cache handle and any
    # predicate callable are unpicklable or meaningless in the snapshot,
    # and the cache key would make the bytes depend on the source digest.
    detached = {}
    for name in (
        "checkpoint_cache", "checkpoint_cache_key", "checkpoint_when",
        "captured_checkpoint",
    ):
        detached[name] = getattr(sim, name)
        setattr(sim, name, None)
    try:
        with young_gc_only():
            blob = pickle.dumps(
                {"sim": sim, "now": now_cycles},
                protocol=pickle.HIGHEST_PROTOCOL,
            )
    finally:
        for name, value in detached.items():
            setattr(sim, name, value)
    return EngineCheckpoint(
        format=_CHECKPOINT_FORMAT,
        workload=sim.workload.name,
        seed=sim.seed,
        warmup_ms=sim._warmup_cycles / sim.params.cycles_per_ms(),
        fast_forward=sim.fast_forward,
        now_cycles=now_cycles,
        blob=blob,
    )


# ----------------------------------------------------------------------
# Driver replay
# ----------------------------------------------------------------------
def _reattach_drivers(sim) -> None:
    """Regrow the unpicklable workload generators by replaying the log."""
    from repro.sim._session import Simulation
    from repro.workloads import actions as A

    log = sim.kernel.driver_log
    if log is None:
        raise ValueError("checkpoint has no driver log; cannot replay drivers")
    scratch = Simulation(
        sim.workload.name, machine=sim.params, seed=sim.seed, trace=False,
        workload_args=getattr(sim, "workload_args", None),
    )
    _graft_images(scratch.workload, sim.kernel.images)
    generators = {
        pid: process.driver for pid, process in scratch.kernel.processes.items()
    }
    last_action = None
    for kind, pid in log:
        if kind == "n":
            generator = generators.get(pid)
            if generator is None:
                raise ValueError(f"driver log names unknown pid {pid}")
            try:
                last_action = next(generator)
            except StopIteration:
                last_action = None
        else:  # "c": the most recent action must be the creating Fork
            if not isinstance(last_action, A.Fork):
                raise ValueError(
                    f"driver log creation of pid {pid} not preceded by a Fork"
                )
            generators[pid] = last_action.driver_factory()
            child = sim.kernel._logged_processes.get(pid)
            if child is None:
                child = sim.kernel.processes.get(pid)
            last_action.child = child
    for pid, process in sim.kernel.processes.items():
        generator = generators.get(pid)
        if generator is not None:
            process.driver = generator


def _graft_images(workload, live_images: Dict[str, Any]) -> None:
    """Point a scratch workload's Image attributes at the restored kernel's.

    ``exec`` mutates ``Image.refcount`` and keys ``kernel.images`` by
    name, so replayed generators must yield the restored run's Image
    objects, not the scratch machine's lookalikes. Recurses into nested
    workloads (multpgm embeds pmake) and common containers.
    """
    from repro.kernel.process import Image
    from repro.workloads.base import Workload

    def graft(value):
        if isinstance(value, Image):
            return live_images.get(value.name, value)
        if isinstance(value, Workload):
            _graft_images(value, live_images)
            return value
        if isinstance(value, list):
            return [graft(item) for item in value]
        if isinstance(value, tuple):
            return tuple(graft(item) for item in value)
        if isinstance(value, dict):
            return {key: graft(item) for key, item in value.items()}
        return value

    for name, value in list(vars(workload).items()):
        grafted = graft(value)
        if grafted is not value:
            setattr(workload, name, grafted)


# ----------------------------------------------------------------------
# Run-cache integration
# ----------------------------------------------------------------------
def tty_dependent(workload) -> bool:
    """True when the workload schedules input events from the horizon.

    Such a workload's checkpoint bakes in a horizon-specific tty (or
    network-arrival) queue, so its cache key must include the horizon;
    the others' checkpoints are horizon-independent and reusable across
    sweep points.
    """
    from repro.workloads.base import Workload

    return (
        type(workload).tty_events is not Workload.tty_events
        or type(workload).net_events is not Workload.net_events
    )


def checkpoint_key(
    cache,
    workload: str,
    warmup_ms: float,
    seed: int,
    fast_forward: int,
    sim_kwargs: Optional[Dict[str, Any]] = None,
    horizon_ms: Optional[float] = None,
) -> str:
    """Content-addressed key for a mixed-run seam checkpoint.

    Everything that shapes the fast-forwarded state is material: the
    workload, seed, warmup (the seam deadline), the fast-forward budget,
    any simulation overrides, and the simulator sources themselves.
    The horizon is material only for tty-scheduling workloads
    (``horizon_ms=None`` otherwise). The fidelity name is deliberately
    absent: only mixed runs write checkpoints.
    """
    from repro.sim.runcache import _FORMAT, _package_version, source_digest

    overrides = {
        name: repr(value)
        for name, value in (sim_kwargs or {}).items()
        if name not in ("fidelity", "fast_forward")
    }
    material = {
        "format": _FORMAT,
        "checkpoint_format": _CHECKPOINT_FORMAT,
        "kind": "checkpoint",
        "workload": workload,
        "warmup_ms": warmup_ms,
        "seed": seed,
        "fast_forward": fast_forward,
        "horizon_ms": horizon_ms,
        "overrides": overrides,
        "version": _package_version(),
        "sources": source_digest(include_experiments=False),
    }
    return "ckpt-" + cache._hash_material(material)


def load_checkpoint(
    cache,
    workload: str,
    horizon_ms: float,
    warmup_ms: float,
    seed: int,
    fast_forward: int,
    sim_kwargs: Optional[Dict[str, Any]] = None,
):
    """Fetch and restore a cached seam checkpoint, or None on a miss."""
    from repro.workloads import make_workload

    horizon = horizon_ms if tty_dependent(make_workload(workload)) else None
    key = checkpoint_key(
        cache, workload, warmup_ms, seed, fast_forward, sim_kwargs,
        horizon_ms=horizon,
    )
    payload = cache.load(key)
    if payload is None:
        return None
    checkpoint = payload.get("checkpoint")
    if not isinstance(checkpoint, EngineCheckpoint):
        return None
    try:
        return checkpoint.restore()
    except Exception:
        # A stale or undecodable checkpoint must never fail the run;
        # the caller fast-forwards from scratch (and re-stores).
        return None
