"""Layer spans recorded from outside the program.

The benchmark never edits ``src/``: it measures each layer by replacing
public methods (class attributes, or a module global) with timing
wrappers for the duration of a ``with`` block and putting the original
objects back afterwards.

Two kinds of boundary:

- **coarse** boundaries (``Simulation.__init__``/``run``, the analysis
  pass, the Figure 6 replay, run-cache I/O, each exhibit build) fire
  fewer than a hundred times per round. They are wrapped on every
  round, untraced ones included, and each call is kept as an individual
  span (name, start, end, parent span, round id).
- **hot** boundaries (the user-mode slice loop, kernel entry points,
  processor reference issue, the memory system, ground truth, the bus,
  the master tracer, the trace decoder) fire millions of times. They are
  wrapped only on the traced round and aggregated per layer.

Every boundary feeds the same per-layer totals: calls, inclusive time
and self time. A span's self time is its duration minus the durations
of the spans it directly encloses, so the self times of all spans under
one root add up to that root's duration.
"""

from __future__ import annotations

import functools
import inspect
import time
from typing import Dict, List, Sequence, Tuple

# (layer name, owner object, attribute names)
Target = Tuple[str, object, Sequence[str]]


class Recorder:
    """Per-layer calls / inclusive time / self time, plus coarse spans."""

    def __init__(self) -> None:
        # layer -> [calls, total_s, self_s]; the lists are captured by the
        # wrappers, so reset() zeroes them in place.
        self.stats: Dict[str, List[float]] = {}
        self.spans: List[dict] = []
        self.round_id = 0
        # One child-time accumulator per open span (hot or coarse).
        self._stack: List[float] = []
        # Span ids of the open coarse spans, innermost last.
        self._open: List[int] = []
        self._epoch = time.perf_counter()

    def reset(self) -> None:
        """Zero the per-layer totals; the spans are kept."""
        for entry in self.stats.values():
            entry[0] = 0
            entry[1] = 0.0
            entry[2] = 0.0

    def layer(self, name: str) -> Dict[str, float]:
        calls, total, self_s = self.stats.get(name, (0, 0.0, 0.0))
        return {"calls": int(calls), "total_s": total, "self_s": self_s}

    def _entry(self, layer: str) -> List[float]:
        return self.stats.setdefault(layer, [0, 0.0, 0.0])

    def hot(self, layer: str, fn):
        """Aggregate-only wrapper for a hot boundary."""
        stats = self._entry(layer)
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - child
                if stack:
                    stack[-1] += elapsed

        return functools.update_wrapper(wrapper, fn)

    def coarse(self, layer: str, fn):
        """Wrapper that also keeps each call as an individual span."""
        stats = self._entry(layer)
        stack = self._stack
        opened = self._open
        spans = self.spans
        clock = time.perf_counter
        recorder = self

        def wrapper(*args, **kwargs):
            span_id = len(spans)
            span = {
                "id": span_id,
                "name": layer,
                "parent": opened[-1] if opened else None,
                "round": recorder.round_id,
            }
            spans.append(span)
            opened.append(span_id)
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                elapsed = end - start
                child = stack.pop()
                opened.pop()
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - child
                if stack:
                    stack[-1] += elapsed
                span["start_s"] = start - recorder._epoch
                span["end_s"] = end - recorder._epoch

        return functools.update_wrapper(wrapper, fn)


class Patches:
    """Installed wrappers; ``restore()`` puts every original back."""

    def __init__(self) -> None:
        self.saved: List[Tuple[object, str, object]] = []

    def install(self, targets: Sequence[Target], make_wrapper) -> "Patches":
        for layer, owner, names in targets:
            for name in names:
                original = _raw_attribute(owner, name)
                setattr(owner, name, make_wrapper(layer, original))
                self.saved.append((owner, name, original))
        return self

    def restore(self) -> None:
        while self.saved:
            owner, name, original = self.saved.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


def _raw_attribute(owner, name: str):
    """The attribute as stored (a plain function for class methods)."""
    if inspect.isclass(owner):
        return owner.__dict__[name]
    return getattr(owner, name)


def public_methods(cls) -> Tuple[str, ...]:
    """Public plain functions defined on ``cls`` itself."""
    return tuple(
        name for name, value in vars(cls).items()
        if not name.startswith("_") and inspect.isfunction(value)
    )


# ----------------------------------------------------------------------
# The layer map
# ----------------------------------------------------------------------
# Layers whose spans all nest inside Simulation.__init__/run: their self
# times add up to the traced simulation total.
SIM_LAYERS = (
    "sim.setup", "sim.loop", "usermode", "kernel", "cpu", "memsys",
    "memsys.truth", "memsys.bus", "monitor.master",
)
TRACED_LAYERS = SIM_LAYERS + ("analysis.decode",)


def coarse_targets(exhibit_modules: Sequence[object] = ()) -> List[Target]:
    """Phase boundaries, wrapped on every round."""
    from repro.analysis import sweeps
    from repro.analysis.decode import TraceAnalyzer
    from repro.sim._session import Simulation
    from repro.sim.runcache import RunCache

    targets: List[Target] = [
        ("sim.setup", Simulation, ("__init__",)),
        ("sim.loop", Simulation, ("run",)),
        ("analysis.analyze", TraceAnalyzer, ("analyze",)),
        # A module global: sweep_configs' callers reach it by name.
        ("analysis.sweeps", sweeps, ("simulate_icache_config",)),
        ("runcache.load", RunCache, ("load",)),
        ("runcache.store", RunCache, ("store",)),
    ]
    targets.extend(
        ("experiments.derive", module, ("build",)) for module in exhibit_modules
    )
    return targets


def hot_targets() -> List[Target]:
    """Per-reference boundaries, wrapped on the traced round only."""
    from repro.analysis.decode import TraceAnalyzer
    from repro.cpu.processor import Processor
    from repro.kernel.interrupts import Interrupts
    from repro.kernel.kernel import Kernel
    from repro.kernel.scheduler import Scheduler
    from repro.kernel.syscalls import Syscalls
    from repro.kernel.tlbfault import TlbFaults
    from repro.memsys.bus import Bus
    from repro.memsys.system import MemorySystem
    from repro.memsys.tracking import GroundTruth
    from repro.monitor.master import MasterTracer
    from repro.sim.usermode import UserEngine

    return [
        ("usermode", UserEngine, ("run_slice",)),
        ("kernel", Syscalls, public_methods(Syscalls)),
        ("kernel", Interrupts, public_methods(Interrupts)),
        ("kernel", Scheduler, public_methods(Scheduler)),
        ("kernel", TlbFaults, public_methods(TlbFaults)),
        ("kernel", Kernel, ("translate", "service_disk")),
        ("cpu", Processor, (
            "ifetch_range", "ifetch_block", "dread", "dwrite", "dread_block",
            "dwrite_block", "dtouch_range", "copy_blocks", "clear_blocks",
            "uncached_read",
        )),
        ("memsys", MemorySystem, (
            "ifetch", "dread", "dwrite", "uncached_read", "atomic_sweep",
            "atomic_dtouch", "atomic_ifetch_range",
        )),
        ("memsys.truth", GroundTruth, (
            "classify_and_record", "record_uncached", "record_eviction",
            "record_invalidation",
        )),
        # Includes the monitor, which listens on the bus.
        ("memsys.bus", Bus, ("transaction",)),
        ("monitor.master", MasterTracer, ("service",)),
        ("analysis.decode", TraceAnalyzer, ("feed",)),
    ]


def instrument(recorder: Recorder, exhibit_modules=(), traced: bool = False) -> Patches:
    """Install the coarse wrappers, plus the hot ones when ``traced``.

    Use as ``with instrument(...):``; the originals are restored on
    exit, including on error.
    """
    patches = Patches()
    try:
        patches.install(coarse_targets(exhibit_modules), recorder.coarse)
        if traced:
            patches.install(hot_targets(), recorder.hot)
    except BaseException:
        patches.restore()
        raise
    return patches
