"""Simulator-side ground truth for miss classification.

The paper classifies every OS miss into the Table 2 taxonomy by
reconstructing cache contents from the monitor's miss stream. Our
analysis pipeline (:mod:`repro.analysis.classify`) does the same from the
recorded trace. This module keeps the *simulator's own* answer for every
miss, so tests can verify that the trace-driven reconstruction agrees
with what actually happened.

Per CPU and per cache kind (instruction / bus-visible data level) we
remember, for every block:

- whether this CPU has ever cached it (otherwise a miss is *Cold*),
- if it was displaced, whether the displacing reference was an OS or an
  application reference, and the CPU's "application epoch" at that moment
  (so *Dispossame* — displaced by the OS with no intervening application
  run — can be told apart),
- whether it was removed by an invalidation (coherence write for data →
  *Sharing*; explicit I-cache flush on page reallocation → *Inval*).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.common.types import MissClass, RefDomain

INSTR = "I"
DATA = "D"


@dataclass(frozen=True)
class MissEvent:
    """One classified miss (ground truth)."""

    time_cycles: int
    cpu: int
    block: int
    kind: str                 # INSTR or DATA
    domain: RefDomain         # who missed
    miss_class: MissClass
    dispossame: bool          # subset flag of DISPOS (Table 2)


class _CpuCacheTruth:
    """Classification state for one (cpu, cache kind)."""

    __slots__ = ("ever_cached", "evicted_by", "invalidated")

    def __init__(self) -> None:
        self.ever_cached: set = set()
        # block -> (displacing domain, app_epoch at displacement)
        self.evicted_by: Dict[int, Tuple[RefDomain, int]] = {}
        self.invalidated: set = set()

    def on_invalidation(self, block: int) -> None:
        self.invalidated.add(block)
        self.evicted_by.pop(block, None)


class GroundTruth:
    """Classification bookkeeping for every CPU.

    Aggregate per-class counters are always kept; full per-miss events are
    collected only when ``record_events`` is set (tests and small runs —
    a full workload trace generates hundreds of thousands of events).
    """

    def __init__(self, num_cpus: int, record_events: bool = False):
        self._instr = [_CpuCacheTruth() for _ in range(num_cpus)]
        self._data = [_CpuCacheTruth() for _ in range(num_cpus)]
        self.record_events = record_events
        self.events: List[MissEvent] = []
        # (domain, kind, miss_class) -> count ; dispossame counted separately
        self.counts: Counter = Counter()
        self.dispossame_counts: Counter = Counter()  # (domain, kind) -> count

    def _table(self, kind: str) -> List[_CpuCacheTruth]:
        return self._instr if kind == INSTR else self._data

    def cpu_truth(self, cpu: int, kind: str) -> _CpuCacheTruth:
        """Direct handle on one CPU's classification state.

        Used by the atomic tier's paths (which update the fill and
        eviction state directly, as :meth:`classify_and_record` and
        :meth:`record_eviction` do) and by the mixed-fidelity seam dump
        that seeds the trace-side reconstruction.
        """
        return self._table(kind)[cpu]

    # ------------------------------------------------------------------
    # Hooks called by MemorySystem
    # ------------------------------------------------------------------
    def classify_and_record(
        self,
        time_cycles: int,
        cpu: int,
        kind: str,
        block: int,
        domain: RefDomain,
        app_epoch: int,
    ) -> Tuple[MissClass, bool]:
        truth = (self._instr if kind == INSTR else self._data)[cpu]
        dispossame = False
        if block in truth.invalidated:
            # Removed by an invalidation: a coherence write for data, an
            # explicit flush for instructions.
            miss_class = MissClass.INVAL if kind == INSTR else MissClass.SHARING
        elif block not in truth.ever_cached:
            miss_class = MissClass.COLD
        else:
            displaced = truth.evicted_by.get(block)
            if displaced is None:
                # Was cached, never explicitly displaced or invalidated.
                # This happens only if classification state was reset;
                # treat as cold.
                miss_class = MissClass.COLD
            elif displaced[0] is RefDomain.OS:
                miss_class = MissClass.DISPOS
                dispossame = displaced[1] == app_epoch
            else:
                miss_class = MissClass.DISPAP
        self.counts[(domain, kind, miss_class)] += 1
        if dispossame:
            self.dispossame_counts[(domain, kind)] += 1
        if self.record_events:
            self.events.append(
                MissEvent(time_cycles, cpu, block, kind, domain, miss_class, dispossame)
            )
        truth.ever_cached.add(block)
        truth.evicted_by.pop(block, None)
        truth.invalidated.discard(block)
        return miss_class, dispossame

    def record_uncached(self, domain: RefDomain) -> None:
        self.counts[(domain, DATA, MissClass.UNCACHED)] += 1

    def record_eviction(
        self, cpu: int, kind: str, block: int, domain: RefDomain, app_epoch: int
    ) -> None:
        truth = (self._instr if kind == INSTR else self._data)[cpu]
        truth.evicted_by[block] = (domain, app_epoch)
        truth.invalidated.discard(block)

    def record_invalidation(self, cpu: int, kind: str, block: int) -> None:
        self._table(kind)[cpu].on_invalidation(block)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def class_counts(
        self, domain: Optional[RefDomain] = None, kind: Optional[str] = None
    ) -> Counter:
        """Aggregate miss counts by :class:`MissClass`, optionally filtered."""
        out: Counter = Counter()
        for (dom, knd, cls), count in self.counts.items():
            if domain is not None and dom is not domain:
                continue
            if kind is not None and knd != kind:
                continue
            out[cls] += count
        return out

    def total_misses(self, domain: Optional[RefDomain] = None) -> int:
        return sum(self.class_counts(domain=domain).values())
