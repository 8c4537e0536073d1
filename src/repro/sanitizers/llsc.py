"""LL/SC invariants on the cached-lock what-if machine.

:class:`~repro.sync.llsc.CachedLockSimulator` replays the lock access
stream under an invalidation protocol with MIPS-style load-linked /
store-conditional atomicity (Section 5.1). Its numbers are only as
trustworthy as that replay, so the checker runs an *independent* shadow
model of the same protocol and compares the two before every event:

- **reservations clear on remote stores** — an LL reservation (and the
  cached copy backing it) must be invalidated by any other CPU's store
  to the lock line; a copy the simulator still considers valid when the
  shadow model says a remote store hit it is a stale reservation;
- **no SC after invalidation** — a successful acquire whose SC the
  simulator services from a copy the shadow model invalidated is the
  classic broken-LL/SC bug (lock taken on stale data);
- **traffic reconciles** — per family, the simulator's uncached-machine
  access count must equal ``2*acquires + releases + spin_iterations``
  from the OS-kept lock statistics, its cached-miss count must match
  the shadow model's replay, and the sync-bus counters must agree with
  the acquire/release totals (each acquire is a read + a write, each
  release a write; spins never reach the sync bus).

The hooks are called from :class:`~repro.kernel.locks.LockTable`
*before* it feeds the simulator, so a corruption injected between
events is caught at the victim's next access with full attribution.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.common.backref import BackRef, HoldsBackRefs
from repro.sanitizers.report import Violation


class LLSCChecker(HoldsBackRefs):
    """Shadow-model validation of :class:`CachedLockSimulator`."""

    registry = BackRef()
    locks = BackRef()

    def __init__(self, registry):
        self.registry = registry
        self.sim = None       # CachedLockSimulator, bound by install
        self.locks = None     # LockTable, bound by install
        self.syncbus = None   # SyncBus, bound by install
        # Shadow protocol state, evolved independently of the simulator:
        # per-family per-CPU copy validity and the CPU holding an LL
        # reservation on the lock line (None once a store consumed or
        # cleared it).
        self._valid: Dict[str, Dict[int, bool]] = {}
        self._reservation: Dict[str, Optional[int]] = {}
        self._model_misses: Dict[str, int] = {}
        self.events_checked = 0
        self.pairs_validated = 0   # LL/SC acquire pairs

    # ------------------------------------------------------------------
    # Event hooks (called before the simulator processes the event)
    # ------------------------------------------------------------------
    def on_spin(self, lock, cpu: int, iterations: int, cycles: int) -> None:
        """Spin = repeated LL (read) of the lock line."""
        if iterations <= 0:
            return
        self.events_checked += 1
        self._compare(lock, cpu, cycles, write=False)
        valid = self._valid.setdefault(lock.family, {})
        if not valid.get(cpu, False):
            self._model_misses[lock.family] = (
                self._model_misses.get(lock.family, 0) + 1
            )
            valid[cpu] = True
        self._reservation[lock.family] = cpu

    def on_acquire(self, lock, cpu: int, cycles: int) -> None:
        """Successful acquire = LL + SC pair; the SC is a store."""
        self.events_checked += 1
        self.pairs_validated += 1
        self._compare(lock, cpu, cycles, write=True)
        valid = self._valid.setdefault(lock.family, {})
        if not valid.get(cpu, False):
            # The LL refetches the line; the SC then succeeds against a
            # fresh reservation.
            self._model_misses[lock.family] = (
                self._model_misses.get(lock.family, 0) + 1
            )
            valid[cpu] = True
        self._store(lock.family, cpu)

    def on_release(self, lock, cpu: int, cycles: int) -> None:
        """Release = plain store to the lock line."""
        self.events_checked += 1
        self._compare(lock, cpu, cycles, write=True)
        valid = self._valid.setdefault(lock.family, {})
        if not valid.get(cpu, False):
            self._model_misses[lock.family] = (
                self._model_misses.get(lock.family, 0) + 1
            )
            valid[cpu] = True
        self._store(lock.family, cpu)

    def _store(self, family: str, cpu: int) -> None:
        """A store invalidates every remote copy and reservation."""
        valid = self._valid.setdefault(family, {})
        for other in list(valid):
            if other != cpu:
                valid[other] = False
        if self._reservation.get(family) not in (None, cpu):
            self._reservation[family] = None   # remote store clears it
        elif self._reservation.get(family) == cpu:
            self._reservation[family] = None   # consumed by the SC

    # ------------------------------------------------------------------
    # Fidelity seam
    # ------------------------------------------------------------------
    def rebase(self) -> None:
        """Resynchronize the shadow model to the simulator's state.

        Called at a mixed-fidelity run's atomic→detailed seam
        (repro.fidelity): the what-if machines kept running through the
        atomic stretch while this checker's hooks were detached, so the
        shadow copy-validity map and the per-family miss baseline are
        re-seeded from the simulator before checking resumes. Any open
        reservation from before the stretch is stale and dropped.
        """
        sim = self.sim
        if sim is None:
            return
        self._valid = {
            family: dict(copies) for family, copies in sim._valid_copy.items()
        }
        self._reservation = {}
        self._model_misses = {
            family: counts.cached_misses
            for family, counts in sim.per_lock.items()
        }

    # ------------------------------------------------------------------
    # Divergence detection
    # ------------------------------------------------------------------
    def _compare(self, lock, cpu: int, cycles: int, write: bool) -> None:
        """Diff the simulator's copy-validity map against the shadow model."""
        sim_map = self.sim._valid_copy.get(lock.family, {})
        model_map = self._valid.get(lock.family, {})
        for owner in set(sim_map) | set(model_map):
            sim_valid = sim_map.get(owner, False)
            model_valid = model_map.get(owner, False)
            if sim_valid == model_valid:
                continue
            if sim_valid and owner == cpu and write:
                # The simulator is about to service this CPU's SC from a
                # copy a remote store invalidated.
                kind = "sc-after-invalidation"
                message = (
                    f"SC on {lock.name} by cpu{cpu} allowed to succeed on "
                    "a copy invalidated by a remote store (reservation "
                    "not cleared)"
                )
            elif sim_valid:
                kind = "reservation-not-cleared"
                message = (
                    f"cpu{owner}'s copy of {lock.name} survived a remote "
                    "store (snoop-invalidate missed the lock line)"
                )
            else:
                kind = "spurious-invalidation"
                message = (
                    f"cpu{owner}'s copy of {lock.name} invalidated with "
                    "no intervening remote store (cached-machine miss "
                    "overcounted)"
                )
            self.registry.record(Violation(
                "llsc", kind, cpu, cycles, message,
                {"lock": lock.name, "family": lock.family,
                 "copy_owner": f"cpu{owner}",
                 "simulator_valid": sim_valid, "model_valid": model_valid,
                 "reservation": self._reservation.get(lock.family)},
            ))
            # Resynchronize so one corruption reports once, not forever.
            model_map = self._valid.setdefault(lock.family, {})
            model_map[owner] = sim_valid

    # ------------------------------------------------------------------
    # Final reconciliation
    # ------------------------------------------------------------------
    def finalize(self, end_cycles: int) -> None:
        """Reconcile traffic accounting with the OS-kept lock statistics."""
        sim = self.sim
        if sim is None:
            return
        family_stats = self.locks.family_stats()
        total_acquires = 0
        total_releases = 0
        for family, stats in family_stats.items():
            total_acquires += stats.acquires
            total_releases += stats.releases
            counts = sim.per_lock.get(family)
            if counts is None:
                if stats.acquires or stats.releases or stats.spin_iterations:
                    self.registry.record(Violation(
                        "llsc", "traffic-mismatch", -1, end_cycles,
                        f"family {family} has lock statistics but no "
                        "simulator traffic entry",
                        {"family": family, "acquires": stats.acquires},
                    ))
                continue
            expected = (
                2 * stats.acquires + stats.releases + stats.spin_iterations
            )
            if counts.uncached_accesses != expected:
                self.registry.record(Violation(
                    "llsc", "traffic-mismatch", -1, end_cycles,
                    f"family {family}: uncached-machine accesses "
                    f"{counts.uncached_accesses} != 2*acquires + releases "
                    f"+ spins = {expected}",
                    {"family": family,
                     "uncached_accesses": counts.uncached_accesses,
                     "acquires": stats.acquires,
                     "releases": stats.releases,
                     "spin_iterations": stats.spin_iterations},
                ))
            model_misses = self._model_misses.get(family, 0)
            if counts.cached_misses != model_misses:
                self.registry.record(Violation(
                    "llsc", "cached-miss-divergence", -1, end_cycles,
                    f"family {family}: simulator counted "
                    f"{counts.cached_misses} cached-machine misses, the "
                    f"shadow replay {model_misses}",
                    {"family": family,
                     "simulator_misses": counts.cached_misses,
                     "model_misses": model_misses},
                ))
        bus = self.syncbus.stats
        if bus.reads != total_acquires or (
            bus.writes != total_acquires + total_releases
        ):
            self.registry.record(Violation(
                "llsc", "syncbus-mismatch", -1, end_cycles,
                f"sync-bus counters (reads={bus.reads}, "
                f"writes={bus.writes}) disagree with lock statistics "
                f"(acquires={total_acquires}, releases={total_releases}; "
                "expected reads=acquires, writes=acquires+releases)",
                {"reads": bus.reads, "writes": bus.writes,
                 "acquires": total_acquires, "releases": total_releases},
            ))
