"""Lock-order validation for the Table 11 lock inventory.

Linux-lockdep's core idea, applied to the simulated kernel: observe the
*order* in which lock classes are nested at runtime and maintain a
directed graph of "A was held while B was acquired" edges. A cycle in
that graph is a potential deadlock even if the run itself never
deadlocked — two CPUs interleaving the two recorded chains can.

Ordering is tracked at the *family* level (``shr_x``, ``ino_x``, ...),
matching how the kernel reasons about its lock arrays; a self-edge
(holding one ``shr_x`` while taking another) is reported too, since
nothing orders instances within a family.

Also enforced here, because the held-lock stacks live here:

- no spinlock may still be held when the CPU context-switches;
- the **irq dimension** (Linux lockdep's irq-safe/irq-unsafe classes):
  each family is tracked by the context — interrupt or process — it is
  acquired from. Only the declared irq-safe families
  (:data:`IRQ_SAFE_FAMILIES`: the locks the modelled handlers take with
  interrupt-level protection) may be acquired in interrupt context, and
  a lock of an irq-used family held at interrupt entry is a
  self-deadlock waiting for the right interrupt timing (the handler
  spins on the CPU that holds the lock). Locks no handler ever takes
  may be held across an interrupt freely;
- nothing may be held when the run finishes.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.common.backref import BackRef, HoldsBackRefs
from repro.sanitizers.report import Violation

# Frames from these files are lock-plumbing, not acquisition sites.
_SKIP_BASENAMES = {"locks.py", "lockdep.py", "registry.py", "contextlib.py"}

#: Families the interrupt handlers take (``calock`` from the clock tick,
#: ``runqlk`` from wakeups/setrq, ``streams_x`` from terminal input).
#: These follow the irq-safe discipline — the modelled kernel raises
#: interrupt level around them — so acquiring them in interrupt context
#: is legal; any *other* family acquired with an interrupt on the stack
#: is irq-unsafe and gets flagged.
IRQ_SAFE_FAMILIES = frozenset({"calock", "runqlk", "streams_x"})


def acquisition_site() -> str:
    """``file.py:line (function)`` of the frame that took the lock."""
    frame = sys._getframe(1)
    while frame is not None:
        base = os.path.basename(frame.f_code.co_filename)
        if base not in _SKIP_BASENAMES:
            return f"{base}:{frame.f_lineno} ({frame.f_code.co_name})"
        frame = frame.f_back
    return "<unknown>"


@dataclass
class HeldLock:
    """One entry of a CPU's held-lock stack."""

    name: str
    family: str
    site: str
    cycles: int

    def __str__(self) -> str:
        return f"{self.name} (acquired at {self.site})"


@dataclass
class LockOrderEdge:
    """First observation of family ``a`` held while ``b`` was acquired."""

    held_name: str
    held_site: str
    acquire_name: str
    acquire_site: str
    cpu: int
    cycles: int

    def describe(self, a: str, b: str) -> str:
        return (f"{a} -> {b}: held {self.held_name} at {self.held_site}, "
                f"then acquired {self.acquire_name} at {self.acquire_site} "
                f"(cpu{self.cpu} @{self.cycles})")


class LockDep(HoldsBackRefs):
    """Online lock-order graph + held-lock assertions."""

    registry = BackRef()

    def __init__(self, registry, num_cpus: int):
        self.registry = registry
        self.held: List[List[HeldLock]] = [[] for _ in range(num_cpus)]
        # family -> {family -> first edge observation}
        self.edges: Dict[str, Dict[str, LockOrderEdge]] = {}
        self.acquires_checked = 0
        self._reported_pairs: set = set()
        # The irq dimension: per-CPU interrupt nesting depth and, per
        # family, the first acquisition site seen in each context.
        self.irq_depth: List[int] = [0] * num_cpus
        self.family_irq_site: Dict[str, str] = {}
        self.family_proc_site: Dict[str, str] = {}
        self._irq_unsafe_reported: set = set()
        self.interrupt_entries = 0

    # ------------------------------------------------------------------
    # Acquire / release hooks (called by LockTable when installed)
    # ------------------------------------------------------------------
    def on_acquire(self, cpu: int, cycles: int, lock) -> None:
        self.acquires_checked += 1
        site = acquisition_site()
        stack = self.held[cpu]
        for entry in stack:
            if entry.name == lock.name:
                self.registry.record(Violation(
                    "lockdep", "recursive-acquire", cpu, cycles,
                    f"{lock.name} acquired while already held on this CPU",
                    {"first": str(entry), "second": f"at {site}"},
                ))
                break
        for entry in stack:
            self._add_edge(entry, lock, cpu, cycles, site)
        self._note_context(cpu, cycles, lock, site)
        stack.append(HeldLock(lock.name, lock.family, site, cycles))

    def _note_context(self, cpu: int, cycles: int, lock, site: str) -> None:
        """Track the irq/process context a family is acquired from."""
        if self.irq_depth[cpu] > 0:
            self.family_irq_site.setdefault(lock.family, site)
            if (
                lock.family not in IRQ_SAFE_FAMILIES
                and lock.family not in self._irq_unsafe_reported
            ):
                self._irq_unsafe_reported.add(lock.family)
                self.registry.record(Violation(
                    "lockdep", "irq-unsafe-acquire-in-irq", cpu, cycles,
                    f"{lock.name} ({lock.family}) acquired in interrupt "
                    "context but is not an irq-safe family",
                    {
                        "family": lock.family,
                        "irq_site": site,
                        "process_site": self.family_proc_site.get(
                            lock.family, "(never in process context)"
                        ),
                        "irq_safe_families": sorted(IRQ_SAFE_FAMILIES),
                    },
                ))
        else:
            self.family_proc_site.setdefault(lock.family, site)

    def on_release(self, cpu: int, cycles: int, lock) -> None:
        stack = self.held[cpu]
        for index in range(len(stack) - 1, -1, -1):
            if stack[index].name == lock.name:
                del stack[index]
                return
        self.registry.record(Violation(
            "lockdep", "release-of-unheld", cpu, cycles,
            f"{lock.name} released but not in this CPU's held set",
        ))

    # ------------------------------------------------------------------
    # Lock-order graph
    # ------------------------------------------------------------------
    def _add_edge(self, held: HeldLock, lock, cpu: int, cycles: int,
                  site: str) -> None:
        a, b = held.family, lock.family
        outgoing = self.edges.setdefault(a, {})
        if b in outgoing:
            return  # edge already known; its cycle check already ran
        edge = LockOrderEdge(held.name, held.site, lock.name, site, cpu, cycles)
        # Would a -> b close a cycle? (b -> ... -> a via recorded edges;
        # a == b is the degenerate self-cycle.)
        reverse_path = [] if a == b else self._find_path(b, a)
        outgoing[b] = edge
        if reverse_path is None:
            return
        pair = (a, b)
        if pair in self._reported_pairs or (b, a) in self._reported_pairs:
            return
        self._reported_pairs.add(pair)
        chain = [edge.describe(a, b)]
        chain.extend(e.describe(x, y) for x, y, e in reverse_path)
        self.registry.record(Violation(
            "lockdep", "lock-order-cycle", cpu, cycles,
            f"acquiring {lock.name} ({b}) while holding {held.name} ({a}) "
            f"inverts the recorded order {b} -> {a}",
            {
                "new_edge": f"{a} -> {b}",
                "held_at": held.site,
                "acquired_at": site,
                "cycle": chain,
            },
        ))

    def _find_path(
        self, src: str, dst: str
    ) -> Optional[List[Tuple[str, str, LockOrderEdge]]]:
        """BFS ``src -> ... -> dst`` over recorded edges, or None."""
        if src == dst:
            return []
        parents: Dict[str, Tuple[str, LockOrderEdge]] = {}
        frontier = [src]
        seen = {src}
        while frontier:
            node = frontier.pop(0)
            for succ, edge in self.edges.get(node, {}).items():
                if succ in seen:
                    continue
                parents[succ] = (node, edge)
                if succ == dst:
                    path = []
                    walk = dst
                    while walk != src:
                        prev, prev_edge = parents[walk]
                        path.append((prev, walk, prev_edge))
                        walk = prev
                    path.reverse()
                    return path
                seen.add(succ)
                frontier.append(succ)
        return None

    # ------------------------------------------------------------------
    # Held-lock assertions
    # ------------------------------------------------------------------
    def on_context_switch(self, cpu: int, cycles: int) -> None:
        stack = self.held[cpu]
        if stack:
            self.registry.record(Violation(
                "lockdep", "held-at-context-switch", cpu, cycles,
                "context switch with spinlock(s) held",
                {"held": [str(entry) for entry in stack]},
            ))

    def on_interrupt_entry(self, cpu: int, cycles: int, kind: str) -> None:
        self.interrupt_entries += 1
        self.irq_depth[cpu] += 1
        # Only locks a handler may itself take are a deadlock hazard
        # here; families no handler touches may be held across an
        # interrupt (this replaces the old blanket nothing-held assert).
        hazards = [
            entry for entry in self.held[cpu]
            if entry.family in IRQ_SAFE_FAMILIES
            or entry.family in self.family_irq_site
        ]
        if hazards:
            self.registry.record(Violation(
                "lockdep", "held-at-interrupt-entry", cpu, cycles,
                f"{kind} interrupt entered with irq-used spinlock(s) "
                "held (the handler can spin on them forever)",
                {"held": [str(entry) for entry in hazards],
                 "interrupt": kind},
            ))

    def on_interrupt_exit(self, cpu: int, cycles: int) -> None:
        if self.irq_depth[cpu] > 0:
            self.irq_depth[cpu] -= 1

    def finalize(self, end_cycles: int) -> None:
        for cpu, stack in enumerate(self.held):
            if stack:
                self.registry.record(Violation(
                    "lockdep", "held-at-finish", cpu, end_cycles,
                    "run finished with spinlock(s) held",
                    {"held": [str(entry) for entry in stack]},
                ))

    # ------------------------------------------------------------------
    # Queries (the race checker's view of lock state)
    # ------------------------------------------------------------------
    def holds_family(self, cpu: int, families) -> bool:
        for entry in self.held[cpu]:
            if entry.family in families:
                return True
        return False

    def held_names(self, cpu: int) -> List[str]:
        return [entry.name for entry in self.held[cpu]]
