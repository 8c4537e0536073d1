"""Structure-access race checking: the structure → lock protection map.

Every kernel data reference goes through :class:`~repro.cpu.processor.
Processor`; when checking is enabled, a probe on the word-granularity
reference paths attributes each kernel-data address to its Table 3
structure (:class:`~repro.kernel.structures.KernelDataMap`) and asserts
the access was legal under that structure's locking discipline:

- **lock-protected** structures require a lock of the protecting family
  held on the accessing CPU (``writes_only`` rules allow lock-free
  reads — the kernel's optimistic read paths: run-queue peeks, pfdat
  traversals, priority scans);
- **CPU-private** structures (Kernel Stack, PCB, Eframe, rest of User
  Structure — the paper's migration-miss trio) may only be touched while
  their process is *not running on some other CPU*: the owner CPU,
  a CPU that just dequeued the process, or anyone while it sleeps;
- the **Process Table** combines both: a write is legal under ``runqlk``
  *or* while the slot's process is not running elsewhere (its own
  syscalls update its entry locklessly, as IRIX did).

Intentional lock-free accesses that a naive rule would flag — the clock
interrupt's priority-decay sweep over other CPUs' proc entries, the disk
interrupt's buffer-header completion writes (interrupt-level ``spl``
protection, pre-dating fine-grain locks) — are annotated at the access
site via :meth:`RaceChecker.allow` (the kernel's ``data_race()``-style
escape hatch, reached through ``Kernel.race_exempt``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.common.backref import BackRef, HoldsBackRefs
from repro.kernel.structures import (
    NPROC,
    PROC_ENTRY_BYTES,
    USTRUCT_BYTES,
    KSTACK_BYTES,
    StructName,
)
from repro.memsys.memory import KDATA_BASE, KHEAP_BASE, KHEAP_SIZE
from repro.sanitizers.report import Violation


@dataclass(frozen=True)
class Protection:
    """Locking discipline of one kernel structure."""

    families: Tuple[str, ...] = ()
    writes_only: bool = False    # reads may go lock-free
    cpu_private: bool = False    # per-slot; owner-CPU-only access


#: The structure → lock protection map (see module docstring). Table 3
#: structures absent from this map (Kernel Heap scratch, Other) have no
#: asserted discipline.
STRUCT_PROTECTION: Dict[StructName, Protection] = {
    StructName.RUN_QUEUE: Protection(families=("runqlk",)),
    StructName.HI_NDPROC: Protection(families=("runqlk",), writes_only=True),
    StructName.FREEPGBUCK: Protection(families=("memlock",)),
    StructName.PFDAT: Protection(families=("memlock",), writes_only=True),
    StructName.CALLOUT: Protection(families=("calock",)),
    StructName.SEM_TABLE: Protection(families=("semlock",)),
    StructName.BUFFER: Protection(
        families=("bfreelock", "ino_x"), writes_only=True
    ),
    StructName.INODE: Protection(families=("ino_x", "ifree"), writes_only=True),
    StructName.PAGE_TABLE: Protection(families=("shr_x",), writes_only=True),
    StructName.PROC_TABLE: Protection(
        families=("runqlk",), writes_only=True, cpu_private=True
    ),
    StructName.KERNEL_STACK: Protection(cpu_private=True),
    StructName.PCB: Protection(cpu_private=True),
    StructName.EFRAME: Protection(cpu_private=True),
    StructName.USTRUCT_REST: Protection(cpu_private=True),
}


class _Allow:
    """Context manager suspending one structure's rule on one CPU."""

    __slots__ = ("checker", "cpu", "structs")

    def __init__(self, checker: "RaceChecker", cpu: int, structs):
        self.checker = checker
        self.cpu = cpu
        self.structs = structs

    def __enter__(self):
        allowed = self.checker._allowed[self.cpu]
        for struct in self.structs:
            allowed[struct] = allowed.get(struct, 0) + 1
        return self

    def __exit__(self, *exc):
        allowed = self.checker._allowed[self.cpu]
        for struct in self.structs:
            remaining = allowed.get(struct, 0) - 1
            if remaining > 0:
                allowed[struct] = remaining
            else:
                allowed.pop(struct, None)
        return False


class RaceChecker(HoldsBackRefs):
    """Flags structure accesses made without their protecting lock."""

    registry = BackRef()
    kernel = BackRef()

    def __init__(self, registry, datamap, num_cpus: int):
        self.registry = registry
        self.datamap = datamap
        self.lockdep = None   # bound by CheckRegistry.install
        self.kernel = None    # bound by CheckRegistry.install
        # Kernel structures live in [kdata, end of kheap); everything
        # else (frames, kernel text) is filtered out with two compares.
        self._lo = KDATA_BASE
        self._hi = KHEAP_BASE + KHEAP_SIZE
        self._block_bytes = 16   # rebound from the machine at install
        self._allowed: List[Dict[StructName, int]] = [
            {} for _ in range(num_cpus)
        ]
        self.accesses_checked = 0
        self.queue_ops_checked = 0
        # Deep mode (check="deep"): dread_block/dwrite_block sweeps
        # attributed to the structure they cross, per structure name.
        self.blocks_checked = 0
        self.block_sweeps: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # Annotation API
    # ------------------------------------------------------------------
    def allow(self, cpu: int, *structs: StructName) -> _Allow:
        """Suspend checking of ``structs`` on ``cpu`` for a with-block."""
        return _Allow(self, cpu, structs)

    # ------------------------------------------------------------------
    # The probe (Processor.access_probe)
    # ------------------------------------------------------------------
    def on_access(self, cpu: int, addr: int, write: bool) -> None:
        if addr < self._lo or addr >= self._hi:
            return
        name = self.datamap.structure_at(addr)
        rule = STRUCT_PROTECTION.get(name)
        if rule is None:
            return
        self.accesses_checked += 1
        if rule.writes_only and not write:
            return
        if self._allowed[cpu].get(name):
            return
        if rule.families and self.lockdep.holds_family(cpu, rule.families):
            return
        if rule.cpu_private:
            slot = self._slot_of(name, addr)
            runner = self._running_elsewhere(slot, cpu)
            if runner is None:
                return
            self._report(cpu, addr, write, name, rule, slot=slot, runner=runner)
            return
        self._report(cpu, addr, write, name, rule)

    # ------------------------------------------------------------------
    # Run-queue membership (distributed-run-queue variant)
    # ------------------------------------------------------------------
    def on_queue_op(self, cpu: int, cycles: int, queue_index: int,
                    op: str) -> None:
        """A scheduler queue mutation must hold *that queue's* lock.

        The address-level rule cannot tell the distributed queues apart
        (they share ``runq_base``), so the scheduler reports mutations
        at the object level: enqueue/dequeue on queue ``i`` is only
        legal under the ``runqlk_i`` instance (or the single global
        ``runqlk``) — holding a *different* cluster's run-queue lock is
        exactly the bug the per-cluster split can introduce.
        """
        self.queue_ops_checked += 1
        expected = self.kernel.locks.runq(queue_index).name
        held = self.lockdep.held_names(cpu)
        if expected in held:
            return
        self.registry.record(Violation(
            "race", "runq-wrong-lock", cpu, cycles, (
                f"{op} on run queue {queue_index} from cpu{cpu} without "
                f"{expected} held"
            ),
            {
                "structure": StructName.RUN_QUEUE.value,
                "queue": queue_index,
                "required": expected,
                "held_locks": held or "(none)",
            },
        ))

    # ------------------------------------------------------------------
    # Deep mode: block-sweep attribution (Processor.block_probe)
    # ------------------------------------------------------------------
    def on_block(self, cpu: int, block: int, write: bool) -> None:
        """Attribute one block-granularity touch to its structure.

        Attribution only — block sweeps (bcopy/bclear, PCB save/restore,
        kernel-stack touches) run under disciplines the word-level probe
        already checks at their base address; the deep probe exists so a
        checked run can document *which* structures the sweeps crossed.
        """
        addr = block * self._block_bytes
        if addr < self._lo or addr >= self._hi:
            return
        name = self.datamap.structure_at(addr)
        self.blocks_checked += 1
        self.block_sweeps[name.value] = self.block_sweeps.get(name.value, 0) + 1

    # ------------------------------------------------------------------
    def _slot_of(self, name: StructName, addr: int) -> int:
        datamap = self.datamap
        if name is StructName.PROC_TABLE:
            return (addr - datamap.proc_table_base) // PROC_ENTRY_BYTES
        if name is StructName.KERNEL_STACK:
            return (addr - datamap.kstack_base0) // KSTACK_BYTES
        return (addr - datamap.ustruct_base0) // USTRUCT_BYTES

    def _running_elsewhere(self, slot: int, cpu: int) -> Optional[int]:
        """CPU currently running the process in ``slot``, if another."""
        if not 0 <= slot < NPROC:
            return None
        for other_cpu, process in enumerate(self.kernel.current):
            if (
                process is not None
                and process.slot == slot
                and other_cpu != cpu
            ):
                return other_cpu
        return None

    def _report(self, cpu, addr, write, name, rule, slot=None, runner=None):
        kind = "unlocked-write" if write else "unlocked-read"
        details = {
            "structure": name.value,
            "address": hex(addr),
            "held_locks": self.lockdep.held_names(cpu) or "(none)",
        }
        if rule.families:
            details["required"] = " or ".join(rule.families)
        if slot is not None:
            details["slot"] = slot
            details["running_on"] = f"cpu{runner}"
            message = (
                f"{'write to' if write else 'read of'} {name.value} "
                f"slot {slot} from cpu{cpu} while its process runs on "
                f"cpu{runner}"
            )
        else:
            message = (
                f"{'write to' if write else 'read of'} {name.value} at "
                f"{hex(addr)} without {' or '.join(rule.families)} held"
            )
        proc = self.kernel.processors[cpu]
        self.registry.record(Violation(
            "race", kind, cpu, proc.cycles, message, details
        ))
