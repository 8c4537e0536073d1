"""Machine parameters of the modelled SGI POWER Station 4D/340.

All geometry and latency constants come straight from Section 2.1 of the
paper:

- four 33 MHz MIPS R3000 CPUs (30 ns processor cycles),
- per CPU a 64 Kbyte instruction cache and a two-level data cache
  (64 Kbyte first level, 256 Kbyte second level),
- all caches physically addressed, direct mapped, 16 byte blocks,
- 32 Mbytes of main memory,
- a bus access stalls the CPU for 35 cycles (the paper's stall estimate),
- a first-level data miss that hits in the second level stalls ~15 cycles,
- the hardware monitor timestamps bus transactions at 60 ns granularity,
- the monitor's trace buffer holds over 2 million transactions,
- each CPU has a 64-entry fully-associative TLB and 4 Kbyte pages.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional


@dataclass(frozen=True)
class CacheGeometry:
    """Size/shape of one cache."""

    size_bytes: int
    block_bytes: int = 16
    associativity: int = 1

    def __post_init__(self) -> None:
        if self.associativity < 1:
            raise ValueError("associativity must be >= 1")
        if self.size_bytes % (self.block_bytes * self.associativity):
            raise ValueError(
                "cache size must be a multiple of block size x associativity"
            )

    @property
    def num_blocks(self) -> int:
        return self.size_bytes // self.block_bytes

    @property
    def num_sets(self) -> int:
        return self.num_blocks // self.associativity


# Processor cycles per monitor tick: 60 ns monitor ticks over 30 ns
# cycles. The trace analysis converts between the two clocks with this
# one ratio, so every machine must keep it (checked in MachineParams).
CYCLES_PER_TICK = 2


@dataclass(frozen=True)
class MachineParams:
    """Complete machine description; defaults model the 4D/340."""

    num_cpus: int = 4
    cycle_ns: float = 30.0          # 33 MHz R3000
    icache: CacheGeometry = field(default_factory=lambda: CacheGeometry(64 * 1024))
    dcache_l1: CacheGeometry = field(default_factory=lambda: CacheGeometry(64 * 1024))
    dcache_l2: CacheGeometry = field(default_factory=lambda: CacheGeometry(256 * 1024))
    memory_bytes: int = 32 * 1024 * 1024
    page_bytes: int = 4096
    tlb_entries: int = 64
    bus_stall_cycles: int = 35      # paper Section 3.1 stall estimate
    l2_hit_stall_cycles: int = 15   # L1 miss that hits in L2 (Section 3.1)
    monitor_tick_ns: float = 60.0   # monitor timestamp granularity
    trace_buffer_entries: int = 2 * 1024 * 1024
    clock_interrupt_ms: float = 10.0  # the OS clock period (Section 4.1)
    spin_attempts_before_sginap: int = 20  # sync library behaviour (Table 8)
    # Interrupt routing: IRIX pins disk/tty delivery to CPU 0 and the
    # network daemons to CPU 1 (Section 2.1). Explicit fields so scaled
    # geometries route deliberately instead of through a modulo of a
    # 4-CPU constant; ``network_cpu=None`` resolves to CPU 1 where the
    # machine has one, else CPU 0 (uniprocessor geometries).
    device_cpu: int = 0
    network_cpu: Optional[int] = None

    def __post_init__(self) -> None:
        if self.num_cpus < 1:
            raise ValueError("need at least one CPU")
        if self.memory_bytes % self.page_bytes:
            raise ValueError("memory must be a whole number of pages")
        if self.icache.block_bytes != self.dcache_l1.block_bytes:
            raise ValueError("this model assumes a single block size")
        if self.monitor_tick_ns != CYCLES_PER_TICK * self.cycle_ns:
            raise ValueError(
                f"monitor_tick_ns must be {CYCLES_PER_TICK} x cycle_ns "
                "(the trace analysis assumes that many cycles per tick)"
            )
        if self.network_cpu is None:
            object.__setattr__(
                self, "network_cpu", 1 if self.num_cpus >= 2 else 0
            )
        if not 0 <= self.device_cpu < self.num_cpus:
            raise ValueError("device_cpu must name an existing CPU")
        if not 0 <= self.network_cpu < self.num_cpus:
            raise ValueError("network_cpu must name an existing CPU")

    @property
    def block_bytes(self) -> int:
        return self.icache.block_bytes

    @property
    def num_pages(self) -> int:
        return self.memory_bytes // self.page_bytes

    def cycles_per_ms(self) -> float:
        return 1e6 / self.cycle_ns

    def ms_to_cycles(self, ms: float) -> int:
        return int(round(ms * self.cycles_per_ms()))

    def cycles_to_ms(self, cycles: float) -> float:
        return cycles / self.cycles_per_ms()


DEFAULT_PARAMS = MachineParams()
