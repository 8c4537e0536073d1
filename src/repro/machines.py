"""Named machine-geometry presets: the 4D/340 and its scaled-up kin.

The paper could only measure a 4-CPU SGI 4D/340; its headline claims
(Runqlk contention grows with CPU count, buffer-cache structures
ping-pong) were extrapolations.  This registry makes "the machine" a
first-class, named knob so the same workloads can be swept across
8/16/32/64-CPU geometries — the scale of the later SPARC T3-class
characterizations — and the extrapolations tested.

Scaling discipline (each doubling of the CPU count):

- **second-level cache** doubles (bigger dies ship bigger boards of
  SRAM; keeping L2-per-CPU constant isolates the *sharing* effects the
  sweep is after from capacity effects);
- **memory** doubles (constant memory per CPU);
- **bus stall** grows by 5 cycles (more agents on a snoopy bus mean
  longer arbitration and a slower, more loaded backplane);
- **recommended run-queue count** doubles from 2 at 8 CPUs — the
  Section 6 distributed-run-queue proposal sized at one queue per
  4-CPU cluster.

Per-CPU first-level caches, the TLB, page size and cycle time stay
fixed: the sweep models "more of the same CPU", not a different CPU.

:data:`MACHINES` maps preset names to :class:`MachinePreset`;
``4d340`` is the default and is byte-for-byte the legacy
:data:`~repro.common.params.DEFAULT_PARAMS`, which is what lets every
pre-existing run-cache key and exhibit stay valid (the default
normalizes out of cache keys entirely — see
:func:`repro.sim.runcache.load_or_run`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Union

from repro.common.params import CacheGeometry, DEFAULT_PARAMS, MachineParams

#: Spec values accepted anywhere a machine can be chosen: a preset
#: name, a full MachineParams, or None for the default.
MachineSpec = Union[str, MachineParams, None]

DEFAULT_MACHINE = "4d340"


@dataclass(frozen=True)
class MachinePreset:
    """One named machine geometry.

    ``run_queues`` is the geometry's distributed-run-queue count
    (Section 6: one queue per 4-CPU cluster), folded into a
    :class:`~repro.sim._session.Simulation`'s default tuning when the
    preset is selected via ``machine=``; the measured 4D/340 keeps the
    single global queue of the traced IRIX. Explicit ``tuning=`` wins.
    """

    name: str
    description: str
    params: MachineParams
    run_queues: int = 1


def _scaled(name: str, description: str, num_cpus: int,
            l2_kb: int, memory_mb: int, bus_stall: int,
            run_queues: int) -> MachinePreset:
    return MachinePreset(
        name=name,
        description=description,
        params=MachineParams(
            num_cpus=num_cpus,
            dcache_l2=CacheGeometry(l2_kb * 1024),
            memory_bytes=memory_mb * 1024 * 1024,
            bus_stall_cycles=bus_stall,
        ),
        run_queues=run_queues,
    )


#: The registry, in ladder order (CPU count ascending).
MACHINES: Dict[str, MachinePreset] = {
    preset.name: preset
    for preset in (
        MachinePreset(
            name=DEFAULT_MACHINE,
            description="SGI POWER Station 4D/340 (the measured machine)",
            params=DEFAULT_PARAMS,
            run_queues=1,
        ),
        _scaled("cpus8", "8-CPU scale-up of the 4D/340",
                num_cpus=8, l2_kb=512, memory_mb=64, bus_stall=40,
                run_queues=2),
        _scaled("cpus16", "16-CPU scale-up of the 4D/340",
                num_cpus=16, l2_kb=1024, memory_mb=128, bus_stall=45,
                run_queues=4),
        _scaled("cpus32", "32-CPU scale-up of the 4D/340",
                num_cpus=32, l2_kb=2048, memory_mb=256, bus_stall=50,
                run_queues=8),
        _scaled("cpus64", "64-CPU scale-up of the 4D/340",
                num_cpus=64, l2_kb=4096, memory_mb=512, bus_stall=55,
                run_queues=16),
    )
}

#: Preset names in CPU-count order — the scaling experiment's sweep.
LADDER: List[str] = list(MACHINES)


def resolve_machine(spec: MachineSpec) -> MachineParams:
    """The :class:`MachineParams` a machine spec names.

    Accepts a preset name, a ready-made ``MachineParams`` (passed
    through), or ``None`` (the 4D/340 default). Unknown names raise
    :class:`ValueError` listing the registry; other types raise
    :class:`TypeError`.
    """
    if spec is None:
        return DEFAULT_PARAMS
    if isinstance(spec, MachineParams):
        return spec
    if isinstance(spec, str):
        try:
            return MACHINES[spec].params
        except KeyError:
            raise ValueError(
                f"unknown machine {spec!r}; choose from {', '.join(MACHINES)}"
            ) from None
    raise TypeError(
        f"machine must be a preset name or MachineParams, not "
        f"{type(spec).__name__}"
    )


def canonical_machine(spec: MachineSpec) -> Union[str, MachineParams]:
    """The cache-key form of a machine spec.

    A spec naming (or equal to) a registered preset canonicalizes to the
    preset *name*, so ``machine="cpus8"`` and
    ``machine=MACHINES["cpus8"].params`` key identically; a custom
    ``MachineParams`` stays itself (its dataclass repr is the key).
    """
    params = resolve_machine(spec)
    for name, preset in MACHINES.items():
        if preset.params == params:
            return name
    return params


def machine_for_cpus(num_cpus: int) -> str:
    """The preset name with exactly ``num_cpus`` CPUs."""
    for name, preset in MACHINES.items():
        if preset.params.num_cpus == num_cpus:
            return name
    counts = ", ".join(str(p.params.num_cpus) for p in MACHINES.values())
    raise ValueError(
        f"no machine preset with {num_cpus} CPUs; available counts: {counts}"
    )


__all__ = [
    "DEFAULT_MACHINE",
    "LADDER",
    "MACHINES",
    "MachinePreset",
    "MachineSpec",
    "canonical_machine",
    "machine_for_cpus",
    "resolve_machine",
]
