"""repro — a full-system reproduction of Torrellas, Gupta & Hennessy,
"Characterizing the Caching and Synchronization Performance of a
Multiprocessor Operating System" (ASPLOS 1992).

The package models the complete measured system:

- :mod:`repro.memsys` — the SGI 4D/340 memory system (per-CPU caches,
  snooping bus, physical memory).
- :mod:`repro.cpu` — processors and TLBs.
- :mod:`repro.kernel` — a synthetic IRIX-like System V kernel (scheduler,
  TLB fault handlers, system calls, interrupts, block operations, locks).
- :mod:`repro.sync` — the dedicated synchronization bus and the LL/SC
  cached-lock what-if protocol.
- :mod:`repro.workloads` — generative models of the paper's three
  workloads (Pmake, Multpgm, Oracle).
- :mod:`repro.monitor` — the bus-snooping hardware monitor, escape
  reference encoding, and the master tracing process.
- :mod:`repro.analysis` — the trace postprocessing pipeline (decoding,
  miss classification, attribution, stall accounting, cache sweeps,
  lock statistics).
- :mod:`repro.sim` — top-level simulation sessions and per-workload
  calibration.
- :mod:`repro.experiments` — one module per paper table/figure.

Quickstart (the stable entry point is :mod:`repro.api`)::

    from repro import api

    run = api.run("pmake", horizon_ms=5.0, warmup_ms=30.0, seed=1)
    report = api.report("pmake", run=run)
    print(report.os_stall_pct)
"""

from repro.common.params import MachineParams
from repro.sim._session import Simulation, TracedRun
from repro.analysis.report import AnalysisReport, analyze_trace
from repro.kernel.kernel import KernelTuning
from repro.workloads import make_workload

__version__ = "1.0.0"

__all__ = [
    "MachineParams",
    "KernelTuning",
    "Simulation",
    "TracedRun",
    "make_workload",
    "AnalysisReport",
    "analyze_trace",
    "__version__",
]
