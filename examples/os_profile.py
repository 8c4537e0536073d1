#!/usr/bin/env python
"""Deep-profile the OS on one workload: where do its misses come from?

Reproduces the paper's Section 4 drill-down for a single workload:

- miss classification split I/D (Figures 4/7),
- Sharing misses by kernel data structure (Figure 8),
- self-interference instruction misses by routine (Figure 5),
- misses by high-level operation (Figure 9),
- per-lock statistics (Table 12).

Run:  python examples/os_profile.py [workload]
"""

import sys

from repro import analyze_trace, api
from repro.analysis.lockstats import lock_table_rows
from repro.common.types import RefDomain


def main() -> None:
    workload = sys.argv[1] if len(sys.argv) > 1 else "multpgm"
    run = api.run(workload, horizon_ms=50.0, warmup_ms=350.0, seed=2)
    report = analyze_trace(run)
    analysis = report.analysis
    os_total = analysis.total_misses(RefDomain.OS)
    print(f"{workload}: {os_total:,} OS misses in the measured window")

    print("\n== Sharing misses by data structure (Figure 8) ==")
    total_sharing = sum(analysis.sharing_by_struct.values())
    for struct, count in analysis.sharing_by_struct.most_common(10):
        print(f"  {struct.value:28s} {100.0 * count / max(1, total_sharing):5.1f}%")

    print("\n== Dispos I-misses by routine (Figure 5) ==")
    for name, count in analysis.imiss_dispos_by_routine.most_common(8):
        routine = run.kernel.layout.routine(name)
        print(f"  {name:22s} {count:6d} misses  "
              f"(I-cache offset {routine.cache_offset() // 1024} KB)")

    print("\n== misses by high-level operation (Figure 9) ==")
    ops = {}
    for (label, kind), count in analysis.op_misses.items():
        ops.setdefault(label, {"I": 0, "D": 0})[kind] += count
    for label, kinds in sorted(ops.items(),
                               key=lambda kv: -(kv[1]["I"] + kv[1]["D"])):
        print(f"  {label:22s} I={100.0 * kinds['I'] / os_total:5.1f}%  "
              f"D={100.0 * kinds['D'] / os_total:5.1f}%")

    print("\n== lock statistics (Table 12 style) ==")
    total_cycles = max(proc.cycles for proc in run.processors)
    header = (f"  {'lock':12s} {'kcyc/acq':>9s} {'failed%':>8s} "
              f"{'waiters':>8s} {'local%':>7s} {'cached%':>8s}")
    print(header)
    for row in lock_table_rows(run.kernel, total_cycles, min_acquires=20)[:8]:
        print(f"  {row.name:12s} {row.kcycles_between_acquires:9.1f} "
              f"{row.failed_pct:8.1f} {row.waiters_if_any:8.2f} "
              f"{row.same_cpu_no_intervening_pct:7.1f} "
              f"{row.cached_to_uncached_pct:8.1f}")


if __name__ == "__main__":
    main()
