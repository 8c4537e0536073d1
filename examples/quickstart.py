#!/usr/bin/env python
"""Quickstart: trace one workload and print the paper's headline numbers.

Builds the modelled SGI 4D/340 (four R3000 CPUs, 64 KB I-caches,
64+256 KB data caches, snooping bus), boots the synthetic IRIX-like
kernel, runs the Pmake workload under the bus monitor, and pushes the
recorded trace through the full analysis pipeline — exactly the paper's
methodology, end to end.

Run:  python examples/quickstart.py [workload] [horizon_ms]
"""

import sys

from repro import analyze_trace, api
from repro.common.types import RefDomain


def main() -> None:
    workload = sys.argv[1] if len(sys.argv) > 1 else "pmake"
    horizon_ms = float(sys.argv[2]) if len(sys.argv) > 2 else 40.0

    print(f"tracing {workload} for {horizon_ms:.0f} ms "
          "(after 300 ms of warmup) ...")
    run = api.run(workload, horizon_ms=horizon_ms, warmup_ms=300.0, seed=1)
    print(f"recorded {len(run.trace):,} bus transactions in "
          f"{len(run.trace.segments)} segment(s)")

    report = analyze_trace(run)
    analysis = report.analysis

    print()
    print(f"== {workload}: Table 1 style summary ==")
    print(f"  user / system / idle time : "
          f"{report.user_pct:.1f}% / {report.sys_pct:.1f}% / "
          f"{report.idle_pct:.1f}%")
    print(f"  OS misses / all misses    : {report.os_miss_fraction_pct:.1f}%")
    print(f"  stall, all misses         : {report.total_stall_pct:.1f}% "
          "of non-idle time")
    print(f"  stall, OS misses          : {report.os_stall_pct:.1f}%")
    print(f"  stall, OS + OS-induced    : "
          f"{report.os_plus_induced_stall_pct:.1f}%")

    print()
    print("== OS miss classification (Table 2 classes) ==")
    os_total = analysis.total_misses(RefDomain.OS)
    for kind, label in (("I", "instruction"), ("D", "data")):
        counts = analysis.class_counts(RefDomain.OS, kind)
        shares = ", ".join(
            f"{cls.value}={100.0 * n / os_total:.1f}%"
            for cls, n in sorted(counts.items(), key=lambda kv: -kv[1])
        )
        print(f"  {label:12s}: {shares}")

    print()
    print("== the paper's three major OS miss sources ==")
    from repro.experiments.derive import (
        blockop_miss_total,
        migration_misses,
        os_misses,
    )

    print(f"  instruction fetches : {os_misses(analysis, 'I'):,} misses")
    print(f"  process migration   : {migration_misses(analysis)['total']:,} "
          "sharing misses on per-process state")
    print(f"  block operations    : {blockop_miss_total(analysis):,} misses "
          f"in {len(analysis.blockop_log)} copy/clear/traversal sweeps")


if __name__ == "__main__":
    main()
