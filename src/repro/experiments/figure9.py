"""Figure 9: OS cache misses by high-level operation (Table 8 vocabulary)."""

from __future__ import annotations

from repro.common.types import RefDomain
from repro.experiments import paperdata
from repro.experiments._base import Exhibit, ExperimentContext

EXHIBIT_ID = "figure9"
TITLE = "OS misses by high-level operation (% of all OS misses)"

_COLUMNS = ("workload", "operation", "D-misses%", "I-misses%")

# Figure 9 buckets over the analyzer's innermost-op labels.
_OPS = (
    ("expensive_tlb", ("expensive_tlb_fault",)),
    ("cheap_tlb", ("cheap_tlb_fault", "utlb")),
    ("io_syscall", ("io_syscall",)),
    ("sginap", ("sginap_syscall",)),
    ("other_syscall", ("other_syscall",)),
    ("interrupt", ("interrupt",)),
)


def op_shares(analysis) -> dict:
    os_total = analysis.total_misses(RefDomain.OS)
    out = {}
    for bucket, labels in _OPS:
        d = sum(analysis.op_misses.get((label, "D"), 0) for label in labels)
        i = sum(analysis.op_misses.get((label, "I"), 0) for label in labels)
        out[bucket] = (
            100.0 * d / os_total if os_total else 0.0,
            100.0 * i / os_total if os_total else 0.0,
        )
    return out


def build(ctx: ExperimentContext) -> Exhibit:
    exhibit = Exhibit(EXHIBIT_ID, TITLE, _COLUMNS)
    for workload in paperdata.WORKLOADS:
        analysis = ctx.report(workload).analysis
        for bucket, (d_share, i_share) in op_shares(analysis).items():
            exhibit.add_row(workload, bucket, d_share, i_share)
    exhibit.note(
        "paper: I/O system calls and expensive TLB faults cause most data "
        "misses; I/O calls are the largest instruction-miss contributor; "
        "interrupts skew toward instruction misses"
    )
    return exhibit
