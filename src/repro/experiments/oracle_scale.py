"""The Section 3 footnote: does database size change the OS picture?

"To see if the size of the database affects the cache performance of
the OS, we ran a subset of the experiments using a standard-sized
benchmark. We show in [18] that the characteristics of the OS misses in
the standard benchmark are qualitatively the same as the ones in
Oracle." This exhibit re-runs that check: the scaled (measured) TP1 vs
a standard-sized one, comparing the OS miss-class profile.
"""

from __future__ import annotations

from repro.analysis.report import analyze_trace
from repro.common.types import MissClass, RefDomain
from repro.experiments._base import Exhibit, ExperimentContext

EXHIBIT_ID = "oracle-scale"
TITLE = "Scaled vs standard-sized TP1: OS miss characteristics"

_COLUMNS = (
    "config", "OSmiss/all%", "I-share%", "cold%", "dispos%", "dispap%",
    "sharing%",
)

_CLASSES = (MissClass.COLD, MissClass.DISPOS, MissClass.DISPAP,
            MissClass.SHARING)


def _profile(report) -> tuple:
    analysis = report.analysis
    os_total = analysis.total_misses(RefDomain.OS) or 1
    i_share = 100.0 * sum(
        analysis.class_counts(RefDomain.OS, "I").values()
    ) / os_total
    counts = analysis.class_counts(RefDomain.OS)
    class_shares = tuple(
        round(100.0 * counts[target] / os_total, 1) for target in _CLASSES
    )
    return (round(report.os_miss_fraction_pct, 1), round(i_share, 1),
            *class_shares)


def build(ctx: ExperimentContext) -> Exhibit:
    exhibit = Exhibit(EXHIBIT_ID, TITLE, _COLUMNS)
    # The scaled TP1 is the paper's measured Oracle: the shared base run.
    exhibit.add_row("scaled", *_profile(ctx.report("oracle")))
    run = ctx.private_run("oracle", workload_args={"scale": "standard"})
    exhibit.add_row(
        "standard", *_profile(analyze_trace(run, keep_imiss_stream=False))
    )
    exhibit.note(
        "paper (Section 3, citing its companion report): the OS miss "
        "characteristics of the standard benchmark are qualitatively the "
        "same as the scaled one"
    )
    return exhibit
