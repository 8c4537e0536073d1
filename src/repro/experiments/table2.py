"""Table 2: the architectural miss-class taxonomy (definitional).

The taxonomy is implemented by the classifier
(:mod:`repro.analysis.reconstruct`); this exhibit prints it and verifies
each class is actually observed somewhere in the traced workloads.
"""

from __future__ import annotations

from repro.common.types import MissClass, RefDomain
from repro.experiments import paperdata
from repro.experiments._base import Exhibit, ExperimentContext

EXHIBIT_ID = "table2"
TITLE = "Classification of OS cache misses (Table 2 taxonomy)"

_COLUMNS = ("class", "meaning", "observed_in_os_misses")

_MEANINGS = {
    MissClass.COLD: "first access by this processor to the block",
    MissClass.DISPOS: "displaced by an intervening OS reference",
    MissClass.DISPAP: "displaced by an intervening application reference",
    MissClass.SHARING: "OS data shared or migrating among processors",
    MissClass.INVAL: "I-cache invalidated when code pages are reallocated",
    MissClass.UNCACHED: "accesses that bypass the caches",
}


def build(ctx: ExperimentContext) -> Exhibit:
    exhibit = Exhibit(EXHIBIT_ID, TITLE, _COLUMNS)
    observed = set()
    escape_total = 0
    for workload in paperdata.WORKLOADS:
        analysis = ctx.report(workload).analysis
        observed.update(
            cls for cls, count in analysis.class_counts(RefDomain.OS).items()
            if count
        )
        escape_total += analysis.escape_reads
    for cls, meaning in _MEANINGS.items():
        if cls is MissClass.UNCACHED:
            seen = escape_total > 0
        else:
            seen = cls in observed
        exhibit.add_row(cls.value, meaning, "yes" if seen else "no")
    exhibit.note(
        "Dispossame (Dispos with no intervening application run) is "
        "tracked as a subset flag, as in the paper"
    )
    return exhibit
