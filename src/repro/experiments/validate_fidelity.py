"""Fidelity validation exhibit: mixed-tier error report per workload.

Runs every workload once detailed and once mixed at the context's
settings, compares all Table 2/11/12 statistics from the measured
windows (:func:`repro.fidelity.validate.compare_runs`), and tabulates
each comparison with its verdict. The machine-readable JSON error
report is attached as an exhibit note, so the service and CI consume
the same artifact the text table renders.

Wall-clock speedups are deliberately absent here — exhibit output must
be deterministic (CI byte-compares cold and warm runs). Use
``python -m repro.fidelity.validate`` for the timed report.
"""

from __future__ import annotations

import json

from repro.experiments import paperdata
from repro.experiments._base import Exhibit, ExperimentContext
from repro.fidelity.validate import compare_runs

EXHIBIT_ID = "validate-fidelity"
TITLE = "Mixed-fidelity bounded-error validation (Tables 2/11/12)"

_COLUMNS = (
    "workload", "table", "statistic", "detailed", "mixed", "error",
    "bound", "verdict",
)


def _num(value) -> str:
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


def build(ctx: ExperimentContext) -> Exhibit:
    exhibit = Exhibit(EXHIBIT_ID, TITLE, _COLUMNS)
    # Pin the baseline to detailed even when the context's default tier
    # is something else (a fast-forwarded `run all` sweep would otherwise
    # compare mixed against itself). With a detailed default the pin
    # resolves to the context's own settings, so it shares the other
    # exhibits' runs.
    baseline = {"fidelity": "detailed", "fast_forward": 0}
    report_blob = []
    failures = 0
    for workload in paperdata.WORKLOADS:
        detailed_run = ctx.run(workload, **baseline)
        detailed_report = ctx.report(workload, **baseline)
        mixed_run = ctx.run(workload, fidelity="mixed")
        mixed_report = ctx.report(workload, fidelity="mixed")
        checks = compare_runs(
            detailed_run, mixed_run, detailed_report, mixed_report
        )
        for check in checks:
            if not check.ok:
                failures += 1
            # Pre-format the numeric cells: the generic float rendering
            # is .1f, which would flatten errors like 0.032 to "0.0".
            exhibit.add_row(
                workload, check.table, check.name,
                _num(check.detailed), _num(check.mixed),
                f"{check.error:.3f}", _num(check.bound),
                "ok" if check.ok else "OUT OF BOUND",
            )
        report_blob.append(
            {
                "workload": workload,
                "fast_forwarded_refs": mixed_run.fast_forwarded_refs,
                "seam_cycles": mixed_run.seam_cycles,
                "ok": all(check.ok for check in checks),
                "checks": [check.to_dict() for check in checks],
            }
        )
    exhibit.note(
        "mixed-tier drift vs detailed over the same measured window; "
        "count errors are symmetric relative, share errors are "
        "percentage points (bounds sized above seed-to-seed variance)"
    )
    exhibit.note("json:" + json.dumps(report_blob, sort_keys=True))
    if failures:
        exhibit.note(f"{failures} STATISTIC(S) OUT OF BOUND")
    return exhibit
