"""Command-line entry point: ``python -m repro.experiments run <id|all>``.

Exhibit tables go to **stdout**; timing and cache statistics go to
**stderr**. That split is load-bearing: CI compares the stdout of a
cold run against a warm-cache or parallel run byte for byte.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import List, Optional

from repro.analysis.report import analyze_trace
from repro.experiments import parallel
from repro.experiments._base import (
    ExperimentContext,
    add_settings_arguments,
    resolve_settings,
)
from repro.experiments.registry import EXPERIMENTS, get_experiment, run_experiment
from repro.sim.runcache import RunCache


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the paper's tables and figures",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_cmd = sub.add_parser("run", help="run one or all experiments")
    run_cmd.add_argument("exhibit", help="exhibit id (e.g. table1) or 'all'")
    add_settings_arguments(run_cmd)
    run_cmd.add_argument(
        "--jobs", type=int, default=parallel.default_jobs(), metavar="N",
        help="worker processes for simulations and exhibit builds "
             "(default: min(3, cpu_count))",
    )
    run_cmd.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="persistent run-cache location (default: $REPRO_CACHE_DIR "
             "or ~/.cache/repro)",
    )
    run_cmd.add_argument(
        "--no-cache", action="store_true",
        help="neither read nor write the persistent run cache "
             "(also: REPRO_NO_CACHE=1)",
    )
    run_cmd.add_argument(
        "--charts", action="store_true",
        help="also render the exhibit's ASCII figure, if it has one",
    )
    run_cmd.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="exhibit output format on stdout (default: text)",
    )
    sub.add_parser("list", help="list exhibit ids")
    args = parser.parse_args(argv)

    if args.command == "list":
        for exhibit_id in EXPERIMENTS:
            print(exhibit_id)
        return 0

    targets = list(EXPERIMENTS) if args.exhibit == "all" else [args.exhibit]
    try:
        for exhibit_id in targets:
            get_experiment(exhibit_id)
        settings = resolve_settings(args=args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if settings.check and args.jobs > 1:
        # Reports live on the simulations in this process; worker
        # processes would strand them. Checked runs are serial.
        print("[--check forces jobs=1]", file=sys.stderr)
        args.jobs = 1
    cache = RunCache(cache_dir=args.cache_dir, enabled=not args.no_cache)
    ctx = ExperimentContext(settings, cache=cache)
    start = time.time()
    if args.jobs <= 1:
        # Serial: print each exhibit as it completes.
        built = ((e, run_experiment(e, ctx)) for e in targets)
    else:
        try:
            built = parallel.run_exhibits(ctx, targets, jobs=args.jobs)
        except parallel.ParallelWorkerError as exc:
            # No serial fallback: a degraded run would report wrong
            # timings as successful. Surface the worker failure and die.
            print(f"parallel run failed: {exc}", file=sys.stderr)
            return 3
    if args.format == "json":
        # One JSON array for the whole invocation; --charts is a
        # text-rendering concern and does not apply here.
        payload = [exhibit.to_dict() for _, exhibit in built]
        print(json.dumps(payload, indent=2))
    else:
        for exhibit_id, exhibit in built:
            print(exhibit.to_text())
            if args.charts:
                from repro.experiments.registry import render_chart

                figure = render_chart(exhibit_id, ctx)
                if figure:
                    print()
                    print(figure)
            print()
    print(f"[{time.time() - start:.1f}s, jobs={args.jobs}]", file=sys.stderr)
    print(cache.stats_line(), file=sys.stderr)
    if settings.check:
        return _report_checks(ctx)
    return 0


def _report_checks(ctx: ExperimentContext) -> int:
    """Summarize the sanitizer reports of every run behind the exhibits.

    Summaries go to stderr (one line per run) so checked stdout stays
    byte-identical to unchecked stdout; full violation reports are
    printed only when something fired. Exit code 2 on any violation.
    """
    reports = []
    crosscheck_failed = False
    for run in ctx.all_runs():
        report = run.check_report
        if report is not None:
            reports.append(report)
            # Cross-validate the checker's bus accounting against the
            # monitor's recorded transactions for the same run.
            analysis_report = analyze_trace(run, keep_imiss_stream=False)
            for line in analysis_report.crosscheck_lines():
                print(f"  {run.workload_name}: {line}", file=sys.stderr)
            if not analysis_report.crosscheck_ok():
                crosscheck_failed = True
    if not reports:
        # Exhibits (and their checked runs) came straight from the cache;
        # they were verified clean when stored. Use --no-cache to re-check.
        print("sanitizers: all runs served from cache (verified at store "
              "time); --no-cache re-checks", file=sys.stderr)
        return 0
    failed = crosscheck_failed
    for report in reports:
        print(report.summary(), file=sys.stderr)
        if not report.ok:
            failed = True
            print(report.to_text(), file=sys.stderr)
    return 2 if failed else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
