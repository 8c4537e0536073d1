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
from repro.experiments._base import ExperimentContext, RunSettings
from repro.experiments.registry import EXPERIMENTS, run_experiment
from repro.fidelity import resolve_fast_forward, resolve_fidelity
from repro.machines import MACHINES, machine_for_cpus, resolve_machine_name
from repro.sim.runcache import RunCache
from repro.workloads import parse_workload_args

# argparse defaults come from the dataclass so the CLI cannot drift
# from the settings the library and fixtures use.
_DEFAULTS = RunSettings()


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the paper's tables and figures",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_cmd = sub.add_parser("run", help="run one or all experiments")
    run_cmd.add_argument("exhibit", help="exhibit id (e.g. table1) or 'all'")
    run_cmd.add_argument("--horizon-ms", type=float, default=_DEFAULTS.horizon_ms)
    run_cmd.add_argument("--warmup-ms", type=float, default=_DEFAULTS.warmup_ms)
    run_cmd.add_argument("--seed", type=int, default=_DEFAULTS.seed)
    run_cmd.add_argument(
        "--jobs", type=int, default=parallel.default_jobs(), metavar="N",
        help="worker processes for simulations and exhibit builds "
             "(default: min(3, cpu_count))",
    )
    run_cmd.add_argument(
        "--fidelity", choices=("detailed", "atomic", "mixed"), default=None,
        help="engine tier: 'detailed' (exact, the default), 'atomic' "
             "(functional-first, no stall accounting), or 'mixed' "
             "(atomic warmup, detailed measured window) "
             "(default: $REPRO_FIDELITY or detailed)",
    )
    run_cmd.add_argument(
        "--fast-forward", type=int, default=None, metavar="REFS",
        help="mixed tier: hand off to the detailed engine after REFS "
             "atomic references instead of at the warmup seam "
             "(default: $REPRO_FAST_FORWARD or 0)",
    )
    machine_group = run_cmd.add_mutually_exclusive_group()
    machine_group.add_argument(
        "--machine", choices=tuple(MACHINES), default=None, metavar="NAME",
        help="machine preset from repro.machines: "
             f"{', '.join(MACHINES)} (default: $REPRO_MACHINE or 4d340)",
    )
    machine_group.add_argument(
        "--cpus", type=int, default=None, metavar="N",
        help="shorthand for --machine: the preset with exactly N CPUs",
    )
    run_cmd.add_argument(
        "--workload-arg", action="append", default=None, metavar="K=V",
        dest="workload_args",
        help="workload tuning knob (repeatable), e.g. --workload-arg "
             "skew=1.2; applies to every workload the exhibit runs and "
             "folds into the cache keys",
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
        "--check", action="store_true",
        help="run with the repro.sanitizers invariant checkers (lockdep, "
             "races, coherence, LL/SC) and fail on any violation "
             "(also: REPRO_CHECK=1)",
    )
    run_cmd.add_argument(
        "--check-deep", action="store_true",
        help="--check plus per-block attribution of dread_block/"
             "dwrite_block sweeps (also: REPRO_CHECK=deep)",
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

    try:
        if args.cpus is not None:
            machine = machine_for_cpus(args.cpus)
        else:
            machine = resolve_machine_name(args.machine)
        workload_args = parse_workload_args(args.workload_args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # RunSettings folds REPRO_CHECK into ``check``.
    settings = RunSettings(
        horizon_ms=args.horizon_ms,
        warmup_ms=args.warmup_ms,
        seed=args.seed,
        check="deep" if args.check_deep else args.check,
        fidelity=resolve_fidelity(args.fidelity),
        fast_forward=resolve_fast_forward(args.fast_forward),
        machine=machine,
        workload_args=workload_args,
    )
    if settings.check and args.jobs > 1:
        # Reports live on the simulations in this process; worker
        # processes would strand them. Checked runs are serial.
        print("[--check forces jobs=1]", file=sys.stderr)
        args.jobs = 1
    if settings.check and settings.fidelity == "atomic":
        # Fail fast with the library's own message instead of dying
        # workload-by-workload inside the runs.
        print(
            "error: --check requires fidelity 'detailed' or 'mixed'",
            file=sys.stderr,
        )
        return 2
    if settings.fidelity == "atomic":
        # Atomic runs carry no monitor trace, so every exhibit would
        # render all-zero measured rows; refuse rather than print
        # silently wrong tables.
        print(
            "error: exhibits need a traced run; use --fidelity mixed "
            "for a fast-forwarded build (atomic is for "
            "Simulation-level use)",
            file=sys.stderr,
        )
        return 2
    cache = RunCache(cache_dir=args.cache_dir, enabled=not args.no_cache)
    ctx = ExperimentContext(settings, cache=cache)
    targets = list(EXPERIMENTS) if args.exhibit == "all" else [args.exhibit]
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
