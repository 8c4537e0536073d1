"""The one exhibit build, and the parallel runner around it.

:func:`build_exhibit` is how ``repro-experiments run`` and the service
build an exhibit: on a fresh :class:`ExperimentContext` seeded with the
runs its caller hands in, so the runs one build adds (sweep points,
ablation variants) die with it. :func:`run_exhibits` calls it in this
process at ``jobs=1`` or for a single exhibit; otherwise it fans the
work across a :mod:`multiprocessing` pool:

1. **Base workload simulations** — the three traced runs (pmake,
   multpgm, oracle) every exhibit derives from are simulated and
   analyzed concurrently, one worker each, and land in the caller's
   context.
2. **Exhibit builds** — one pool task per exhibit. The pool initializer
   hands the base runs over, and a worker returns only what the build
   returns: no engine travels back to the parent.

Every simulation is deterministic given (workload, settings, seed), and
exhibits are returned in request order, so parallel output is
byte-identical to serial output.
"""

from __future__ import annotations

import multiprocessing
import os
import traceback
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from repro.analysis.report import analyze_trace
from repro.experiments._base import Exhibit, ExperimentContext
from repro.sanitizers.report import CheckReport
from repro.sim.runcache import RunCache

BASE_WORKLOADS = ("pmake", "multpgm", "oracle")


class ParallelWorkerError(RuntimeError):
    """An exhibit build or a pool worker failed.

    Raised with the task and its traceback attached. Failures must
    surface and abort the invocation — a run that quietly degraded (to
    serial, or to partial results) would report wrong timings as
    successful and poison benchmark baselines.
    """


class CheckVerdict(NamedTuple):
    """What ``--check`` reports of one checked run, small enough for a
    pool worker to return in place of the run."""

    report: CheckReport
    crosscheck: Tuple[str, ...]  # prefixed with the run's workload
    crosscheck_ok: bool


class ExhibitBuild(NamedTuple):
    """What :func:`build_exhibit` returns."""

    exhibit: Exhibit
    counters: Dict[str, int]  # run-cache counters moved, for add_stats()
    verdicts: List[CheckVerdict]


def check_verdicts(runs: Iterable) -> List[CheckVerdict]:
    """The verdict of each checked run in ``runs``: its sanitizer report,
    and the checker's bus accounting crosschecked against the monitor's
    recorded transactions for the same run."""
    verdicts = []
    for run in runs:
        if run.check_report is not None:
            analysis = analyze_trace(run, keep_imiss_stream=False)
            lines = tuple(
                f"  {run.workload_name}: {line}"
                for line in analysis.crosscheck_lines()
            )
            verdicts.append(
                CheckVerdict(run.check_report, lines, analysis.crosscheck_ok())
            )
    return verdicts


def _own_counters(cache: Optional[RunCache]) -> Optional[RunCache]:
    """``cache``'s store with fresh counters: they then read what one
    task moved, in whichever process or thread it ran."""
    return None if cache is None else RunCache(cache.cache_dir, cache.enabled)


def build_exhibit(
    exhibit_id: str,
    settings,
    cache: Optional[RunCache] = None,
    runs: Optional[Dict] = None,
    cache_exhibits: bool = True,
) -> ExhibitBuild:
    """Build one exhibit on a fresh context seeded with ``runs`` and
    store it, without probing the disk for it first (callers have).

    Returns the exhibit, the run-cache counters the build moved (for
    the caller to add in) and the verdicts of the checked runs the
    context obtained itself. Afterwards ``runs`` also holds the base
    runs the build obtained at ``settings``; every other run dies with
    the context.
    """
    from repro.experiments.registry import build_experiment

    runs = {} if runs is None else runs
    handed = {id(run) for run, _report in runs.values()}
    ctx = ExperimentContext(settings, cache=_own_counters(cache))
    ctx.cache_exhibits = cache_exhibits
    ctx._runs.update(runs)
    exhibit = build_experiment(exhibit_id, ctx)
    for key in [(w, settings) for w in BASE_WORKLOADS]:
        if key in ctx._runs:
            runs.setdefault(key, ctx._runs[key])
    return ExhibitBuild(
        exhibit,
        ctx.cache.stats() if ctx.cache is not None else {},
        check_verdicts(run for run in ctx.all_runs() if id(run) not in handed),
    )


def _worker_boundary(task_label: str, fn, *args):
    """Run ``fn``; wrap any failure with its task label.

    The wrapped exception carries the traceback as text (exception
    *causes* do not survive the pool's pickling), so the parent can
    print what actually went wrong in the child.
    """
    try:
        return fn(*args)
    except ParallelWorkerError:
        raise
    except BaseException as exc:
        raise ParallelWorkerError(
            f"worker failed on {task_label}: {type(exc).__name__}: {exc}\n"
            f"{traceback.format_exc()}"
        ) from None


def default_jobs() -> int:
    """Default worker count: one per base workload, capped by the host."""
    return max(1, min(3, os.cpu_count() or 1))


# ----------------------------------------------------------------------
# Pool workers (top-level functions so they pickle under any start
# method).
# ----------------------------------------------------------------------
def _simulate_base_workload(task):
    return _worker_boundary(
        f"base workload {task[0]!r}", _simulate_base_workload_inner, task
    )


def _simulate_base_workload_inner(task):
    workload, settings, cache = task
    ctx = ExperimentContext(settings, cache=_own_counters(cache))
    run, report = ctx.run(workload), ctx.report(workload)
    return workload, run, report, ctx.cache.stats() if ctx.cache is not None else {}


_worker_seed: Optional[tuple] = None


def _init_exhibit_worker(settings, cache, cache_exhibits, base_runs):
    global _worker_seed
    _worker_seed = (settings, cache, cache_exhibits, base_runs)


def _build_exhibit(exhibit_id: str) -> ExhibitBuild:
    assert _worker_seed is not None, "worker used without initializer"
    settings, cache, cache_exhibits, base_runs = _worker_seed
    # A copy, so no run a build adds outlives it in the worker.
    return _worker_boundary(
        f"exhibit {exhibit_id!r}", build_exhibit,
        exhibit_id, settings, cache, dict(base_runs), cache_exhibits,
    )


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
def _pool_map(pool, fn, tasks, stage: str):
    """``pool.map`` that surfaces every failure as ParallelWorkerError.

    Covers failures the worker boundary cannot catch — a worker process
    dying on import, an unpicklable result — as well as the wrapped
    task-level errors. There is deliberately no serial fallback.
    """
    try:
        return pool.map(fn, tasks, chunksize=1)
    except ParallelWorkerError:
        raise
    except Exception as exc:
        raise ParallelWorkerError(
            f"{stage} pool failed: {type(exc).__name__}: {exc}"
        ) from exc


def warm_base_runs(ctx: ExperimentContext, jobs: int) -> List[CheckVerdict]:
    """Simulate + analyze the three base workloads, ``jobs`` at a time;
    returns the verdicts of the checked runs it obtained."""
    missing = [w for w in BASE_WORKLOADS if (w, ctx.settings) not in ctx._runs]
    if jobs > 1 and len(missing) > 1:
        tasks = [(w, ctx.settings, ctx.cache) for w in missing]
        with multiprocessing.Pool(processes=min(jobs, len(tasks))) as pool:
            results = _pool_map(
                pool, _simulate_base_workload, tasks, "base-run simulation"
            )
        for workload, run, report, counters in results:
            ctx._runs[(workload, ctx.settings)] = (run, report)
            if ctx.cache is not None:
                ctx.cache.add_stats(counters)
    return check_verdicts(ctx.run(workload) for workload in missing)


def run_exhibits(
    ctx: ExperimentContext,
    exhibit_ids: Sequence[str],
    jobs: Optional[int] = None,
) -> List[Tuple[str, ExhibitBuild]]:
    """Build ``exhibit_ids`` with up to ``jobs`` workers.

    Returns ``[(exhibit_id, ExhibitBuild), ...]`` in request order,
    aliases resolved; an exhibit served from memory or disk comes with
    no counters or verdicts. Each run obtained for the builds is
    verdicted once: the base runs warmed for a pool, with its first
    exhibit. Builds are handed the base runs ``ctx`` holds, so a serial
    build simulates only what it reads, and ``ctx`` keeps every exhibit
    and the base runs. A failed build raises
    :class:`ParallelWorkerError` naming the exhibit, at every ``jobs``.
    """
    from repro.experiments.registry import get_experiment, resolve_exhibit_id

    for exhibit_id in exhibit_ids:
        get_experiment(exhibit_id)  # validate before any expensive work
    exhibit_ids = [resolve_exhibit_id(e) for e in exhibit_ids]
    jobs = default_jobs() if jobs is None else max(1, jobs)

    # Resolve what is already built (in memory or on disk) up front, so
    # a fully warm cache never pays for base-run loading or a pool. This
    # is the one disk probe per exhibit; builds skip it.
    results: Dict[str, ExhibitBuild] = {}
    todo = []
    for exhibit_id in dict.fromkeys(exhibit_ids):
        exhibit = ctx.exhibit_cache.get(exhibit_id) or ctx.load_cached_exhibit(exhibit_id)
        if exhibit is None:
            todo.append(exhibit_id)
        else:
            results[exhibit_id] = ExhibitBuild(exhibit, {}, [])
    serial = jobs <= 1 or len(todo) <= 1
    verdicts = [] if serial else warm_base_runs(ctx, jobs)
    base_runs = {
        (w, ctx.settings): ctx._runs[(w, ctx.settings)]
        for w in BASE_WORKLOADS if (w, ctx.settings) in ctx._runs
    }
    if serial:
        for exhibit_id in todo:
            results[exhibit_id] = _worker_boundary(
                f"exhibit {exhibit_id!r}", build_exhibit, exhibit_id,
                ctx.settings, ctx.cache, base_runs, ctx.cache_exhibits,
            )
        ctx._runs.update(base_runs)
    else:
        with multiprocessing.Pool(
            processes=min(jobs, len(todo)),
            initializer=_init_exhibit_worker,
            initargs=(ctx.settings, ctx.cache, ctx.cache_exhibits, base_runs),
        ) as pool:
            built = _pool_map(pool, _build_exhibit, todo, "exhibit build")
        built[0] = built[0]._replace(verdicts=verdicts + built[0].verdicts)
        results.update(zip(todo, built))
    for exhibit_id, build in results.items():
        ctx.exhibit_cache[exhibit_id] = build.exhibit
        if ctx.cache is not None:
            ctx.cache.add_stats(build.counters)
    return [(e, results[e]) for e in exhibit_ids]
