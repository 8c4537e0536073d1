"""Parallel experiment runner.

Fans the expensive, independent pieces of ``repro-experiments run``
across a :mod:`multiprocessing` pool:

1. **Base workload simulations** — the three traced runs (pmake,
   multpgm, oracle) every exhibit derives from are simulated and
   analyzed concurrently, one worker each.
2. **Exhibit derivations** — each exhibit's ``build`` (including the
   ablations' private simulations) runs as an independent pool task
   against a per-worker :class:`ExperimentContext` pre-warmed with the
   base runs.

Results merge back into the caller's context (runs, reports and built
exhibits alike), so downstream consumers — charts, further exhibits,
the CLI's printing loop — observe exactly the state a serial run would
have produced. Every simulation is deterministic given (workload,
settings, seed), and exhibits are emitted in request order, so parallel
output is byte-identical to serial output.

Workers share work products through the persistent
:class:`~repro.sim.runcache.RunCache` when one is configured; with the
cache disabled, base runs are shipped to workers through the pool
initializer instead (finished :class:`TracedRun` objects are picklable).
"""

from __future__ import annotations

import multiprocessing
import os
import traceback
from typing import List, Optional, Sequence, Tuple

from repro.experiments._base import ExperimentContext
from repro.sim.runcache import RunCache

BASE_WORKLOADS = ("pmake", "multpgm", "oracle")


class ParallelWorkerError(RuntimeError):
    """A pool worker failed.

    Raised in the parent with the worker's task and traceback attached.
    Worker failures must surface and abort the invocation — a run that
    quietly degraded (to serial, or to partial results) would report
    wrong timings as successful and poison benchmark baselines.
    """


def _worker_boundary(task_label: str, fn, *args):
    """Run ``fn`` inside a worker; wrap any failure with its task label.

    The wrapped exception carries the worker-side traceback as text
    (exception *causes* do not survive the pool's pickling), so the
    parent can print what actually went wrong in the child.
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
# Cache handles cross the process boundary as (dir, enabled) specs.
# ----------------------------------------------------------------------
def _cache_spec(cache: Optional[RunCache]):
    if cache is None:
        return None
    return (str(cache.cache_dir), cache.enabled)


def _cache_from_spec(spec) -> Optional[RunCache]:
    if spec is None:
        return None
    cache_dir, enabled = spec
    return RunCache(cache_dir=cache_dir, enabled=enabled)


# ----------------------------------------------------------------------
# Pool workers (top-level functions so they pickle under any start
# method).
# ----------------------------------------------------------------------
def _simulate_base_workload(task):
    workload = task[0]
    return _worker_boundary(
        f"base workload {workload!r}", _simulate_base_workload_inner, task
    )


def _simulate_base_workload_inner(task):
    workload, settings, spec = task
    ctx = ExperimentContext(settings, cache=_cache_from_spec(spec))
    report = ctx.report(workload)
    return workload, ctx.run(workload), report


_worker_ctx: Optional[ExperimentContext] = None


def _init_exhibit_worker(settings, spec, base_entries):
    global _worker_ctx
    _worker_ctx = ExperimentContext(settings, cache=_cache_from_spec(spec))
    if base_entries:
        _worker_ctx._runs.update(base_entries["runs"])
        _worker_ctx._reports.update(base_entries["reports"])


def _build_exhibit(exhibit_id: str):
    return _worker_boundary(
        f"exhibit {exhibit_id!r}", _build_exhibit_inner, exhibit_id
    )


def _build_exhibit_inner(exhibit_id: str):
    from repro.experiments.registry import run_experiment

    ctx = _worker_ctx
    assert ctx is not None, "worker used without initializer"
    known_runs = set(ctx._runs)
    known_reports = set(ctx._reports)
    exhibit = run_experiment(exhibit_id, ctx)
    # New runs this build created (ablation variants, sweeps) travel
    # back so the parent context ends up in serial-identical state.
    runs_delta = {k: ctx._runs[k] for k in set(ctx._runs) - known_runs}
    reports_delta = {k: ctx._reports[k] for k in set(ctx._reports) - known_reports}
    return exhibit_id, exhibit, runs_delta, reports_delta


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


def warm_base_runs(ctx: ExperimentContext, jobs: int) -> None:
    """Simulate + analyze the three base workloads, ``jobs`` at a time."""
    missing = [
        w for w in BASE_WORKLOADS if (w, ctx.settings) not in ctx._reports
    ]
    if not missing:
        return
    if jobs <= 1 or len(missing) == 1:
        for workload in missing:
            ctx.report(workload)
        return
    tasks = [(w, ctx.settings, _cache_spec(ctx.cache)) for w in missing]
    with multiprocessing.Pool(processes=min(jobs, len(tasks))) as pool:
        for workload, run, report in _pool_map(
            pool, _simulate_base_workload, tasks, "base-run simulation"
        ):
            key = (workload, ctx.settings)
            ctx._runs.setdefault(key, run)
            ctx._reports.setdefault(key, report)


def run_exhibits(
    ctx: ExperimentContext,
    exhibit_ids: Sequence[str],
    jobs: Optional[int] = None,
) -> List[Tuple[str, "object"]]:
    """Build ``exhibit_ids`` with up to ``jobs`` workers.

    Returns ``[(exhibit_id, Exhibit), ...]`` in request order and leaves
    ``ctx`` holding every run, report and exhibit the builds produced —
    the same state a serial pass over the ids would leave behind.
    """
    from repro.experiments.registry import get_experiment, run_experiment

    for exhibit_id in exhibit_ids:
        get_experiment(exhibit_id)  # validate before any expensive work
    jobs = default_jobs() if jobs is None else max(1, jobs)

    # Resolve what is already built (in memory or on disk) up front, so
    # a fully warm cache never pays for base-run loading or a pool.
    todo = []
    for exhibit_id in exhibit_ids:
        if exhibit_id in ctx.exhibit_cache:
            continue
        cached = ctx.load_cached_exhibit(exhibit_id)
        if cached is not None:
            ctx.exhibit_cache[exhibit_id] = cached
        else:
            todo.append(exhibit_id)
    if jobs <= 1 or len(todo) <= 1:
        return [(e, run_experiment(e, ctx)) for e in exhibit_ids]

    warm_base_runs(ctx, jobs)

    # With a live disk cache workers re-load the base runs themselves;
    # without one the runs ship through the initializer (once per
    # worker process).
    base_entries = None
    if ctx.cache is None or not ctx.cache.enabled:
        base_keys = [(w, ctx.settings) for w in BASE_WORKLOADS]
        base_entries = {
            "runs": {k: ctx._runs[k] for k in base_keys if k in ctx._runs},
            "reports": {k: ctx._reports[k] for k in base_keys if k in ctx._reports},
        }

    with multiprocessing.Pool(
        processes=min(jobs, len(todo)),
        initializer=_init_exhibit_worker,
        initargs=(ctx.settings, _cache_spec(ctx.cache), base_entries),
    ) as pool:
        for exhibit_id, exhibit, runs_delta, reports_delta in _pool_map(
            pool, _build_exhibit, todo, "exhibit build"
        ):
            ctx.exhibit_cache[exhibit_id] = exhibit
            ctx.store_cached_exhibit(exhibit_id, exhibit)
            for key, run in runs_delta.items():
                ctx._runs.setdefault(key, run)
            for key, report in reports_delta.items():
                ctx._reports.setdefault(key, report)
    return [(e, ctx.exhibit_cache[e]) for e in exhibit_ids]
