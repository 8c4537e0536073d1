"""The parallel runner around the one exhibit path.

Every exhibit is looked up, built, stored and kept by
:class:`ExperimentContext` (:meth:`~ExperimentContext.lookup_exhibit`,
:meth:`~ExperimentContext.build_exhibit`), whose builds keep only the
base runs they add: the sweep points and ablation variants die with
each build. :func:`run_exhibits` builds in this process at ``jobs=1``
or for a single exhibit; otherwise it fans the work across a
:mod:`multiprocessing` pool:

1. **Base workload simulations** — the three traced runs (pmake,
   multpgm, oracle) every exhibit derives from are simulated and
   analyzed concurrently, one worker each, and land in the caller's
   context.
2. **Exhibit builds** — one pool task per exhibit. Each worker builds
   on the caller's context as the pool initializer hands it over, base
   runs included, and returns only what the build returns: no engine
   travels back to the parent.

Every simulation is deterministic given (workload, settings, seed), and
exhibits are returned in request order, so parallel output is
byte-identical to serial output.
"""

from __future__ import annotations

import multiprocessing
import os
import traceback
from typing import List, Optional, Sequence, Tuple

from repro.experiments import paperdata
from repro.experiments._base import (
    CheckVerdict, ExhibitBuild, ExperimentContext, check_verdicts,
)
from repro.experiments.registry import get_experiment, resolve_exhibit_id


class ParallelWorkerError(RuntimeError):
    """An exhibit build or a pool worker failed.

    Raised with the task and its traceback attached. Failures must
    surface and abort the invocation — a run that quietly degraded (to
    serial, or to partial results) would report wrong timings as
    successful and poison benchmark baselines.
    """


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
    ctx = ExperimentContext(settings, cache=cache)
    before = cache.stats() if cache is not None else {}
    run, report = ctx.run(workload), ctx.report(workload)
    return workload, run, report, cache.moved_since(before) if cache is not None else {}


_worker_ctx: Optional[ExperimentContext] = None


def _init_exhibit_worker(ctx: ExperimentContext) -> None:
    global _worker_ctx
    _worker_ctx = ctx


def _build_exhibit(exhibit_id: str) -> ExhibitBuild:
    assert _worker_ctx is not None, "worker used without initializer"
    return _worker_boundary(f"exhibit {exhibit_id!r}", _worker_ctx.build_exhibit, exhibit_id)


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
    missing = [w for w in paperdata.WORKLOADS if (w, ctx.settings) not in ctx._runs]
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
    return check_verdicts(
        (ctx.run(workload), ctx.report(workload)) for workload in missing
    )


def run_exhibits(
    ctx: ExperimentContext,
    exhibit_ids: Sequence[str],
    jobs: Optional[int] = None,
) -> List[Tuple[str, ExhibitBuild]]:
    """Build ``exhibit_ids`` with up to ``jobs`` workers.

    Returns ``[(exhibit_id, ExhibitBuild), ...]`` in request order,
    aliases resolved; an exhibit ``ctx`` looks up in memory or on disk
    comes with no counters or verdicts. Each run obtained for the builds
    is verdicted once: the base runs warmed for a pool, with its first
    exhibit. A serial build simulates only what it reads, and ``ctx``
    keeps every exhibit and the base runs. A failed build raises
    :class:`ParallelWorkerError` naming the exhibit, at every ``jobs``.
    """
    for exhibit_id in exhibit_ids:
        get_experiment(exhibit_id)  # validate before any expensive work
    exhibit_ids = [resolve_exhibit_id(e) for e in exhibit_ids]
    jobs = default_jobs() if jobs is None else max(1, jobs)

    # Look up what is already built first, so a fully warm cache never
    # pays for base-run loading or a pool.
    found = {e: ctx.lookup_exhibit(e) for e in dict.fromkeys(exhibit_ids)}
    results = {
        e: ExhibitBuild(exhibit, {}, []) for e, exhibit in found.items()
        if exhibit is not None
    }
    todo = [e for e in found if e not in results]
    if jobs <= 1 or len(todo) <= 1:
        for exhibit_id in todo:
            results[exhibit_id] = _worker_boundary(
                f"exhibit {exhibit_id!r}", ctx.build_exhibit, exhibit_id
            )
    else:
        verdicts = warm_base_runs(ctx, jobs)
        with multiprocessing.Pool(
            processes=min(jobs, len(todo)),
            initializer=_init_exhibit_worker, initargs=(ctx,),
        ) as pool:
            built = _pool_map(pool, _build_exhibit, todo, "exhibit build")
        built[0] = built[0]._replace(verdicts=verdicts + built[0].verdicts)
        for exhibit_id, build in zip(todo, built):
            ctx.keep_exhibit(exhibit_id, build.exhibit, build.counters)
            results[exhibit_id] = build
    return [(e, results[e]) for e in exhibit_ids]
