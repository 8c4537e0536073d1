"""Parallel experiment runner.

Fans the expensive, independent pieces of ``repro-experiments run``
across a :mod:`multiprocessing` pool:

1. **Base workload simulations** — the three traced runs (pmake,
   multpgm, oracle) every exhibit derives from are simulated and
   analyzed concurrently, one worker each, and land in the caller's
   context.
2. **Exhibit derivations** — each exhibit's ``build`` (including the
   ablations' private simulations) runs as an independent pool task on
   a fresh :class:`ExperimentContext` seeded with the base runs. The
   pool initializer hands the base runs over, and a worker returns only
   the exhibit (with the run-cache counters it moved): the runs a build
   adds (sweep points, ablation variants) die with its context.

Every simulation is deterministic given (workload, settings, seed), and
exhibits are emitted in request order, so parallel output is
byte-identical to serial output.
"""

from __future__ import annotations

import multiprocessing
import os
import traceback
from typing import List, Optional, Sequence, Tuple

from repro.experiments._base import ExperimentContext

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
# Pool workers (top-level functions so they pickle under any start
# method).
# ----------------------------------------------------------------------
def _counted(cache, fn, *args):
    """``(fn(*args), delta)``, where ``delta`` is what the call moved the
    worker's copy of ``cache``'s counters by, for the parent to add in."""
    before = cache.stats() if cache is not None else {}
    result = fn(*args)
    after = cache.stats() if cache is not None else {}
    return result, {name: after[name] - before[name] for name in after}


def _simulate_base_workload(task):
    workload, _settings, cache = task
    return _worker_boundary(
        f"base workload {workload!r}", _counted, cache,
        _simulate_base_workload_inner, task,
    )


def _simulate_base_workload_inner(task):
    workload, settings, cache = task
    ctx = ExperimentContext(settings, cache=cache)
    return workload, ctx.run(workload), ctx.report(workload)


_worker_seed: Optional[tuple] = None


def _init_exhibit_worker(settings, cache, cache_exhibits, base_runs):
    global _worker_seed
    _worker_seed = (settings, cache, cache_exhibits, base_runs)


def _build_exhibit(exhibit_id: str):
    assert _worker_seed is not None, "worker used without initializer"
    return _worker_boundary(
        f"exhibit {exhibit_id!r}", _counted, _worker_seed[1],
        _build_exhibit_inner, exhibit_id,
    )


def _build_exhibit_inner(exhibit_id: str):
    from repro.experiments.registry import build_experiment

    settings, cache, cache_exhibits, base_runs = _worker_seed
    # A fresh context per exhibit, so the runs one build adds are freed
    # with it instead of piling up in the worker. The parent's disk
    # probe for this exhibit already missed; a second would count twice.
    ctx = ExperimentContext(settings, cache=cache)
    ctx.cache_exhibits = cache_exhibits
    ctx._runs.update(base_runs)
    return build_experiment(exhibit_id, ctx)


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
    missing = [w for w in BASE_WORKLOADS if (w, ctx.settings) not in ctx._runs]
    if not missing:
        return
    if jobs <= 1 or len(missing) == 1:
        for workload in missing:
            ctx.report(workload)
        return
    tasks = [(w, ctx.settings, ctx.cache) for w in missing]
    with multiprocessing.Pool(processes=min(jobs, len(tasks))) as pool:
        results = _pool_map(
            pool, _simulate_base_workload, tasks, "base-run simulation"
        )
    for (workload, run, report), delta in results:
        ctx._runs[(workload, ctx.settings)] = (run, report)
        if ctx.cache is not None:
            ctx.cache.add_stats(delta)


def run_exhibits(
    ctx: ExperimentContext,
    exhibit_ids: Sequence[str],
    jobs: Optional[int] = None,
) -> List[Tuple[str, "object"]]:
    """Build ``exhibit_ids`` with up to ``jobs`` workers.

    Returns ``[(exhibit_id, Exhibit), ...]`` in request order, aliases
    resolved, and leaves ``ctx`` holding the base runs and every
    exhibit. The runs a worker's build adds stay in the worker; each
    built exhibit is stored on disk by the worker that built it.
    """
    from repro.experiments.registry import (
        build_experiment,
        get_experiment,
        resolve_exhibit_id,
    )

    for exhibit_id in exhibit_ids:
        get_experiment(exhibit_id)  # validate before any expensive work
    exhibit_ids = [resolve_exhibit_id(e) for e in exhibit_ids]
    jobs = default_jobs() if jobs is None else max(1, jobs)

    # Resolve what is already built (in memory or on disk) up front, so
    # a fully warm cache never pays for base-run loading or a pool. This
    # is the one disk probe per exhibit; builds below skip it.
    todo = []
    for exhibit_id in dict.fromkeys(exhibit_ids):
        if exhibit_id in ctx.exhibit_cache:
            continue
        cached = ctx.load_cached_exhibit(exhibit_id)
        if cached is not None:
            ctx.exhibit_cache[exhibit_id] = cached
        else:
            todo.append(exhibit_id)
    if jobs <= 1 or len(todo) <= 1:
        for exhibit_id in todo:
            build_experiment(exhibit_id, ctx)
        return [(e, ctx.exhibit_cache[e]) for e in exhibit_ids]

    warm_base_runs(ctx, jobs)
    base_keys = [(w, ctx.settings) for w in BASE_WORKLOADS]
    base_runs = {key: ctx._runs[key] for key in base_keys}
    with multiprocessing.Pool(
        processes=min(jobs, len(todo)),
        initializer=_init_exhibit_worker,
        initargs=(ctx.settings, ctx.cache, ctx.cache_exhibits, base_runs),
    ) as pool:
        built = _pool_map(pool, _build_exhibit, todo, "exhibit build")
    for exhibit_id, (exhibit, delta) in zip(todo, built):
        ctx.exhibit_cache[exhibit_id] = exhibit
        if ctx.cache is not None:
            ctx.cache.add_stats(delta)
    return [(e, ctx.exhibit_cache[e]) for e in exhibit_ids]
