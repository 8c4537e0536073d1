"""Bounded job queue and worker pool for cache-cold exhibit builds.

A cold exhibit request costs seconds to minutes of simulation; the
event loop must never pay it inline. Instead the request becomes a
:class:`Job` on a bounded :class:`asyncio.Queue`, drained by asyncio
worker tasks that push the actual build into a
:class:`~concurrent.futures.ProcessPoolExecutor` (simulations are
CPU-bound; threads would serialize on the GIL). Each worker reuses the
stack that already exists for batch runs: the build lands in
:func:`repro.experiments.registry.run_experiment` against a per-process
:class:`ExperimentContext` backed by the shared persistent
:class:`~repro.sim.runcache.RunCache` — so a job's result is written to
the content-addressed store and every later request for the same
exhibit is cache-warm, and the cache's advisory claim lock keeps two
workers from simulating the same key twice.

Backpressure is the queue bound itself: :meth:`JobManager.submit`
raises :class:`QueueFull` instead of queueing unboundedly, and the HTTP
layer turns that into ``503`` + ``Retry-After``. Duplicate requests for
an exhibit that is already queued or running coalesce onto the existing
job.
"""

from __future__ import annotations

import asyncio
import itertools
import time
import uuid
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.experiments._base import RunSettings

# Job lifecycle states. Terminal states keep their result/error forever
# (the manager holds a bounded history so /jobs/<id> keeps answering
# after completion).
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
TIMEOUT = "timeout"
CANCELLED = "cancelled"

TERMINAL_STATES = (DONE, FAILED, TIMEOUT, CANCELLED)

# Completed jobs kept for polling before the oldest are dropped.
MAX_FINISHED_JOBS = 256


class QueueFull(RuntimeError):
    """The bounded job queue rejected a submission (backpressure)."""


@dataclass
class Job:
    """One queued exhibit build and its lifecycle."""

    job_id: str
    exhibit_id: str
    # The settings this build runs at: the service's configured settings
    # with the request's overrides applied. Jobs for the same exhibit at
    # different settings produce different bytes, so coalescing and
    # result lookup key on (exhibit_id, settings).
    settings: RunSettings
    state: str = QUEUED
    created_at: float = field(default_factory=time.time)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    result: Optional[dict] = None     # Exhibit.to_dict() payload
    error: Optional[str] = None

    @property
    def variant(self) -> tuple:
        return (self.exhibit_id, self.settings)

    def to_dict(self) -> dict:
        payload = {
            "job": self.job_id,
            "exhibit": self.exhibit_id,
            "state": self.state,
            "created_at": self.created_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
        }
        engine = self.settings.sim_kwargs()
        engine.pop("check", None)
        if "workload_args" in engine:
            engine["workload_args"] = [list(kv) for kv in engine["workload_args"]]
        payload.update(engine)
        if self.error is not None:
            payload["error"] = self.error
        if self.state == DONE:
            payload["location"] = f"/exhibits/{self.exhibit_id}"
        return payload


def build_exhibit_payload(exhibit_id: str, settings, cache):
    """Worker-process entry point: build one exhibit and return its
    :meth:`Exhibit.to_dict` payload.

    Runs in a :class:`ProcessPoolExecutor` child, which receives the
    service's :class:`~repro.sim.runcache.RunCache` (or None) pickled.
    The context is built fresh per call (child processes are reused
    across jobs, but a context per job keeps memory bounded and
    semantics identical to a CLI invocation); the persistent run cache
    turns repeat work into loads, including the three base-workload
    simulations.
    """
    from repro.experiments._base import ExperimentContext
    from repro.experiments.registry import run_experiment

    ctx = ExperimentContext(settings, cache=cache)
    return run_experiment(exhibit_id, ctx).to_dict()


class JobManager:
    """Bounded queue + worker pool with per-job timeout and cancel.

    ``runner`` is the synchronous build function executed on the
    executor — injectable so tests can substitute stubs; the default is
    :func:`build_exhibit_payload`. ``executor`` is likewise injectable
    (tests use a thread pool; production uses processes).
    """

    def __init__(
        self,
        settings,
        cache=None,
        max_workers: int = 2,
        queue_depth: int = 8,
        job_timeout_s: float = 600.0,
        runner=build_exhibit_payload,
        executor=None,
        metrics=None,
    ):
        self.settings = settings
        self.cache = cache
        self.max_workers = max(1, max_workers)
        self.queue_depth = max(1, queue_depth)
        self.job_timeout_s = job_timeout_s
        self.runner = runner
        self._executor = executor
        self._owns_executor = executor is None
        self.jobs: Dict[str, Job] = {}
        self._finished_order: List[str] = []
        self._queue: Optional[asyncio.Queue] = None
        self._workers: List[asyncio.Task] = []
        self._tasks_by_job: Dict[str, asyncio.Future] = {}
        self.busy_workers = 0
        self.closing = False
        self._ids = itertools.count(1)
        self.metrics = metrics

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        if self._queue is not None:
            return
        if self._executor is None:
            self._executor = ProcessPoolExecutor(max_workers=self.max_workers)
        self._queue = asyncio.Queue(maxsize=self.queue_depth)
        self._workers = [
            asyncio.create_task(self._worker_loop(i))
            for i in range(self.max_workers)
        ]

    async def close(self, drain: bool = True, deadline_s: float = 30.0) -> None:
        """Stop accepting work; optionally finish what is in flight.

        With ``drain=True`` the queue is emptied and running jobs get up
        to ``deadline_s`` to finish; without it, queued jobs are
        cancelled immediately. Worker tasks are then cancelled and the
        executor shut down either way.
        """
        self.closing = True
        if self._queue is not None:
            if drain:
                try:
                    await asyncio.wait_for(self._queue.join(), deadline_s)
                except asyncio.TimeoutError:
                    pass
            else:
                while not self._queue.empty():
                    job = self._queue.get_nowait()
                    self._queue.task_done()
                    if job.state == QUEUED:
                        self._finish(job, CANCELLED, error="service shutdown")
        for worker in self._workers:
            worker.cancel()
        if self._workers:
            await asyncio.gather(*self._workers, return_exceptions=True)
        self._workers = []
        if self._executor is not None and self._owns_executor:
            self._executor.shutdown(wait=drain)
            self._executor = None

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(
        self, exhibit_id: str, settings: Optional[RunSettings] = None,
    ) -> "tuple[Job, bool]":
        """Queue a build at ``settings`` (default: the manager's);
        returns ``(job, created)``.

        ``created`` is False when the request coalesced onto a job for
        the same exhibit and settings that is already queued or running.
        Raises :class:`QueueFull` when the bounded queue has no room and
        :class:`RuntimeError` after :meth:`close`.
        """
        if self._queue is None or self.closing:
            raise RuntimeError("job manager is not accepting work")
        if settings is None:
            settings = self.settings
        variant = (exhibit_id, settings)
        for job in self.jobs.values():
            if job.variant == variant and job.state in (QUEUED, RUNNING):
                if self.metrics is not None:
                    self.metrics.jobs_total.inc(outcome="coalesced")
                return job, False
        job = Job(job_id=f"job-{next(self._ids)}-{uuid.uuid4().hex[:8]}",
                  exhibit_id=exhibit_id, settings=settings)
        try:
            self._queue.put_nowait(job)
        except asyncio.QueueFull:
            if self.metrics is not None:
                self.metrics.jobs_total.inc(outcome="rejected")
            raise QueueFull(
                f"job queue full ({self.queue_depth} queued)"
            ) from None
        self.jobs[job.job_id] = job
        if self.metrics is not None:
            self.metrics.jobs_total.inc(outcome="queued")
        return job, True

    def get(self, job_id: str) -> Optional[Job]:
        return self.jobs.get(job_id)

    def result_for_exhibit(
        self, exhibit_id: str, settings: Optional[RunSettings] = None,
    ) -> Optional[dict]:
        """The most recent completed payload for the exhibit at
        ``settings`` (default: the manager's)."""
        variant = (exhibit_id, settings if settings is not None else self.settings)
        for job_id in reversed(self._finished_order):
            job = self.jobs.get(job_id)
            if job is not None and job.variant == variant \
                    and job.state == DONE:
                return job.result
        return None

    def cancel(self, job_id: str) -> Optional[Job]:
        """Cancel a queued or running job; returns it, or None if unknown.

        A queued job is marked cancelled before a worker picks it up; a
        running job's awaiting task is cancelled (the executor call is
        abandoned — a process pool cannot interrupt a running child, so
        its result is discarded when it eventually lands).
        """
        job = self.jobs.get(job_id)
        if job is None:
            return None
        if job.state == QUEUED:
            self._finish(job, CANCELLED)
        elif job.state == RUNNING:
            future = self._tasks_by_job.get(job_id)
            if future is not None:
                future.cancel()
            self._finish(job, CANCELLED)
        return job

    @property
    def depth(self) -> int:
        return self._queue.qsize() if self._queue is not None else 0

    # ------------------------------------------------------------------
    # Workers
    # ------------------------------------------------------------------
    async def _worker_loop(self, index: int) -> None:
        assert self._queue is not None
        while True:
            job = await self._queue.get()
            try:
                if job.state != QUEUED:  # cancelled while queued
                    continue
                await self._run_job(job)
            finally:
                self._queue.task_done()

    async def _run_job(self, job: Job) -> None:
        loop = asyncio.get_running_loop()
        job.state = RUNNING
        job.started_at = time.time()
        self.busy_workers += 1
        future = loop.run_in_executor(
            self._executor, self.runner,
            job.exhibit_id, job.settings, self.cache,
        )
        self._tasks_by_job[job.job_id] = future
        try:
            payload = await asyncio.wait_for(
                asyncio.shield(future), self.job_timeout_s
            )
        except asyncio.TimeoutError:
            # A running executor call cannot be interrupted; abandon it
            # (swallowing its eventual result or exception) and move on.
            future.cancel()
            future.add_done_callback(
                lambda f: f.cancelled() or f.exception()
            )
            self._finish(job, TIMEOUT,
                         error=f"job exceeded {self.job_timeout_s}s")
        except asyncio.CancelledError:
            if future.cancelled() and job.state == CANCELLED:
                # Job-level cancel(): already recorded; keep the worker.
                return
            # The worker task itself is being torn down (close()).
            if job.state == RUNNING:
                self._finish(job, CANCELLED, error="service shutdown")
            raise
        except Exception as exc:  # build raised in the worker process
            self._finish(job, FAILED, error=f"{type(exc).__name__}: {exc}")
        else:
            if job.state == RUNNING:  # not cancelled mid-flight
                job.result = payload
                self._finish(job, DONE)
        finally:
            self.busy_workers -= 1
            self._tasks_by_job.pop(job.job_id, None)

    def _finish(self, job: Job, state: str, error: Optional[str] = None) -> None:
        job.state = state
        job.finished_at = time.time()
        if error is not None:
            job.error = error
        if self.metrics is not None:
            self.metrics.jobs_total.inc(outcome=state)
            if job.started_at is not None and state == DONE:
                self.metrics.job_seconds.observe(
                    job.finished_at - job.started_at
                )
        self._finished_order.append(job.job_id)
        while len(self._finished_order) > MAX_FINISHED_JOBS:
            dropped = self._finished_order.pop(0)
            self.jobs.pop(dropped, None)
