"""Transport-free request handling for the exhibit service.

:class:`ServiceApp` maps ``(method, path, query)`` to a :class:`Reply`
without touching sockets, so the whole routing/backpressure/
serialization surface is testable with plain function calls; the
asyncio transport in :mod:`repro.service.server` is a thin shell
around :meth:`ServiceApp.handle`.

Request lifecycle for ``GET /exhibits/<id>``:

1. **in-memory** — the exhibit was built or loaded earlier in this
   process: serve immediately;
2. **finished job** — a worker completed it since startup: rebuild the
   :class:`Exhibit` from the job payload (the ``from_dict`` round-trip
   is exact), cache in memory, serve;
3. **disk cache** — a previous process (or a worker sharing the cache
   directory) built it: load, cache in memory, serve;
4. **cold** — enqueue a build job and answer ``202 Accepted`` with a
   ``/jobs/<id>`` polling location — or ``503`` + ``Retry-After`` when
   the bounded queue is full.

JSON bodies for exhibit responses are exactly
``Exhibit.to_json() + "\\n"``, which keeps the service byte-identical
to :func:`repro.api.exhibit` (CI asserts this).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple
from urllib.parse import parse_qs

from repro.experiments._base import (
    Exhibit, ExperimentContext, RunSettings, resolve_settings,
)
from repro.experiments.registry import (
    EXPERIMENTS,
    list_exhibit_metadata,
    resolve_exhibit_id,
)
from repro.fidelity import FIDELITY_LEVELS
from repro.service.jobs import JobManager, QueueFull
from repro.service.metrics import MetricsRegistry

STATUS_TEXT = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 500: "Internal Server Error",
    503: "Service Unavailable",
}

JSON = "application/json"
TEXT = "text/plain; charset=utf-8"
PROM = "text/plain; version=0.0.4; charset=utf-8"


@dataclass
class Reply:
    """One HTTP response, transport-agnostic."""

    status: int
    content_type: str
    body: bytes
    headers: Dict[str, str] = field(default_factory=dict)

    def json(self):
        """The decoded body (test convenience)."""
        return json.loads(self.body.decode())


@dataclass
class ServiceConfig:
    """Everything ``python -m repro.service`` can configure."""

    settings: RunSettings = field(default_factory=RunSettings)
    cache_dir: Optional[str] = None
    no_cache: bool = False
    max_workers: int = 2
    queue_depth: int = 8
    job_timeout_s: float = 600.0
    retry_after_s: int = 5
    drain_deadline_s: float = 30.0


class ServiceMetrics:
    """The service's instrument set on one :class:`MetricsRegistry`."""

    def __init__(self, registry: MetricsRegistry, jobs: "JobManager",
                 cache=None, settings=None):
        self.registry = registry
        self.requests_total = registry.counter(
            "repro_http_requests_total",
            "HTTP requests handled, by route and status code.",
            ("route", "status"),
        )
        self.request_seconds = registry.histogram(
            "repro_http_request_seconds",
            "Wall time spent handling requests (seconds).",
        )
        self.exhibit_warm_hits = registry.counter(
            "repro_exhibit_warm_hits_total",
            "Exhibit requests answered immediately (memory, job or disk).",
        )
        self.exhibit_cold_misses = registry.counter(
            "repro_exhibit_cold_misses_total",
            "Exhibit requests that needed a build job.",
        )
        self.jobs_total = registry.counter(
            "repro_jobs_total",
            "Job lifecycle events, by outcome.",
            ("outcome",),
        )
        self.job_seconds = registry.histogram(
            "repro_job_seconds",
            "Wall time of completed build jobs (seconds).",
        )
        registry.gauge(
            "repro_jobs_queue_depth",
            "Jobs waiting in the bounded queue.",
            callback=lambda: jobs.depth,
        )
        registry.gauge(
            "repro_jobs_queue_capacity",
            "Bound of the job queue.",
            callback=lambda: jobs.queue_depth,
        )
        registry.gauge(
            "repro_workers",
            "Configured worker count.",
            callback=lambda: jobs.max_workers,
        )
        registry.gauge(
            "repro_workers_busy",
            "Workers currently executing a job.",
            callback=lambda: jobs.busy_workers,
        )
        if settings is not None:
            # The configured default engine tier, Prometheus-style: one
            # gauge per tier label, 1 on the active one.
            tier = settings.fidelity
            tier_gauge = registry.labeled_gauge(
                "repro_fidelity_tier",
                "Configured default engine fidelity tier "
                "(1 on the active tier's label).",
                ("tier",),
            )
            for level in FIDELITY_LEVELS:
                tier_gauge.set(1.0 if level == tier else 0.0, tier=level)
            registry.gauge(
                "repro_fidelity_fast_forward_refs",
                "Configured mixed-tier atomic fast-forward budget "
                "(references; 0 = hand off at the warmup seam).",
                callback=lambda: float(settings.fast_forward),
            )
        if cache is not None:
            for name, help_text in (
                ("hits", "Run-cache entries served from disk."),
                ("misses", "Run-cache lookups that found nothing."),
                ("stores", "Run-cache entries written."),
                ("probes", "Run-cache lookups attempted."),
                ("dedup_hits",
                 "Cold runs avoided by waiting on another process's claim."),
            ):
                registry.gauge(
                    f"repro_runcache_{name}_total", help_text,
                    callback=lambda n=name: cache.stats()[n],
                )


class ServiceApp:
    """Routes requests; serves exhibits from memory, finished jobs or
    the disk cache, and queues a build job for the rest."""

    def __init__(self, config: Optional[ServiceConfig] = None,
                 jobs: Optional[JobManager] = None):
        from repro.sim.runcache import RunCache

        self.config = config if config is not None else ServiceConfig()
        self.cache = RunCache(
            cache_dir=self.config.cache_dir,
            enabled=not self.config.no_cache,
        )
        # Exhibits built or loaded since startup, by (exhibit_id, settings).
        self.exhibits: Dict[Tuple[str, RunSettings], Exhibit] = {}
        self.jobs = jobs if jobs is not None else JobManager(
            self.config.settings,
            cache=self.cache if self.cache.enabled else None,
            max_workers=self.config.max_workers,
            queue_depth=self.config.queue_depth,
            job_timeout_s=self.config.job_timeout_s,
        )
        self.metrics = ServiceMetrics(
            MetricsRegistry(), self.jobs,
            cache=self.cache if self.cache.enabled else None,
            settings=self.config.settings,
        )
        self.jobs.metrics = self.metrics
        self.started_at = time.time()

    # ------------------------------------------------------------------
    # Lifecycle (delegated by the server)
    # ------------------------------------------------------------------
    async def start(self) -> None:
        await self.jobs.start()

    async def close(self, drain: bool = True) -> None:
        await self.jobs.close(
            drain=drain, deadline_s=self.config.drain_deadline_s
        )

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def handle(self, method: str, path: str, query: str = "") -> Reply:
        """One request in, one :class:`Reply` out."""
        started = time.perf_counter()
        route, reply = self._route(method, path, query)
        self.metrics.requests_total.inc(route=route, status=str(reply.status))
        self.metrics.request_seconds.observe(time.perf_counter() - started)
        return reply

    def _route(self, method: str, path: str, query: str) -> Tuple[str, Reply]:
        parts = [p for p in path.split("/") if p]
        if path == "/healthz":
            return "/healthz", self._only(method, "GET", self._healthz)
        if path == "/metrics":
            return "/metrics", self._only(method, "GET", self._metrics)
        if path == "/exhibits":
            return "/exhibits", self._only(method, "GET", self._list_exhibits)
        if len(parts) == 2 and parts[0] == "exhibits":
            return "/exhibits/{id}", self._only(
                method, "GET", lambda: self._exhibit(parts[1], query)
            )
        if len(parts) == 2 and parts[0] == "jobs":
            if method == "DELETE":
                return "/jobs/{id}", self._cancel_job(parts[1])
            return "/jobs/{id}", self._only(
                method, "GET", lambda: self._job(parts[1])
            )
        return path, self._error(404, f"no route for {path}")

    @staticmethod
    def _only(method: str, expected: str, handler) -> Reply:
        if method != expected:
            return ServiceApp._error(405, f"use {expected}")
        return handler()

    # ------------------------------------------------------------------
    # Handlers
    # ------------------------------------------------------------------
    def _healthz(self) -> Reply:
        payload = {
            "status": "ok",
            "uptime_s": round(time.time() - self.started_at, 3),
            "queue_depth": self.jobs.depth,
            "queue_capacity": self.jobs.queue_depth,
            "workers": self.jobs.max_workers,
            "busy_workers": self.jobs.busy_workers,
        }
        return self._json(200, payload)

    def _metrics(self) -> Reply:
        return Reply(200, PROM, self.metrics.registry.render().encode())

    def _list_exhibits(self) -> Reply:
        return self._json(200, {"exhibits": list_exhibit_metadata()})

    def _exhibit(self, exhibit_id: str, query: str) -> Reply:
        # Aliases (e.g. /exhibits/scaling) canonicalize before any cache
        # or job lookup, so both spellings serve identical bytes.
        exhibit_id = resolve_exhibit_id(exhibit_id)
        if exhibit_id not in EXPERIMENTS:
            return self._error(
                404,
                f"unknown exhibit {exhibit_id!r}",
                choices=sorted(EXPERIMENTS),
            )
        params = parse_qs(query)
        fmt = params.get("format", ["json"])[0]
        if fmt not in ("json", "text"):
            return self._error(400, "format must be 'json' or 'text'")
        # Per-request overrides of the configured settings (the settings
        # table's query params). Each builds this exhibit's variant at
        # those settings, with its own cache entries.
        try:
            settings = resolve_settings(
                query=params, base=self.config.settings, env={}
            )
        except ValueError as exc:
            choices = getattr(exc, "choices", None)
            extra = {"choices": choices} if choices else {}
            return self._error(400, exc.args[0], **extra)
        exhibit = self._warm_exhibit(exhibit_id, settings)
        if exhibit is not None:
            self.metrics.exhibit_warm_hits.inc()
            if fmt == "text":
                return Reply(200, TEXT, (exhibit.to_text() + "\n").encode())
            return Reply(200, JSON, (exhibit.to_json() + "\n").encode())
        self.metrics.exhibit_cold_misses.inc()
        try:
            job, _created = self.jobs.submit(exhibit_id, settings)
        except QueueFull:
            reply = self._error(
                503, "job queue full",
                retry_after_s=self.config.retry_after_s,
            )
            reply.headers["Retry-After"] = str(self.config.retry_after_s)
            return reply
        except RuntimeError:
            return self._error(503, "service is shutting down")
        payload = {
            "state": job.state,
            "job": job.job_id,
            "exhibit": exhibit_id,
            "poll": f"/jobs/{job.job_id}",
        }
        reply = self._json(202, payload)
        reply.headers["Location"] = f"/jobs/{job.job_id}"
        return reply

    def _warm_exhibit(self, exhibit_id: str,
                      settings: RunSettings) -> Optional[Exhibit]:
        """The exhibit if it can be served without simulating, else None.

        A variant at non-default settings keys its own in-memory slot
        and its own disk entry, so a mixed-tier, cpus16 or skew-tuned
        build never shadows the default exhibit.
        """
        cached = self.exhibits.get((exhibit_id, settings))
        if cached is not None:
            return cached
        payload = self.jobs.result_for_exhibit(exhibit_id, settings)
        if payload is not None:
            exhibit = Exhibit.from_dict(payload)
        else:
            ctx = ExperimentContext(settings, cache=self.cache)
            exhibit = ctx.load_cached_exhibit(exhibit_id)
            if exhibit is None:
                return None
        self.exhibits[(exhibit_id, settings)] = exhibit
        return exhibit

    def _job(self, job_id: str) -> Reply:
        job = self.jobs.get(job_id)
        if job is None:
            return self._error(404, f"unknown job {job_id!r}")
        payload = job.to_dict()
        if job.state == "done" and job.result is not None:
            payload["result"] = job.result
        return self._json(200, payload)

    def _cancel_job(self, job_id: str) -> Reply:
        job = self.jobs.cancel(job_id)
        if job is None:
            return self._error(404, f"unknown job {job_id!r}")
        return self._json(200, job.to_dict())

    # ------------------------------------------------------------------
    # Reply helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _json(status: int, payload: Dict) -> Reply:
        return Reply(status, JSON, (json.dumps(payload) + "\n").encode())

    @staticmethod
    def _error(status: int, message: str, **extra) -> Reply:
        payload = {"error": message, **extra}
        return Reply(status, JSON, (json.dumps(payload) + "\n").encode())
