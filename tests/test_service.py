"""repro.service: metrics rendering, job lifecycle, HTTP routing and
the socket transport.

Most tests run against stub runners on a thread pool so the suite is
fast; two end-to-end tests do a real (1 ms horizon) exhibit build to
pin the byte-identity contract between the service and ``repro.api``.
Everything async is driven through ``asyncio.run`` — no plugin needed.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.api import RunCache, RunSettings
from repro.experiments._base import Exhibit
from repro.service import JobManager, MetricsRegistry, QueueFull, ServiceApp, ServiceConfig
from repro.service.jobs import CANCELLED, DONE, FAILED, TERMINAL_STATES, TIMEOUT
from repro.service.server import ExhibitServer

_SHORT = RunSettings(horizon_ms=1.0, warmup_ms=5.0, seed=5)

# Service tests pin their own cache dirs.
pytestmark = pytest.mark.usefixtures("cache_env")


# ----------------------------------------------------------------------
# Stub runners (executed on a ThreadPoolExecutor in tests)
# ----------------------------------------------------------------------
def _stub_runner(exhibit_id, settings, cache_spec):
    """Returns what the real runner, ``jobs.build_job``, does: the
    exhibit, the run-cache counters it moved and its verdicts."""
    exhibit = Exhibit(exhibit_id, f"Stub {exhibit_id}", ("col",))
    exhibit.add_row("row", 1)
    return exhibit, {}, []


def _failing_runner(exhibit_id, settings, cache_spec):
    raise ValueError("boom")


class _BlockingRunner:
    """Runner that parks worker threads until the test releases them."""

    def __init__(self):
        self.release = threading.Event()
        self.started = threading.Event()

    def __call__(self, exhibit_id, settings, cache_spec):
        self.started.set()
        if not self.release.wait(timeout=30):
            raise TimeoutError("test never released the runner")
        return _stub_runner(exhibit_id, settings, cache_spec)


def _sleepy_runner(exhibit_id, settings, cache_spec):
    time.sleep(1.0)
    return _stub_runner(exhibit_id, settings, cache_spec)


def _manager(runner=_stub_runner, **kwargs):
    kwargs.setdefault("max_workers", 1)
    kwargs.setdefault("queue_depth", 4)
    return JobManager(
        _SHORT,
        runner=runner,
        executor=ThreadPoolExecutor(max_workers=kwargs["max_workers"]),
        **kwargs,
    )


async def _wait_terminal(jobs, job_id, timeout_s=10.0):
    deadline = asyncio.get_event_loop().time() + timeout_s
    while True:
        job = jobs.get(job_id)
        if job is not None and job.state in TERMINAL_STATES:
            return job
        if asyncio.get_event_loop().time() > deadline:
            raise AssertionError(f"job {job_id} never finished: {job}")
        await asyncio.sleep(0.01)


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
class TestMetrics:
    def test_counter_renders_and_counts(self):
        registry = MetricsRegistry()
        counter = registry.counter("repro_things_total", "Things.")
        assert "repro_things_total 0" in registry.render()  # exists at zero
        counter.inc()
        counter.inc(2)
        text = registry.render()
        assert "# HELP repro_things_total Things." in text
        assert "# TYPE repro_things_total counter" in text
        assert "repro_things_total 3" in text

    def test_labelled_counter(self):
        registry = MetricsRegistry()
        counter = registry.counter("repro_req_total", "Reqs.", ("route", "status"))
        counter.inc(route="/healthz", status="200")
        counter.inc(route="/healthz", status="200")
        counter.inc(route="/metrics", status="200")
        assert counter.value(route="/healthz", status="200") == 2
        assert counter.total() == 3
        text = registry.render()
        assert 'repro_req_total{route="/healthz",status="200"} 2' in text
        with pytest.raises(ValueError):
            counter.inc(route="/healthz")  # missing label

    def test_gauge_callback_wins(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("repro_depth", "Depth.", callback=lambda: 7)
        gauge.set(3)
        assert "repro_depth 7" in registry.render()

    def test_histogram_buckets_are_cumulative(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("repro_lat", "Latency.", buckets=(0.1, 1.0))
        histogram.observe(0.05)
        histogram.observe(0.5)
        histogram.observe(99.0)
        text = registry.render()
        assert 'repro_lat_bucket{le="0.1"} 1' in text
        assert 'repro_lat_bucket{le="1"} 2' in text
        assert 'repro_lat_bucket{le="+Inf"} 3' in text
        assert "repro_lat_count 3" in text

    def test_duplicate_name_rejected(self):
        registry = MetricsRegistry()
        registry.counter("repro_x", "X.")
        with pytest.raises(ValueError, match="duplicate"):
            registry.gauge("repro_x", "X again.")

    def test_label_values_escaped(self):
        registry = MetricsRegistry()
        counter = registry.counter("repro_esc", "Esc.", ("path",))
        counter.inc(path='a"b\n')
        assert r'path="a\"b\n"' in registry.render()

    def test_labeled_gauge_renders(self):
        registry = MetricsRegistry()
        gauge = registry.labeled_gauge("repro_rate", "Rate.", ("tier",))
        assert "repro_rate" not in registry.render()  # no zero-sample default
        gauge.set(1234, tier="atomic")
        gauge.set(99.5, tier="mixed")
        text = registry.render()
        assert "# TYPE repro_rate gauge" in text
        assert 'repro_rate{tier="atomic"} 1234' in text
        assert 'repro_rate{tier="mixed"} 99.5' in text
        assert gauge.value(tier="mixed") == 99.5
        with pytest.raises(ValueError):
            gauge.set(1.0)  # missing label


# ----------------------------------------------------------------------
# Job manager
# ----------------------------------------------------------------------
class TestJobManager:
    def test_submit_runs_to_done(self):
        async def scenario():
            jobs = _manager()
            kept = {}

            def keep(job, exhibit, counters):
                kept[job.variant] = exhibit.to_dict()

            jobs.on_done = keep
            await jobs.start()
            try:
                job, created = jobs.submit("table1")
                assert created
                finished = await _wait_terminal(jobs, job.job_id)
                assert finished.state == DONE
                assert finished.result["exhibit_id"] == "table1"
                assert kept[("table1", _SHORT)] == finished.result
                payload = finished.to_dict()
                assert payload["location"] == "/exhibits/table1"
            finally:
                await jobs.close()
        asyncio.run(scenario())

    def test_duplicate_submissions_coalesce(self):
        async def scenario():
            runner = _BlockingRunner()
            jobs = _manager(runner=runner)
            await jobs.start()
            try:
                first, created = jobs.submit("table1")
                again, created2 = jobs.submit("table1")
                assert created and not created2
                assert again is first
                runner.release.set()
                await _wait_terminal(jobs, first.job_id)
            finally:
                await jobs.close()
        asyncio.run(scenario())

    def test_bounded_queue_rejects_when_full(self):
        async def scenario():
            runner = _BlockingRunner()
            jobs = _manager(runner=runner, max_workers=1, queue_depth=1)
            await jobs.start()
            try:
                running, _ = jobs.submit("table1")
                assert await asyncio.get_event_loop().run_in_executor(
                    None, runner.started.wait, 5
                )
                queued, _ = jobs.submit("table2")
                with pytest.raises(QueueFull):
                    jobs.submit("table3")
                runner.release.set()
                await _wait_terminal(jobs, running.job_id)
                await _wait_terminal(jobs, queued.job_id)
            finally:
                await jobs.close()
        asyncio.run(scenario())

    def test_failure_recorded_and_worker_survives(self):
        async def scenario():
            jobs = _manager(runner=_failing_runner)
            await jobs.start()
            try:
                job, _ = jobs.submit("table1")
                finished = await _wait_terminal(jobs, job.job_id)
                assert finished.state == FAILED
                assert "ValueError: boom" in finished.error
                assert "error" in finished.to_dict()
                # The worker is still alive: a second submission for the
                # same exhibit makes a NEW job (the failed one is
                # terminal) and also completes.
                job2, created = jobs.submit("table1")
                assert created and job2.job_id != job.job_id
                await _wait_terminal(jobs, job2.job_id)
            finally:
                await jobs.close()
        asyncio.run(scenario())

    def test_timeout_marks_job(self):
        async def scenario():
            jobs = _manager(runner=_sleepy_runner, job_timeout_s=0.1)
            await jobs.start()
            try:
                job, _ = jobs.submit("table1")
                finished = await _wait_terminal(jobs, job.job_id)
                assert finished.state == TIMEOUT
                assert "0.1" in finished.error
            finally:
                await jobs.close(drain=False)
        asyncio.run(scenario())

    def test_cancel_queued_job_never_runs(self):
        async def scenario():
            runner = _BlockingRunner()
            jobs = _manager(runner=runner, max_workers=1, queue_depth=2)
            await jobs.start()
            try:
                running, _ = jobs.submit("table1")
                assert await asyncio.get_event_loop().run_in_executor(
                    None, runner.started.wait, 5
                )
                queued, _ = jobs.submit("table2")
                cancelled = jobs.cancel(queued.job_id)
                assert cancelled.state == CANCELLED
                runner.release.set()
                await _wait_terminal(jobs, running.job_id)
                # Let the worker drain the queue: the cancelled job must
                # stay cancelled (the worker skips it).
                await jobs._queue.join()
                assert jobs.get(queued.job_id).state == CANCELLED
            finally:
                await jobs.close()
        asyncio.run(scenario())

    def test_cancel_running_job_keeps_worker(self):
        async def scenario():
            runner = _BlockingRunner()
            jobs = _manager(runner=runner)
            await jobs.start()
            try:
                job, _ = jobs.submit("table1")
                assert await asyncio.get_event_loop().run_in_executor(
                    None, runner.started.wait, 5
                )
                jobs.cancel(job.job_id)
                finished = await _wait_terminal(jobs, job.job_id)
                assert finished.state == CANCELLED
                runner.release.set()
                # Worker survives: the next job still completes.
                runner.started.clear()
                job2, _ = jobs.submit("table1")
                assert (await _wait_terminal(jobs, job2.job_id)).state == DONE
            finally:
                await jobs.close()
        asyncio.run(scenario())

    def test_cancel_unknown_job(self):
        async def scenario():
            jobs = _manager()
            await jobs.start()
            try:
                assert jobs.cancel("job-nope") is None
            finally:
                await jobs.close()
        asyncio.run(scenario())

    def test_close_drains_queued_work(self):
        async def scenario():
            jobs = _manager()
            await jobs.start()
            job, _ = jobs.submit("table1")
            await jobs.close(drain=True)
            assert jobs.get(job.job_id).state == DONE
            with pytest.raises(RuntimeError):
                jobs.submit("table2")
        asyncio.run(scenario())


# ----------------------------------------------------------------------
# HTTP app (transport-free)
# ----------------------------------------------------------------------
def _app(tmp_path, runner=_stub_runner, **config_kwargs):
    config_kwargs.setdefault("max_workers", 1)
    config_kwargs.setdefault("queue_depth", 4)
    config = ServiceConfig(
        settings=_SHORT,
        cache_dir=str(tmp_path / "cache"),
        **config_kwargs,
    )
    jobs = JobManager(
        config.settings,
        max_workers=config.max_workers,
        queue_depth=config.queue_depth,
        job_timeout_s=config.job_timeout_s,
        runner=runner,
        executor=ThreadPoolExecutor(max_workers=config.max_workers),
    )
    return ServiceApp(config, jobs=jobs)


class TestServiceApp:
    def test_healthz(self, tmp_path):
        app = _app(tmp_path)
        reply = app.handle("GET", "/healthz")
        assert reply.status == 200
        payload = reply.json()
        assert payload["status"] == "ok"
        assert payload["workers"] == 1
        assert payload["queue_capacity"] == 4

    def test_exhibit_listing(self, tmp_path):
        reply = _app(tmp_path).handle("GET", "/exhibits")
        assert reply.status == 200
        listing = reply.json()["exhibits"]
        ids = [meta["id"] for meta in listing]
        assert "table1" in ids
        assert all("title" in meta and "kind" in meta for meta in listing)

    def test_unknown_exhibit_404_lists_choices(self, tmp_path):
        reply = _app(tmp_path).handle("GET", "/exhibits/nope")
        assert reply.status == 404
        assert "table1" in reply.json()["choices"]

    def test_unknown_route_and_method(self, tmp_path):
        app = _app(tmp_path)
        assert app.handle("GET", "/teapot").status == 404
        assert app.handle("POST", "/healthz").status == 405
        assert app.handle("PUT", "/exhibits/table1").status == 405

    def test_bad_format_rejected(self, tmp_path):
        reply = _app(tmp_path).handle("GET", "/exhibits/table1", "format=xml")
        assert reply.status == 400

    def test_bad_fidelity_rejected(self, tmp_path):
        app = _app(tmp_path)
        reply = app.handle("GET", "/exhibits/table1", "fidelity=turbo")
        assert reply.status == 400
        assert "mixed" in reply.json()["choices"]
        # Atomic runs carry no trace — exhibits built from one would be
        # all-zero, so the tier is rejected at the HTTP boundary too.
        reply = app.handle("GET", "/exhibits/table1", "fidelity=atomic")
        assert reply.status == 400
        assert reply.json()["choices"] == ["detailed", "mixed"]
        reply = app.handle(
            "GET", "/exhibits/table1", "fidelity=mixed&fast_forward=nope"
        )
        assert reply.status == 400

    def test_cold_then_poll_then_warm(self, tmp_path):
        async def scenario():
            app = _app(tmp_path)
            await app.start()
            try:
                reply = app.handle("GET", "/exhibits/table1")
                assert reply.status == 202
                payload = reply.json()
                assert payload["state"] == "queued"
                assert reply.headers["Location"] == payload["poll"]
                job_id = payload["job"]
                await _wait_terminal(app.jobs, job_id)
                polled = app.handle("GET", f"/jobs/{job_id}")
                assert polled.status == 200
                assert polled.json()["state"] == "done"
                assert polled.json()["result"]["exhibit_id"] == "table1"
                warm = app.handle("GET", "/exhibits/table1")
                assert warm.status == 200
                assert warm.json()["title"] == "Stub table1"
                text = app.handle("GET", "/exhibits/table1", "format=text")
                assert text.status == 200
                assert "Stub table1" in text.body.decode()
            finally:
                await app.close()
        asyncio.run(scenario())

    def test_queue_full_503_with_retry_after(self, tmp_path):
        async def scenario():
            runner = _BlockingRunner()
            app = _app(tmp_path, runner=runner, max_workers=1,
                       queue_depth=1, retry_after_s=9)
            await app.start()
            try:
                app.handle("GET", "/exhibits/table1")
                assert await asyncio.get_event_loop().run_in_executor(
                    None, runner.started.wait, 5
                )
                app.handle("GET", "/exhibits/table2")
                rejected = app.handle("GET", "/exhibits/table3")
                assert rejected.status == 503
                assert rejected.headers["Retry-After"] == "9"
                assert rejected.json()["retry_after_s"] == 9
                runner.release.set()
            finally:
                await app.close()
        asyncio.run(scenario())

    def test_duplicate_cold_requests_share_job(self, tmp_path):
        async def scenario():
            runner = _BlockingRunner()
            app = _app(tmp_path, runner=runner)
            await app.start()
            try:
                first = app.handle("GET", "/exhibits/table1").json()
                second = app.handle("GET", "/exhibits/table1").json()
                assert first["job"] == second["job"]
                runner.release.set()
            finally:
                await app.close()
        asyncio.run(scenario())

    def test_cancel_job_via_delete(self, tmp_path):
        async def scenario():
            runner = _BlockingRunner()
            app = _app(tmp_path, runner=runner)
            await app.start()
            try:
                job_id = app.handle("GET", "/exhibits/table1").json()["job"]
                cancelled = app.handle("DELETE", f"/jobs/{job_id}")
                assert cancelled.status == 200
                assert cancelled.json()["state"] == "cancelled"
                runner.release.set()
                assert app.handle("DELETE", "/jobs/nope").status == 404
                assert app.handle("GET", "/jobs/nope").status == 404
            finally:
                await app.close()
        asyncio.run(scenario())

    def test_warm_from_disk_cache_without_jobs(self, tmp_path):
        """An exhibit built by an earlier process (here: repro.api) is
        served immediately from the shared disk cache — no job."""
        from repro import api

        cache = RunCache(cache_dir=tmp_path / "cache")
        built = api.exhibit(
            "table11", cache=cache, horizon_ms=1.0, warmup_ms=5.0, seed=5
        )
        app = _app(tmp_path)  # same cache_dir; jobs never started
        reply = app.handle("GET", "/exhibits/table11")
        assert reply.status == 200
        assert reply.body.decode() == built.to_json() + "\n"
        assert app.metrics.exhibit_warm_hits.value() == 1

    def test_metrics_counters_move(self, tmp_path):
        async def scenario():
            app = _app(tmp_path)
            await app.start()
            try:
                app.handle("GET", "/healthz")
                job_id = app.handle("GET", "/exhibits/table1").json()["job"]
                await _wait_terminal(app.jobs, job_id)
                app.handle("GET", "/exhibits/table1")
                reply = app.handle("GET", "/metrics")
                assert reply.status == 200
                assert reply.content_type.startswith("text/plain")
                return reply.body.decode()
            finally:
                await app.close()
        text = asyncio.run(scenario())
        samples = {}
        for line in text.splitlines():
            if line.startswith("#") or not line.strip():
                continue
            name, _, value = line.rpartition(" ")
            samples[name] = float(value)
        assert samples['repro_http_requests_total{route="/healthz",status="200"}'] == 1
        assert samples['repro_http_requests_total{route="/exhibits/{id}",status="202"}'] == 1
        assert samples['repro_http_requests_total{route="/exhibits/{id}",status="200"}'] == 1
        assert samples["repro_exhibit_cold_misses_total"] == 1
        assert samples["repro_exhibit_warm_hits_total"] == 1
        assert samples['repro_jobs_total{outcome="queued"}'] == 1
        assert samples['repro_jobs_total{outcome="done"}'] == 1
        assert samples["repro_jobs_queue_depth"] == 0
        assert samples["repro_jobs_queue_capacity"] == 4
        assert samples["repro_workers"] == 1
        assert samples["repro_runcache_probes_total"] >= 1
        # /metrics renders before its own request is observed, so the
        # three earlier requests are what the histogram has seen.
        assert samples["repro_http_request_seconds_count"] == 3
        assert samples['repro_http_request_seconds_bucket{le="+Inf"}'] == 3

    def test_cold_build_byte_identical_to_api(self, tmp_path):
        """The acceptance contract: a service-built exhibit's JSON body
        is byte-identical to repro.api.exhibit() at the same settings."""
        from repro import api

        async def scenario():
            config = ServiceConfig(
                settings=_SHORT, cache_dir=str(tmp_path / "cache"),
                max_workers=1, queue_depth=4,
            )
            jobs = JobManager(  # the real build, on threads
                config.settings,
                cache=RunCache(cache_dir=tmp_path / "cache"),
                max_workers=1,
                queue_depth=4,
                executor=ThreadPoolExecutor(max_workers=1),
            )
            app = ServiceApp(config, jobs=jobs)
            await app.start()
            try:
                job_id = app.handle("GET", "/exhibits/table11").json()["job"]
                finished = await _wait_terminal(app.jobs, job_id, timeout_s=120)
                assert finished.state == DONE, finished.error
                return app.handle("GET", "/exhibits/table11").body
            finally:
                await app.close()

        body = asyncio.run(scenario())
        expected = api.exhibit(
            "table11", cache=False, horizon_ms=1.0, warmup_ms=5.0, seed=5
        )
        assert body.decode() == expected.to_json() + "\n"


    def test_cold_job_counts_worker_stores(self, tmp_path):
        """A job's worker process stores the runs and the exhibit; the
        service's /metrics counts every one of those stores."""
        async def scenario():
            config = ServiceConfig(
                settings=_SHORT, cache_dir=str(tmp_path / "cache"),
                max_workers=1, queue_depth=4,
            )
            app = ServiceApp(config)  # the real process-pool worker
            await app.start()
            try:
                job_id = app.handle("GET", "/exhibits/table1").json()["job"]
                finished = await _wait_terminal(app.jobs, job_id, timeout_s=120)
                assert finished.state == DONE, finished.error
                return app.handle("GET", "/metrics").body.decode()
            finally:
                await app.close()

        text = asyncio.run(scenario())
        samples = dict(
            line.rsplit(" ", 1) for line in text.splitlines()
            if line.startswith("repro_runcache_")
        )
        written = len(list((tmp_path / "cache").glob("*.pkl")))
        assert written == 4  # three base runs and the exhibit
        assert float(samples["repro_runcache_stores_total"]) == written
        # The app's own probe for the exhibit, and the worker's for the runs.
        assert float(samples["repro_runcache_misses_total"]) == written


# ----------------------------------------------------------------------
# Socket transport
# ----------------------------------------------------------------------
async def _http(port, target, method="GET"):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(
        f"{method} {target} HTTP/1.1\r\nHost: t\r\n\r\n".encode()
    )
    await writer.drain()
    raw = await reader.read(-1)
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionResetError, BrokenPipeError):
        pass
    head, _, body = raw.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split(" ")[1])
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return status, headers, body


class TestExhibitServer:
    def test_end_to_end_over_socket(self, tmp_path):
        async def scenario():
            app = _app(tmp_path)
            server = ExhibitServer(app, port=0)
            await server.start()
            serve_task = asyncio.ensure_future(server.serve_forever())
            try:
                status, headers, body = await _http(server.port, "/healthz")
                assert status == 200
                assert headers["connection"] == "close"
                assert json.loads(body)["status"] == "ok"
                assert headers["content-length"] == str(len(body))

                status, headers, body = await _http(
                    server.port, "/exhibits/table1"
                )
                assert status == 202
                poll = json.loads(body)["poll"]
                assert headers["location"] == poll

                for _ in range(500):
                    status, _headers, body = await _http(server.port, poll)
                    if json.loads(body)["state"] in TERMINAL_STATES:
                        break
                    await asyncio.sleep(0.01)
                assert json.loads(body)["state"] == "done"

                status, headers, body = await _http(
                    server.port, "/exhibits/table1"
                )
                assert status == 200
                assert headers["content-type"] == "application/json"
                assert json.loads(body)["title"] == "Stub table1"

                status, _headers, body = await _http(server.port, "/metrics")
                assert status == 200
                assert b"repro_http_requests_total" in body
            finally:
                server.stop()
                await asyncio.wait_for(serve_task, 30)
        asyncio.run(scenario())

    def test_malformed_request_line(self, tmp_path):
        async def scenario():
            app = _app(tmp_path)
            server = ExhibitServer(app, port=0)
            await server.start()
            serve_task = asyncio.ensure_future(server.serve_forever())
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                writer.write(b"NONSENSE\r\n\r\n")
                await writer.drain()
                raw = await reader.read(-1)
                assert raw.startswith(b"HTTP/1.1 400 ")
                writer.close()
            finally:
                server.stop()
                await asyncio.wait_for(serve_task, 30)
        asyncio.run(scenario())

    def test_handler_exception_becomes_500(self, tmp_path):
        async def scenario():
            app = _app(tmp_path)

            def explode(method, path, query=""):
                raise RuntimeError("handler bug")

            app.handle = explode
            server = ExhibitServer(app, port=0)
            await server.start()
            serve_task = asyncio.ensure_future(server.serve_forever())
            try:
                status, _headers, body = await _http(server.port, "/healthz")
                assert status == 500
                assert b"internal error" in body
            finally:
                server.stop()
                await asyncio.wait_for(serve_task, 30)
        asyncio.run(scenario())


# ----------------------------------------------------------------------
# CLI entrypoint plumbing
# ----------------------------------------------------------------------
class TestMainConfig:
    def test_build_config_defaults_and_env(self, monkeypatch, tmp_path):
        from repro.service.__main__ import build_parser, build_config

        monkeypatch.setenv("REPRO_BENCH_HORIZON_MS", "2.5")
        monkeypatch.setenv("REPRO_BENCH_WARMUP_MS", "7.5")
        parser = build_parser()
        args = parser.parse_args([
            "--queue-depth", "3", "--jobs", "2",
            "--cache-dir", str(tmp_path / "c"),
        ])
        config = build_config(args)
        assert config.settings.horizon_ms == 2.5
        assert config.settings.warmup_ms == 7.5
        assert config.queue_depth == 3
        assert config.max_workers == 2
        assert config.cache_dir == str(tmp_path / "c")

    def test_explicit_flags_beat_env(self, monkeypatch):
        from repro.service.__main__ import build_parser, build_config

        monkeypatch.setenv("REPRO_BENCH_HORIZON_MS", "2.5")
        args = build_parser().parse_args(["--horizon-ms", "4.0"])
        config = build_config(args)
        assert config.settings.horizon_ms == 4.0


# ----------------------------------------------------------------------
# Analysis metrics plumbing
# ----------------------------------------------------------------------
class TestShardMetrics:
    """The analysis is serial only: a job's result is the plain exhibit
    payload and /metrics carries no per-shard analysis series."""

    def test_plain_dict_runner_results_pass_through(self):
        """The runner's exhibit, as its plain ``to_dict()`` payload, is the
        job result, with the service metrics attached, and no shard
        gauge is rendered."""
        from repro.service.app import ServiceMetrics

        async def scenario():
            registry = MetricsRegistry()
            jobs = _manager()
            jobs.metrics = ServiceMetrics(registry, jobs)
            await jobs.start()
            try:
                job, _ = jobs.submit("table1")
                finished = await _wait_terminal(jobs, job.job_id)
                assert finished.state == DONE
                exhibit, _counters, _verdicts = _stub_runner("table1", _SHORT, None)
                assert finished.result == exhibit.to_dict()
                text = registry.render()
                assert 'repro_jobs_total{outcome="done"} 1' in text
                assert "repro_analysis_shard" not in text
            finally:
                await jobs.close()
        asyncio.run(scenario())

