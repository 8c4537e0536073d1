"""The served phase of ``warm-rebuild``: warm exhibit requests over HTTP.

Starts ``python -m repro.service`` (one build worker) on the run cache
the exhibits were published to, then sends sequential
``GET /exhibits/<id>?format=json`` requests from one client, one
connection at a time (a closed loop with one client). Every reply must
be 200 and carry the same columns and rows as the exhibit the rounds
built in-process; a cold build (202) counts as a failure.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import time
from typing import Dict, List, Tuple

from benchmarks.e2e.workloads import canonical_digest, table_of

READY = re.compile(r"listening on http://[^:]+:(\d+)")
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 20.0


def _get(port: int, path: str) -> Tuple[int, bytes]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request("GET", path)
        reply = conn.getresponse()
        return reply.status, reply.read()
    finally:
        conn.close()


def _wait_ready(proc: subprocess.Popen, log_path: str) -> int:
    deadline = time.monotonic() + START_TIMEOUT_S
    while time.monotonic() < deadline:
        with open(log_path, encoding="utf-8", errors="replace") as fh:
            match = READY.search(fh.read())
        if match:
            return int(match.group(1))
        if proc.poll() is not None:
            break
        time.sleep(0.05)
    with open(log_path, encoding="utf-8", errors="replace") as fh:
        log = fh.read()
    raise RuntimeError(f"service did not start:\n{log}")


def _stop(proc: subprocess.Popen) -> None:
    """SIGTERM (graceful drain), then SIGKILL the whole process group."""
    if proc.poll() is None:
        try:
            os.killpg(proc.pid, signal.SIGTERM)
        except ProcessLookupError:
            pass
        try:
            proc.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            pass
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


def _scrape(text: str) -> Dict[str, float]:
    values = {}
    for line in text.splitlines():
        if line.startswith("#") or " " not in line:
            continue
        name, _, value = line.rpartition(" ")
        values[name] = float(value)
    return values


def _percentile(ordered: List[float], p: float) -> float:
    return ordered[min(len(ordered) - 1, int(p * len(ordered)))]


def serve_phase(root: str, env: Dict[str, str], workdir: str, cache_dir: str,
                settings, tables: Dict[str, str], requests: int) -> dict:
    """Run the served phase; returns counts, latencies and scraped metrics."""
    log_path = os.path.join(workdir, "service.log")
    cmd = [
        sys.executable, "-m", "repro.service", "--port", "0", "--jobs", "1",
        "--cache-dir", cache_dir,
        "--horizon-ms", repr(settings.horizon_ms),
        "--warmup-ms", repr(settings.warmup_ms),
        "--seed", str(settings.seed),
    ]
    with open(log_path, "w") as log:
        proc = subprocess.Popen(
            cmd, cwd=root, env=env, stdout=subprocess.DEVNULL, stderr=log,
            start_new_session=True,
        )
    try:
        port = _wait_ready(proc, log_path)
        ids = list(tables)
        failed = 0
        latencies = []
        # One untimed pass moves every exhibit from disk into the
        # service's memory; the timed requests follow.
        for i in range(-len(ids), requests):
            exhibit_id = ids[i % len(ids)]
            start = time.perf_counter()
            status, body = _get(port, f"/exhibits/{exhibit_id}?format=json")
            if i >= 0:
                latencies.append(time.perf_counter() - start)
            if status != 200 or _digest(body) != tables[exhibit_id]:
                failed += 1
        _, text = _get(port, "/metrics")
        scraped = _scrape(text.decode())
    finally:
        _stop(proc)
    ordered = sorted(latencies)
    handled = scraped.get("repro_http_request_seconds_count", 0.0)
    warm = scraped.get("repro_exhibit_warm_hits_total", 0.0)
    cold = scraped.get("repro_exhibit_cold_misses_total", 0.0)
    return {
        "attempted": len(ids) + requests,
        "failed": failed,
        "service.requests": requests,
        "service.p50_ms": 1e3 * _percentile(ordered, 0.50),
        "service.p99_ms": 1e3 * _percentile(ordered, 0.99),
        "service.handle_ms": (
            1e3 * scraped.get("repro_http_request_seconds_sum", 0.0) / handled
            if handled else 0.0
        ),
        "service.warm_hit_ratio": warm / (warm + cold) if warm + cold else 0.0,
    }


def _digest(body: bytes) -> str:
    try:
        return canonical_digest(table_of(json.loads(body)))
    except (ValueError, KeyError, TypeError):
        return ""
