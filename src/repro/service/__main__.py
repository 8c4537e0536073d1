"""``python -m repro.service`` — run the exhibit server.

Defaults come from :class:`RunSettings` so the service serves exactly
the exhibits ``repro-experiments run`` produces; the ``REPRO_BENCH_*``
environment knobs shrink the simulation window the same way they do for
the benchmark harness (CI uses them to keep the service smoke job
fast). The persistent run cache is shared with the CLI and the test
fixtures, so anything they built is already cache-warm here.
"""

from __future__ import annotations

import argparse
import asyncio
import os
import sys
from typing import List, Optional

from repro.experiments._base import RunSettings
from repro.experiments.parallel import default_jobs
from repro.fidelity import resolve_fast_forward, resolve_fidelity
from repro.machines import MACHINES, resolve_machine_name
from repro.service.app import ServiceApp, ServiceConfig
from repro.service.server import serve
from repro.workloads import parse_workload_args

_DEFAULTS = RunSettings()


def _env_float(name: str, fallback: float) -> float:
    value = os.environ.get(name)
    return float(value) if value else fallback


def build_config(args) -> ServiceConfig:
    settings = RunSettings(
        horizon_ms=args.horizon_ms,
        warmup_ms=args.warmup_ms,
        seed=args.seed,
        fidelity=resolve_fidelity(args.fidelity),
        fast_forward=resolve_fast_forward(args.fast_forward),
        machine=resolve_machine_name(args.machine),
        workload_args=parse_workload_args(args.workload_args),
    )
    return ServiceConfig(
        settings=settings,
        cache_dir=args.cache_dir,
        no_cache=args.no_cache,
        max_workers=args.jobs,
        queue_depth=args.queue_depth,
        job_timeout_s=args.timeout,
        retry_after_s=args.retry_after,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Serve the paper's exhibits as JSON over HTTP",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8080,
                        help="listen port (0 picks a free one)")
    parser.add_argument(
        "--jobs", type=int, default=default_jobs(), metavar="N",
        help="worker processes for cold exhibit builds "
             "(default: min(3, cpu_count))",
    )
    parser.add_argument(
        "--queue-depth", type=int, default=8, metavar="N",
        help="bounded job queue size; beyond it requests get 503 + "
             "Retry-After (default: 8)",
    )
    parser.add_argument(
        "--timeout", type=float, default=600.0, metavar="SECONDS",
        help="per-job build timeout (default: 600)",
    )
    parser.add_argument(
        "--retry-after", type=int, default=5, metavar="SECONDS",
        help="Retry-After hint sent with 503 responses (default: 5)",
    )
    parser.add_argument(
        "--horizon-ms", type=float,
        default=_env_float("REPRO_BENCH_HORIZON_MS", _DEFAULTS.horizon_ms),
        help="traced window per simulation (default: RunSettings / "
             "$REPRO_BENCH_HORIZON_MS)",
    )
    parser.add_argument(
        "--warmup-ms", type=float,
        default=_env_float("REPRO_BENCH_WARMUP_MS", _DEFAULTS.warmup_ms),
        help="warmup before the traced window (default: RunSettings / "
             "$REPRO_BENCH_WARMUP_MS)",
    )
    parser.add_argument("--seed", type=int, default=_DEFAULTS.seed)
    parser.add_argument(
        "--fidelity", choices=("detailed", "mixed"), default=None,
        help="default engine tier for builds; per-request override via "
             "?fidelity= (default: $REPRO_FIDELITY or detailed; atomic "
             "is Simulation-only — exhibits need a traced run)",
    )
    parser.add_argument(
        "--fast-forward", type=int, default=None, metavar="REFS",
        help="mixed tier: atomic references before the detailed hand-off "
             "(default: $REPRO_FAST_FORWARD or 0)",
    )
    parser.add_argument(
        "--machine", choices=tuple(MACHINES), default=None, metavar="NAME",
        help="default machine preset for builds; per-request override "
             f"via ?machine= ({', '.join(MACHINES)}; "
             "default: $REPRO_MACHINE or 4d340)",
    )
    parser.add_argument(
        "--workload-arg", action="append", default=None, metavar="K=V",
        dest="workload_args",
        help="default workload tuning knob for builds (repeatable); "
             "per-request override via ?workload_arg=k=v",
    )
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="persistent run-cache location (default: $REPRO_CACHE_DIR "
             "or ~/.cache/repro)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="neither read nor write the persistent run cache "
             "(also: REPRO_NO_CACHE=1)",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    app = ServiceApp(build_config(args))
    try:
        asyncio.run(serve(app, host=args.host, port=args.port))
    except KeyboardInterrupt:  # pragma: no cover - signal path
        pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
