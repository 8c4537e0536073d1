"""``python -m repro.service`` — run the exhibit server.

Settings flags, their env vars (``REPRO_BENCH_*`` shrink the simulation
window, as they do for the CLI and the benchmark harness) and defaults
come from the settings table beside :class:`RunSettings`, so the service
serves exactly the exhibits ``repro-experiments run`` produces. The
persistent run cache is shared with the CLI and the test fixtures, so
anything they built is already cache-warm here.
"""

from __future__ import annotations

import argparse
import asyncio
import sys
from typing import List, Optional

from repro.experiments._base import add_settings_arguments, resolve_settings
from repro.experiments.parallel import default_jobs
from repro.service.app import ServiceApp, ServiceConfig
from repro.service.server import serve

# Every table row but ``check`` (REPRO_CHECK still applies), and no
# ``--cpus`` alias.
_SETTINGS = (
    "horizon_ms", "warmup_ms", "seed", "fidelity", "fast_forward",
    "machine", "workload_args",
)


def build_config(args) -> ServiceConfig:
    return ServiceConfig(
        settings=resolve_settings(args=args, names=_SETTINGS),
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
    add_settings_arguments(parser, names=_SETTINGS, aliases=False)
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = build_config(args)
    except ValueError as exc:
        parser.error(str(exc))
    app = ServiceApp(config)
    try:
        asyncio.run(serve(app, host=args.host, port=args.port))
    except KeyboardInterrupt:  # pragma: no cover - signal path
        pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
