"""One benchmark run of one workload; the command named in BENCHMARK.json.

    python3 benchmarks/e2e/run.py --workload pmake-detailed --seed 7 \\
        --seconds 10 --trace 0

Run from the repository root. Progress and errors go to stderr. stdout
lists every metric by name with its unit; its last line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics, or with ``--trace 1`` the per-layer ones).
``--record FILE`` also writes the full record: every metric with its
samples, the coarse spans, the digests and the environment. Exits 0
only when the run completed and every check passed.
"""

import argparse
import json
import os
import signal
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _sigterm(signum, frame):
    # Unwind through the harness's finally blocks: they stop the service
    # and remove the scratch directory.
    raise SystemExit(128 + signum)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="benchmarks/e2e/run.py", description=__doc__.splitlines()[0],
    )
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7)
    budget = parser.add_mutually_exclusive_group()
    budget.add_argument("--seconds", type=float,
                        help="time budget for the timed rounds")
    budget.add_argument("--rounds", type=int,
                        help="exact number of timed rounds (default 5)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", metavar="FILE",
                        help="also write the full record as JSON")
    # Internal: one timed set-up, run by the harness in a fresh interpreter.
    parser.add_argument("--setup-child", metavar="DIR", help=argparse.SUPPRESS)
    parser.add_argument("--definition", help=argparse.SUPPRESS)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"error: no src/repro under {ROOT}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]
    from benchmarks.e2e import harness

    # Before anything imports repro or numpy: no REPRO_* knob may change
    # the run, and numpy stays single-threaded.
    env = harness.hermetic_env()
    os.environ.clear()
    os.environ.update(env)
    signal.signal(signal.SIGTERM, _sigterm)
    from benchmarks.e2e.workloads import WORKLOADS, decode

    if args.setup_child:
        report = harness.setup_child(decode(args.definition), args.seed,
                                     args.setup_child)
        print(json.dumps(report))
        return 0
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds is None and args.rounds is None:
        args.rounds = 5
    record = harness.run_workload(
        WORKLOADS[args.workload], args.seed, seconds=args.seconds,
        rounds=args.rounds, trace=bool(args.trace),
    )
    if args.record:
        with open(args.record, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
    harness.print_metrics(record)
    print(json.dumps(harness.result_line(record, trace=bool(args.trace))))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
