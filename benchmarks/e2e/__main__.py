"""``python -m benchmarks.e2e`` — run the benchmark or compare two results.

    PYTHONPATH=src python -m benchmarks.e2e run [--workload NAME] [--seed N]
                                                [--rounds N] [--out FILE]
    PYTHONPATH=src python -m benchmarks.e2e compare A.json B.json

``run`` runs each workload in its own subprocess (``run.py``): set-up
three times, ``--rounds`` timed rounds, then one traced round. It
prints every metric by name with its unit and writes all records,
coarse spans included, to one JSON file. It exits 0 only when every
workload was correct.

``compare`` prints, per workload and end-to-end metric, both sides'
value and quartiles, their ratio and a verdict (see compare.py).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

from benchmarks.e2e import compare
from benchmarks.e2e.harness import ROOT, RUN_SCRIPT, WorkDir, hermetic_env, load_json
from benchmarks.e2e.workloads import WORKLOADS


def run(args) -> int:
    names = [args.workload] if args.workload else list(WORKLOADS)
    doc = {
        "seed": args.seed,
        "rounds": args.rounds,
        "host_cores": os.cpu_count(),
        "python": platform.python_version(),
        "workloads": {},
    }
    ok = True
    with WorkDir() as work:
        for name in names:
            record_path = os.path.join(work.path, f"{name}.json")
            cmd = [
                sys.executable, str(RUN_SCRIPT), "--workload", name,
                "--seed", str(args.seed), "--rounds", str(args.rounds),
                "--trace", "1", "--record", record_path,
            ]
            proc = subprocess.run(cmd, cwd=str(ROOT), env=hermetic_env(),
                                  stdout=subprocess.PIPE, text=True)
            # All but the one-line result, which repeats the table.
            print("\n".join(proc.stdout.rstrip("\n").splitlines()[:-1]), flush=True)
            if proc.returncode != 0:
                ok = False
                print(f"# {name}: exit code {proc.returncode}", flush=True)
            if os.path.exists(record_path):
                doc["workloads"][name] = load_json(record_path)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
    print(f"# wrote {args.out}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e")
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run the benchmark")
    run_p.add_argument("--workload", choices=list(WORKLOADS),
                       help="one workload (default: all)")
    run_p.add_argument("--seed", type=int, default=7)
    run_p.add_argument("--rounds", type=int, default=5)
    run_p.add_argument("--out", default="e2e-results.json")
    cmp_p = sub.add_parser("compare", help="compare two `run --out` files")
    cmp_p.add_argument("baseline")
    cmp_p.add_argument("candidate")
    args = parser.parse_args(argv)
    if args.command == "run":
        return run(args)
    return compare.main(args.baseline, args.candidate)


if __name__ == "__main__":
    sys.exit(main())
