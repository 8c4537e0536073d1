"""Compare two pytest-benchmark JSON files; fail on regressions.

The CI perf-trajectory gate: ``bench-baseline`` runs the benchmark
suite, writes ``BENCH_<sha>.json``, and compares it against the
committed ``BENCH_baseline.json``::

    python benchmarks/compare.py BENCH_baseline.json BENCH_new.json

Exit status 1 when any benchmark regressed beyond the threshold
(default 25%), and 2 when the two files were recorded on different
Python versions (major.minor of ``machine_info.python_version``): the
collector's heuristics and the interpreter's speed differ between
versions, so their timings do not compare.

CI runners and developer machines differ in raw speed, so the default
comparison is **relative**: each benchmark's candidate/baseline ratio
of medians is divided by the median of those ratios, which cancels a
uniform host-speed factor and leaves per-benchmark *shape* changes —
exactly what a code change alters. The median, unlike a mean, does not
move when a few benchmarks get much faster, so a large gain in some
entries never makes the unchanged ones look slower. ``--absolute``
compares raw medians instead (meaningful when both files come from the
same host, e.g. the same CI runner class).

Benchmarks present only in the candidate are reported but never fail
the gate (new benchmarks must be able to land together with their
code). Benchmarks present in the baseline but **missing from the
candidate** are a hard failure listing the missing names — a silently
shrinking suite would let regressions hide by deleting their gate; use
``--allow-missing`` when a benchmark is intentionally removed (land it
together with the regenerated baseline).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from typing import Dict, Tuple


def load_medians(path: str) -> Tuple[Dict[str, float], str]:
    """Each benchmark's median by name, and the version of the Python
    that recorded the file ("" when it does not say)."""
    with open(path) as fh:
        payload = json.load(fh)
    medians = {}
    for bench in payload.get("benchmarks", []):
        medians[bench["name"]] = float(bench["stats"]["median"])
    version = payload.get("machine_info", {}).get("python_version", "")
    return medians, version


def ratios(base: Dict[str, float], cand: Dict[str, float], common,
           absolute: bool = False) -> Dict[str, float]:
    """Candidate/baseline median per ``common`` name.

    Unless ``absolute``, each ratio is divided by the median ratio over
    the names with a positive baseline (the host-speed factor).
    """
    raw = {
        name: cand[name] / base[name] if base[name] else float("inf")
        for name in common
    }
    finite = [raw[name] for name in common if base[name] > 0]
    if absolute or not finite:
        return raw
    scale = statistics.median(finite) or 1.0
    return {name: value / scale for name, value in raw.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", help="committed BENCH_baseline.json")
    parser.add_argument("candidate", help="freshly generated benchmark JSON")
    parser.add_argument(
        "--threshold", type=float, default=0.25, metavar="FRACTION",
        help="allowed slowdown before failing (default: 0.25 = 25%%)",
    )
    parser.add_argument(
        "--absolute", action="store_true",
        help="compare raw medians instead of host-normalized ones",
    )
    parser.add_argument(
        "--allow-missing", action="store_true",
        help="tolerate benchmarks present in the baseline but absent "
             "from the candidate (intentional suite removals)",
    )
    args = parser.parse_args(argv)

    base, base_python = load_medians(args.baseline)
    cand, cand_python = load_medians(args.candidate)
    if base_python and cand_python and (
        base_python.split(".")[:2] != cand_python.split(".")[:2]
    ):
        print(f"not comparable: the baseline was recorded on Python "
              f"{base_python}, the candidate on Python {cand_python}",
              file=sys.stderr)
        return 2
    common = sorted(set(base) & set(cand))
    if not common:
        print("no common benchmarks between the two files", file=sys.stderr)
        return 1
    ratio_of = ratios(base, cand, common, absolute=args.absolute)

    mode = "absolute" if args.absolute else "host-normalized"
    print(f"{len(common)} common benchmark(s), {mode} medians, "
          f"threshold +{args.threshold:.0%}")
    regressions = []
    width = max(len(name) for name in common)
    for name in common:
        ratio = ratio_of[name]
        flag = ""
        if ratio > 1 + args.threshold:
            flag = "  REGRESSION"
            regressions.append((name, ratio))
        elif ratio < 1 / (1 + args.threshold):
            flag = "  improved"
        print(f"  {name:<{width}}  {ratio:7.2f}x{flag}")
    for name in sorted(set(cand) - set(base)):
        print(f"  {name:<{width}}  (new, not gated)")
    missing = sorted(set(base) - set(cand))
    for name in missing:
        note = "(removed from suite)" if args.allow_missing \
            else "MISSING from candidate"
        print(f"  {name:<{width}}  {note}")

    failed = False
    if regressions:
        failed = True
        print(f"\nFAIL: {len(regressions)} benchmark(s) regressed beyond "
              f"+{args.threshold:.0%}:", file=sys.stderr)
        for name, ratio in regressions:
            print(f"  {name}: {ratio:.2f}x slower", file=sys.stderr)
    if missing and not args.allow_missing:
        failed = True
        print(f"\nFAIL: {len(missing)} baseline benchmark(s) missing from "
              f"the candidate run:", file=sys.stderr)
        for name in missing:
            print(f"  {name}", file=sys.stderr)
        print("  (pass --allow-missing if the removal is intentional)",
              file=sys.stderr)
    if failed:
        return 1
    print("\nOK: no benchmark regressed beyond the threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
