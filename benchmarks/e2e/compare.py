"""Compare two ``python -m benchmarks.e2e run --out`` files.

For each workload and end-to-end metric it prints each side's value
and within-run quartiles, the ratio candidate/baseline, and a verdict
using the bounds in BENCHMARK.json:

- ``unresolved``: either side's spread (interquartile range over the
  median of its samples) exceeds the bound, unless every candidate
  sample beats, or loses to, every baseline sample;
- ``worse``: the candidate is worse by more than the bound;
- ``better``: the candidate is better by more than the wider of the
  two sides' spreads (the bound, for a single-sample metric);
- ``same``: otherwise.

Exit status: 2 when the two files differ in host core count, seed or
workload settings (they are not comparable), 1 when any metric is
worse or unresolved, else 0.
"""

from __future__ import annotations

import sys
from typing import Dict, List

from benchmarks.e2e.harness import BENCHMARK_JSON, load_json


def spread(entry: Dict, bound: float) -> float:
    """Interquartile range over median; the bound itself when a single
    sample leaves the spread unknown."""
    if entry["n"] < 2 or not entry["median"]:
        return bound
    return (entry["q3"] - entry["q1"]) / entry["median"]


def _best_worst(entry: Dict, lower_is_better: bool):
    """(best, worst) sample, both oriented so that larger is worse."""
    if lower_is_better:
        return entry["min"], entry["max"]
    return -entry["max"], -entry["min"]


def verdict(base: Dict, cand: Dict, bound: float, lower_is_better: bool) -> str:
    sign = 1.0 if lower_is_better else -1.0
    change = sign * (cand["value"] - base["value"]) / base["value"]
    noise = max(spread(base, bound), spread(cand, bound))
    if noise > bound:
        # Separated samples resolve the comparison even when noisy.
        base_best, base_worst = _best_worst(base, lower_is_better)
        cand_best, cand_worst = _best_worst(cand, lower_is_better)
        if cand_worst < base_best:
            return "better"
        if cand_best > base_worst:
            return "worse"
        return "unresolved"
    if change > bound:
        return "worse"
    if -change > noise:
        return "better"
    return "same"


def incomparable(base: Dict, cand: Dict) -> List[str]:
    reasons = []
    for key in ("host_cores", "seed"):
        if base.get(key) != cand.get(key):
            reasons.append(f"{key}: {base.get(key)!r} vs {cand.get(key)!r}")
    for name in sorted(set(base["workloads"]) & set(cand["workloads"])):
        a = base["workloads"][name]["environment"]["settings"]
        b = cand["workloads"][name]["environment"]["settings"]
        if a != b:
            reasons.append(f"{name} settings: {a} vs {b}")
    return reasons


def main(baseline_path: str, candidate_path: str, out=None) -> int:
    out = out or sys.stdout
    base, cand = load_json(baseline_path), load_json(candidate_path)
    reasons = incomparable(base, cand)
    if reasons:
        for reason in reasons:
            print(f"not comparable: {reason}", file=out)
        return 2
    metrics = load_json(BENCHMARK_JSON)["end_to_end"]
    failing = 0
    print(f"{'workload':20s} {'metric':18s} {'baseline (q1-q3)':>28s} "
          f"{'candidate (q1-q3)':>28s} {'ratio':>7s}  verdict", file=out)
    for name in base["workloads"]:
        if name not in cand["workloads"]:
            print(f"{name:20s} missing from {candidate_path}", file=out)
            failing += 1
            continue
        for metric in metrics:
            a = base["workloads"][name]["metrics"][metric["name"]]
            b = cand["workloads"][name]["metrics"][metric["name"]]
            result = verdict(a, b, metric["bound"], metric["better"] == "lower")
            failing += result in ("worse", "unresolved")
            print(
                f"{name:20s} {metric['name']:18s} "
                f"{a['value']:10.4g} ({a['q1']:.4g}-{a['q3']:.4g}) "
                f"{b['value']:10.4g} ({b['q1']:.4g}-{b['q3']:.4g}) "
                f"{b['value'] / a['value']:7.3f}  {result}",
                file=out,
            )
    return 1 if failing else 0
