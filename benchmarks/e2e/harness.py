"""Run one workload: set-up, timed rounds, a traced round, checks.

One call of :func:`run_workload` is one benchmark run in one process:

1. **Set-up**, ``SETUP_REPEATS`` times, each in a fresh interpreter
   (imports included); ``setup_s`` is the median wall time.
2. **Rounds**, until the time budget or the round count is spent. Only
   coarse phase boundaries are wrapped. Round 1's output is the
   reference every later round must reproduce.
3. **Traced round** (``trace=True``): the same round with every layer
   boundary wrapped; its exact counts and digest must equal the
   untraced ones.
4. **Served phase** (``warm-rebuild`` only).

Rounds that raise, or whose digest differs from round 1's or from the
digest pinned for the default seed, count as failed.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, List, Optional

from benchmarks.e2e.tracing import TRACED_LAYERS, Recorder, instrument
from benchmarks.e2e.workloads import COUNTS, RoundOutput, Workload, encode, merge

ROOT = Path(__file__).resolve().parents[2]
HERE = Path(__file__).resolve().parent
RUN_SCRIPT = HERE / "run.py"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
SPEC_JSON = HERE / "spec.json"
# Scratch space inside the checkout; every run removes its own subdir.
WORK_ROOT = ROOT / ".bench_work"

SETUP_REPEATS = 3
MIN_ROUNDS = 3
SERVED_REQUESTS = 2000

# Phase timings: metric -> (coarse layer, which time).
PHASES = {
    "sim.setup_s": ("sim.setup", "total_s"),
    "sim.run_s": ("sim.loop", "total_s"),
    "analysis.analyze_s": ("analysis.analyze", "total_s"),
    "analysis.sweeps_s": ("analysis.sweeps", "total_s"),
    # An exhibit build minus the runs, loads and sweeps it calls into.
    "experiments.derive_s": ("experiments.derive", "self_s"),
    "runcache.load_s": ("runcache.load", "total_s"),
    "runcache.store_s": ("runcache.store", "total_s"),
}


def load_json(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def hermetic_env(base: Optional[Dict[str, str]] = None) -> Dict[str, str]:
    """``base`` without any ``REPRO_*`` knob, single-threaded numpy,
    and ``src/`` importable."""
    env = {k: v for k, v in (base or os.environ).items() if not k.startswith("REPRO_")}
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    ours = [str(ROOT), str(ROOT / "src")]
    theirs = [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p and p not in ours]
    env["PYTHONPATH"] = os.pathsep.join(ours + theirs)
    return env


@dataclass
class State:
    """What a round needs from set-up."""

    seed: int
    cache_dir: Optional[str] = None


class WorkDir:
    """A private scratch directory under the checkout, removed on exit."""

    def __init__(self) -> None:
        WORK_ROOT.mkdir(exist_ok=True)
        self.path = tempfile.mkdtemp(prefix=f"{os.getpid()}-", dir=WORK_ROOT)

    def fresh(self, name: str) -> str:
        path = os.path.join(self.path, name)
        os.mkdir(path)
        return path

    def __enter__(self) -> "WorkDir":
        return self

    def __exit__(self, *exc) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass


def phase_times(recorder: Recorder) -> Dict[str, float]:
    return {
        metric: recorder.layer(layer)[kind]
        for metric, (layer, kind) in PHASES.items()
    }


def setup_child(workload: Workload, seed: int, workdir: str) -> dict:
    """The set-up body, run inside a fresh interpreter (see run.py)."""
    recorder = Recorder()
    with instrument(recorder):
        counts = workload.setup(workdir, seed)
    return {"counts": counts, "phases": phase_times(recorder)}


def timed_setup(workload: Workload, seed: int, workdir: str, env) -> tuple:
    """Spawn one set-up; returns (wall seconds, the child's report)."""
    cmd = [
        sys.executable, str(RUN_SCRIPT), "--setup-child", workdir,
        "--workload", workload.name, "--definition", encode(workload),
        "--seed", str(seed),
    ]
    start = time.perf_counter()
    proc = subprocess.run(
        cmd, cwd=str(ROOT), env=env, capture_output=True, text=True,
        timeout=600,
    )
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"set-up failed:\n{proc.stderr}")
    return elapsed, json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(samples: List[float]) -> Dict[str, float]:
    ordered = sorted(samples)
    if len(ordered) > 1:
        q1, _, q3 = statistics.quantiles(ordered, n=4)
    else:
        q1 = q3 = ordered[0]
    return {
        "median": statistics.median(ordered), "min": ordered[0],
        "max": ordered[-1], "q1": q1, "q3": q3, "n": len(ordered),
    }


def environment(workload: Workload, seed: int) -> dict:
    from repro.sim.runcache import source_digest

    return {
        "settings": asdict(workload.settings(seed)),
        "source_digest": source_digest(include_experiments=True),
        "python": platform.python_version(),
        "host_cores": os.cpu_count(),
    }


def pinned_digest(workload: Workload, seed: int) -> Optional[str]:
    """The output digest spec.json pins for this exact workload
    definition at this seed, if any."""
    pin = load_json(SPEC_JSON)["pinned"].get(workload.name)
    if pin and pin["seed"] == seed and pin["definition"] == json.loads(encode(workload)):
        return pin["digest"]
    return None


class Run:
    """Book-keeping for one benchmark run."""

    def __init__(self, workload: Workload, seed: int, log) -> None:
        self.workload = workload
        self.log = log
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.pinned = pinned_digest(workload, seed)
        self.reference: Optional[RoundOutput] = None

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        self.errors.append(message)
        self.log(f"error: {message}")

    def round(self, state: State, recorder: Recorder, label: str):
        """One round; returns the seconds of each part, or None when it
        raised."""
        self.attempted += 1
        recorder.round_id += 1
        times, outputs = [], []
        gc.collect()
        try:
            for part in self.workload.parts(state):
                start = time.perf_counter()
                outputs.append(part())
                times.append(time.perf_counter() - start)
        except Exception:
            self.fail(f"{label} raised:\n{traceback.format_exc()}")
            return None
        out = merge(outputs)
        if self.reference is None:
            self.reference = out
        problems = []
        if out.digest != self.reference.digest:
            problems.append("digest differs from round 1")
        if self.pinned is not None and out.digest != self.pinned:
            problems.append(f"digest {out.digest[:12]} differs from the pinned "
                            f"{self.pinned[:12]}")
        if out.counts != self.reference.counts:
            problems.append(f"counts differ from round 1: {out.counts} "
                            f"vs {self.reference.counts}")
        if problems:
            self.fail(f"{label}: " + "; ".join(problems))
        return times


def run_workload(workload: Workload, seed: int, seconds: Optional[float] = None,
                 rounds: Optional[int] = None, trace: bool = False,
                 log=None) -> dict:
    """One benchmark run; returns the full record.

    Times rounds for about ``seconds`` (at least ``MIN_ROUNDS`` of them),
    or exactly ``rounds`` rounds.
    """
    log = log or (lambda msg: print(msg, file=sys.stderr, flush=True))
    env = hermetic_env()
    bench = Run(workload, seed, log)
    record: Dict[str, object] = {"workload": workload.name, "seed": seed}
    with WorkDir() as work:
        # 1. Set-up, each time in a fresh interpreter and a fresh directory.
        setup_samples, setup_reports = [], []
        for i in range(SETUP_REPEATS):
            workdir = work.fresh(f"setup-{i}")
            elapsed, report = timed_setup(workload, seed, workdir, env)
            setup_samples.append(elapsed)
            setup_reports.append(report)
        setup_counts = setup_reports[0]["counts"]
        for report in setup_reports[1:]:
            if report["counts"] != setup_counts:
                bench.fail("set-up counts differ between repeats")
        state = State(seed, cache_dir=workdir)

        # 2. Timed rounds; the next one starts only if it should fit in
        # the budget.
        recorder = Recorder()
        modules = workload.exhibit_modules()
        times: List[List[float]] = []  # per round, per part
        phases: List[Dict[str, float]] = []
        with instrument(recorder, modules):
            budget_start = time.perf_counter()
            while True:
                recorder.reset()
                part_times = bench.round(state, recorder, f"round {bench.attempted + 1}")
                if bench.reference is None:
                    raise RuntimeError("round 1 failed: " + bench.errors[-1])
                if part_times is not None:
                    times.append(part_times)
                    phases.append(phase_times(recorder))
                if rounds is not None:
                    if len(times) >= rounds or bench.attempted >= 2 * rounds:
                        break
                    continue
                spent = time.perf_counter() - budget_start
                if bench.attempted >= MIN_ROUNDS and spent * (1 + 1 / bench.attempted) > seconds:
                    break
            spans = list(recorder.spans)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if not times:
            raise RuntimeError("no timed round completed")
        counts = dict.fromkeys(COUNTS, 0)
        counts.update(setup_counts)
        counts.update(bench.reference.counts)

        # 3. The traced round (for warm-rebuild, a traced set-up too: that
        # is where its simulation layers run).
        traced = traced_s = None
        if trace:
            traced = Recorder()
            traced.round_id = recorder.round_id
            with instrument(traced, modules, traced=True):
                if workload.simulates_in_setup:
                    bench.attempted += 1
                    traced_counts = workload.setup(work.fresh("traced-setup"), seed)
                    if traced_counts != setup_counts:
                        bench.fail(f"traced set-up counts {traced_counts} differ "
                                   f"from untraced {setup_counts}")
                part_times = bench.round(state, traced, "traced round")
            if part_times is None:
                raise RuntimeError("the traced round failed: " + bench.errors[-1])
            traced_s = sum(part_times)
            spans.extend(traced.spans)

        # 4. Served phase.
        served = None
        if workload.simulates_in_setup:
            try:
                from benchmarks.e2e.served import serve_phase

                workload.publish(state)
                served = serve_phase(
                    str(ROOT), env, work.path, state.cache_dir,
                    workload.settings(seed), bench.reference.tables,
                    SERVED_REQUESTS,
                )
                bench.attempted += served["attempted"]
                if served["failed"]:
                    bench.fail(f"{served['failed']} served requests failed",
                               served["failed"])
            except Exception:
                bench.attempted += 1
                bench.fail(f"served phase raised:\n{traceback.format_exc()}")

        record["environment"] = environment(workload, seed)

    record.update(
        correct=bench.failed == 0, attempted=bench.attempted,
        failed=bench.failed, errors=bench.errors,
        digest=bench.reference.digest, pinned_digest=bench.pinned,
        spans=spans,
    )
    record["metrics"] = metrics(
        workload.units(bench.reference), times, setup_samples, peak_rss_mb,
        phases, setup_reports, counts, traced, traced_s, served,
    )
    if traced is not None:
        record["traced_layers"] = {name: traced.layer(name) for name in traced.stats}
    return record


def count_unit(name: str) -> str:
    """Unit of a count-like metric, by its name's suffix."""
    for suffix, unit in (("_mb", "MB"), ("_ms", "ms"), ("_ratio", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


def _median_phase(samples: List[Dict[str, float]], metric: str) -> float:
    return statistics.median(s[metric] for s in samples) if samples else 0.0


def metrics(units, times, setup_samples, peak_rss_mb, phases,
            setup_reports, counts, traced, traced_s, served) -> Dict[str, dict]:
    """Every metric the run measured, by name, with unit and value.

    ``times`` holds, per timed round, the seconds of each of the round's
    parts. Interference from other processes only ever slows a part
    down, so each part's fastest round is the estimate least disturbed
    by it; ``build_s_per_unit`` adds those up and divides by the
    round's units of work.
    """
    out: Dict[str, dict] = {}

    def put(name: str, value, unit: str, samples=None) -> None:
        entry = {"value": value, "unit": unit}
        if samples is not None:
            entry.update(summarize(samples))
        out[name] = entry

    # End to end: host time per unit of work, set-up time, memory.
    fastest = sum(min(part) for part in zip(*times))
    put("build_s_per_unit", fastest / units, "s", [sum(t) / units for t in times])
    put("setup_s", statistics.median(setup_samples), "s", setup_samples)
    put("peak_rss_mb", peak_rss_mb, "MB", [peak_rss_mb])
    round_s = [sum(t) for t in times]
    put("build_s", statistics.median(round_s), "s", round_s)

    # Phase timings: from the rounds, or from set-up for the phases that
    # only run there (warm-rebuild simulates in set-up).
    setup_phases = [r["phases"] for r in setup_reports]
    for metric in PHASES:
        value = _median_phase(phases, metric)
        if value == 0.0:
            value = _median_phase(setup_phases, metric)
        put(metric, value, "s")
    for name, value in counts.items():
        put(name, value, count_unit(name))
    run_s = out["sim.run_s"]["value"]
    put("sim.refs_per_s", counts["sim.refs"] / run_s, "1/s")
    analyze_s = out["analysis.analyze_s"]["value"]
    put("analysis.entries_per_s", counts["monitor.trace_entries"] / analyze_s, "1/s")

    if traced is not None:
        put("trace.overhead", traced_s / statistics.median(round_s), "ratio")
        for layer in TRACED_LAYERS:
            stats = traced.layer(layer)
            put(f"{layer}.calls", stats["calls"], "count")
            put(f"{layer}.self_s", stats["self_s"], "s")
    for name, value in (served or {}).items():
        if name.startswith("service."):
            put(name, value, count_unit(name))
    out.setdefault("service.requests", {"value": 0, "unit": "count"})
    return out


def print_metrics(record: dict, out=None) -> None:
    """Every metric by name with its unit, then the verdict."""
    out = out or sys.stdout
    print(f"# {record['workload']} seed={record['seed']}", file=out)
    for name, entry in record["metrics"].items():
        line = f"{name:28s} {entry['value']:>16.6g} {entry['unit']}"
        if entry.get("n", 0) > 1:
            line += (f"  ({entry['n']} samples: median {entry['median']:.6g}, "
                     f"min {entry['min']:.6g}, max {entry['max']:.6g})")
        print(line, file=out)
    print(f"# correct={record['correct']} attempted={record['attempted']} "
          f"failed={record['failed']} digest={record['digest'][:16]}", file=out)


def result_line(record: dict, trace: bool) -> dict:
    """The one-line result: end-to-end metrics, or per-layer ones when traced."""
    spec = load_json(BENCHMARK_JSON)
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    measured = record["metrics"]
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            m["name"]: {"value": measured[m["name"]]["value"], "unit": m["unit"]}
            for m in wanted
        },
    }
