"""The benchmark's four workloads.

Each workload has a *set-up* (timed in a fresh interpreter, several
times per run) and a *round* (the unit of timed work, repeated). A
round returns a digest of its output and the exact counts read from
public state afterwards; both must repeat exactly from round to round
and between traced and untraced rounds.

The three simulating workloads build from scratch with no run cache.
``warm-rebuild`` is the developer loop after an edit under
``experiments/``: its set-up fills a private run cache, and each round
rebuilds the paper's exhibits from it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from functools import partial
from typing import Callable, ClassVar, Dict, List, Tuple

# The paper exhibits rebuilt by warm-rebuild: all of them except
# figure11, which constructs Simulation privately and so bypasses the
# run cache (as do the ablations, which are not paper exhibits).
REBUILD_EXHIBITS = (
    "table1", "figure1", "figure2", "figure3", "table2", "figure4",
    "figure5", "figure6", "figure7", "figure8", "table3", "table4",
    "table5", "table6", "table7", "table8", "figure9", "table9",
    "figure10", "table10", "table11", "table12",
)
REBUILD_RUNS = ("pmake", "multpgm", "oracle")
# A simulating round builds several independent inputs: the run's seed
# plus multiples of this stride, so one --seed still fixes every input.
BUILDS_PER_ROUND = 3
SUBSEED_STRIDE = 1000

# Counts read after a simulation (summed over runs where there are many).
SIM_COUNTS = (
    "sim.refs", "sim.cycles", "memsys.atomic_refs",
    "memsys.bus_transactions", "monitor.trace_entries",
    "analysis.misses", "analysis.os_misses",
)
# Every exact count a run reports; a workload that never touches a
# layer reports zero for it.
COUNTS = SIM_COUNTS + ("experiments.exhibits", "runcache.loads", "runcache.load_mb")


@dataclass(frozen=True)
class RoundOutput:
    """What one round produced: a digest, exact counts, per-table digests."""

    digest: str
    counts: Dict[str, float]
    tables: Dict[str, str] = field(default_factory=dict)


def canonical_digest(value) -> str:
    blob = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def table_of(payload: dict) -> list:
    """The digested part of an exhibit's JSON: columns and rows only.

    Titles, notes, coverage lines and envelope fields are left out so
    that provenance added to exhibits later does not change the digest.
    """
    return [payload["columns"], payload["rows"]]


def exhibit_digest(exhibit) -> str:
    return canonical_digest(table_of(exhibit.to_dict()))


def miss_table(report) -> Dict[str, int]:
    """The report's (domain, kind, class) miss counts as a flat dict."""
    return {
        f"{domain.value}/{kind}/{miss_class.value}": count
        for (domain, kind, miss_class), count in report.analysis.miss_counts.items()
    }


def report_summary(report) -> dict:
    """Table 1-style rollup of one analysis report."""
    return {
        "misses": miss_table(report),
        "user_pct": report.user_pct,
        "sys_pct": report.sys_pct,
        "idle_pct": report.idle_pct,
        "os_miss_pct": report.os_miss_fraction_pct,
        "total_stall_pct": report.total_stall_pct,
        "os_stall_pct": report.os_stall_pct,
    }


def sim_counts(run, report) -> Dict[str, float]:
    from repro.common.types import RefDomain

    processors = run.processors
    return {
        "sim.refs": sum(p.refs_retired for p in processors),
        "sim.cycles": max(p.cycles for p in processors),
        "memsys.atomic_refs": run.memsys.atomic_refs,
        "memsys.bus_transactions": run.memsys.total_bus_transactions(),
        "monitor.trace_entries": len(run.trace),
        "analysis.misses": report.analysis.total_misses(),
        "analysis.os_misses": report.analysis.total_misses(RefDomain.OS),
    }


@dataclass(frozen=True)
class Workload:
    name: str
    horizon_ms: float
    warmup_ms: float
    fidelity: str = "detailed"
    exhibits: Tuple[str, ...] = ()
    # Whether the simulation layers run in set-up rather than in rounds
    # (the traced run then traces one set-up too, and the built exhibits
    # are served warm over HTTP afterwards).
    simulates_in_setup: ClassVar[bool] = False

    def settings(self, seed: int):
        from repro.experiments._base import RunSettings

        return RunSettings(
            horizon_ms=self.horizon_ms, warmup_ms=self.warmup_ms, seed=seed,
            fidelity=self.fidelity,
        )

    def exhibit_modules(self) -> Tuple[object, ...]:
        from repro.experiments.registry import get_experiment

        return tuple(get_experiment(e) for e in self.exhibits)


@dataclass(frozen=True)
class SimBuild(Workload):
    """Simulate, analyze serially, then derive: a cold build.

    A round is ``BUILDS_PER_ROUND`` independent builds (its parts), one
    per input seed: the run's seed plus multiples of ``SUBSEED_STRIDE``.
    """

    workload: str = "pmake"
    # Host cost of one trace entry in simulated references: a reference
    # that misses also takes the bus, ground-truth, monitor and decode
    # paths. Fitted per workload by least squares over 24 input seeds.
    entry_weight: float = 1.0

    def setup(self, workdir: str, seed: int) -> Dict[str, float]:
        """Import the stack and build the machine (no simulated time)."""
        from repro.sim._session import Simulation

        kwargs = {"fidelity": self.fidelity} if self.fidelity != "detailed" else {}
        Simulation(self.workload, seed=seed, **kwargs)
        return {}

    def parts(self, state) -> List[Callable[[], RoundOutput]]:
        return [
            partial(self._build, state.seed + SUBSEED_STRIDE * i)
            for i in range(BUILDS_PER_ROUND)
        ]

    def units(self, out: RoundOutput) -> float:
        """A round's work in millions of items: a simulated reference is
        one item, a trace entry recorded and decoded ``entry_weight``."""
        counts = out.counts
        return (counts["sim.refs"] + self.entry_weight * counts["monitor.trace_entries"]) / 1e6

    def _build(self, seed: int) -> RoundOutput:
        from repro.experiments._base import ExperimentContext
        from repro.experiments.registry import run_experiment

        ctx = ExperimentContext(self.settings(seed), cache=None)
        ctx.cache_exhibits = False
        run = ctx.run(self.workload)
        report = ctx.report(self.workload)
        counts = sim_counts(run, report)
        tables = {}
        # Serializing the output is part of the timed work.
        for exhibit_id in self.exhibits:
            exhibit = run_experiment(exhibit_id, ctx)
            exhibit.to_json()
            tables[f"{exhibit_id}@{seed}"] = exhibit_digest(exhibit)
        summary = report_summary(report)
        json.dumps(summary)
        counts["experiments.exhibits"] = len(tables)
        digest = canonical_digest({"exhibits": tables, "summary": summary})
        return RoundOutput(digest, counts, tables)


@dataclass(frozen=True)
class WarmRebuild(Workload):
    """Rebuild every paper exhibit from a warm run cache.

    A round's parts are the exhibit builds, in a fixed order on one
    fresh context, then a check of the cache's counters.
    """

    exhibits: Tuple[str, ...] = REBUILD_EXHIBITS
    simulates_in_setup: ClassVar[bool] = True

    def setup(self, workdir: str, seed: int) -> Dict[str, float]:
        """Simulate and analyze the three paper workloads into the cache."""
        from repro.experiments._base import ExperimentContext
        from repro.sim.runcache import RunCache

        ctx = ExperimentContext(self.settings(seed), cache=RunCache(workdir))
        counts: Dict[str, float] = dict.fromkeys(SIM_COUNTS, 0)
        for workload in REBUILD_RUNS:
            report = ctx.report(workload)
            for name, value in sim_counts(ctx.run(workload), report).items():
                counts[name] += value
        return counts

    def parts(self, state) -> List[Callable[[], RoundOutput]]:
        from repro.experiments._base import ExperimentContext
        from repro.sim.runcache import RunCache

        cache = RunCache(state.cache_dir)
        ctx = ExperimentContext(self.settings(state.seed), cache=cache)
        ctx.cache_exhibits = False
        parts = [partial(self._exhibit, ctx, e) for e in self.exhibits]
        parts.append(partial(self._cache_counts, ctx, state.seed))
        return parts

    def units(self, out: RoundOutput) -> float:
        """A round's work: one full rebuild."""
        return 1.0

    def publish(self, state) -> None:
        """Build the exhibits into the run cache, for serving them warm."""
        from repro.experiments._base import ExperimentContext
        from repro.experiments.registry import run_experiment
        from repro.sim.runcache import RunCache

        ctx = ExperimentContext(self.settings(state.seed), cache=RunCache(state.cache_dir))
        for exhibit_id in self.exhibits:
            run_experiment(exhibit_id, ctx)

    @staticmethod
    def _exhibit(ctx, exhibit_id: str) -> RoundOutput:
        from repro.experiments.registry import run_experiment

        exhibit = run_experiment(exhibit_id, ctx)
        exhibit.to_json()
        digest = exhibit_digest(exhibit)
        return RoundOutput(digest, {}, {exhibit_id: digest})

    def _cache_counts(self, ctx, seed: int) -> RoundOutput:
        cache = ctx.cache
        stats = cache.stats()
        if stats["misses"] or stats["stores"]:
            raise RuntimeError(
                f"warm rebuild missed the run cache: {stats}; an exhibit "
                "asked for a run the set-up did not simulate"
            )
        load_bytes = sum(
            cache._path(cache.run_key(w, self.horizon_ms, self.warmup_ms, seed, {}))
            .stat().st_size
            for w in REBUILD_RUNS
        )
        counts = {
            "experiments.exhibits": len(ctx.exhibit_cache),
            "runcache.loads": stats["hits"],
            "runcache.load_mb": load_bytes / 1e6,
            "runcache.hit_ratio": stats["hits"] / stats["probes"],
        }
        return RoundOutput(canonical_digest(counts), counts)


def merge(outputs: List[RoundOutput]) -> RoundOutput:
    """One round's output from its parts' outputs."""
    counts: Dict[str, float] = {}
    tables: Dict[str, str] = {}
    for out in outputs:
        for name, value in out.counts.items():
            counts[name] = counts.get(name, 0) + value
        tables.update(out.tables)
    return RoundOutput(canonical_digest([out.digest for out in outputs]), counts, tables)


def encode(workload: Workload) -> str:
    """The workload's full definition as JSON (for set-up subprocesses)."""
    return json.dumps({"kind": type(workload).__name__, **asdict(workload)})


def decode(text: str) -> Workload:
    fields = json.loads(text)
    kind = {cls.__name__: cls for cls in (SimBuild, WarmRebuild)}[fields.pop("kind")]
    fields["exhibits"] = tuple(fields["exhibits"])
    return kind(**fields)


# Why each workload is here: BENCHMARK.json and README.md.
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        SimBuild(
            name="pmake-detailed", workload="pmake",
            horizon_ms=10.0, warmup_ms=60.0, entry_weight=8.0,
            exhibits=("figure3", "figure5", "table7", "table12"),
        ),
        SimBuild(
            name="netserver-detailed", workload="netserver",
            horizon_ms=10.0, warmup_ms=60.0, entry_weight=40.0,
        ),
        SimBuild(
            name="oracle-mixed", workload="oracle",
            horizon_ms=10.0, warmup_ms=60.0, entry_weight=3.0, fidelity="mixed",
        ),
        WarmRebuild(name="warm-rebuild", horizon_ms=5.0, warmup_ms=30.0),
    )
}
