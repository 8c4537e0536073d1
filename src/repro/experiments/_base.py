"""Experiment infrastructure: shared runs and exhibit formatting."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.report import AnalysisReport, analyze_trace
from repro.machines import DEFAULT_MACHINE, MachineSpec, canonical_machine
from repro.sim.runcache import RunCache, load_or_run
from repro.sim._session import TracedRun
from repro.workloads import canonical_workload_args

# Exhibit.to_dict() payload schema. Version 2 added the explicit
# "schema_version" field itself (version-1 payloads carry none);
# from_dict() accepts both.
EXHIBIT_SCHEMA_VERSION = 2


@dataclass(frozen=True)
class RunSettings:
    """Standard simulation settings shared by the experiments.

    80 ms of traced window after 500 ms of warmup reaches the workloads'
    steady state (all binaries resident, buffer cache warm, scheduler
    mixing) while keeping a full experiment sweep to minutes of host
    time. Individual experiments override where they need to (e.g.
    Figure 11 sweeps CPU counts with a shorter window).
    """

    horizon_ms: float = 80.0
    warmup_ms: float = 500.0
    seed: int = 7
    # Run with the repro.sanitizers invariant checkers installed
    # (``--check`` / ``REPRO_CHECK=1``). Part of the frozen settings so
    # exhibit cache keys (repr-based) distinguish checked runs too.
    check: bool = False
    # Engine fidelity tier (``--fidelity`` / ``REPRO_FIDELITY``) and the
    # mixed tier's atomic reference budget (``--fast-forward`` /
    # ``REPRO_FAST_FORWARD``). These change the run's bytes, so
    # non-default values enter cache keys.
    fidelity: str = "detailed"
    fast_forward: int = 0
    # Machine geometry (``--machine`` / ``--cpus`` / ``REPRO_MACHINE``):
    # a preset name from :mod:`repro.machines` or a full MachineParams.
    # Like fidelity, a non-default machine changes the run's bytes, so
    # it enters cache keys — canonicalized so a preset's name and its
    # literal params key identically, and so the 4d340 default keeps
    # every legacy key byte-identical.
    machine: MachineSpec = DEFAULT_MACHINE
    # Workload tuning knobs (``--workload-arg k=v`` / ``?workload_arg=``):
    # canonicalized to a sorted (name, value) pair tuple. Tuned runs are
    # different runs, so non-empty args enter cache keys; the empty
    # default normalizes away and keeps every existing key byte-identical.
    workload_args: tuple = ()

    def cache_repr(self) -> str:
        """The repr used for exhibit cache keys.

        Renders the original four-field dataclass repr byte for byte, so
        default-settings keys never change. The fields added since
        append only at non-default values: they change output, so they
        must key distinctly.
        """
        extra = ""
        if self.fidelity != "detailed":
            extra += f", fidelity={self.fidelity!r}"
        if self.fast_forward:
            extra += f", fast_forward={self.fast_forward!r}"
        machine = canonical_machine(self.machine)
        if machine != DEFAULT_MACHINE:
            extra += f", machine={machine!r}"
        workload_args = canonical_workload_args(self.workload_args)
        if workload_args:
            extra += f", workload_args={workload_args!r}"
        return (
            f"RunSettings(horizon_ms={self.horizon_ms!r}, "
            f"warmup_ms={self.warmup_ms!r}, seed={self.seed!r}, "
            f"check={self.check!r}{extra})"
        )


class ExperimentContext:
    """Caches one traced run + analysis per workload per settings.

    Two cache layers: an in-memory dict (one entry per workload per
    override set, exactly as before), and — when a :class:`RunCache` is
    supplied — the persistent on-disk store, so a fresh process reloads
    finished runs instead of re-simulating them. Both layers are
    transparent: a context with a warm disk cache hands out runs and
    reports byte-identical to a cold serial context.
    """

    def __init__(
        self,
        settings: Optional[RunSettings] = None,
        cache: Optional[RunCache] = None,
    ):
        self.settings = settings if settings is not None else RunSettings()
        self.cache = cache
        # Benchmarks flip this off: they want cached *runs* (shared
        # input state) but must still time the exhibit derivations.
        self.cache_exhibits = True
        self._runs: Dict[Tuple, TracedRun] = {}
        self._reports: Dict[Tuple, AnalysisReport] = {}
        self.exhibit_cache: Dict[str, "Exhibit"] = {}
        # Runs the ablation experiments simulate privately (machine
        # variants the shared run cache never sees). Registered so
        # checked-mode reporting covers them too.
        self.private_runs: List[TracedRun] = []

    def _resolved(self, overrides: Dict):
        """Split overrides into (horizon, warmup, seed, sim kwargs).

        Only :class:`RunSettings` fields may be overridden; an unknown
        key raises instead of being silently forwarded (a typo'd
        ``horizon`` used to produce a run with default settings).
        """
        valid = RunSettings.__dataclass_fields__
        unknown = sorted(set(overrides) - set(valid))
        if unknown:
            raise TypeError(
                f"unknown override(s) {', '.join(map(repr, unknown))} for "
                f"ExperimentContext; valid names: {', '.join(valid)}"
            )
        horizon = overrides.get("horizon_ms", self.settings.horizon_ms)
        warmup = overrides.get("warmup_ms", self.settings.warmup_ms)
        seed = overrides.get("seed", self.settings.seed)
        check = overrides.get("check", self.settings.check)
        fidelity = overrides.get("fidelity", self.settings.fidelity)
        fast_forward = overrides.get("fast_forward", self.settings.fast_forward)
        machine = canonical_machine(
            overrides.get("machine", self.settings.machine)
        )
        workload_args = canonical_workload_args(
            overrides.get("workload_args", self.settings.workload_args)
        )
        # Unchecked runs keep sim_kwargs == {} so PR-1 cache keys (and
        # the byte-identity smoke) are untouched; the same discipline
        # keeps default-fidelity and default-machine keys identical to
        # the keys from before those knobs existed.
        sim_kwargs = {"check": check} if check else {}
        if fidelity != "detailed":
            sim_kwargs["fidelity"] = fidelity
        if fast_forward:
            sim_kwargs["fast_forward"] = fast_forward
        if machine != DEFAULT_MACHINE:
            sim_kwargs["machine"] = machine
        if workload_args:
            sim_kwargs["workload_args"] = workload_args
        return horizon, warmup, seed, sim_kwargs

    @staticmethod
    def _memory_key(workload: str, overrides: Dict) -> Tuple:
        """In-memory cache key; ``workload_args`` is canonicalized so a
        dict and its pair-tuple form key (and hash) identically."""
        items = []
        for k, v in overrides.items():
            if k == "workload_args":
                v = canonical_workload_args(v)
                if not v:
                    continue
            items.append((k, v))
        return (workload, tuple(sorted(items)))

    def run(self, workload: str, **overrides) -> TracedRun:
        key = self._memory_key(workload, overrides)
        if key not in self._runs:
            horizon, warmup, seed, sim_kwargs = self._resolved(overrides)
            run, report = load_or_run(
                self.cache, workload, horizon, warmup, seed, sim_kwargs
            )
            self._runs[key] = run
            if report is not None:
                self._reports.setdefault(key, report)
        return self._runs[key]

    def report(self, workload: str, **overrides) -> AnalysisReport:
        key = self._memory_key(workload, overrides)
        if key not in self._reports:
            horizon, warmup, seed, sim_kwargs = self._resolved(overrides)
            if key in self._runs:
                # Run already in memory (possibly mid-upgrade from a
                # report-less disk entry): analyze it and persist the
                # completed pair.
                run = self._runs[key]
                report = analyze_trace(run)
                if self.cache is not None:
                    cache_key = self.cache.run_key(
                        workload, horizon, warmup, seed, sim_kwargs
                    )
                    self.cache.store(cache_key, {"run": run, "report": report})
            else:
                run, report = load_or_run(
                    self.cache, workload, horizon, warmup, seed, sim_kwargs,
                    analyze=True,
                )
                self._runs[key] = run
            self._reports[key] = report
        return self._reports[key]

    def note_private_run(self, run: TracedRun) -> TracedRun:
        """Register an experiment-private run for sanitizer reporting."""
        self.private_runs.append(run)
        return run

    def all_runs(self) -> List[TracedRun]:
        """Every distinct run behind this context's exhibits."""
        seen = set()
        out = []
        for run in list(self._runs.values()) + self.private_runs:
            if id(run) in seen:
                continue
            seen.add(id(run))
            out.append(run)
        return out

    # -- exhibit layer -------------------------------------------------
    def load_cached_exhibit(self, exhibit_id: str) -> Optional["Exhibit"]:
        """A previously-built exhibit from the disk cache, if any."""
        if self.cache is None or not self.cache_exhibits:
            return None
        payload = self.cache.load(self.cache.exhibit_key(exhibit_id, self.settings))
        if payload is None:
            return None
        exhibit = payload.get("exhibit")
        return exhibit if isinstance(exhibit, Exhibit) else None

    def store_cached_exhibit(self, exhibit_id: str, exhibit: "Exhibit") -> None:
        if self.cache is not None and self.cache_exhibits:
            self.cache.store(
                self.cache.exhibit_key(exhibit_id, self.settings),
                {"exhibit": exhibit},
            )


@dataclass
class Exhibit:
    """One reproduced table or figure, measured vs paper."""

    exhibit_id: str
    title: str
    columns: Sequence[str]
    rows: List[Sequence] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    # Sanitizer coverage of the runs behind the table (one summary line
    # per checked run); empty on unchecked runs so the default text
    # rendering stays byte-identical.
    check_coverage: List[str] = field(default_factory=list)

    def add_row(self, *values) -> None:
        self.rows.append(values)

    def note(self, text: str) -> None:
        self.notes.append(text)

    def add_check_coverage(self, *runs) -> None:
        """Attach the CheckReport coverage of checked ``runs``."""
        for run in runs:
            report = run.check_report
            if report is not None:
                self.check_coverage.append(report.summary())

    # ------------------------------------------------------------------
    def to_text(self) -> str:
        """Render an aligned text table."""
        header = [str(c) for c in self.columns]
        body = [
            [self._fmt(value) for value in row]
            for row in self.rows
        ]
        widths = [
            max(len(header[i]), *(len(r[i]) for r in body)) if body else len(header[i])
            for i in range(len(header))
        ]
        lines = [f"== {self.exhibit_id}: {self.title} =="]
        lines.append("  ".join(h.ljust(w) for h, w in zip(header, widths)))
        lines.append("  ".join("-" * w for w in widths))
        for row in body:
            lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)))
        for note in self.notes:
            lines.append(f"  note: {note}")
        # getattr: exhibits unpickled from pre-coverage cache entries
        # have no such attribute.
        for line in getattr(self, "check_coverage", ()) or ():
            lines.append(f"  check: {line}")
        return "\n".join(lines)

    @staticmethod
    def _fmt(value) -> str:
        if isinstance(value, float):
            return f"{value:.1f}"
        return str(value)

    # ------------------------------------------------------------------
    # Structured output
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict:
        """JSON-ready structure mirroring :meth:`to_text` content."""
        payload = {
            "schema_version": EXHIBIT_SCHEMA_VERSION,
            "exhibit_id": self.exhibit_id,
            "title": self.title,
            "columns": [str(c) for c in self.columns],
            "rows": [list(row) for row in self.rows],
            "notes": list(self.notes),
        }
        coverage = getattr(self, "check_coverage", None)
        if coverage:
            payload["check_coverage"] = list(coverage)
        return payload

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, payload: Dict) -> "Exhibit":
        """Rebuild an exhibit from :meth:`to_dict` output.

        Accepts both the current schema and version-1 payloads (which
        predate the ``schema_version`` field); an unknown newer version
        raises so stale readers fail loudly instead of dropping fields.
        """
        version = payload.get("schema_version", 1)
        if not 1 <= version <= EXHIBIT_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported exhibit schema_version {version!r} "
                f"(this reader understands 1..{EXHIBIT_SCHEMA_VERSION})"
            )
        exhibit = cls(
            payload["exhibit_id"],
            payload["title"],
            tuple(payload["columns"]),
            rows=[tuple(row) for row in payload.get("rows", [])],
            notes=list(payload.get("notes", [])),
        )
        exhibit.check_coverage = list(payload.get("check_coverage", []))
        return exhibit

    def row_dict(self, key_column: int = 0) -> Dict[str, Sequence]:
        return {str(row[key_column]): row for row in self.rows}
