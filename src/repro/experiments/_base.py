"""Experiment infrastructure: run settings, shared runs, the one exhibit
path and exhibit formatting."""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass, field
from typing import (
    Any, Callable, Dict, Iterable, List, Mapping, NamedTuple, Optional,
    Sequence, Tuple, Union,
)

from repro.analysis.report import AnalysisReport, analyze_trace
from repro.fidelity import (
    FIDELITY_LEVELS, validate_fast_forward, validate_fidelity,
)
from repro.machines import (
    DEFAULT_MACHINE, MACHINES, MachineSpec, canonical_machine, machine_for_cpus,
    resolve_machine,
)
from repro.sanitizers import (
    CheckReport, check_enabled_by_env, deep_check_enabled_by_env,
)
from repro.sim.runcache import RunCache, load_or_run
from repro.sim._session import Simulation, TracedRun, default_tuning
from repro.workloads import (
    canonical_workload_args, parse_workload_args, workload_arg_names,
)

# Exhibit.to_dict() payload schema. Version 2 added the explicit
# "schema_version" field itself (version-1 payloads carry none);
# from_dict() accepts both.
EXHIBIT_SCHEMA_VERSION = 2


# The RunSettings fields that are Simulation keyword arguments. Each one
# changes a run's bytes, so each keys runs, exhibits and service jobs
# whenever it differs from its default.
_ENGINE_FIELDS = ("check", "fidelity", "fast_forward", "machine", "workload_args")


@dataclass(frozen=True)
class RunSettings:
    """Standard simulation settings shared by the experiments.

    80 ms of traced window after 500 ms of warmup reaches the workloads'
    steady state (all binaries resident, buffer cache warm, scheduler
    mixing) while keeping a full experiment sweep to minutes of host
    time. Individual experiments override where they need to: the
    sweeps that simulate one whole machine per point (Figure 11,
    ``figure-scaling``, ``figure-skew``) run at :meth:`sweep_window`.

    This is the one place run settings are resolved: construction
    validates and canonicalizes the engine fields and folds
    ``REPRO_CHECK`` into ``check``, and :meth:`sim_kwargs` is what every
    run, cache key, service job and experiment reads. The flags, env
    vars and query params that set each field are its row in
    :data:`SETTINGS_TABLE`, read by :func:`resolve_settings`.
    """

    horizon_ms: float = 80.0
    warmup_ms: float = 500.0
    seed: int = 7
    # Run with the repro.sanitizers invariant checkers installed;
    # ``"deep"`` also attributes block sweeps.
    check: Union[bool, str] = False
    # Engine fidelity tier and the mixed tier's atomic reference budget.
    fidelity: str = "detailed"
    fast_forward: int = 0
    # Machine geometry: a preset name from :mod:`repro.machines` or a
    # full MachineParams, canonicalized so a preset's name and its
    # literal params are equal.
    machine: MachineSpec = DEFAULT_MACHINE
    # Workload tuning knobs, canonicalized to a sorted (name, value)
    # pair tuple.
    workload_args: tuple = ()

    def __post_init__(self) -> None:
        # Simulation installs the sanitizers whenever REPRO_CHECK is set,
        # so the environment is part of the settings, not a side channel.
        check = self.check
        if deep_check_enabled_by_env():
            check = "deep"
        elif check_enabled_by_env() and not check:
            check = True
        if check not in (False, True, "deep"):
            raise ValueError(
                f"check must be True, False or 'deep', not {self.check!r}"
            )
        canonical = {
            "check": check if check == "deep" else bool(check),
            "fidelity": validate_fidelity(self.fidelity),
            "fast_forward": validate_fast_forward(self.fast_forward, self.fidelity),
            "machine": canonical_machine(self.machine),
            "workload_args": canonical_workload_args(self.workload_args),
        }
        for name, _value in canonical["workload_args"]:
            if name not in workload_arg_names():
                raise SettingsError(
                    f"no workload takes the argument {name!r}",
                    workload_arg_names(),
                )
        for name, value in canonical.items():
            object.__setattr__(self, name, value)

    def sim_kwargs(self) -> Dict[str, Any]:
        """The engine fields that differ from their defaults, as
        :class:`~repro.sim._session.Simulation` keyword arguments.

        Run keys, exhibit keys, service jobs and
        :meth:`ExperimentContext.private_run` all read the engine
        settings here.
        Defaults are left out, which keeps every key made before a field
        existed byte-identical.
        """
        return {
            name: getattr(self, name)
            for name, default in _ENGINE_DEFAULTS.items()
            if getattr(self, name) != default
        }

    def cache_repr(self) -> str:
        """The repr used for exhibit cache keys.

        Renders the original four-field dataclass repr byte for byte,
        then the other non-default engine fields in field order, so
        default-settings keys never change.
        """
        extra = "".join(
            f", {name}={value!r}"
            for name, value in self.sim_kwargs().items()
            if name != "check"
        )
        return (
            f"RunSettings(horizon_ms={self.horizon_ms!r}, "
            f"warmup_ms={self.warmup_ms!r}, seed={self.seed!r}, "
            f"check={self.check!r}{extra})"
        )

    def sweep_window(self) -> Tuple[float, float]:
        """``(horizon_ms, warmup_ms)`` for a whole-machine-per-point sweep:
        an explicit (non-default) value wins, else 30 ms after 250 ms."""
        horizon, warmup = self.horizon_ms, self.warmup_ms
        return (
            30.0 if horizon == RunSettings.horizon_ms else horizon,
            250.0 if warmup == RunSettings.warmup_ms else warmup,
        )


_ENGINE_DEFAULTS = {
    name: RunSettings.__dataclass_fields__[name].default
    for name in _ENGINE_FIELDS
}


# ----------------------------------------------------------------------
# The settings table: every user-facing spelling of every field
# ----------------------------------------------------------------------
class SettingsError(ValueError):
    """A rejected setting. ``args[0]`` is the bare message, which the
    service's 400 body carries beside ``choices``; ``str()`` adds them."""

    def __init__(self, message: str, choices: Sequence[str] = ()):
        super().__init__(message)
        self.choices = list(choices)

    def __str__(self) -> str:
        if not self.choices:
            return self.args[0]
        return f"{self.args[0]}; choose from {', '.join(self.choices)}"


@dataclass(frozen=True)
class Setting:
    """One :class:`RunSettings` field (``name``, also the argparse dest)
    and every spelling that sets it.

    ``parse`` turns one flag, env or query string (a list of them when
    ``many``) into the value; without it the flag is a switch storing
    ``const``. ``alias`` is a second flag: a switch (``--check-deep``)
    refines the flag and wins over it, one taking a value (``--cpus N``)
    excludes it.
    """

    name: str
    flag: str
    help: str
    parse: Optional[Callable[[Any], Any]] = None
    const: Any = True
    choices: Tuple[str, ...] = ()
    env: Optional[str] = None
    query: Optional[str] = None
    metavar: Optional[str] = None
    many: bool = False
    alias: Optional["Setting"] = None


# Adding a knob is one row here (plus its RunSettings field).
SETTINGS_TABLE: Tuple[Setting, ...] = (
    Setting("horizon_ms", "--horizon-ms", "traced window per simulation, ms",
            float, env="REPRO_BENCH_HORIZON_MS", metavar="MS"),
    Setting("warmup_ms", "--warmup-ms", "warmup before the traced window, ms",
            float, env="REPRO_BENCH_WARMUP_MS", metavar="MS"),
    Setting("seed", "--seed", "simulation seed", int),
    # RunSettings itself folds REPRO_CHECK in, at every construction.
    Setting("check", "--check",
            "run with the repro.sanitizers invariant checkers (lockdep, "
            "races, coherence, LL/SC) and fail on any violation "
            "(also: REPRO_CHECK=1)", env="REPRO_CHECK",
            alias=Setting("check_deep", "--check-deep",
                          "--check plus per-block attribution of dread_block/"
                          "dwrite_block sweeps (also: REPRO_CHECK=deep)",
                          const="deep")),
    # Sorted choices: the order the service's 400 body lists them in.
    Setting("fidelity", "--fidelity",
            "engine tier: 'detailed' (exact), or 'mixed' (atomic warmup, "
            "detailed measured window); 'atomic' (functional-first, no "
            "trace) is for Simulation-level use, so exhibits reject it",
            str, choices=tuple(sorted(FIDELITY_LEVELS)),
            env="REPRO_FIDELITY", query="fidelity"),
    Setting("fast_forward", "--fast-forward",
            "mixed tier: hand off to the detailed engine after REFS atomic "
            "references instead of at the warmup seam",
            int, env="REPRO_FAST_FORWARD", query="fast_forward", metavar="REFS"),
    Setting("machine", "--machine",
            f"machine preset from repro.machines: {', '.join(MACHINES)}",
            str, choices=tuple(MACHINES), env="REPRO_MACHINE", query="machine",
            metavar="NAME",
            alias=Setting("cpus", "--cpus",
                          "shorthand for --machine: the preset with exactly N CPUs",
                          lambda text: machine_for_cpus(int(text)), metavar="N")),
    Setting("workload_args", "--workload-arg",
            "workload tuning knob (repeatable), e.g. --workload-arg skew=1.2; "
            "applies to every workload the exhibit runs and folds into the "
            "cache keys",
            parse_workload_args, query="workload_arg", metavar="K=V", many=True),
)

_NOUNS = {int: "an integer", float: "a number"}


def _rows(names: Optional[Sequence[str]]) -> List[Setting]:
    return [row for row in SETTINGS_TABLE if names is None or row.name in names]


def _parse(spelling: Setting, raw: Any) -> Any:
    try:
        return spelling.parse(raw)
    except ValueError:
        noun = _NOUNS.get(spelling.parse)
        if noun is None:
            raise
        raise SettingsError(f"{spelling.name} must be {noun}") from None


def add_settings_arguments(
    parser,
    names: Optional[Sequence[str]] = None,
    base: Optional[RunSettings] = None,
    aliases: bool = True,
) -> None:
    """Add the flags of the table's rows (or of ``names``) to an argparse
    ``parser``. Each defaults to None, "not given", so that
    :func:`resolve_settings` falls back to the env var, then ``base``."""
    base = base if base is not None else RunSettings()
    for row in _rows(names):
        alias = row.alias if aliases else None
        target = parser
        if alias is not None and alias.parse is not None:
            target = parser.add_mutually_exclusive_group()
        for spelling in filter(None, (row, alias)):
            if spelling.parse is None:
                kwargs = {"action": "store_const", "const": spelling.const}
            else:
                kwargs = {
                    "action": "append" if spelling.many else "store",
                    "choices": spelling.choices or None,
                    "metavar": spelling.metavar,
                }
            help_text = spelling.help
            if spelling is row and row.parse is not None and not row.many:
                env = f"${row.env} or " if row.env else ""
                help_text += f" (default: {env}{getattr(base, row.name)})"
            target.add_argument(
                spelling.flag, dest=spelling.name, help=help_text, **kwargs
            )


def resolve_settings(
    explicit: Optional[Mapping[str, Any]] = None,
    *,
    args=None,
    query: Optional[Mapping[str, List[str]]] = None,
    base: Optional[RunSettings] = None,
    env: Optional[Mapping[str, str]] = None,
    names: Optional[Sequence[str]] = None,
) -> RunSettings:
    """The one settings chain behind every entry point.

    Each field of the table (or of ``names``) takes its explicit value,
    else its env var (``os.environ`` unless ``env`` is given), else
    ``base``'s value. An explicit value comes typed (``explicit``, the
    keyword arguments) or as strings to parse: flags added by
    :func:`add_settings_arguments` (``args``) or a ``parse_qs`` query.
    Raises :class:`ValueError` (a :class:`SettingsError` where there are
    choices) on a value no exhibit can be built from.
    """
    base = base if base is not None else RunSettings()
    env = os.environ if env is None else env
    values = {}
    for row in _rows(names):
        value = (explicit or {}).get(row.name)
        for spelling in filter(None, (row.alias, row) if args is not None else ()):
            raw = getattr(args, spelling.name, None)
            if raw is not None:  # the alias wins
                value = raw if spelling.parse is None else _parse(spelling, raw)
                break
        if query is not None and row.query in query:
            raw = query[row.query]
            value = _parse(row, raw if row.many else raw[0])
        # A switch's env var is folded by RunSettings itself.
        if value is None and row.parse is not None and env.get(row.env or ""):
            value = _parse(row, env[row.env])
        if value is None:
            continue
        if row.choices and isinstance(value, str) and value not in row.choices:
            raise SettingsError(f"unknown {row.name} {value!r}", row.choices)
        values[row.name] = value
    settings = dataclasses.replace(base, **values)
    if settings.fidelity == "atomic":
        # Atomic runs carry no monitor trace: every exhibit built from
        # one would render all-zero measured rows.
        if settings.check:
            raise SettingsError("--check requires fidelity 'detailed' or 'mixed'")
        raise SettingsError(
            "exhibits need a traced run; use fidelity=mixed", ["detailed", "mixed"]
        )
    return settings


class CheckVerdict(NamedTuple):
    """What ``--check`` reports of one checked run, small enough for a
    pool worker to return in place of the run."""

    report: CheckReport
    crosscheck: Tuple[str, ...]  # prefixed with the run's workload
    crosscheck_ok: bool


class ExhibitBuild(NamedTuple):
    """What :meth:`ExperimentContext.build_exhibit` returns."""

    exhibit: "Exhibit"
    counters: Dict[str, int]  # run-cache counters moved, for add_stats()
    verdicts: List[CheckVerdict]


def check_verdicts(pairs: Iterable) -> List[CheckVerdict]:
    """The verdict of each checked run in ``(run, report)`` ``pairs``: its
    sanitizer report, and the checker's bus accounting crosschecked
    against the monitor's recorded transactions in the run's analysis
    report. Only a run paired with no report is analyzed here."""
    verdicts = []
    for run, report in pairs:
        if run.check_report is not None:
            if report is None:
                report = analyze_trace(run, keep_imiss_stream=False)
            lines = tuple(
                f"  {run.workload_name}: {line}"
                for line in report.crosscheck_lines()
            )
            verdicts.append(
                CheckVerdict(run.check_report, lines, report.crosscheck_ok())
            )
    return verdicts


def _experiment(exhibit_id: str) -> Tuple[str, Any]:
    """The canonical id and the module of a registered exhibit or alias;
    ValueError naming the choices for any other id."""
    # The registry imports every experiment module: import it on first
    # use, so importing this module stays light.
    from repro.experiments.registry import get_experiment, resolve_exhibit_id

    return resolve_exhibit_id(exhibit_id), get_experiment(exhibit_id)


class ExperimentContext:
    """Holds one traced run + analysis per workload per settings, and
    each exhibit built or loaded at those settings.

    One map, keyed by workload and resolved :class:`RunSettings`, holds
    each ``(run, report)`` pair that :meth:`run` and :meth:`report`
    hand out. A :class:`RunCache`, when supplied, sits behind it, so a
    fresh process reloads finished runs instead of re-simulating them.
    A context with a warm disk cache hands out runs and reports
    byte-identical to a cold serial context.

    The context is also the one exhibit path: the CLI, the pool
    workers, the service and the charts obtain every exhibit through
    :meth:`exhibit` (or :meth:`lookup_exhibit`, then
    :meth:`build_exhibit`), which keep it in :attr:`exhibit_cache` and,
    when :attr:`cache_exhibits` is set, on disk.
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
        self._runs: Dict[
            Tuple[str, RunSettings], Tuple[TracedRun, AnalysisReport]
        ] = {}
        self.exhibit_cache: Dict[str, "Exhibit"] = {}
        # The checked runs private_run built, each paired with no report,
        # so the build's --check verdicts cover them too.
        self.private_runs: List[Tuple[TracedRun, None]] = []

    def _settings_for(self, overrides: Dict) -> RunSettings:
        """This context's settings with ``overrides`` applied.

        Only :class:`RunSettings` fields may be overridden; an unknown
        key raises instead of being silently forwarded (a typo'd
        ``horizon`` used to produce a run with default settings).
        """
        if not overrides:
            # Every lookup of an exhibit derivation: already resolved.
            return self.settings
        valid = RunSettings.__dataclass_fields__
        unknown = sorted(set(overrides) - set(valid))
        if unknown:
            raise TypeError(
                f"unknown override(s) {', '.join(map(repr, unknown))} for "
                f"ExperimentContext; valid names: {', '.join(valid)}"
            )
        return dataclasses.replace(self.settings, **overrides)

    def _entry(
        self, workload: str, overrides: Dict
    ) -> Tuple[TracedRun, AnalysisReport]:
        settings = self._settings_for(overrides)
        key = (workload, settings)
        if key not in self._runs:
            self._runs[key] = load_or_run(
                self.cache, workload, settings.horizon_ms,
                settings.warmup_ms, settings.seed, settings.sim_kwargs(),
            )
        return self._runs[key]

    def run(self, workload: str, **overrides) -> TracedRun:
        return self._entry(workload, overrides)[0]

    def report(self, workload: str, **overrides) -> AnalysisReport:
        return self._entry(workload, overrides)[1]

    def private_run(
        self,
        workload: str,
        *,
        cpus: Optional[int] = None,
        tuning: Optional[Mapping[str, Any]] = None,
        horizon_ms: Optional[float] = None,
        warmup_ms: Optional[float] = None,
        **simulation,
    ) -> TracedRun:
        """Simulate a variant of the measured machine that no run key
        names, at this context's settings, and never store it.

        ``cpus`` puts the context's machine geometry at that CPU count
        (a geometry equal to a preset is that preset, run queues
        included); ``tuning`` replaces fields of the tuning the run
        would otherwise get (:func:`~repro.sim._session.default_tuning`); a
        ``workload_args`` mapping merges over the context's; the window
        defaults to the context's; every other keyword (``layout=``)
        goes to :class:`~repro.sim._session.Simulation`. A checked run
        is kept in :attr:`private_runs` for the ``--check`` verdicts;
        an unchecked one would only pin its memory there.
        """
        settings = self.settings
        engine = settings.sim_kwargs()
        if "workload_args" in simulation:
            engine["workload_args"] = dict(
                settings.workload_args, **simulation.pop("workload_args")
            )
        if cpus is not None:
            engine["machine"] = dataclasses.replace(
                resolve_machine(settings.machine), num_cpus=cpus, network_cpu=None
            )
        if tuning is not None:
            engine["tuning"] = dataclasses.replace(
                default_tuning(workload, engine.get("machine")), **tuning
            )
        sim = Simulation(workload, seed=settings.seed, **engine, **simulation)
        run = sim.run(
            settings.horizon_ms if horizon_ms is None else horizon_ms,
            warmup_ms=settings.warmup_ms if warmup_ms is None else warmup_ms,
        )
        if sim.checks is not None:
            self.private_runs.append((run, None))
        return run

    # -- exhibit layer -------------------------------------------------
    def exhibit(self, exhibit_id: str) -> "Exhibit":
        """Exhibit ``exhibit_id`` (or an alias) at this context's
        settings: from :meth:`lookup_exhibit` if it is built, else from
        :meth:`build_exhibit`."""
        exhibit = self.lookup_exhibit(exhibit_id)
        if exhibit is None:
            exhibit = self.build_exhibit(exhibit_id).exhibit
        return exhibit

    def lookup_exhibit(self, exhibit_id: str) -> Optional["Exhibit"]:
        """The built exhibit from the memo or, when :attr:`cache_exhibits`
        is set, from the disk cache (then memoized); None if it must be
        built. An unknown id raises before any cache I/O."""
        exhibit_id, _module = _experiment(exhibit_id)
        if exhibit_id in self.exhibit_cache:
            return self.exhibit_cache[exhibit_id]
        if self.cache is None or not self.cache_exhibits:
            return None
        payload = self.cache.load(self.cache.exhibit_key(exhibit_id, self.settings))
        exhibit = (payload or {}).get("exhibit")
        if not isinstance(exhibit, Exhibit):
            return None
        self.exhibit_cache[exhibit_id] = exhibit
        return exhibit

    def build_exhibit(self, exhibit_id: str) -> ExhibitBuild:
        """Build the exhibit through its module's ``build``, without
        looking it up first (callers have), then store and memoize it.

        Returns the exhibit, the run-cache counters the build moved and
        the verdicts of the checked runs it obtained. Afterwards, even
        after a failed build, the context holds the runs it held before
        plus the base runs at its settings: every other run the build
        obtained (sweep points, variants) dies with it.
        """
        from repro.experiments.paperdata import WORKLOADS

        exhibit_id, module = _experiment(exhibit_id)
        held = set(self._runs)
        kept = held | {(workload, self.settings) for workload in WORKLOADS}
        private = len(self.private_runs)
        before = self.cache.stats() if self.cache is not None else {}
        try:
            exhibit = module.build(self)
            if self.cache is not None and self.cache_exhibits:
                self.cache.store(
                    self.cache.exhibit_key(exhibit_id, self.settings),
                    {"exhibit": exhibit},
                )
            self.exhibit_cache[exhibit_id] = exhibit
            verdicts = check_verdicts(
                [pair for key, pair in self._runs.items() if key not in held]
                + self.private_runs[private:]
            )
        finally:
            for key in [key for key in self._runs if key not in kept]:
                del self._runs[key]
            del self.private_runs[private:]
        counters = self.cache.moved_since(before) if self.cache is not None else {}
        return ExhibitBuild(exhibit, counters, verdicts)

    def keep_exhibit(
        self, exhibit_id: str, exhibit: "Exhibit",
        counters: Optional[Mapping[str, int]] = None,
    ) -> None:
        """Memoize an exhibit built on another context (a pool worker's,
        a service job's) and count the run-cache traffic its build
        moved, so :meth:`RunCache.stats` covers it."""
        self.exhibit_cache[_experiment(exhibit_id)[0]] = exhibit
        if counters and self.cache is not None:
            self.cache.add_stats(counters)


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
        for line in self.check_coverage:
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
        if self.check_coverage:
            payload["check_coverage"] = list(self.check_coverage)
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
