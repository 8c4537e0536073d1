"""Stable public API for the reproduction.

Everything a user (or an in-repo test/example/benchmark) needs lives
behind this one module, so the internal layout — ``repro.sim._session``,
``repro.experiments._base`` and friends — can keep moving without
breaking callers:

>>> from repro import api
>>> run = api.run("pmake", horizon_ms=5.0, warmup_ms=30.0)
>>> report = api.report("pmake", horizon_ms=5.0, warmup_ms=30.0)

Machine selection is first-class: pass ``machine="cpus16"`` (a preset
name from :mod:`repro.machines`, or a full :class:`MachineParams`) to
:func:`run`, :func:`report` and :func:`exhibit` to target a scaled
geometry; the 4D/340 (``"4d340"``) stays the default and keys
identically to pre-preset runs.

:func:`run` and :func:`report` validate their keyword arguments against
:class:`RunSettings` plus the :class:`Simulation` constructor, so a typo
fails loudly instead of being swallowed. For checked runs pass
``check=True`` (or ``check="deep"`` for block-sweep attribution) and
inspect ``run.check_report``.

:func:`exhibit` builds (or loads, cache-warm) one of the paper's
tables/figures; ``exhibit("table1").to_json()`` is byte-identical to
what ``repro.service`` serves for ``GET /exhibits/table1``.

Engine fidelity tiers: pass ``fidelity="mixed"`` (optionally with
``fast_forward=N`` atomic references) to fast-forward warmup on the
functional-first engine and hand off to the detailed engine at the
measurement seam; ``fidelity="atomic"`` runs functional-first
throughout (no stall accounting, incompatible with ``check=``, raises
:class:`UnsupportedFidelityError`). :func:`validate_workload` measures
the mixed tier's statistical drift against a detailed run and asserts
the configured error bounds.
"""

from __future__ import annotations

import inspect
from typing import Optional, Union

from repro.analysis.report import AnalysisReport, analyze_trace
from repro.common.params import MachineParams
from repro.experiments._base import (
    Exhibit,
    ExperimentContext,
    RunSettings,
    resolve_settings,
)
from repro.fidelity import FIDELITY_LEVELS, UnsupportedFidelityError
from repro.fidelity.checkpoint import EngineCheckpoint
from repro.fidelity.validate import FidelityValidation, validate_workload
from repro.kernel.kernel import KernelTuning
from repro.machines import (
    MACHINES,
    MachinePreset,
    machine_for_cpus,
    resolve_machine,
)
from repro.sanitizers import CheckReport, CheckRegistry
from repro.service import (
    JobManager,
    MetricsRegistry,
    ServiceApp,
    ServiceConfig,
    serve,
)
from repro.sim._session import Simulation, TracedRun
from repro.sim.runcache import RunCache
from repro.workloads import Workload, make_workload

__all__ = [
    "AnalysisReport",
    "CheckReport",
    "CheckRegistry",
    "EngineCheckpoint",
    "Exhibit",
    "ExperimentContext",
    "FIDELITY_LEVELS",
    "FidelityValidation",
    "JobManager",
    "KernelTuning",
    "MACHINES",
    "MachineParams",
    "MachinePreset",
    "MetricsRegistry",
    "RunCache",
    "RunSettings",
    "ServiceApp",
    "ServiceConfig",
    "Simulation",
    "TracedRun",
    "UnsupportedFidelityError",
    "Workload",
    "analyze_trace",
    "exhibit",
    "list_exhibits",
    "machine_for_cpus",
    "make_workload",
    "report",
    "resolve_machine",
    "run",
    "serve",
    "validate_workload",
]

# Keywords run()/report() accept: the RunSettings fields (horizon_ms,
# warmup_ms, seed, check, ...) plus the Simulation constructor's keyword
# parameters (tuning, layout, ...). Computed once at import.
_SETTINGS_FIELDS = frozenset(RunSettings.__dataclass_fields__)
_SIM_KWARGS = frozenset(
    name
    for name, p in inspect.signature(Simulation.__init__).parameters.items()
    if p.kind == p.KEYWORD_ONLY
)
_VALID_KWARGS = _SETTINGS_FIELDS | _SIM_KWARGS


def _validate(settings: dict) -> None:
    unknown = sorted(set(settings) - _VALID_KWARGS)
    if unknown:
        hint = "; pick a geometry with machine=" if "params" in unknown else ""
        raise TypeError(
            f"unknown setting(s) {', '.join(map(repr, unknown))}; "
            f"valid names: {', '.join(sorted(_VALID_KWARGS))}{hint}"
        )


def run(
    workload: Union[str, Workload],
    *,
    check: Union[bool, str] = False,
    machine: Optional[Union[str, MachineParams]] = None,
    **settings,
) -> TracedRun:
    """Build a machine, run ``workload`` under the monitor, return the run.

    Accepts the :class:`RunSettings` fields (``horizon_ms``,
    ``warmup_ms``, ``seed``) and the :class:`Simulation` keyword
    arguments (``machine``, ``tuning``, ``layout``, ...); anything else
    raises :class:`TypeError` listing the valid names. ``machine`` is a
    preset name from :data:`MACHINES` (``"cpus16"``) or a full
    :class:`MachineParams`. With
    ``check=True`` the sanitizers run and ``run.check_report`` carries
    their verdict; ``check="deep"`` additionally attributes
    ``dread_block``/``dwrite_block`` sweeps to kernel structures.
    """
    _validate(settings)
    defaults = RunSettings()
    horizon = settings.pop("horizon_ms", defaults.horizon_ms)
    warmup = settings.pop("warmup_ms", defaults.warmup_ms)
    seed = settings.pop("seed", defaults.seed)
    sim = Simulation(workload, machine=machine, seed=seed, check=check, **settings)
    return sim.run(horizon, warmup_ms=warmup)


def report(
    workload: Union[str, Workload],
    *,
    run: Optional[TracedRun] = None,
    machine: Optional[Union[str, MachineParams]] = None,
    **settings,
) -> AnalysisReport:
    """Run ``workload`` (or analyze ``run``) and return its analysis.

    Same keyword validation (and ``machine=`` selection) as :func:`run`;
    pass an existing :class:`TracedRun` as ``run=`` to analyze it
    without re-simulating.
    """
    _validate(settings)
    if run is None:
        check = settings.pop("check", False)
        run = _run(workload, check=check, machine=machine, **settings)
    elif machine is not None:
        raise TypeError("machine= selects a run; pass either run= or machine=")
    return analyze_trace(run)


_run = run  # `report` shadows the name with its keyword argument


def exhibit(
    exhibit_id: str,
    *,
    ctx: Optional[ExperimentContext] = None,
    cache: Optional[Union[RunCache, bool]] = None,
    **settings,
) -> Exhibit:
    """Build (or load, cache-warm) one of the paper's exhibits.

    Accepts the :class:`RunSettings` fields as keyword arguments —
    including ``machine="cpus16"`` (a preset name or
    :class:`MachineParams`) to build the exhibit on a scaled geometry;
    an unknown name raises :class:`TypeError`. A setting not passed comes
    from its env var (``REPRO_BENCH_HORIZON_MS``, ``REPRO_MACHINE``, ...)
    as it does for the CLI and the service, and a value no exhibit can
    be built from (``fidelity="atomic"``) raises :class:`ValueError`.
    By default the persistent run cache is used, so a previously built
    exhibit loads in milliseconds — the same storage and key the
    ``repro-experiments`` CLI and ``repro.service`` use, which is what
    makes ``exhibit("table1").to_json()`` byte-identical to the
    service's ``GET /exhibits/table1`` body. Pass ``cache=False`` to
    force a fresh build, or share a prepared ``ctx`` across calls.
    """
    from repro.experiments.registry import run_experiment

    if ctx is None:
        valid = frozenset(RunSettings.__dataclass_fields__)
        unknown = sorted(set(settings) - valid)
        if unknown:
            raise TypeError(
                f"unknown setting(s) {', '.join(map(repr, unknown))}; "
                f"valid names: {', '.join(sorted(valid))}"
            )
        if cache is None or cache is True:
            cache = RunCache()
        elif cache is False:
            cache = RunCache(enabled=False)
        ctx = ExperimentContext(resolve_settings(settings), cache=cache)
    elif settings or cache is not None:
        raise TypeError("pass either ctx= or settings/cache, not both")
    return run_experiment(exhibit_id, ctx)


def list_exhibits() -> "list[dict]":
    """Machine-readable metadata for every registered exhibit."""
    from repro.experiments.registry import list_exhibit_metadata

    return list_exhibit_metadata()
