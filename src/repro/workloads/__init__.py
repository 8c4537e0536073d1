"""Generative models of the paper's workloads (Section 3) and beyond.

The paper's trio:

- :mod:`repro.workloads.pmake` — *Pmake*: a parallel make of 56 C files,
  at most 8 jobs at once; I/O heavy with compute-intensive compiler
  phases.
- :mod:`repro.workloads.multpgm` — *Multpgm*: Mp3d (a 4-process particle
  simulator with heavy lock traffic) + Pmake + five scripted ``ed``
  sessions fed by a simulated typist.
- :mod:`repro.workloads.oracle` — *Oracle*: a scaled-down TP1 database
  benchmark (10 branches, 100 tellers, 10,000 accounts) that fits in
  main memory.

Server-style extensions (Section 6's "different traffic shapes"):

- :mod:`repro.workloads.kv` — *KV*: Zipf-skewed get/put traffic over a
  keyspace far larger than the buffer cache.
- :mod:`repro.workloads.netserver` — *Netserver*: connection arrivals on
  the network CPU driving streams locks and file-serving reads.

Workload processes are generators yielding :mod:`~repro.workloads.actions`
objects; the user-mode engine (:mod:`repro.sim.usermode`) executes them.
"""

import inspect
from typing import Optional, Tuple

from repro.workloads.base import NetEvent, TtyEvent, Workload
from repro.workloads.pmake import PmakeWorkload
from repro.workloads.multpgm import MultpgmWorkload
from repro.workloads.oracle import OracleWorkload
from repro.workloads.kv import KvWorkload
from repro.workloads.netserver import NetserverWorkload

WORKLOADS = {}


def register_workload(name: str, cls) -> None:
    """Add a workload class under ``name`` (lowercase, unique).

    Rejects duplicates: silently shadowing an existing workload would
    redefine cached runs' meaning without changing their keys.
    """
    if name != name.lower():
        raise ValueError(f"workload names are lowercase; got {name!r}")
    if name in WORKLOADS:
        raise ValueError(
            f"workload {name!r} is already registered "
            f"({WORKLOADS[name].__module__}.{WORKLOADS[name].__qualname__})"
        )
    WORKLOADS[name] = cls


register_workload("pmake", PmakeWorkload)
register_workload("multpgm", MultpgmWorkload)
register_workload("oracle", OracleWorkload)
register_workload("kv", KvWorkload)
register_workload("netserver", NetserverWorkload)


def workload_arg_names(name: Optional[str] = None) -> Tuple[str, ...]:
    """The keyword arguments registered workload ``name``'s constructor
    takes, sorted; without ``name``, those any registered workload takes."""
    classes = WORKLOADS.values() if name is None else [WORKLOADS[name]]
    return tuple(sorted({
        arg for cls in classes
        for arg in list(inspect.signature(cls.__init__).parameters)[1:]
    }))


def canonical_workload_args(args) -> tuple:
    """Workload kwargs as a sorted ``(name, value)`` pair tuple.

    The canonical form is hashable, orderable and has a deterministic
    ``repr`` — the three properties the run/exhibit cache keys and the
    in-memory experiment caches need. Accepts a dict, any iterable of
    pairs, or None/empty (canonicalized to ``()``, which every cache
    key normalizes away).
    """
    if not args:
        return ()
    items = dict(args).items() if not isinstance(args, dict) else args.items()
    return tuple(sorted(((str(k), v) for k, v in items), key=lambda kv: kv[0]))


def parse_workload_args(pairs) -> tuple:
    """Parse ``["k=v", ...]`` strings into canonical workload args.

    The shared parser behind the CLI's ``--workload-arg`` and the
    service's ``?workload_arg=`` query parameter. Values parse as int,
    then float, then stay strings, so ``skew=1.2`` and ``scale=standard``
    both do what they look like. Raises :class:`ValueError` on a pair
    without ``=`` or with an empty name.
    """
    parsed = {}
    for pair in pairs or ():
        name, sep, value = str(pair).partition("=")
        if not sep or not name:
            raise ValueError(
                f"workload arg {pair!r} is not of the form name=value"
            )
        for convert in (int, float):
            try:
                value = convert(value)
                break
            except ValueError:
                continue
        parsed[name] = value
    return canonical_workload_args(parsed)


def make_workload(name: str, **kwargs) -> Workload:
    """Instantiate a registered workload by name (case-insensitive).

    ``kwargs`` are the workload's tuning knobs (``KvWorkload(skew=...)``
    and friends). An unknown name raises :class:`ValueError` listing
    every registered workload; a knob the workload does not take raises
    one listing the knobs it does.
    """
    key = name.lower() if isinstance(name, str) else name
    cls = WORKLOADS.get(key)
    if cls is None:
        raise ValueError(
            f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}"
        )
    taken = workload_arg_names(key)
    unknown = ", ".join(map(repr, sorted(set(kwargs) - set(taken))))
    if unknown:
        raise ValueError(f"workload {key!r} takes no argument {unknown}; "
                         f"it takes {', '.join(taken) or 'none'}")
    return cls(**kwargs)


__all__ = [
    "Workload",
    "TtyEvent",
    "NetEvent",
    "PmakeWorkload",
    "MultpgmWorkload",
    "OracleWorkload",
    "KvWorkload",
    "NetserverWorkload",
    "WORKLOADS",
    "canonical_workload_args",
    "make_workload",
    "parse_workload_args",
    "register_workload",
    "workload_arg_names",
]
