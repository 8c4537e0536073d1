"""Runtime invariant checking for the simulated kernel and memory system.

The paper's subject is OS synchronization and coherence behaviour; a
silent modelling bug in either would skew every exhibit without failing
a single test. This package plays the role lockdep/TSan-style tooling
plays in production kernels: it watches a run from the inside and
reports invariant violations instead of wrong numbers.

Three checkers, one façade:

- :mod:`~repro.sanitizers.lockdep` — online lock-order graph over the
  Table 11 lock inventory with cycle detection, plus held-lock checks
  at context switch and interrupt entry;
- :mod:`~repro.sanitizers.races` — maps each Table 3 kernel structure
  to its protecting lock and flags accesses made without that lock held
  on the accessing CPU;
- :mod:`~repro.sanitizers.coherence` — MESI-style invariants on the
  memory system (single writer, snoop-invalidate really clears remote
  tags, I-caches only invalidated by explicit software flush);
- :class:`~repro.sanitizers.registry.CheckRegistry` — builds, installs
  and finalizes the checkers; near-zero overhead when absent (every
  hook is a ``None``-default attribute test).

Enable with ``Simulation(..., check=True)``, ``--check`` on the
experiments CLI, or ``REPRO_CHECK=1`` in the environment.
"""

from repro.sanitizers.registry import (
    CheckRegistry,
    check_enabled_by_env,
    deep_check_enabled_by_env,
)
from repro.sanitizers.report import CheckReport, Violation

__all__ = [
    "CheckRegistry",
    "CheckReport",
    "Violation",
    "check_enabled_by_env",
    "deep_check_enabled_by_env",
]
