"""Persistent content-addressed cache for traced runs and exhibits.

Simulating a workload at the experiments' default settings costs tens of
seconds; the analysis pass costs seconds more. Every one of the paper's
exhibits is derived from the same three traced runs, yet each pytest
session, benchmark session and ``repro-experiments`` invocation used to
re-simulate them from scratch. This module keeps finished
:class:`~repro.sim._session.TracedRun` objects (plus their
:class:`~repro.analysis.report.AnalysisReport` and derived
:class:`~repro.experiments._base.Exhibit` tables) on disk so warm
invocations only pay deserialization.

Keying is *content addressed*: an entry's filename is a SHA-256 over the
workload name, the effective run settings, any simulation overrides, the
package version, and a digest of the simulator's own source files. Any
edit to ``src/repro`` (outside ``experiments/``) therefore invalidates
every cached run automatically; an edit anywhere in ``src/repro``
invalidates cached exhibits. There is no mutable metadata to go stale
and no manual invalidation step.

Safety properties:

- **atomic writes** — entries are written to a temp file in the cache
  directory and ``os.replace``d into place, so a killed process never
  leaves a truncated entry under the final name;
- **corruption tolerance** — an unreadable/unpicklable entry is treated
  as a miss (and unlinked), falling back to re-simulation;
- **escape hatches** — ``REPRO_NO_CACHE=1`` (or ``--no-cache`` in the
  CLI) disables the cache entirely; ``REPRO_CACHE_DIR`` (or
  ``--cache-dir``) relocates it from the default ``~/.cache/repro``;
- **cold-run dedup** — populating a missing entry is guarded by an
  advisory claim file (``<key>.lock``, created with ``O_EXCL`` so
  exactly one process wins). Losers wait for the winner's entry to
  appear instead of re-simulating the same key — which is what keeps a
  pool of service workers from doing N× the work on a thundering herd —
  and fall back to simulating themselves if the winner dies or stalls
  past the stale-lock horizon.

Pickling or unpickling a whole engine runs under :func:`young_gc_only`,
so the collector's full collections do not walk a half-built payload;
so do a simulation's run loop and its analysis.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import pickle
import tempfile
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, Optional, Tuple

_ENV_CACHE_DIR = "REPRO_CACHE_DIR"
_ENV_NO_CACHE = "REPRO_NO_CACHE"
_ENV_LOCK_WAIT = "REPRO_CACHE_LOCK_WAIT"

# A claim file older than this is presumed abandoned (holder crashed
# without the ``finally: release()``) and is broken by the next waiter.
STALE_CLAIM_S = 900.0

# Bump to shed all old entries when the on-disk payload layout changes.
_FORMAT = 1


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` if set, else ``~/.cache/repro``."""
    env = os.environ.get(_ENV_CACHE_DIR)
    if env:
        return Path(env).expanduser()
    return Path("~/.cache/repro").expanduser()


def cache_disabled_by_env() -> bool:
    value = os.environ.get(_ENV_NO_CACHE, "")
    return value not in ("", "0", "false", "no")


# ----------------------------------------------------------------------
# Source digests
# ----------------------------------------------------------------------
# A traced run's bytes are determined by the simulator sources; an
# exhibit's bytes additionally depend on the experiment modules. Digest
# the package accordingly, once per process.

_digest_memo: Dict[bool, str] = {}


def source_digest(include_experiments: bool = False) -> str:
    """SHA-256 over the package's ``.py`` files, hex-encoded.

    ``include_experiments=False`` covers everything that can change a
    simulation or its analysis (sim, kernel, memsys, workloads, and the
    layers they build on); ``True`` additionally folds in
    ``experiments/`` for exhibit-level entries.
    """
    if include_experiments in _digest_memo:
        return _digest_memo[include_experiments]
    import repro

    root = Path(repro.__file__).resolve().parent
    hasher = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        if not include_experiments and rel.startswith("experiments/"):
            continue
        hasher.update(rel.encode())
        hasher.update(path.read_bytes())
    digest = hasher.hexdigest()
    _digest_memo[include_experiments] = digest
    return digest


def _package_version() -> str:
    import repro

    return getattr(repro, "__version__", "0")


# ----------------------------------------------------------------------
# Young-generation GC around engine (un)pickling, runs and analyses
# ----------------------------------------------------------------------
# Unpickling an engine creates up to 1.4M tracked objects (oracle's run
# at 5 ms after 30 ms), and pickling one walks as many. A full
# collection started meanwhile walks that half-built graph and frees
# nothing, since all of it is reachable. The same holds inside
# Simulation._run_loop and analyze_trace: a finished engine dies by
# refcount (repro.common.backref), so there is no cyclic garbage for a
# full collection to find. Young collections stay on:
# they untrack the int-only tuples in batches small enough to stay in
# the CPU cache, where switching the collector off would leave them all
# to the first collection after the block. The thresholds are global to
# the process and threads may nest blocks, so a lock guards the depth
# and the thresholds the outermost entry saved.

_GC_NEVER = 2**31 - 1  # the largest threshold gc.set_threshold accepts
_young_gc_lock = threading.Lock()
_young_gc_depth = 0
_young_gc_saved: Tuple[int, ...] = ()


@contextmanager
def young_gc_only() -> Iterator[None]:
    """Run the block with automatic collections limited to generation 0.

    The outermost block saves ``gc.get_threshold()`` and restores it on
    exit; ``gc.isenabled()`` is never touched.
    """
    global _young_gc_depth, _young_gc_saved
    with _young_gc_lock:
        if _young_gc_depth == 0:
            _young_gc_saved = gc.get_threshold()
            gc.set_threshold(_young_gc_saved[0], _GC_NEVER, _GC_NEVER)
        _young_gc_depth += 1
    try:
        yield
    finally:
        with _young_gc_lock:
            _young_gc_depth -= 1
            if _young_gc_depth == 0:
                gc.set_threshold(*_young_gc_saved)


# ----------------------------------------------------------------------
# The cache
# ----------------------------------------------------------------------
class RunCache:
    """Content-addressed pickle store under one directory.

    Payloads are plain dicts; the two entry kinds used today are

    - run entries: ``{"run": TracedRun, "report": AnalysisReport}``
    - exhibit entries: ``{"exhibit": Exhibit}``
    """

    def __init__(self, cache_dir=None, enabled: bool = True):
        self.cache_dir = Path(cache_dir).expanduser() if cache_dir else default_cache_dir()
        self.enabled = enabled and not cache_disabled_by_env()
        self.hits = 0
        self.misses = 0
        self.stores = 0
        # probes = every load() attempt (hits + misses); dedup_hits =
        # cold runs avoided by waiting out another process's claim.
        self.probes = 0
        self.dedup_hits = 0

    # -- keying --------------------------------------------------------
    @staticmethod
    def _hash_material(material: Dict[str, Any]) -> str:
        blob = json.dumps(material, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:40]

    def run_key(
        self,
        workload: str,
        horizon_ms: float,
        warmup_ms: float,
        seed: int,
        sim_kwargs: Optional[Dict[str, Any]] = None,
    ) -> str:
        """Key for one traced run at fully-resolved settings.

        ``sim_kwargs`` are :meth:`RunSettings.sim_kwargs` (the engine
        fields that differ from their defaults), each keyed by its
        ``repr``: deterministic for the bools, strings, ints, pair
        tuples and :class:`MachineParams` those fields hold, and changed
        whenever a value is.
        """
        material = {
            "format": _FORMAT,
            "kind": "run",
            "workload": workload,
            "horizon_ms": horizon_ms,
            "warmup_ms": warmup_ms,
            "seed": seed,
            "overrides": {
                name: repr(value) for name, value in (sim_kwargs or {}).items()
            },
            "version": _package_version(),
            "sources": source_digest(include_experiments=False),
        }
        return "run-" + self._hash_material(material)

    def exhibit_key(self, exhibit_id: str, settings) -> str:
        # cache_repr() keeps default-settings keys identical to the keys
        # from before the fidelity/machine/workload-args fields existed.
        material = {
            "format": _FORMAT,
            "kind": "exhibit",
            "exhibit_id": exhibit_id,
            "settings": settings.cache_repr(),
            "version": _package_version(),
            "sources": source_digest(include_experiments=True),
        }
        return "exhibit-" + self._hash_material(material)

    # -- I/O -----------------------------------------------------------
    def _path(self, key: str) -> Path:
        return self.cache_dir / f"{key}.pkl"

    def load(self, key: str) -> Optional[Dict[str, Any]]:
        """The payload stored under ``key``, or None (counted as a miss).

        Any failure to read or unpickle — truncated file, stale class
        layout, flipped bits — is swallowed: the entry is unlinked and
        the caller re-simulates.
        """
        if not self.enabled:
            return None
        self.probes += 1
        payload = self._read(key)
        if payload is None:
            self.misses += 1
        else:
            self.hits += 1
        return payload

    def _read(self, key: str) -> Optional[Dict[str, Any]]:
        """Uncounted read (shared by :meth:`load` and the claim waiter)."""
        path = self._path(key)
        try:
            with open(path, "rb") as fh, young_gc_only():
                payload = pickle.load(fh)
            if not isinstance(payload, dict):
                raise ValueError("cache payload is not a dict")
        except FileNotFoundError:
            return None
        except Exception:
            try:
                path.unlink()
            except OSError:
                pass
            return None
        return payload

    def store(self, key: str, payload: Dict[str, Any]) -> bool:
        """Atomically persist ``payload`` under ``key``; False if disabled
        or the write failed (a full disk must never fail a run)."""
        if not self.enabled:
            return False
        try:
            self.cache_dir.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=self.cache_dir, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as fh, young_gc_only():
                    pickle.dump(payload, fh, protocol=pickle.HIGHEST_PROTOCOL)
                os.replace(tmp, self._path(key))
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except Exception:
            return False
        self.stores += 1
        return True

    # -- cold-run claim lock -------------------------------------------
    def _claim_path(self, key: str) -> Path:
        return self.cache_dir / f"{key}.lock"

    def claim(self, key: str) -> bool:
        """Try to become the one process that populates ``key``.

        Atomic ``O_CREAT|O_EXCL`` of a claim file; the winner must call
        :meth:`release` (in a ``finally``) once the entry is stored. A
        claim older than :data:`STALE_CLAIM_S` is presumed abandoned,
        broken, and re-contended. Always True when the cache is
        disabled: with no shared store there is nothing to coordinate.
        """
        if not self.enabled:
            return True
        path = self._claim_path(key)
        for _ in range(2):  # second pass: after breaking a stale claim
            try:
                self.cache_dir.mkdir(parents=True, exist_ok=True)
                fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                if not self._claim_stale(path):
                    return False
                try:
                    path.unlink()
                except OSError:
                    return False
                continue
            except OSError:
                # Unwritable cache dir: behave like a disabled cache.
                return True
            with os.fdopen(fd, "w") as fh:
                fh.write(str(os.getpid()))
            return True
        return False

    def release(self, key: str) -> None:
        try:
            self._claim_path(key).unlink()
        except OSError:
            pass

    @staticmethod
    def _claim_stale(path: Path) -> bool:
        try:
            age = time.time() - path.stat().st_mtime
        except OSError:  # vanished: not stale, just gone
            return False
        return age > STALE_CLAIM_S

    def wait_for(self, key: str, timeout_s: Optional[float] = None,
                 poll_s: float = 0.1) -> Optional[Dict[str, Any]]:
        """Wait for another process's claimed entry to appear.

        Polls until the entry exists (a dedup hit, counted) or the
        claim is released/stale/timed out without producing one (the
        caller then simulates after all). ``REPRO_CACHE_LOCK_WAIT``
        overrides the default timeout; ``0`` disables waiting entirely.
        """
        if not self.enabled:
            return None
        if timeout_s is None:
            timeout_s = float(os.environ.get(_ENV_LOCK_WAIT, STALE_CLAIM_S))
        deadline = time.monotonic() + timeout_s
        claim = self._claim_path(key)
        while True:
            payload = self._read(key)
            if payload is not None:
                self.dedup_hits += 1
                self.hits += 1
                self.probes += 1
                return payload
            if not claim.exists() or self._claim_stale(claim):
                return None
            if time.monotonic() >= deadline:
                return None
            time.sleep(poll_s)

    # -- reporting -----------------------------------------------------
    def stats(self) -> Dict[str, int]:
        """Machine-readable counters (the service's /metrics reads this)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "probes": self.probes,
            "dedup_hits": self.dedup_hits,
        }

    def add_stats(self, delta: Dict[str, int]) -> None:
        """Fold in the counters another process moved (a pool worker's
        copy of this cache), so :meth:`stats` covers its loads and stores."""
        for name, count in delta.items():
            setattr(self, name, getattr(self, name) + count)

    def stats_line(self) -> str:
        state = "on" if self.enabled else "off"
        line = (
            f"cache[{state}] {self.cache_dir}: "
            f"{self.hits} hits, {self.misses} misses, {self.stores} stores"
        )
        if self.dedup_hits:
            line += f", {self.dedup_hits} dedup"
        return line


# ----------------------------------------------------------------------
# Convenience entry point shared by ExperimentContext, the parallel
# runner and the pytest/benchmark fixtures.
# ----------------------------------------------------------------------
def load_or_run(
    cache: Optional[RunCache],
    workload: str,
    horizon_ms: float,
    warmup_ms: float,
    seed: int,
    sim_kwargs: Optional[Dict[str, Any]] = None,
):
    """Fetch ``(TracedRun, AnalysisReport)``, simulating on a miss.

    ``sim_kwargs`` are :class:`~repro.experiments._base.RunSettings`
    engine fields. They key the run as ``RunSettings.sim_kwargs()``
    resolves them: canonicalized, defaults dropped (so pre-existing
    entries stay valid) and ``REPRO_CHECK`` folded in (so checked and
    unchecked runs never cross-reuse).

    A cold run is simulated, analyzed and stored once, as
    ``{"run": run, "report": report}``. An entry without a report is
    treated as a miss: the run is simulated and stored again.
    """
    from repro.analysis.report import analyze_trace
    from repro.experiments._base import RunSettings
    from repro.sim._session import Simulation

    sim_kwargs = RunSettings(
        horizon_ms=horizon_ms, warmup_ms=warmup_ms, seed=seed,
        **(sim_kwargs or {}),
    ).sim_kwargs()
    mixed = sim_kwargs.get("fidelity") == "mixed"
    key = None
    claimed = False
    if cache is not None:
        key = cache.run_key(workload, horizon_ms, warmup_ms, seed, sim_kwargs)
        payload = cache.load(key)
        if payload is None and cache.enabled:
            # Cold: exactly one process simulates this key; everyone
            # else waits for its entry instead of duplicating work.
            claimed = cache.claim(key)
            if not claimed:
                payload = cache.wait_for(key)
                if payload is None:
                    # Claim holder died or stalled: do the work ourselves.
                    claimed = cache.claim(key)
        if payload is not None:
            run, report = payload.get("run"), payload.get("report")
            if run is not None and report is not None:
                return run, report
    try:
        run = None
        if mixed and cache is not None and cache.enabled:
            # Seam-checkpoint reuse: a prior mixed run at the same
            # warmed-state key already paid for the fast-forward —
            # restore it and run only the detailed window.
            from repro.fidelity.checkpoint import load_checkpoint

            restored = load_checkpoint(
                cache, workload, horizon_ms, warmup_ms, seed,
                sim_kwargs.get("fast_forward", 0), sim_kwargs,
            )
            if restored is not None:
                run = restored.continue_run(horizon_ms)
        if run is None:
            sim = Simulation(workload, seed=seed, **sim_kwargs)
            if mixed and cache is not None and cache.enabled:
                from repro.fidelity.checkpoint import (
                    checkpoint_key,
                    tty_dependent,
                )

                sim.checkpoint_cache = cache
                sim.checkpoint_cache_key = checkpoint_key(
                    cache, workload, warmup_ms, seed, sim.fast_forward,
                    sim_kwargs,
                    horizon_ms=(
                        horizon_ms if tty_dependent(sim.workload) else None
                    ),
                )
            run = sim.run(horizon_ms, warmup_ms=warmup_ms)
        report = analyze_trace(run)
        if cache is not None and key is not None:
            cache.store(key, {"run": run, "report": report})
    finally:
        if cache is not None and key is not None and claimed:
            cache.release(key)
    return run, report

