"""Sharded trace analysis, bit-exact against the serial path.

The postprocessor is a sequential decoder — escape state, reconstructed
cache contents and the frame-typing map all carry across every entry —
so :func:`sharded_analysis` cannot split the trace naively. Instead a
serial *scout* pass (a ``state_only``
:class:`~repro.analysis.decode.TraceAnalyzer`, which maintains all
decoder state but skips every windowed statistic) sweeps the stream once
and checkpoints the full inter-entry state at each shard boundary. Each
chunk is then re-analyzed with full statistics in a worker process,
seeded from its boundary checkpoint, and the per-chunk results are
spliced with :func:`merge_analyses`. Every checkpoint carries the
cumulative monitor transaction counters, and
:func:`repro.sanitizers.seams.verify_seams` asserts at every seam that
the spliced per-chunk counters land exactly on the checkpointed
cumulatives — a divergent splice raises instead of returning.

Splice rules that make the merge byte-identical to serial:

- Counters merge with ``Counter.update`` in chunk order, which
  reproduces the serial first-occurrence insertion order (exhibit
  tables iterate these counters, so ordering is load-bearing);
- lists (invocations, app intervals, block-op log, I-miss stream)
  concatenate in chunk order;
- tick sums add; ``measured_ticks`` comes from the last chunk, the only
  one that runs :meth:`TraceAnalyzer.finish` (with the globally
  precomputed end tick) — interior chunks never flush trailing time, so
  every time span is accounted exactly once, in the chunk whose entry
  triggers the accounting.

The shard count never changes any output, so it is excluded from run
and exhibit cache keys (see ``RunSettings.cache_repr``): identical
output ⇒ identical cache entry.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.decode import (
    MONITOR_FIELDS,
    AnalyzerState,
    TraceAnalysis,
    TraceAnalyzer,
)
from repro.sanitizers.seams import SeamRecord, verify_seams

_ENV_SHARDS = "REPRO_SHARDS"


def resolve_shards(value: Optional[int] = None) -> int:
    """Effective shard count: explicit value, else ``$REPRO_SHARDS``, else 1."""
    if value is None:
        raw = os.environ.get(_ENV_SHARDS, "").strip()
        if not raw:
            return 1
        try:
            value = int(raw)
        except ValueError:
            raise ValueError(f"{_ENV_SHARDS}={raw!r} is not an integer") from None
    value = int(value)
    if value < 1:
        raise ValueError(f"shards must be >= 1, got {value}")
    return value


def plan_boundaries(num_entries: int, shards: int) -> List[int]:
    """Interior chunk boundaries for an even split of ``num_entries``.

    Returns strictly increasing indices in ``(0, num_entries)``; a shard
    count larger than the entry count simply collapses to fewer chunks
    (duplicate and degenerate boundaries are dropped).
    """
    boundaries = []
    for i in range(1, shards):
        cut = num_entries * i // shards
        if 0 < cut < num_entries and (not boundaries or cut > boundaries[-1]):
            boundaries.append(cut)
    return boundaries


# ----------------------------------------------------------------------
# Per-shard throughput accounting (read by the CLI and the service)
# ----------------------------------------------------------------------
class ShardStats:
    """Refs/sec of the most recent sharded analysis in this process."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.shards: List[Dict[str, float]] = []
        self.scout_seconds = 0.0
        self.wall_seconds = 0.0
        self.total_entries = 0
        self.seam_lines: List[str] = []

    def record(
        self,
        per_shard: List[Dict[str, float]],
        scout_seconds: float,
        wall_seconds: float,
        seam_lines: List[str],
    ) -> None:
        self.shards = per_shard
        self.scout_seconds = scout_seconds
        self.wall_seconds = wall_seconds
        self.total_entries = int(sum(s["entries"] for s in per_shard))
        self.seam_lines = list(seam_lines)

    def stats(self) -> Dict[str, object]:
        """Machine-readable snapshot (the service's /metrics reads this)."""
        return {
            "shards": [dict(s) for s in self.shards],
            "scout_seconds": self.scout_seconds,
            "wall_seconds": self.wall_seconds,
            "total_entries": self.total_entries,
            "total_refs_per_sec": (
                self.total_entries / self.wall_seconds if self.wall_seconds else 0.0
            ),
            "seams_ok": len(self.seam_lines),
        }

    def stats_line(self) -> str:
        if not self.shards:
            return "shards[1] serial"
        per = " ".join(
            f"s{int(s['shard'])}={s['refs_per_sec']:.0f}/s" for s in self.shards
        )
        total = self.stats()["total_refs_per_sec"]
        return (
            f"shards[{len(self.shards)}] {self.total_entries} refs: {per} "
            f"total={total:.0f}/s (scout {self.scout_seconds:.2f}s, "
            f"{len(self.seam_lines)} seams ok)"
        )


SHARD_STATS = ShardStats()


# ----------------------------------------------------------------------
# Chunk workers (top-level so they pickle under any start method)
# ----------------------------------------------------------------------
@dataclass
class _ChunkConfig:
    """Everything a worker needs to rebuild the analyzer, shipped once
    per worker through the pool initializer."""

    workload: str
    num_cpus: int
    icache_bytes: int
    dcache_bytes: int
    block_bytes: int
    keep_imiss_stream: bool
    window_start: int
    end_tick: int
    layout: object
    datamap: object
    # Mixed-fidelity runs: the simulator's warm-state dump at the
    # atomic→detailed seam (TracedRun.seam_state); None otherwise.
    seam_state: object = None


_chunk_config: Optional[_ChunkConfig] = None
_chunk_entries: Optional[list] = None


def _init_chunk_worker(config: _ChunkConfig, entries: Optional[list] = None) -> None:
    """Install the per-worker config (and, under non-fork start methods,
    the flattened entry list — fork children inherit it copy-on-write
    from the parent for free, so it ships as None there)."""
    global _chunk_config, _chunk_entries
    _chunk_config = config
    if entries is not None:
        _chunk_entries = entries


def _analyze_chunk(job) -> Tuple[int, TraceAnalysis, int, float]:
    """One chunk: restore the checkpoint, feed the entries, return stats.

    ``job`` is ``(index, start, end, state|None, is_last)`` — entry
    *indices*, not entries; the worker slices the inherited stream so
    jobs stay tiny on the pickle path. Only the last chunk finalizes
    (trailing time flush + measured window length).
    """
    index, start, end, state, is_last = job
    config = _chunk_config
    assert config is not None, "worker used without initializer"
    assert _chunk_entries is not None, "worker has no entry stream"
    entries = _chunk_entries[start:end]
    started = time.perf_counter()
    analyzer = TraceAnalyzer(
        config.workload,
        config.num_cpus,
        icache_bytes=config.icache_bytes,
        dcache_bytes=config.dcache_bytes,
        layout=config.layout,
        datamap=config.datamap,
        block_bytes=config.block_bytes,
        keep_imiss_stream=config.keep_imiss_stream,
        stats_from_tick=config.window_start,
    )
    if state is not None:
        analyzer.restore(state)
    else:
        # Chunk 0 starts from the trace head: seed the seam warm state
        # (later chunks inherit it through the scout's checkpoints).
        analyzer.seed_seam(config.seam_state)
    analyzer.feed(entries)
    if is_last:
        analyzer.finish(config.end_tick)
    return index, analyzer.result, len(entries), time.perf_counter() - started


# ----------------------------------------------------------------------
# Splicing
# ----------------------------------------------------------------------
_MERGE_META = ("workload", "num_cpus")
_MERGE_LAST = ("measured_ticks",)
_MERGE_SUM = (
    "user_ticks", "sys_ticks", "idle_ticks", "upgrades", "escape_reads",
    "monitor_instr_reads", "monitor_data_reads", "monitor_writes",
    "monitor_uncached", "utlb_count", "utlb_ticks", "utlb_misses",
)
_MERGE_COUNTER = (
    "miss_counts", "dispossame", "sharing_by_struct", "dmiss_by_struct_class",
    "imiss_dispos_by_routine", "imiss_dispos_addr_hist", "imiss_by_routine",
    "op_misses", "op_counts", "blockop_misses", "migration_op_misses",
    "ap_dispos",
)
_MERGE_LIST = ("blockop_log", "invocations", "app_intervals", "imiss_stream")


def merge_analyses(parts: Sequence[TraceAnalysis]) -> TraceAnalysis:
    """Splice per-chunk analyses into one serial-identical analysis."""
    covered = set(_MERGE_META + _MERGE_LAST + _MERGE_SUM + _MERGE_COUNTER + _MERGE_LIST)
    fields = set(TraceAnalysis.__dataclass_fields__)
    if covered != fields:  # a new field needs an explicit merge rule
        raise AssertionError(
            f"merge_analyses out of date: unhandled={sorted(fields - covered)} "
            f"stale={sorted(covered - fields)}"
        )
    first = parts[0]
    merged = TraceAnalysis(first.workload, first.num_cpus)
    for name in _MERGE_LAST:
        setattr(merged, name, getattr(parts[-1], name))
    for part in parts:
        for name in _MERGE_SUM:
            setattr(merged, name, getattr(merged, name) + getattr(part, name))
        for name in _MERGE_COUNTER:
            # Counter.update preserves first-occurrence insertion order,
            # so chunk-ordered updates reproduce the serial key order.
            getattr(merged, name).update(getattr(part, name))
        for name in _MERGE_LIST:
            getattr(merged, name).extend(getattr(part, name))
    return merged


# ----------------------------------------------------------------------
# The sharded analysis driver
# ----------------------------------------------------------------------
def sharded_analysis(
    run,
    shards: int,
    keep_imiss_stream: bool = True,
    boundaries: Optional[Sequence[int]] = None,
    use_pool: Optional[bool] = None,
) -> TraceAnalysis:
    """Analyze ``run`` in ``shards`` spliced chunks; serial-identical.

    ``boundaries`` overrides the even split (tests use it to land a
    seam mid-escape-sequence); ``use_pool=False`` keeps every chunk in
    this process (output is identical either way — the pool is purely a
    wall-clock optimization, and daemonic workers fall back to it
    automatically since they cannot have children).
    """
    from repro.analysis.report import CYCLES_PER_TICK

    wall_started = time.perf_counter()
    params = run.params
    segments = run.trace.segments
    entries = [entry for segment in segments for entry in segment.entries]
    end_tick = max((segment.end_cycles // 2 for segment in segments), default=0)
    window_start = run.measure_from_cycles // CYCLES_PER_TICK
    config = _ChunkConfig(
        workload=run.workload_name,
        num_cpus=params.num_cpus,
        icache_bytes=params.icache.size_bytes,
        dcache_bytes=params.dcache_l2.size_bytes,
        block_bytes=params.block_bytes,
        keep_imiss_stream=keep_imiss_stream,
        window_start=window_start,
        end_tick=end_tick,
        layout=run.kernel.layout,
        datamap=run.kernel.datamap,
        seam_state=getattr(run, "seam_state", None),
    )

    if boundaries is None:
        cuts = plan_boundaries(len(entries), shards)
    else:
        cuts = [b for b in sorted(set(boundaries)) if 0 < b < len(entries)]

    # Scout pass: serial, state-only, checkpointing at each boundary.
    # The last chunk needs no checkpoint beyond the final cut, so the
    # scout stops there.
    scout_started = time.perf_counter()
    states: List[AnalyzerState] = []
    scout = TraceAnalyzer(
        config.workload,
        config.num_cpus,
        icache_bytes=config.icache_bytes,
        dcache_bytes=config.dcache_bytes,
        layout=config.layout,
        datamap=config.datamap,
        block_bytes=config.block_bytes,
        state_only=True,
        stats_from_tick=window_start,
    )
    scout.seed_seam(config.seam_state)
    previous = 0
    for cut in cuts:
        scout.feed(entries[previous:cut])
        states.append(scout.snapshot(cut))
        previous = cut
    scout_seconds = time.perf_counter() - scout_started

    edges = [0] + list(cuts) + [len(entries)]
    jobs = []
    for index in range(len(edges) - 1):
        state = states[index - 1] if index > 0 else None
        jobs.append(
            (index, edges[index], edges[index + 1], state,
             index == len(edges) - 2)
        )

    if use_pool is None:
        # A pool only pays off with real parallel hardware; on one core
        # (or inside a daemonic worker) the chunks run in-process.
        use_pool = (
            len(jobs) > 1
            and (os.cpu_count() or 1) > 1
            and not multiprocessing.current_process().daemon
        )
    global _chunk_entries
    _chunk_entries = entries  # fork children inherit this copy-on-write
    try:
        if use_pool:
            fork = multiprocessing.get_start_method() == "fork"
            with multiprocessing.Pool(
                processes=min(len(jobs), os.cpu_count() or 1),
                initializer=_init_chunk_worker,
                initargs=(config, None if fork else entries),
            ) as pool:
                results = pool.map(_analyze_chunk, jobs, chunksize=1)
        else:
            _init_chunk_worker(config)
            results = [_analyze_chunk(job) for job in jobs]
    finally:
        _chunk_entries = None
    results.sort(key=lambda item: item[0])
    parts = [analysis for _, analysis, _, _ in results]

    # Seam crosscheck: spliced per-chunk monitor counters must land on
    # every checkpoint's cumulative counters exactly.
    seams = [
        SeamRecord(
            index=i + 1,
            entry_index=state.entry_index,
            cumulative=state.monitor_counters,
        )
        for i, state in enumerate(states)
    ]
    chunk_counters = [
        {name: getattr(analysis, name) for name in MONITOR_FIELDS}
        for analysis in parts
    ]
    seam_lines = verify_seams(seams, chunk_counters)

    merged = merge_analyses(parts)
    wall_seconds = time.perf_counter() - wall_started
    SHARD_STATS.record(
        [
            {
                "shard": index,
                "entries": count,
                "seconds": seconds,
                "refs_per_sec": count / seconds if seconds else 0.0,
            }
            for index, _, count, seconds in results
        ],
        scout_seconds,
        wall_seconds,
        seam_lines,
    )
    return merged

