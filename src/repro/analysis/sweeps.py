"""Cache what-if sweeps: the Figure 6 methodology.

"In our simulations, we use the references that miss in the caches of
the real machine to simulate larger caches." Because the real caches are
direct mapped, any cache at least as large with at least the same
associativity contains a superset of the blocks — so replaying the miss
stream through a bigger/more associative cache yields its exact miss
stream. Announced I-cache flushes are replayed too, which is what lets
the sweep expose the *Inval* floor ("the figure assumes that the
algorithm used to invalidate caches does not change as caches increase
in size").

"Note that both application and OS instruction traces are simulated,
although only OS misses are plotted in the figure."

Direct-mapped and 2-way configurations (the paper's whole grid) replay
vectorized over the packed stream (:func:`vector_icache_config`);
higher associativities run the scalar LRU loop, which is also the
reference the vectorized replay is tested against. Both are exact, so
the choice never changes a result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple, Union

import numpy as np

from repro.common.params import CacheGeometry
from repro.memsys.cache import Cache, set_index

# Stream element: (cpu, block, domain_is_os, in_window); cpu == -1 is a
# full-flush marker (see TraceAnalysis.imiss_stream).
StreamEntry = Tuple[int, int, bool, bool]

FLUSH_CPU = -1


@dataclass(frozen=True)
class SweepPoint:
    """Result of replaying the I-miss stream against one configuration."""

    size_bytes: int
    associativity: int
    os_misses: int
    os_inval_misses: int
    app_misses: int

    @property
    def total_misses(self) -> int:
        return self.os_misses + self.app_misses


@dataclass
class PackedStream:
    """The I-miss stream as column arrays, flush markers separated out."""

    entries: Sequence[StreamEntry]  # the tuple stream, for the scalar loop
    pos: np.ndarray       # original row index of each access
    cpu: np.ndarray
    block: np.ndarray
    epoch: np.ndarray     # number of flushes before the access
    is_os: np.ndarray     # bool
    in_window: np.ndarray  # bool
    flush_pos: np.ndarray  # row index of each flush marker, in order

    def __len__(self) -> int:
        return len(self.pos)


def pack_imiss_stream(stream: Sequence[StreamEntry]) -> PackedStream:
    """Batch ``(cpu, block, is_os, in_window)`` tuples into arrays."""
    table = np.asarray(stream, dtype=np.int64).reshape(-1, 4)
    flush = table[:, 0] == FLUSH_CPU
    epoch_all = np.cumsum(flush)
    access = ~flush
    return PackedStream(
        entries=stream,
        pos=np.flatnonzero(access),
        cpu=table[access, 0],
        block=table[access, 1],
        # At access rows flush==0, so the inclusive cumsum equals the
        # number of flushes strictly before the row.
        epoch=epoch_all[access],
        is_os=table[access, 2].astype(bool),
        in_window=table[access, 3].astype(bool),
        flush_pos=np.flatnonzero(flush),
    )


def simulate_icache_config(
    stream: Union[Sequence[StreamEntry], PackedStream],
    num_cpus: int,
    size_bytes: int,
    associativity: int = 1,
    block_bytes: int = 16,
) -> SweepPoint:
    """Replay the miss stream through one I-cache configuration.

    ``stream`` is the tuple stream or its :func:`pack_imiss_stream`
    packing; pack once when replaying several configurations.
    """
    packed = stream if isinstance(stream, PackedStream) else pack_imiss_stream(stream)
    bad = (packed.cpu < 0) | (packed.cpu >= num_cpus)
    if bad.any():
        raise ValueError(
            f"stream names cpu {int(packed.cpu[bad][0])}, "
            f"outside 0..{num_cpus - 1}"
        )
    if associativity in (1, 2):
        return vector_icache_config(packed, size_bytes, block_bytes, associativity)
    return _scalar_icache_config(
        packed.entries, num_cpus, size_bytes, associativity, block_bytes
    )


def _scalar_icache_config(
    stream: Sequence[StreamEntry],
    num_cpus: int,
    size_bytes: int,
    associativity: int = 1,
    block_bytes: int = 16,
) -> SweepPoint:
    """The reference replay: one LRU :class:`Cache` per CPU, entry by entry."""
    geometry = CacheGeometry(size_bytes, block_bytes, associativity)
    caches = [Cache(geometry) for _ in range(num_cpus)]
    invalidated: List[set] = [set() for _ in range(num_cpus)]
    os_misses = 0
    os_inval = 0
    app_misses = 0
    for cpu, block, is_os, in_window in stream:
        if cpu == FLUSH_CPU:
            for i, cache in enumerate(caches):
                invalidated[i].update(cache.invalidate_all())
            continue
        cache = caches[cpu]
        if cache.lookup(block):
            cache.access(block)  # LRU refresh; a hit in the bigger cache
            continue
        cache.access(block)
        if not in_window:
            invalidated[cpu].discard(block)
            continue
        if is_os:
            os_misses += 1
            if block in invalidated[cpu]:
                os_inval += 1
        else:
            app_misses += 1
        invalidated[cpu].discard(block)
    return SweepPoint(size_bytes, associativity, os_misses, os_inval, app_misses)


def vector_icache_config(
    packed: PackedStream,
    size_bytes: int,
    block_bytes: int = 16,
    associativity: int = 1,
) -> SweepPoint:
    """Exact replay of one configuration, vectorized (1- or 2-way).

    Equivalent to the scalar LRU loop:

    - an LRU set holds the last ``associativity`` *distinct* blocks
      that touched it, so within each (cpu, epoch, set) run sequence a
      direct-mapped access misses iff the previous access touched a
      different block, and a 2-way access misses iff the block differs
      from both the previous access and the last distinct block before
      the previous access's run (found via run-start indices — one
      ``maximum.accumulate``, no per-reference loop);
    - the Inval floor follows from event adjacency: flushes emit an
      invalidation event for each block resident at the flush (the last
      one or two distinct blocks of every terminated (cpu, epoch, set)
      sequence), misses emit a miss event, and a miss is an Inval miss
      iff the nearest previous event for its (cpu, block) is an
      invalidation — any intervening miss refilled the block and
      cleared its invalidated-set membership, exactly the scalar
      ``invalidated[cpu].discard(block)``.
    """
    if associativity not in (1, 2):
        raise ValueError(
            f"vectorized replay supports associativity 1 or 2, "
            f"got {associativity}"
        )
    n = len(packed)
    if n == 0:
        return SweepPoint(size_bytes, associativity, 0, 0, 0)
    num_sets = size_bytes // (block_bytes * associativity)
    sets = set_index(packed.block, num_sets)

    # Miss detection over (cpu, epoch, set) sequences ordered by position.
    order = np.lexsort((packed.pos, sets, packed.epoch, packed.cpu))
    cpu_s = packed.cpu[order]
    epoch_s = packed.epoch[order]
    set_s = sets[order]
    block_s = packed.block[order]
    idx = np.arange(n)
    same_group = (
        (cpu_s[1:] == cpu_s[:-1])
        & (epoch_s[1:] == epoch_s[:-1])
        & (set_s[1:] == set_s[:-1])
    )
    same_block = np.zeros(n, dtype=bool)
    same_block[1:] = same_group & (block_s[1:] == block_s[:-1])
    # Start index of each position's run (maximal same-group same-block
    # stretch) and of its group.
    run_start = np.maximum.accumulate(np.where(~same_block, idx, 0))
    new_group = np.ones(n, dtype=bool)
    new_group[1:] = ~same_group
    group_start = np.maximum.accumulate(np.where(new_group, idx, 0))

    hit_s = same_block.copy()
    if associativity == 2:
        # The set also holds the last distinct block before the previous
        # access's run: position run_start[i-1] - 1, when still in-group.
        prev_prev = run_start[:-1] - 1
        second_valid = same_group & (prev_prev >= group_start[1:])
        hit_s[1:] |= second_valid & (
            block_s[1:] == block_s[np.maximum(prev_prev, 0)]
        )
    miss = np.zeros(n, dtype=bool)
    miss[order] = ~hit_s

    # Residency at each flush: the last one (DM) or two (2-way) distinct
    # blocks of every terminated (cpu, epoch, set) sequence.
    last_in_group = np.ones(n, dtype=bool)
    last_in_group[:-1] = ~same_group
    num_flushes = len(packed.flush_pos)
    resident = np.flatnonzero(last_in_group & (epoch_s < num_flushes))
    if associativity == 2:
        runner_up = run_start[resident] - 1
        runner_up = runner_up[runner_up >= group_start[resident]]
        resident = np.concatenate([resident, runner_up])

    # Event streams keyed by (cpu, block, position): invalidations at
    # their flush position, misses at their access position.
    inv_cpu = cpu_s[resident]
    inv_block = block_s[resident]
    inv_pos = packed.flush_pos[epoch_s[resident]]
    miss_idx = np.flatnonzero(miss)  # indices into the access arrays
    ev_cpu = np.concatenate([inv_cpu, packed.cpu[miss_idx]])
    ev_block = np.concatenate([inv_block, packed.block[miss_idx]])
    ev_pos = np.concatenate([inv_pos, packed.pos[miss_idx]])
    ev_is_inv = np.zeros(len(ev_cpu), dtype=bool)
    ev_is_inv[: len(inv_cpu)] = True
    ev_src = np.concatenate(
        [np.full(len(inv_cpu), -1, dtype=np.int64), miss_idx]
    )

    ev_order = np.lexsort((ev_pos, ev_block, ev_cpu))
    ev_cpu = ev_cpu[ev_order]
    ev_block = ev_block[ev_order]
    ev_is_inv = ev_is_inv[ev_order]
    ev_src = ev_src[ev_order]
    follows_inv = np.zeros(len(ev_cpu), dtype=bool)
    follows_inv[1:] = (
        (ev_cpu[1:] == ev_cpu[:-1])
        & (ev_block[1:] == ev_block[:-1])
        & ev_is_inv[:-1]
    )
    inval = np.zeros(n, dtype=bool)
    hits_from_inv = ~ev_is_inv & follows_inv
    inval[ev_src[hits_from_inv]] = True

    counted = miss & packed.in_window
    os_counted = counted & packed.is_os
    return SweepPoint(
        size_bytes,
        associativity,
        int(np.count_nonzero(os_counted)),
        int(np.count_nonzero(os_counted & inval)),
        int(np.count_nonzero(counted & ~packed.is_os)),
    )


def sweep_configs(
    sizes: Iterable[int],
    associativities: Iterable[int],
) -> List[Tuple[int, int]]:
    """The derivable ``(size_bytes, associativity)`` grid, in sweep order.

    A two-way cache of the base size (64 KB) cannot be simulated from the
    miss stream of a direct-mapped 64 KB cache (the paper notes the same
    limitation), so that point is skipped.
    """
    base_size = 64 * 1024
    return [
        (size, assoc)
        for assoc in associativities
        for size in sizes
        if not (assoc > 1 and size <= base_size)
    ]


def simulate_icache_sweep(
    stream: Sequence[StreamEntry],
    num_cpus: int,
    sizes: Iterable[int] = (64 * 1024, 128 * 1024, 256 * 1024, 512 * 1024,
                            1024 * 1024),
    associativities: Iterable[int] = (1, 2),
    block_bytes: int = 16,
) -> List[SweepPoint]:
    """The Figure 6 grid (see :func:`sweep_configs` for the skip rule)."""
    packed = pack_imiss_stream(stream)
    return [
        simulate_icache_config(packed, num_cpus, size, assoc, block_bytes)
        for size, assoc in sweep_configs(sizes, associativities)
    ]
