"""KV: a key-value / TP-style server with Zipf-skewed keys.

The paper's workloads leave the buffer cache comfortable: Oracle's
database fits in memory and Pmake re-reads a small set of sources. A
modern KV/TP server does the opposite — the keyspace is far larger than
the buffer cache and the traffic is Zipf-skewed, so residency is decided
by the skew knob, not the cache size. N worker processes each draw keys
from their own :class:`~repro.workloads.zipf.ZipfGenerator` over a
keyspace sharded across store files totalling ~32 MB against a ~272 KB
buffer cache; gets read through the cache (missing to disk), puts
write through it, and each worker accounts its own buffer-cache misses
and the cycles those reads cost (the Midas harness's miss-penalty
accounting).

What this stresses that the paper's trio never does: ``bfreelock`` (all
workers churn buffer headers at once), the buffer-cache hash chains
under a miss-heavy mix, and disk-wait idle driven by cache skew rather
than program structure.
"""

from __future__ import annotations

from typing import Dict, Iterator, Tuple

from repro.kernel.fs import BUFFER_BYTES as _BUFFER_BYTES
from repro.kernel.process import Image, ProcState
from repro.workloads import actions as A
from repro.workloads.base import Workload, preload_image
from repro.workloads.zipf import ZipfGenerator

_KV_BIN_INO = 500
_STORE_INO0 = 510
_NUM_STORES = 16

# Per-operation server compute (request parse, hash probe, reply).
_OP_COMPUTE = 16_000


class KvWorkload(Workload):
    """Zipf-keyed get/put traffic over a cache-dwarfing keyspace.

    ``workers``       worker processes issuing requests
    ``keys``          keyspace size (ranks, most-popular first)
    ``skew``          Zipf exponent (0 = uniform, 0.99 = YCSB-style)
    ``get_fraction``  share of operations that are gets (rest are puts)
    ``value_bytes``   value size per key (the unit of each read/write)
    """

    name = "kv"

    def __init__(
        self,
        workers: int = 6,
        keys: int = 16384,
        skew: float = 0.99,
        get_fraction: float = 0.9,
        value_bytes: int = 2048,
    ):
        super().__init__()
        workers = int(workers)
        keys = int(keys)
        skew = float(skew)
        get_fraction = float(get_fraction)
        value_bytes = int(value_bytes)
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if keys < 1:
            raise ValueError(f"keys must be >= 1, got {keys}")
        if skew < 0.0:
            raise ValueError(f"skew must be >= 0, got {skew}")
        if not 0.0 <= get_fraction <= 1.0:
            raise ValueError(
                f"get_fraction must be in [0, 1], got {get_fraction}"
            )
        if value_bytes < 1:
            raise ValueError(f"value_bytes must be >= 1, got {value_bytes}")
        self.workers = workers
        self.keys = keys
        self.skew = skew
        self.get_fraction = get_fraction
        self.value_bytes = value_bytes
        self.kv_image = Image("kvd", text_pages=48, file_ino=_KV_BIN_INO)
        # rank -> {"gets", "puts", "bc_misses", "miss_cycles"}: the
        # Midas-style per-worker miss-penalty ledger, filled by drivers.
        self.worker_stats: Dict[int, Dict[str, int]] = {}
        self._rng = None
        self._kernel = None
        self._procs: Dict[int, object] = {}
        self._zipf: Dict[int, ZipfGenerator] = {}

    def _locate(self, key: int) -> Tuple[int, int]:
        """Map a key rank onto (store inode, byte offset)."""
        ino = _STORE_INO0 + key % _NUM_STORES
        return ino, (key // _NUM_STORES) * self.value_bytes

    # ------------------------------------------------------------------
    def setup(self, kernel, rng) -> None:
        self._rng = rng
        self._kernel = kernel
        fs = kernel.fs
        fs.register_file(
            _KV_BIN_INO, self.kv_image.text_pages * 4096, "kvd"
        )
        slots = (self.keys + _NUM_STORES - 1) // _NUM_STORES
        for s in range(_NUM_STORES):
            fs.register_file(
                _STORE_INO0 + s, slots * self.value_bytes, f"store{s}.kv"
            )
        preload_image(kernel, self.kv_image)
        for w in range(self.workers):
            # Per-worker generator instances over one shared table.
            self._zipf[w] = ZipfGenerator(
                self.keys, self.skew, seed=rng.randrange(1 << 30)
            )
            self.worker_stats[w] = {
                "gets": 0, "puts": 0, "bc_misses": 0, "miss_cycles": 0,
            }
            process = kernel.create_process(
                f"kvd-{w}", self.kv_image, self.worker_driver(w)
            )
            process.data_pages = 48
            process.state = ProcState.RUNNABLE
            kernel.scheduler.run_queue.append(process)
            self._procs[w] = process

    # ------------------------------------------------------------------
    # One worker: Zipf-keyed gets and write-through puts forever
    # ------------------------------------------------------------------
    def _now(self) -> int:
        """Latest per-CPU clock: monotone even across migrations."""
        return max(p.cycles for p in self._kernel.processors)

    def worker_driver(self, rank: int) -> Iterator:
        rng = self._rng
        gen = self._zipf[rank]
        stats = self.worker_stats[rank]
        bcache = self._kernel.fs.buffer_cache
        op = 0
        while True:
            key = gen.sample()
            ino, offset = self._locate(key)
            if rng.random() < self.get_fraction:
                # Blocks of this request not resident right now: the
                # misses attributable to THIS get (a global hits/misses
                # delta would absorb concurrent workers' traffic).
                first = offset // _BUFFER_BYTES
                last = (offset + self.value_bytes - 1) // _BUFFER_BYTES
                missing = sum(
                    1 for fb in range(first, last + 1)
                    if (ino, fb) not in bcache._entries
                )
                cycles0 = self._now()
                yield A.ReadFile(ino, offset, self.value_bytes)
                stats["gets"] += 1
                if missing:
                    # Miss penalty: elapsed cycles this get cost, disk
                    # wait included (vs ~free on a full hit).
                    stats["bc_misses"] += missing
                    stats["miss_cycles"] += max(0, self._now() - cycles0)
            else:
                # Write-through: the put lands in the buffer cache
                # immediately (delayed write flushes to disk later).
                yield A.WriteFile(ino, offset, self.value_bytes)
                stats["puts"] += 1
            yield A.Compute(_OP_COMPUTE, write_fraction=0.3)
            op += 1
            if op % 64 == 63:
                yield A.Misc("time")
