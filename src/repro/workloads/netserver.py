"""Netserver: connection arrivals driving streams + buffer-cache load.

The paper's machine ran its network functions on a dedicated CPU
(Section 2.2) but the trio of workloads barely exercises that path. This
workload models a file-serving network daemon: request arrivals land as
network interrupts *on the network CPU* (see
:meth:`repro.kernel.interrupts.Interrupts.network`), each taking the
session's ``streams_x`` lock in interrupt context before waking the
server process; the servers then read the request off the stream, serve
a Zipf-popular document through the buffer cache, and write the response
back through the same streams lock in process context.

That interrupt-vs-process tug-of-war over ``streams_x`` is precisely
the contention Table 11 could not show — and the hostile load the
IRQ-aware lockdep rules (``IRQ_SAFE_FAMILIES``) were built for.
"""

from __future__ import annotations

from typing import Dict, Iterator, List

from repro.kernel.process import Image, ProcState
from repro.workloads import actions as A
from repro.workloads.base import NetEvent, Workload, preload_image
from repro.workloads.zipf import ZipfGenerator

_NS_BIN_INO = 540
_DOC_INO0 = 550

_DOC_BYTES = 256 * 1024

# Per-request protocol processing (parse, route, format response).
_REQ_COMPUTE = 20_000

# Request and response sizes on the stream (characters through the
# session's queue; the response body goes through the buffer cache).
_REQ_CHARS = 12
_RESP_CHARS = 48


class NetserverWorkload(Workload):
    """A network file server under interrupt-heavy arrivals.

    ``servers``         server processes (one stream session each)
    ``docs``            documents served (each 256 KB)
    ``skew``            Zipf exponent over document popularity
    ``arrivals_per_ms`` mean connection-arrival rate at the NIC
    ``read_bytes``      bytes of the document served per request
    """

    name = "netserver"

    def __init__(
        self,
        servers: int = 4,
        docs: int = 24,
        skew: float = 0.7,
        arrivals_per_ms: float = 3.0,
        read_bytes: int = 8192,
    ):
        super().__init__()
        servers = int(servers)
        docs = int(docs)
        skew = float(skew)
        arrivals_per_ms = float(arrivals_per_ms)
        read_bytes = int(read_bytes)
        if servers < 1:
            raise ValueError(f"servers must be >= 1, got {servers}")
        if docs < 1:
            raise ValueError(f"docs must be >= 1, got {docs}")
        if skew < 0.0:
            raise ValueError(f"skew must be >= 0, got {skew}")
        if arrivals_per_ms <= 0.0:
            raise ValueError(
                f"arrivals_per_ms must be > 0, got {arrivals_per_ms}"
            )
        if not 1 <= read_bytes <= _DOC_BYTES:
            raise ValueError(
                f"read_bytes must be in [1, {_DOC_BYTES}], got {read_bytes}"
            )
        self.servers = servers
        self.docs = docs
        self.skew = skew
        self.arrivals_per_ms = arrivals_per_ms
        self.read_bytes = read_bytes
        self.ns_image = Image("netserver", text_pages=64, file_ino=_NS_BIN_INO)
        # session -> requests served, filled by the server drivers.
        self.served: Dict[int, int] = {}
        self._rng = None
        self._zipf: Dict[int, ZipfGenerator] = {}

    # ------------------------------------------------------------------
    def setup(self, kernel, rng) -> None:
        self._rng = rng
        fs = kernel.fs
        fs.register_file(
            _NS_BIN_INO, self.ns_image.text_pages * 4096, "netserver"
        )
        for d in range(self.docs):
            fs.register_file(_DOC_INO0 + d, _DOC_BYTES, f"doc{d}.dat")
        preload_image(kernel, self.ns_image)
        for s in range(self.servers):
            self._zipf[s] = ZipfGenerator(
                self.docs, self.skew, seed=rng.randrange(1 << 30)
            )
            self.served[s] = 0
            process = kernel.create_process(
                f"netd-{s}", self.ns_image, self.server_driver(s)
            )
            process.data_pages = 40
            process.state = ProcState.RUNNABLE
            kernel.scheduler.run_queue.append(process)

    # ------------------------------------------------------------------
    # One server: accept, read request, serve document, respond
    # ------------------------------------------------------------------
    def server_driver(self, session: int) -> Iterator:
        rng = self._rng
        gen = self._zipf[session]
        while True:
            # Block until the NIC delivers a request on this session
            # (the network interrupt took streams_x to queue it).
            yield A.TermWait(session)
            yield A.Compute(_REQ_COMPUTE, write_fraction=0.3)
            doc = gen.sample()
            span = _DOC_BYTES - self.read_bytes
            offset = rng.randrange(span // 1024 + 1) * 1024 if span else 0
            yield A.ReadFile(_DOC_INO0 + doc, offset, self.read_bytes)
            # Response back down the stream: streams_x again, now from
            # process context against the interrupt-side acquires.
            yield A.TermWrite(session, _RESP_CHARS)
            self.served[session] += 1

    # ------------------------------------------------------------------
    # Connection arrivals at the NIC (delivered on the network CPU)
    # ------------------------------------------------------------------
    def net_events(self, horizon_cycles: int, rng) -> List[NetEvent]:
        """Poisson-ish request arrivals, round-robined over sessions."""
        cycles_per_ms = 1e6 / 30.0
        events: List[NetEvent] = []
        t = rng.uniform(0.1, 1.0) * cycles_per_ms
        arrival = 0
        while t < horizon_cycles:
            session = arrival % self.servers
            events.append((int(t), session, _REQ_CHARS))
            arrival += 1
            t += rng.expovariate(self.arrivals_per_ms) * cycles_per_ms
        return events
