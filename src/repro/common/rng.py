"""Deterministic random-number utilities.

Every stochastic component of the simulator draws from a
:class:`random.Random` seeded from a single run seed plus a stable
component label, so that (a) runs are reproducible bit-for-bit and
(b) changing one component's draw count does not perturb the others.
"""

from __future__ import annotations

import hashlib
import random


def substream(seed: int, label: str) -> random.Random:
    """A deterministic per-component random stream.

    The stream seed is derived by hashing ``(seed, label)`` so streams for
    distinct labels are statistically independent.
    """
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))

