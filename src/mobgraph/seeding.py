"""Deterministic seed derivation for independent random streams.

Every randomized stage takes an integer seed. Sub-streams (one per
synthetic channel, per document vector, per k-means restart, per use within
a stage) get their own seeds derived from the master seed and a string
path, so adding or reordering work units never shifts the draws of the
others. A stage that samples as it goes draws a whole array from its
stream at once: Generator.random(n) and .integers(low, high, n) give the
same values as n single draws.
"""

from __future__ import annotations

import hashlib

import numpy as np


def derive_seed(seed: int, *parts: str) -> int:
    """Map (seed, *parts) to a stable 64-bit integer.

    The same inputs always give the same output, across runs and platforms.
    """
    payload = "\x1f".join([str(int(seed)), *parts]).encode("utf-8")
    digest = hashlib.blake2b(payload, digest_size=8).digest()
    return int.from_bytes(digest, "big")


def rng_for(seed: int, *parts: str) -> np.random.Generator:
    """Generator seeded from derive_seed(seed, *parts)."""
    return np.random.default_rng(derive_seed(seed, *parts))
