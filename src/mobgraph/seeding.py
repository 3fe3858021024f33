"""Deterministic seed derivation for independent random streams.

Every randomized stage takes an integer seed. Sub-streams (one per channel,
per graph, per restart) get their own seeds derived from the master seed and
a string path, so adding or reordering work units never shifts the draws of
the others.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Iterator

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


def buffered_draws(draw: Callable[[int], list]) -> Iterator:
    """The values of draw(8192), draw(8192), ... one at a time.

    Sequential samplers take one random value per step; drawing them a
    block per numpy call keeps the call overhead off each step. Generator
    .random(n) and .integers(low, high, n) yield the same values as n
    single draws, so the stream does not depend on the block size.
    """
    while True:
        yield from draw(8192)
