"""Deterministic random-number substreams.

A single 64-bit user seed is expanded into independent substreams by keying a
counter-based Philox generator with ``(seed, stream id...)``. Substreams are
independent of scheduling, so concurrent path generation reproduces exactly.
Gaussian variates come from numpy's ziggurat; the generator type is pinned
here so the sampling algorithm is fixed per release.
"""
from __future__ import annotations

import numpy as np

from .errors import integer

_MASK64 = (1 << 64) - 1
# a seed is a 64-bit word read signed or unsigned; 2**64 or 1.5 would alias 0 or 1
SEEDS = (-(1 << 63), _MASK64)

# The substream ids, one table so they stay distinct: the model's volatility and
# price drivers, their per-chunk ensemble variants, the agent market, the book.
_VOL, _PRICE, _ENS_VOL, _ENS_PRICE, _ABM_STREAM, _LOB_STREAM = range(6)


def substream(seed: int, *stream: int) -> np.random.Generator:
    """Return the generator for substream ``stream`` of ``seed``.

    ``substream(seed)`` is the root stream; extra integers select nested
    substreams (e.g. one per simulated path). Philox keys are 128-bit, so the
    ids are folded into two words: seed in the low word, the mixed stream ids
    in the high word.
    """
    integer(*SEEDS, seed=seed)
    key_hi = 0
    for part in stream:
        # splitmix64-style mixing so (a, b) and (b, a) land on different keys
        key_hi = (key_hi * 0x9E3779B97F4A7C15 + int(part) + 1) & _MASK64
    key = np.array([int(seed) & _MASK64, key_hi], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))
