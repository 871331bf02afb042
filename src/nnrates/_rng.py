"""Deterministic seed derivation for reproducible substreams.

Every randomized routine in the package derives its generator from a
64-bit seed produced by ``mix64``.  The mix is a SplitMix64 chain over the
integer parts, so a (master_seed, trial_index, stream_tag) triple always
maps to the same substream on every platform, in any thread.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1


def _splitmix64(state: int) -> int:
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def mix64(*parts: int) -> int:
    """Collapse integer parts into one 64-bit seed; order-sensitive."""
    acc = 0
    for part in parts:
        acc = _splitmix64(acc ^ (int(part) & _MASK64))
    return acc


def generator(*parts: int) -> np.random.Generator:
    """PCG64 generator keyed to the mixed parts."""
    return np.random.Generator(np.random.PCG64(mix64(*parts)))
