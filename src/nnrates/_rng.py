"""Deterministic seed derivation for reproducible substreams.

Every randomized routine in the package derives its generator from a
64-bit seed produced by ``mix64``.  The mix is a SplitMix64 chain over the
integer parts, so a (master_seed, n, trial_index) triple, or a
finite-atomic run's (master_seed, n, stream_index), always maps to the
same stream on every platform, in any thread.

``generator`` seeds PCG64 through numpy's ``SeedSequence`` hash (O'Neill's
``seed_seq_fe``), about 15 us a seed.  ``block_states`` restates that hash
in wrapping uint32 array arithmetic for a block of 1-D trials, each of
which has a stream of its own (finite-atomic trials split one stream per
block instead; see `nnrates.harness`): a seed below 2**32 hashes as if
its high word were 0, and the hash constants do not depend on the data.
`tests/test_rng.py` checks it against numpy.
"""

from __future__ import annotations

import itertools

import numpy as np

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
# numpy's SeedSequence hash constants, and PCG64's 128-bit multiplier
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _splitmix64(state):
    """One SplitMix64 step of a Python int, or lane by lane of a uint64 array (which wraps)."""
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


def block_states(prefix: int, start: int, stop: int) -> list[dict]:
    """``generator(mix64(*parts, t)).bit_generator.state`` for t in [start, stop).

    prefix is ``mix64(*parts)``.
    """
    seeds = _splitmix64(np.arange(start, stop, dtype=np.uint64) ^ prefix)
    # `generator` mixes its one seed once more
    return pcg64_states(_splitmix64(seeds))


def _hash(value: np.ndarray, consts: list[int], i: int) -> np.ndarray:
    """SeedSequence's hash step i on uint32 lanes: xor a constant, multiply by the next, xorshift."""
    value = (value ^ consts[i]) * consts[i + 1]
    return value ^ value >> 16


def seed_words(seeds: np.ndarray) -> np.ndarray:
    """``SeedSequence(s).generate_state(4, np.uint64)`` for each uint64 seed s, one column each."""
    a = [_INIT_A * pow(_MULT_A, i, 1 << 32) & _MASK32 for i in range(17)]
    b = [_INIT_B * pow(_MULT_B, i, 1 << 32) & _MASK32 for i in range(9)]
    lo, hi = (seeds & _MASK32).astype(np.uint32), (seeds >> 32).astype(np.uint32)
    zero = np.zeros_like(lo)
    pool = [_hash(word, a, i) for i, word in enumerate([lo, hi, zero, zero])]
    # every pool word mixes into every other, in numpy's order
    for i, (src, dst) in enumerate(itertools.permutations(range(4), 2), start=4):
        mixed = pool[dst] * _MIX_L - _hash(pool[src], a, i) * _MIX_R
        pool[dst] = mixed ^ mixed >> 16
    half = [_hash(pool[i % 4], b, i).astype(np.uint64) for i in range(8)]
    return np.array([half[i] | half[i + 1] << 32 for i in range(0, 8, 2)])


def pcg64_states(seeds: np.ndarray) -> list[dict]:
    """``PCG64(s).state`` for each uint64 seed s."""
    states = []
    for s0, s1, i0, i1 in zip(*seed_words(seeds).tolist()):
        # words 0-1 are the initial state and 2-3 the stream, high word
        # first; inc is 2 * stream + 1, and two LCG steps go around adding
        # the initial state
        inc = ((i0 << 64 | i1) << 1 | 1) & _MASK128
        state = ((inc + (s0 << 64 | s1)) * _PCG_MULT + inc) & _MASK128
        pcg = {"state": state, "inc": inc}
        states.append({"bit_generator": "PCG64", "state": pcg, "has_uint32": 0, "uinteger": 0})
    return states
