"""Block seed derivation against numpy's own seeding.

`block_states` restates numpy's SeedSequence hash and PCG64's seeding in
array arithmetic.  These tests compare it with numpy seed by seed, so a
numpy release that changes either fails here, before any trial reads a
stream that `generator` would not give.
"""

import numpy as np

from nnrates._rng import _splitmix64, block_states, generator, mix64, pcg64_states, seed_words

EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]


def test_seed_words_and_states_match_numpy():
    # full 64-bit seeds hash two entropy words, seeds below 2^32 one
    draw = np.random.default_rng(20141)
    seeds = np.concatenate(
        [
            draw.integers(0, 2**64 - 1, 80_000, dtype=np.uint64, endpoint=True),
            draw.integers(0, 2**32 - 1, 20_000, dtype=np.uint64, endpoint=True),
            np.array(EDGE_SEEDS, dtype=np.uint64),
        ]
    )
    words = seed_words(seeds)
    states = pcg64_states(seeds)
    assert words.shape == (4, seeds.size)
    for i, seed in enumerate(seeds.tolist()):
        sequence = np.random.SeedSequence(seed)
        assert words[:, i].tolist() == sequence.generate_state(4, np.uint64).tolist(), seed
        assert states[i] == np.random.PCG64(sequence).state, seed


def test_block_states_are_the_generator_streams():
    # the block mix against scalar mix64: offset starts, a master past
    # 2^63, a negative one and indices past 2^32
    cases = [(0, 1, 0, 1), (9, 40, 0, 600), (2**64 - 1, 300, 517, 1100), (-3, 7, 2**40, 2**40 + 9)]
    for master, n, start, stop in cases:
        want = [generator(mix64(master, n, t)).bit_generator.state for t in range(start, stop)]
        assert block_states(mix64(master, n), start, stop) == want, (master, n, start)
    # a reused bit generator set to a state draws the generator's numbers
    bits = np.random.PCG64(0)
    bits.state = block_states(mix64(11, 300), 89, 90)[0]
    want = generator(mix64(11, 300, 89)).random(5)
    assert np.array_equal(np.random.Generator(bits).random(5), want)


def test_splitmix_on_arrays_is_the_scalar_step():
    values = [0, 1, 2**63, 2**64 - 1, 0x9E3779B97F4A7C15]
    got = _splitmix64(np.array(values, dtype=np.uint64)).tolist()
    assert got == [_splitmix64(v) for v in values]
