"""The draw contract: shuffled_ranks gives the ranks random.Random.shuffle
gives 1..size, and leaves the generator in the same state; a generator of
dimension_rngs is in the state make_rng of its seed would build.

Builds, probes and dumps are reproducible across versions only while this
holds, so the module imports nothing but the standard library and cuberep,
and runs without pytest under any interpreter:

    PYTHONPATH=src python tests/test_draw_pin.py
"""

from __future__ import annotations

import random
import sys

from cuberep import derive_seed, make_rng, random_permutation
from cuberep.builder import dimension_rngs
from cuberep.randomized import shuffled_ranks

# every size up to 70, and each side of the bit-length steps at 128 and 256
SIZES = (*range(1, 71), 127, 128, 129, 255, 256, 257, 300, 1000)
# small seeds and 64-bit ones, as derive_seed makes them
SEEDS = (*range(30), *(derive_seed(2024, i) for i in range(30)))


def shuffle_of(size: int, rng: random.Random) -> list[int]:
    ranks = list(range(1, size + 1))
    rng.shuffle(ranks)
    return ranks


def test_shuffled_ranks_equals_shuffle():
    for size in SIZES:
        for seed in SEEDS:
            drawn, shuffled = make_rng(seed), make_rng(seed)
            assert shuffled_ranks(size, drawn) == shuffle_of(size, shuffled), (size, seed)
            assert drawn.getstate() == shuffled.getstate(), (size, seed)


def test_shared_stream_stays_in_step():
    # the probe table draws every trial from one stream
    for seed in SEEDS[::6]:
        drawn, shuffled = make_rng(seed), make_rng(seed)
        for size in SIZES:
            assert shuffled_ranks(size, drawn) == shuffle_of(size, shuffled), (size, seed)
        assert drawn.getstate() == shuffled.getstate(), seed
        assert drawn.random() == shuffled.random()


def test_random_permutation_is_the_shuffle():
    for seed in SEEDS[::10]:
        rng, shuffled = make_rng(seed), make_rng(seed)
        for size in (1, 2, 7, 64, 65):
            assert list(random_permutation(size, rng).ranks) == shuffle_of(size, shuffled)
        assert rng.getstate() == shuffled.getstate()


def test_reseeded_generator_is_make_rng():
    for master in (0, 77, 2 ** 64 - 1):
        for index in range(3):
            for j, rng in enumerate(dimension_rngs(master, index, 6)):
                assert rng.getstate() == make_rng(derive_seed(master, index, j)).getstate()
                # whatever a dimension draws, the next one starts afresh;
                # gauss keeps a second value in the state until reseeded
                rng.gauss(0.0, 1.0)
                shuffled_ranks(50, rng)


if __name__ == "__main__":
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            test()
    print(f"draw pin holds under Python {sys.version.split()[0]}")
