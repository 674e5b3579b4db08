"""SplitMix64's stream across next64's block edges.

next64 hands out outputs from blocks of _BLOCK, and below_many(seed,
bounds) draws from the stream of its own seed. Every case compares the
values with oracles.ReferenceSplitMix64, which makes one output at a
time, mix(seed + k * GAMMA), and with oracles.below for the bounded draws.
"""

import pytest

from duostego.rng import _BLOCK, RANGE64, SplitMix64, below_many

from oracles import ReferenceSplitMix64, below

SEEDS = [0, 1234567, RANGE64 - 1]
# Bounds that keep every draw, and bounds that reject about half of them.
BOUNDS = {
    "small": range(1000, 990, -1),
    "rejecting": range(2**63 + 1, 2**63 + 21),
}


@pytest.mark.parametrize("bounds", BOUNDS.values(), ids=BOUNDS.keys())
@pytest.mark.parametrize("calls", [0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1])
@pytest.mark.parametrize("seed", SEEDS)
def test_next64_below_many_next64_match_one_at_a_time(seed, calls, bounds):
    # below_many seeded where the stream stands reads the outputs next64
    # would read from there, and leaves the stream where it was.
    rng, reference = SplitMix64(seed), ReferenceSplitMix64(seed)
    assert [rng.next64() for _ in range(calls)] == [reference.next64() for _ in range(calls)]
    position = reference.state
    bounded = ReferenceSplitMix64(position)
    assert list(below_many(position, bounds)) == [below(bounded, b) for b in bounds]
    assert [rng.next64() for _ in range(_BLOCK + 1)] == [
        reference.next64() for _ in range(_BLOCK + 1)
    ]


@pytest.mark.parametrize("seed", SEEDS)
def test_same_seed_streams_share_no_block(seed):
    # two draws twice as often as one, so the streams sit at different
    # positions whenever they are read.
    one, two = SplitMix64(seed), SplitMix64(seed)
    one_reference, two_reference = ReferenceSplitMix64(seed), ReferenceSplitMix64(seed)
    for _ in range(_BLOCK + 3):
        assert one.next64() == one_reference.next64()
        assert [two.next64(), two.next64()] == [two_reference.next64(), two_reference.next64()]
    assert [one.next64() for _ in range(_BLOCK)] == [one_reference.next64() for _ in range(_BLOCK)]
    assert [two.next64() for _ in range(_BLOCK)] == [two_reference.next64() for _ in range(_BLOCK)]
