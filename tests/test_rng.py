"""The block and lane forms of SplitMix64 against its scalar form.

below_many draws blocks of rows as uint64 arrays and restarts a block
after its first rejected row. Every case compares its values with a loop
of oracles.below over oracles.ReferenceSplitMix64 from the same seed.
outputs draws k outputs at once in 128-bit lanes of one int; its cases
compare with k outputs of the reference stream, and mix on each form
with the reference output step on each counter.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from duostego.rng import _BLOCK, GAMMA, MASK64, RANGE64, _lanes, below_many, mix, outputs

from oracles import ReferenceSplitMix64, _seed_whose_first_output_is, below, rejection_limit, splitmix64_mix

TOP = RANGE64 - 1


def _scalar(seed: int, bounds: range):
    rng = ReferenceSplitMix64(seed)
    return [below(rng, b) for b in bounds]


def _blocked(seed: int, bounds: range):
    return list(below_many(seed, bounds))


def _seed_rejecting(bound: int, row: int) -> int:
    """A seed whose raw draw `row` is the smallest one below(bound) rejects."""
    return (_seed_whose_first_output_is(rejection_limit(bound)) - row * GAMMA) & MASK64


@pytest.mark.parametrize("length", [0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1])
@given(seed=st.integers(0, TOP), spare=st.integers(0, 10**12))
@example(seed=0, spare=0)
@example(seed=TOP, spare=0)
@settings(max_examples=10, deadline=None)
def test_selection_bounds_match_scalar_loop(length, seed, spare):
    # The bounds select_samples asks for: n, n - 1, ..., n - m + 1.
    n = length + spare
    bounds = range(n, n - length, -1)
    assert _blocked(seed, bounds) == _scalar(seed, bounds)


@given(
    seed=st.integers(0, TOP),
    first=st.integers(1, TOP),
    step=st.integers(-(2**62), 2**62).filter(bool),
    length=st.integers(0, 300),
)
@example(seed=0, first=1, step=1, length=300)
@example(seed=TOP, first=TOP, step=-1, length=300)
@settings(max_examples=200, deadline=None)
def test_any_bounds_match_scalar_loop(seed, first, step, length):
    # Large bounds reject up to half of all raw draws, so most blocks here
    # restart after a rejection, some at row 0.
    room = (TOP - first) // step if step > 0 else (first - 1) // -step
    bounds = range(first, first + min(length, room + 1) * step, step)
    assert _blocked(seed, bounds) == _scalar(seed, bounds)


@pytest.mark.parametrize("first", [2**62 + 1, 3 * 2**62, 2**63 + 1])
@pytest.mark.parametrize("seed", [0, 1234567, TOP])
def test_frequent_rejections_across_blocks(first, seed):
    # Every bound here rejects about a quarter or a half of all raw draws.
    bounds = range(first, first + 2 * _BLOCK + 1)
    assert _blocked(seed, bounds) == _scalar(seed, bounds)


@pytest.mark.parametrize(
    "row",
    [0, _BLOCK // 2, _BLOCK - 1, _BLOCK],
    ids=["first-row", "mid-block", "last-row", "second-block-first-row"],
)
def test_forced_rejection(row):
    n = 5_292_000
    bounds = range(n, n - 2 * _BLOCK - 1, -1)
    bound = bounds[row]
    seed = _seed_rejecting(bound, row)
    reference = ReferenceSplitMix64(seed)
    raw = [reference.next64() for _ in range(row + 2)]
    limit = rejection_limit(bound)
    assert raw[row] == limit
    assert all(z < rejection_limit(b) for z, b in zip(raw[:row], bounds))
    values = _blocked(seed, bounds)
    assert values == _scalar(seed, bounds)
    # The rejected draw is replaced by the next raw draw.
    assert raw[row + 1] < limit
    assert values[row] == raw[row + 1] % bound


@pytest.mark.parametrize("bounds", [range(0, 3), range(5, -1, -1), range(RANGE64 - 1, RANGE64 + 1)])
def test_bounds_outside_the_range_rejected(bounds):
    with pytest.raises(ValueError):
        next(below_many(1, bounds))


def test_below_rejects_bounds_past_64_bits():
    # Bounds are uint64 arrays, so 2**64 - 1 is the largest one.
    assert next(below_many(1, range(TOP, TOP + 1))) < TOP
    with pytest.raises(ValueError):
        next(below_many(1, range(RANGE64, RANGE64 + 1)))


# Lane t of a block after state holds the counter state + (t + 1) * GAMMA
# mod 2**64. GAMMA is about 0.62 * 2**64, so every block of two or more
# lanes wraps; the last two states put the wrap at lane 0 and lane 1.
LANE_STATES = {
    "zero": 0,
    "top": TOP,
    "lane-0-wraps-to-0": RANGE64 - GAMMA,
    "lane-1-wraps": RANGE64 - GAMMA - 1,
}


@pytest.mark.parametrize("state", LANE_STATES.values(), ids=LANE_STATES.keys())
@pytest.mark.parametrize("k", range(1, 21))
def test_outputs_equal_consecutive_next64(state, k):
    reference = ReferenceSplitMix64(state)
    assert outputs(state, k) == tuple(reference.next64() for _ in range(k))


def test_lane_states_wrap_where_named():
    assert LANE_STATES["lane-0-wraps-to-0"] + GAMMA == RANGE64
    assert LANE_STATES["lane-1-wraps"] + GAMMA == TOP
    assert LANE_STATES["lane-1-wraps"] + 2 * GAMMA > RANGE64


@given(st.lists(st.integers(0, TOP), min_size=1, max_size=20))
@example([0])
@example([TOP] * 20)
@example([0, TOP, 1, TOP - 1])
@settings(max_examples=100, deadline=None)
def test_mix_forms_agree(counters):
    # Packed lanes, a uint64 array and Python ints give the same outputs;
    # a wrapping uint64 array must not warn (warnings are errors here).
    scalars = [mix(c) for c in counters]
    assert scalars == [splitmix64_mix(c) for c in counters]
    mask = _lanes(len(counters))[2]
    packed = mix(sum(c << 128 * t for t, c in enumerate(counters)), mask)
    assert packed == sum(z << 128 * t for t, z in enumerate(scalars))  # high halves clear too
    assert mix(np.array(counters, dtype=np.uint64)).tolist() == scalars
