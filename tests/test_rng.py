"""SplitMix64.below_many against a loop of the scalar reference draw.

below_many draws blocks of rows as uint64 arrays and restarts a block
after its first rejected row. Every case compares both the values and
the stream's state afterwards with a loop of oracles.below.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from duostego.rng import _BLOCK, GAMMA, MASK64, RANGE64, SplitMix64

from oracles import _seed_whose_first_output_is, below

TOP = RANGE64 - 1


def _scalar(seed: int, bounds: range):
    rng = SplitMix64(seed)
    return [below(rng, b) for b in bounds], rng._state


def _blocked(seed: int, bounds: range):
    rng = SplitMix64(seed)
    return list(rng.below_many(bounds)), rng._state


def _seed_rejecting(bound: int, row: int) -> int:
    """A seed whose raw draw `row` is the smallest one below(bound) rejects."""
    return (_seed_whose_first_output_is(RANGE64 - RANGE64 % bound) - row * GAMMA) & MASK64


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
    reference = SplitMix64(seed)
    raw = [reference.next64() for _ in range(row + 2)]
    limit = RANGE64 - RANGE64 % bound
    assert raw[row] == limit
    assert all(z < RANGE64 - RANGE64 % b for z, b in zip(raw[:row], bounds))
    values, state = _blocked(seed, bounds)
    assert (values, state) == _scalar(seed, bounds)
    # The rejected draw is replaced by the next raw draw.
    assert raw[row + 1] < limit
    assert values[row] == raw[row + 1] % bound


@pytest.mark.parametrize("bounds", [range(0, 3), range(5, -1, -1), range(RANGE64 - 1, RANGE64 + 1)])
def test_bounds_outside_the_range_rejected(bounds):
    with pytest.raises(ValueError):
        next(SplitMix64(1).below_many(bounds))


def test_below_rejects_bounds_past_64_bits():
    # Bounds are uint64 arrays, so 2**64 - 1 is the largest one.
    assert next(SplitMix64(1).below_many(range(TOP, TOP + 1))) < TOP
    with pytest.raises(ValueError):
        next(SplitMix64(1).below_many(range(RANGE64, RANGE64 + 1)))
