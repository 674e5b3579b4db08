"""Deterministic 64-bit random number generator.

Sample selection and sentence generation must replay identically from a
seed on every platform and every Python release, so the generator is
pinned rather than borrowed from `random` or `numpy.random` (whose
streams are only partially guaranteed across versions). The algorithm
is SplitMix64 (Steele, Lea & Flood 2014; also the seeding generator of
java.util.SplittableRandom), chosen for its tiny state and trivially
portable arithmetic.

SplitMix64 is counter-based: its k-th output is mix(seed + k * GAMMA).
Each job reads one stream from its own seed, through SplitMix64.next64
or below_many. mix takes a Python int (a numpy scalar that wraps warns,
and warnings are errors under `-W error`), a uint64 array (their blocks;
arrays wrap silently), or k counters in 128-bit lanes of one int
(outputs). A 64 x 64-bit product fits its lane, so no carry crosses
lanes, but z >> 30 moves lane t + 1's low bits into the top of lane t:
mix masks each lane to 64 bits before and after each multiply and at
the end, a no-op on the other two forms.
"""

from __future__ import annotations

import operator
import struct
from functools import cache
from itertools import chain, count
from typing import Iterator

import numpy as np

MASK64 = (1 << 64) - 1
RANGE64 = 1 << 64
GAMMA = 0x9E3779B97F4A7C15
MIX1 = 0xBF58476D1CE4E5B9
MIX2 = 0x94D049BB133111EB

# Outputs per next64 or below_many block: a few tens of kB of temporaries,
# so the arrays stay in cache and a long stream adds little to peak memory.
_BLOCK = 1 << 12
# k * GAMMA for k = 1.._BLOCK: a block's counters, less the state.
_STEPS = np.arange(1, _BLOCK + 1, dtype=np.uint64) * np.uint64(GAMMA)
_STEPS.flags.writeable = False


def mix(z, mask=MASK64):
    """SplitMix64's output of z: an int in [0, 2**64), a uint64 array, or lanes with mask _lanes(k)[2]."""
    z = ((z ^ (z >> 30)) & mask) * MIX1 & mask
    z = ((z ^ (z >> 27)) & mask) * MIX2 & mask
    return (z ^ (z >> 31)) & mask


@cache
def _lanes(k: int):
    """For k lanes: a 1 in each, the steps t * GAMMA (t = 1..k), the lane mask and an unpacker."""
    ones = sum(1 << 128 * t for t in range(k))
    steps = sum((t * GAMMA & MASK64) << 128 * (t - 1) for t in range(1, k + 1))
    return ones, steps, ones * MASK64, struct.Struct("<" + "Q8x" * k).unpack, 16 * k


def outputs(state: int, k: int) -> tuple[int, ...]:
    """The k outputs after state in [0, 2**64): mix(state + t * GAMMA) for t = 1..k."""
    ones, steps, mask, unpack, size = _lanes(k)
    return unpack(mix((state * ones + steps) & mask, mask).to_bytes(size, "little"))


def _block(counter: int) -> list[int]:
    """The _BLOCK outputs after counter (any int, taken mod 2**64), as ints."""
    return mix(_STEPS + np.uint64(counter & MASK64)).tolist()


class SplitMix64:
    """SplitMix64 stream over a 64-bit seed (any integer type, taken mod 2**64): next64() is its next output."""

    __slots__ = ("next64",)

    def __init__(self, seed: int):
        # One C-level iterator over blocks; a generator function is slower per output.
        blocks = map(_block, count(operator.index(seed) & MASK64, _BLOCK * GAMMA))
        self.next64 = chain.from_iterable(blocks).__next__


def below_many(seed: int, bounds: range) -> Iterator[int]:
    """Uniform integers in [0, b) for each b in bounds from seed's stream, _BLOCK draws at a time.

    Every bound must lie in [1, 2**64). A raw draw z is kept for b iff
    it lies under the largest multiple of b that fits in 64 bits, i.e.
    iff z - z % b <= 2**64 - b. At a block's first rejected row the
    counter moves past the rejected draw, the rows before it are
    yielded, and the next block starts at that row's bound.
    """
    if bounds and not 0 < min(bounds[0], bounds[-1]) <= max(bounds[0], bounds[-1]) < RANGE64:
        raise ValueError(f"bounds must lie in [1, 2**64), got {bounds}")
    state = operator.index(seed) & MASK64
    while bounds:
        block = bounds[:_BLOCK]
        b = np.arange(block.start, block.stop, block.step, dtype=np.uint64)
        z = mix(_STEPS[: b.size] + np.uint64(state))
        values = z % b
        rejected = np.flatnonzero(z - values > -b)
        kept = int(rejected[0]) if rejected.size else b.size
        state = (state + (kept + bool(rejected.size)) * GAMMA) & MASK64
        yield from values[:kept].tolist()
        bounds = bounds[kept:]
