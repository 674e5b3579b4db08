"""Deterministic 64-bit random number generator.

Sample selection and sentence generation must replay identically from a
seed on every platform and every Python release, so the generator is
pinned rather than borrowed from `random` or `numpy.random` (whose
streams are only partially guaranteed across versions). The algorithm
is SplitMix64 (Steele, Lea & Flood 2014; also the seeding generator of
java.util.SplittableRandom), chosen for its tiny state and trivially
portable arithmetic.

SplitMix64 is counter-based: its k-th output is mix(seed + k * GAMMA).
So one output function, mix, serves next64 on a Python int and
below_many on a block of counters as a numpy uint64 array, where
arithmetic wraps silently. Scalars stay Python ints, because a numpy
scalar that wraps warns, and warnings are errors under `-W error`.
A rejected draw restarts the block after it.
"""

from __future__ import annotations

import operator
from typing import Iterator

import numpy as np

MASK64 = (1 << 64) - 1
RANGE64 = 1 << 64
GAMMA = 0x9E3779B97F4A7C15
MIX1 = 0xBF58476D1CE4E5B9
MIX2 = 0x94D049BB133111EB

# Draws per below_many block: a few tens of kB of temporaries, so the
# arrays stay in cache and a long selection adds little to peak memory.
_BLOCK = 1 << 12
# k * GAMMA for k = 1.._BLOCK: a block's counters, less the state.
_STEPS = np.arange(1, _BLOCK + 1, dtype=np.uint64) * np.uint64(GAMMA)
_STEPS.flags.writeable = False


def mix(z):
    """SplitMix64's output of counter z, an int in [0, 2**64) or a uint64 array."""
    z = ((z ^ (z >> 30)) * MIX1) & MASK64
    z = ((z ^ (z >> 27)) * MIX2) & MASK64
    return z ^ (z >> 31)


class SplitMix64:
    """SplitMix64 stream over a 64-bit seed (any integer type, taken mod 2**64)."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = operator.index(seed) & MASK64

    def next64(self) -> int:
        """Next raw 64-bit output."""
        self._state = (self._state + GAMMA) & MASK64
        return mix(self._state)

    def below_many(self, bounds: range) -> Iterator[int]:
        """Uniform integers in [0, b) for each b in bounds, _BLOCK draws at a time.

        Every bound must lie in [1, 2**64). A raw draw z is kept for b iff
        it lies under the largest multiple of b that fits in 64 bits, i.e.
        iff z - z % b <= 2**64 - b. At a block's first rejected row the
        state moves past the rejected draw, the rows before it are
        yielded, and the next block starts at that row's bound.
        """
        if bounds and not 0 < min(bounds[0], bounds[-1]) <= max(bounds[0], bounds[-1]) < RANGE64:
            raise ValueError(f"bounds must lie in [1, 2**64), got {bounds}")
        while bounds:
            block = bounds[:_BLOCK]
            b = np.arange(block.start, block.stop, block.step, dtype=np.uint64)
            z = mix(_STEPS[: b.size] + np.uint64(self._state))
            values = z % b
            rejected = np.flatnonzero(z - values > -b)
            kept = int(rejected[0]) if rejected.size else b.size
            self._state = (self._state + (kept + bool(rejected.size)) * GAMMA) & MASK64
            yield from values[:kept].tolist()
            bounds = bounds[kept:]
