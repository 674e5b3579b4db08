"""Deterministic 64-bit random number generator.

Sample selection and sentence generation must replay identically from a
seed on every platform and every Python release, so the generator is
pinned rather than borrowed from `random` or `numpy.random` (whose
streams are only partially guaranteed across versions). The algorithm
is SplitMix64 (Steele, Lea & Flood 2014; also the seeding generator of
java.util.SplittableRandom), chosen for its tiny state and trivially
portable arithmetic.

SplitMix64 is counter-based: its k-th output is mix(seed + k * GAMMA),
so below_many computes a block of draws as numpy uint64 arrays instead
of one call per draw. Wrapping uint64 arithmetic stays in arrays, which
wrap silently; scalars stay Python ints, because a numpy scalar that
wraps warns, and warnings are errors under `-W error`.
"""

from __future__ import annotations

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


class SplitMix64:
    """SplitMix64 stream over a 64-bit seed."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & MASK64

    def next64(self) -> int:
        """Next raw 64-bit output."""
        z = self._state = (self._state + GAMMA) & MASK64
        z = ((z ^ (z >> 30)) * MIX1) & MASK64
        z = ((z ^ (z >> 27)) * MIX2) & MASK64
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound), rejection-sampled to avoid modulo bias."""
        if not 0 < bound <= RANGE64:
            raise ValueError(f"bound must lie in [1, 2**64], got {bound}")
        # Keep a raw draw only under the largest multiple of bound that
        # fits in 64 bits; a rejected draw is replaced by the next one.
        limit = RANGE64 - RANGE64 % bound
        while True:
            z = self.next64()
            if z < limit:
                return z % bound

    def below_many(self, bounds: range) -> Iterator[int]:
        """Yields [self.below(b) for b in bounds], _BLOCK draws at a time.

        Every bound must lie in [1, 2**64). Once exhausted, the stream is
        where that loop would leave it. A block is drawn as if none of
        its draws were rejected; from its first rejected row on, the
        block is replayed through below. A draw z is rejected for bound
        b when z - z % b > 2**64 - b, which is below's rule.
        """
        if bounds and not 0 < min(bounds[0], bounds[-1]) <= max(bounds[0], bounds[-1]) < RANGE64:
            raise ValueError(f"bounds must lie in [1, 2**64), got {bounds}")
        for start in range(0, len(bounds), _BLOCK):
            block = bounds[start : start + _BLOCK]
            b = np.arange(block.start, block.stop, block.step, dtype=np.uint64)
            z = _STEPS[: b.size] + np.uint64(self._state)
            z ^= z >> 30
            z *= MIX1
            z ^= z >> 27
            z *= MIX2
            z ^= z >> 31
            values = z % b
            z -= values
            rejected = np.flatnonzero(z > -b)
            kept = b.size if rejected.size == 0 else int(rejected[0])
            self._state = (self._state + kept * GAMMA) & MASK64
            yield from values[:kept].tolist()
            for bound in block[kept:]:
                yield self.below(bound)
