"""Deterministic 64-bit random number generator.

Sample selection and sentence generation must replay identically from a
seed on every platform and every Python release, so the generator is
pinned rather than borrowed from `random` or `numpy.random` (whose
streams are only partially guaranteed across versions). The algorithm
is SplitMix64 (Steele, Lea & Flood 2014; also the seeding generator of
java.util.SplittableRandom), chosen for its tiny state and trivially
portable arithmetic.
"""

_MASK64 = (1 << 64) - 1
_RANGE64 = 1 << 64
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SplitMix64:
    """SplitMix64 stream over a 64-bit seed."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next64(self) -> int:
        """Next raw 64-bit output."""
        z = self._state = (self._state + _GOLDEN) & _MASK64
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound), rejection-sampled to avoid modulo bias.

        The next64 step is written out here: this is the generator's hot
        call, once per drawn word and per selected sample.
        """
        if bound <= 0:
            raise ValueError(f"bound must be positive, got {bound}")
        # Accept a draw z when the whole run of `bound` values starting at
        # z - z % bound fits below 2**64, i.e. z is under the largest
        # multiple of bound that does.
        top = _RANGE64 - bound
        state = self._state
        while True:
            state = (state + _GOLDEN) & _MASK64
            z = ((state ^ (state >> 30)) * _MIX1) & _MASK64
            z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
            z ^= z >> 31
            value = z % bound
            if z - value <= top:
                self._state = state
                return value
