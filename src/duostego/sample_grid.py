"""The carrier's samples as a 2D map, slot selection, and 3-LSB embedding.

The linear sample sequence is laid out row-major on a near-square grid
so every sample has (x, y) coordinates. Both sides recompute the grid
from the sample count alone, which is why the dimensions are a pure
function of N: width = ceil(sqrt(N)), height = ceil(N / width), and
both coordinate components print with one shared zero-padded digit
width.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import islice, product
from typing import Sequence

import numpy as np

from .errors import CapacityExceededError, CoordinateOutOfRangeError, OutOfRangeError, RepeatedPositionError
from .rng import below_many
from .wav_codec import sample_buffer

CHUNK_MASK = 0b111
KEEP_MASK = 0xFFF8  # upper thirteen bits of a 16-bit sample


@dataclass(frozen=True)
class GridGeometry:
    """Row-major grid over `total_samples` samples."""

    total_samples: int
    width: int
    digit_width: int

    @cached_property
    def _coord_digits(self) -> tuple[tuple[int, ...], ...]:
        """Zero-padded digits of every coordinate value, built on first use.

        The digit tuples of 0, 1, 2, ... in order are exactly the
        lexicographic product of range(10), so the table costs
        O(width), not O(total_samples); height <= width always holds.
        """
        return tuple(islice(product(range(10), repeat=self.digit_width), self.width))

    def digits_for(self, index: int) -> tuple[int, ...]:
        """The 2 x digit_width coordinate digits of an index select_samples gave cover, x's first."""
        x, y = divmod(index, self.width)
        table = self._coord_digits
        return table[x] + table[y]

    def index_from_digits(self, digits: Sequence[int]) -> int:
        """Inverse of digits_for on uncover's 2 x digit_width digits; raises CoordinateOutOfRangeError off-grid."""
        d = self.digit_width
        # Read all 2d digits as one decimal number: x is its upper half.
        value = 0
        for digit in digits:
            value = 10 * value + digit
        x, y = divmod(value, 10**d)
        index = x * self.width + y
        # A row past the last one always gives index >= total_samples.
        if not (0 <= y < self.width and 0 <= index < self.total_samples):
            raise CoordinateOutOfRangeError(f"coordinate ({x}, {y}) outside the {self.total_samples}-sample grid")
        return index


def geometry(n: int) -> GridGeometry:
    """Grid over n >= 1 samples (cover and uncover turn n = 0 away); both parties derive it from n alone."""
    width = math.isqrt(n - 1) + 1  # ceil(sqrt(n)) without float rounding
    digit_width = len(str(width - 1))  # height <= width, so x needs no more digits than y
    return GridGeometry(n, width, digit_width)


def select_samples(n: int, m: int, seed: int) -> list[int]:
    """m distinct sample indices out of n, in embedding order.

    Deterministic for a fixed seed (SplitMix64-driven partial
    Fisher-Yates, sparse so cost is O(m) regardless of n). The order is
    itself a uniform random m-permutation of the n indices. Step t swaps
    in a uniform draw from [0, n - t), one of below_many's block draws.
    """
    if m > n:
        raise CapacityExceededError(f"cannot select {m} distinct samples from {n}")
    if m < 0:
        raise ValueError(f"selection count must be non-negative, got {m}")
    if not 0 <= seed < 1 << 64:
        raise OutOfRangeError(f"seed {seed} outside [0, 2**64)")
    draws = below_many(seed, range(n, n - m, -1))
    displaced: dict[int, int] = {}
    out = []
    for t, draw in enumerate(draws):
        j = t + draw
        out.append(displaced.get(j, j))
        displaced[j] = displaced.get(t, t)
    return out


def embed_chunks(samples: np.ndarray, indices: np.ndarray, chunks: np.ndarray) -> np.ndarray:
    """Replace the three low bits of the selected samples with `chunks`; returns a new array.

    The new array is a wav_codec.sample_buffer, so the first write_wav of
    a clip of it claims that buffer and copies no sample.
    """
    out = sample_buffer(samples.size)
    out[:] = samples
    out[indices] = (out[indices] & KEEP_MASK) | chunks
    return out


def extract_chunks(samples: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """The three low bits of the selected samples, in `indices` order.

    Covering never selects a sample twice, so a repeated position means
    damaged location text; it raises RepeatedPositionError naming the
    first sentence that repeats an earlier one.
    """
    ordered = np.sort(indices)
    if np.any(ordered[1:] == ordered[:-1]):
        seen: dict[int, int] = {}
        for sentence, index in enumerate(indices.tolist()):
            if index in seen:
                raise RepeatedPositionError(seen[index], sentence, index)
            seen[index] = sentence
    return (samples[indices] & CHUNK_MASK).astype(np.uint8)
