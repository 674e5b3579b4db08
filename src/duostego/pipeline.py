"""End-to-end covering and uncovering, capacity, and distortion reports.

Covering produces two artifacts that only work together: the stego
audio (payload chunks in the three low bits of randomly selected
samples) and a text of generated sentences (each sentence spells the
grid coordinates of one selected sample, one digit per word, in
embedding order). Uncovering needs both artifacts and the shared
lexicon, but no seed: the sample locations travel in the text.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from random import SystemRandom
from types import SimpleNamespace
from typing import Sequence

import numpy as np

from . import payload_codec, sample_grid
from .errors import (
    BadSentenceLengthError,
    CapacityExceededError,
    HeaderCorruptError,
    LengthMismatchError,
)
from .lexicon import Lexicon
from .payload_codec import HEADER_BITS
from .rng import SplitMix64
from .wav_codec import AudioClip

# Keeps the sentence-seed stream distinct from the sample-selection
# stream, which is seeded with the user seed directly.
_TEXT_STREAM_SALT = 0x74657874_73746567
# Samples per distortion_report block: under 1 MB of temporaries, so
# they stay in cache. A block's power sums are below _BLOCK * 0xFFFF**2,
# which must stay under 2**63 for its 64-bit sums to be exact.
_BLOCK = 1 << 16
# The pinned cover and uncover loops call these two names, and
# bench/layers.py imports both of them from here.
from . import grammar as DEFAULT_GRAMMAR
decode_sentence = Lexicon.digits_of
# `import secrets` would load hashlib and OpenSSL (about 3.7 MB in every
# process); pinned cover's secrets.randbits(64) gets the same os.urandom bits.
secrets = SimpleNamespace(randbits=SystemRandom().getrandbits)


@dataclass(frozen=True, eq=False)
class StegoBundle:
    """The two intermediates produced by cover(), plus the seed that made them."""

    stego_audio: AudioClip
    sentences: tuple[tuple[str, ...], ...]
    seed_used: int

    def __post_init__(self):
        # A numpy integer seed is kept as a Python int, so the bundle's
        # seed prints, compares and serialises like any other.
        object.__setattr__(self, "seed_used", operator.index(self.seed_used))


@dataclass(frozen=True)
class DistortionReport:
    """How far a stego clip strayed from its carrier."""

    samples_changed: int
    max_abs_delta: int
    mean_abs_delta: float
    snr_db: float


def capacity_bits(clip: AudioClip) -> int:
    """Raw embedding capacity: 3 bits per 16-bit sample."""
    return 3 * clip.sample_count


def capacity_bytes(clip: AudioClip) -> int:
    """Largest payload that fits after the 32-bit length header."""
    return max(0, (capacity_bits(clip) - HEADER_BITS) // 8)


def cover(
    carrier: AudioClip,
    payload: bytes,
    lexicon: Lexicon,
    seed: int | None = None,
) -> StegoBundle:
    """Hide `payload` in `carrier`, returning stego audio plus location text.

    The seed (random if omitted) drives both sample selection and
    sentence wording; rerunning with bundle.seed_used reproduces the
    bundle exactly. Sample selection is seeded with the seed directly,
    so select_samples(n, m, seed) recomputes the embedding positions.
    """
    if seed is None:
        seed = secrets.randbits(64)
    n = carrier.sample_count
    needed_bits = 8 * len(payload) + HEADER_BITS
    if needed_bits > capacity_bits(carrier):
        raise CapacityExceededError(
            f"payload of {len(payload)} bytes needs {needed_bits} bits but the "
            f"carrier holds {capacity_bits(carrier)} ({capacity_bytes(carrier)} payload bytes)"
        )

    bits = payload_codec.frame(payload_codec.bytes_to_bits(payload))
    chunks = payload_codec.chunk(bits)
    order = sample_grid.select_samples(n, len(chunks), seed)
    indices = np.fromiter(order, dtype=np.int64, count=len(order))

    stego_samples = sample_grid.embed_chunks(carrier.samples, indices, chunks)
    stego = carrier.with_samples(stego_samples)

    geom = sample_grid.geometry(n)
    seeder = SplitMix64(seed ^ _TEXT_STREAM_SALT)
    sentences = tuple(
        tuple(DEFAULT_GRAMMAR.generate_sentence(lexicon, geom.digits_for(i), seeder.next64()))
        for i in order
    )
    return StegoBundle(stego, sentences, seed)


def uncover(stego: AudioClip, sentences: Sequence[Sequence[str]], lexicon: Lexicon) -> bytes:
    """Recover the payload from the stego audio and the location text.

    Sentence order matters: it is the chunk order. No seed is needed.
    """
    if stego.sample_count == 0:
        raise HeaderCorruptError("stego audio has no samples")
    geom = sample_grid.geometry(stego.sample_count)
    expected_len = 2 * geom.digit_width

    positions = []
    for line_no, tokens in enumerate(sentences):
        tokens = list(tokens)
        if len(tokens) != expected_len:
            raise BadSentenceLengthError(
                f"sentence {line_no}: {len(tokens)} words, expected {expected_len} "
                f"for a carrier of {stego.sample_count} samples"
            )
        digits = decode_sentence(lexicon, tokens)
        positions.append(geom.index_from_digits(digits))

    m = len(positions)
    total_bits = 3 * m
    if total_bits < HEADER_BITS:
        raise HeaderCorruptError(
            f"{m} sentences supply only {total_bits} bits, "
            f"fewer than the {HEADER_BITS}-bit length header"
        )
    indices = np.fromiter(positions, dtype=np.int64, count=m)
    chunks = sample_grid.extract_chunks(stego.samples, indices)
    bits = payload_codec.unchunk(chunks, total_bits)
    payload_bits = payload_codec.unframe(bits)
    slack = total_bits - HEADER_BITS - payload_bits.size
    if not 0 <= slack < 3:
        raise HeaderCorruptError(
            f"{m} sentences are inconsistent with a declared payload of "
            f"{payload_bits.size} bits"
        )
    if payload_bits.size % 8:
        raise HeaderCorruptError(
            f"declared payload of {payload_bits.size} bits is not a whole number of bytes"
        )
    return payload_codec.bits_to_bytes(payload_bits)


def distortion_report(original: AudioClip, stego: AudioClip) -> DistortionReport:
    """Per-sample damage statistics plus signal-to-noise ratio in dB.

    Deltas are over the unsigned 16-bit patterns; the SNR interprets
    samples as signed amplitudes. SNR is +inf for identical clips.
    Walks _BLOCK-sample blocks with Python-int totals, so extra memory
    is bounded; mean_abs_delta is the exact |delta| sum divided by n.
    No block temporary but a gather's index is wider than 32 bits, each
    is freed before the next is made, and each sum is exact in 64 bits
    (a block's sums stay below _BLOCK * 0xFFFF**2 < 2**63): int32 signal
    squares (<= 2**30), uint16 |delta|, and int32 noise squares read as
    uint32 (<= 0xFFFF**2 < 2**32). An unchanged sample adds nothing to
    the damage sums, so when fewer than a quarter of a block changed
    they are taken over the changed samples alone: past that one pass
    over the original, cost follows the damage rather than the carrier.
    """
    n = original.sample_count
    if n != stego.sample_count:
        raise LengthMismatchError(f"clips have {n} and {stego.sample_count} samples")
    changed = max_delta = abs_sum = signal_power = noise_power = 0
    for block in range(0, n, _BLOCK):
        x = original.samples[block : block + _BLOCK]
        y = stego.samples[block : block + _BLOCK]
        signal_power += int(np.square(x.view(np.int16), dtype=np.int32).sum(dtype=np.int64))
        moved = x != y
        count = int(np.count_nonzero(moved))
        if not count:
            continue
        if 4 * count < x.size:
            moved = np.flatnonzero(moved)
            x, y = x[moved], y[moved]
        del moved
        delta = np.maximum(x, y)
        delta -= np.minimum(x, y)
        changed += count
        max_delta = max(max_delta, int(delta.max()))
        abs_sum += int(delta.sum(dtype=np.uint64))
        del delta
        noise = np.subtract(x.view(np.int16), y.view(np.int16), dtype=np.int32)
        noise_power += int(np.square(noise, out=noise).view(np.uint32).sum(dtype=np.uint64))
    if noise_power == 0:
        snr = math.inf
    else:
        snr = 10.0 * math.log10(signal_power / noise_power) if signal_power else -math.inf
    return DistortionReport(changed, max_delta, abs_sum / n if n else 0.0, snr)
