"""Payload bytes <-> bit string <-> 3-bit chunk conversions.

Bit strings are numpy uint8 arrays holding one bit per element, most
significant bit of each source byte first. Before chunking, a 32-bit
big-endian length header is prepended so the receiver knows where the
payload ends; the final chunk is zero-padded on the right and the pad
disappears when the declared length is applied.
"""

from __future__ import annotations

import struct

import numpy as np

from .errors import HeaderCorruptError, OversizeError

CHUNK_BITS = 3
HEADER_BITS = 32

_CHUNK_WEIGHTS = np.array([4, 2, 1], dtype=np.uint8)
_CHUNK_SHIFTS = np.array([2, 1, 0], dtype=np.uint8)


def bytes_to_bits(payload: bytes) -> np.ndarray:
    """Bits of `payload` in byte order, MSB first within each byte."""
    return np.unpackbits(np.frombuffer(bytes(payload), dtype=np.uint8))


def bits_to_bytes(bits: np.ndarray) -> bytes:
    """Inverse of bytes_to_bits for whole bytes: uncover checks its payload's bit count, unframe passes 32."""
    return np.packbits(bits).tobytes()


def frame(bits: np.ndarray) -> np.ndarray:
    """Prepend a 32-bit big-endian bit-count header to `bits`."""
    if bits.size >= 1 << 32:
        raise OversizeError(f"{bits.size} bits cannot be described by a 32-bit header")
    return np.concatenate([bytes_to_bits(struct.pack(">I", bits.size)), bits])


def unframe(bits: np.ndarray) -> np.ndarray:
    """Strip the length header and return exactly the declared bits.

    bits holds the whole header, which uncover checks. Up to two trailing
    chunk-padding bits are the caller's business; fewer than declared is corrupt.
    """
    (declared,) = struct.unpack(">I", bits_to_bytes(bits[:HEADER_BITS]))
    if declared > bits.size - HEADER_BITS:
        raise HeaderCorruptError(
            f"header declares {declared} payload bits but only "
            f"{bits.size - HEADER_BITS} are present"
        )
    return bits[HEADER_BITS : HEADER_BITS + declared]


def chunk(bits: np.ndarray) -> np.ndarray:
    """Split a bit string into 3-bit values, zero-padding the last group.

    Returns a uint8 array of values 0-7, ceil(len/3) long.
    """
    pad = -bits.size % CHUNK_BITS
    if pad:
        bits = np.concatenate([bits, np.zeros(pad, dtype=np.uint8)])
    return bits.reshape(-1, CHUNK_BITS) @ _CHUNK_WEIGHTS


def unchunk(chunks: np.ndarray, bit_length: int) -> np.ndarray:
    """Concatenate 3-bit chunks and truncate to `bit_length` bits.

    `bit_length` leaves 0-2 padding bits in the final chunk; uncover
    passes every chunk's bits, 3 x chunks.size.
    """
    bits = (chunks[:, None] >> _CHUNK_SHIFTS) & 1
    return bits.reshape(-1)[:bit_length]
