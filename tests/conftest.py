"""Shared fixtures and independent oracle helpers.

The WAV oracle is the stdlib wave module (plus a raw struct builder
for shapes wave cannot produce); the bit oracles are string based.
None of them share code with the package under test.
"""

from __future__ import annotations

import io
import struct
import tracemalloc
import wave

import numpy as np
import pytest

from duostego.lexicon import PosClass, load_default_lexicon, load_lexicon


def ref_wav_bytes(samples, rate=8000, channels=1) -> bytes:
    """Reference WAV writer: stdlib wave module, 16-bit PCM."""
    buf = io.BytesIO()
    with wave.open(buf, "wb") as wf:
        wf.setnchannels(channels)
        wf.setsampwidth(2)
        wf.setframerate(rate)
        wf.writeframes(struct.pack(f"<{len(samples)}H", *samples))
    return buf.getvalue()


def raw_wav_bytes(chunks, riff_size=None) -> bytes:
    """Hand-rolled RIFF builder for exotic and malformed layouts.

    `chunks` is a list of (id, body) byte pairs, emitted in order with
    RIFF odd-length padding.
    """
    out = bytearray()
    for cid, body in chunks:
        out += cid + struct.pack("<I", len(body)) + body
        if len(body) & 1:
            out += b"\x00"
    if riff_size is None:
        riff_size = 4 + len(out)
    return b"RIFF" + struct.pack("<I", riff_size) + b"WAVE" + bytes(out)


def pcm_fmt_body(channels=1, rate=8000, bits=16, tag=1) -> bytes:
    """fmt chunk body; block align and byte rate wrap to their 16 and 32 bits."""
    block = channels * bits // 8
    return struct.pack("<HHIIHH", tag, channels, rate, (rate * block) & 0xFFFFFFFF, block & 0xFFFF, bits)


def data_chunk_of(wav_bytes: bytes) -> bytes:
    """Locate and return the data chunk payload of a WAV byte stream."""
    pos = 12
    while pos + 8 <= len(wav_bytes):
        cid = wav_bytes[pos : pos + 4]
        (size,) = struct.unpack_from("<I", wav_bytes, pos + 4)
        if cid == b"data":
            return wav_bytes[pos + 8 : pos + 8 + size]
        pos += 8 + size + (size & 1)
    raise AssertionError("no data chunk found")


def same_clip(a, b) -> bool:
    """Content equality of two AudioClips, which themselves compare by identity."""
    return (
        (a.sample_rate, a.channel_count, a.trailing_chunks) == (b.sample_rate, b.channel_count, b.trailing_chunks)
        and np.array_equal(a.samples, b.samples)
    )


def traced_peak(fn, *args):
    """(fn(*args), peak bytes newly allocated during the call), by tracemalloc.

    numpy reports its array buffers to tracemalloc, so the peak covers
    both Python objects and array data.
    """
    tracemalloc.start()
    try:
        result = fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def bitstr(s: str) -> np.ndarray:
    """Bit array from a '0'/'1' string; spaces are ignored."""
    return np.array([int(c) for c in s.replace(" ", "")], dtype=np.uint8)


def ascii7_bits(text: str) -> str:
    """7-bit ASCII bit string of `text`, MSB first per character."""
    return "".join(format(ord(c), "07b") for c in text)


def make_lexicon_text(extra=None, cell_size=2) -> str:
    """Synthetic full-coverage lexicon text, optionally with extra entries.

    Every (digit, pos) cell gets `cell_size` unique synthetic words;
    `extra` is an iterable of (digit, PosClass, word) giving real words
    on top (e.g. the reference placements used in tests).
    """
    lines = []
    for digit in range(10):
        for pos in PosClass:
            for k in range(cell_size):
                lines.append(f"{digit}|{pos.value}|{pos.value}{digit}x{k}")
    for digit, pos, word in extra or ():
        lines.append(f"{digit}|{pos.value}|{word}")
    return "\n".join(lines) + "\n"


def words_for(lexicon, digit: int, pos: PosClass) -> tuple[str, ...]:
    """Sorted words of one (digit, POS) cell, read through Lexicon.words_by_pos."""
    return lexicon.words_by_pos[list(PosClass).index(pos)][digit]


# Reference placements shared by several known-answer tests.
REFERENCE_PLACEMENTS = (
    (0, PosClass.DET, "this"), (0, PosClass.DET, "that"),
    (0, PosClass.PRONOUN, "i"), (0, PosClass.PRONOUN, "they"), (0, PosClass.PRONOUN, "us"),
    (0, PosClass.PREPOSITION, "from"), (0, PosClass.PREPOSITION, "across"), (0, PosClass.PREPOSITION, "about"),
    (0, PosClass.NOUN, "door"), (0, PosClass.NOUN, "car"), (0, PosClass.NOUN, "memory"),
    (0, PosClass.VERB, "play"), (0, PosClass.VERB, "eat"), (0, PosClass.VERB, "walk"),
    (0, PosClass.PROPER_NOUN, "california"), (0, PosClass.PROPER_NOUN, "john"), (0, PosClass.PROPER_NOUN, "intel"),
    (1, PosClass.DET, "those"), (1, PosClass.DET, "an"),
    (1, PosClass.PRONOUN, "he"), (1, PosClass.PRONOUN, "she"), (1, PosClass.PRONOUN, "me"),
    (1, PosClass.PREPOSITION, "on"), (1, PosClass.PREPOSITION, "above"), (1, PosClass.PREPOSITION, "through"),
    (1, PosClass.NOUN, "tree"), (1, PosClass.NOUN, "school"), (1, PosClass.NOUN, "board"),
    (1, PosClass.VERB, "study"), (1, PosClass.VERB, "dance"), (1, PosClass.VERB, "climb"),
    (1, PosClass.PROPER_NOUN, "texas"), (1, PosClass.PROPER_NOUN, "nba"),
    (2, PosClass.DET, "a"), (2, PosClass.DET, "these"),
    (2, PosClass.PRONOUN, "you"), (2, PosClass.PRONOUN, "it"), (2, PosClass.PRONOUN, "their"),
    (2, PosClass.PREPOSITION, "to"), (2, PosClass.PREPOSITION, "towards"), (2, PosClass.PREPOSITION, "along"),
    (2, PosClass.NOUN, "girl"), (2, PosClass.NOUN, "university"), (2, PosClass.NOUN, "roof"),
    (2, PosClass.VERB, "sleep"), (2, PosClass.VERB, "like"), (2, PosClass.VERB, "enroll"),
    (2, PosClass.PROPER_NOUN, "ohio"), (2, PosClass.PROPER_NOUN, "george"), (2, PosClass.PROPER_NOUN, "mike"),
    (9, PosClass.DET, "the"),
    (9, PosClass.PRONOUN, "we"), (9, PosClass.PRONOUN, "ours"), (9, PosClass.PRONOUN, "his"),
    (9, PosClass.PREPOSITION, "among"), (9, PosClass.PREPOSITION, "at"), (9, PosClass.PREPOSITION, "before"),
    (9, PosClass.NOUN, "floor"), (9, PosClass.NOUN, "book"), (9, PosClass.NOUN, "pen"),
    (9, PosClass.VERB, "move"), (9, PosClass.VERB, "write"),
    (9, PosClass.PROPER_NOUN, "harvard"), (9, PosClass.PROPER_NOUN, "tony"),
)


@pytest.fixture(scope="session")
def default_lexicon():
    return load_default_lexicon()


@pytest.fixture(scope="session")
def reference_lexicon():
    """Synthetic lexicon carrying the reference placements."""
    return load_lexicon(make_lexicon_text(extra=REFERENCE_PLACEMENTS))
