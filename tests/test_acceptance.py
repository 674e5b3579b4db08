"""Acceptance suite: one test per shipping criterion, exact tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line
per criterion (a pytest failure is the FAIL line).
"""

import math

import numpy as np
import pytest

from duostego.errors import DuplicateWordError
from duostego.lexicon import PosClass, load_lexicon
from duostego.payload_codec import chunk
from duostego.pipeline import capacity_bits, capacity_bytes, cover, uncover
from duostego.sample_grid import embed_chunks, select_samples
from duostego.wav_codec import AudioClip, parse_wav, write_wav

from conftest import (
    ascii7_bits,
    bitstr,
    data_chunk_of,
    make_lexicon_text,
    pcm_fmt_body,
    raw_wav_bytes,
    ref_wav_bytes,
    same_clip,
)
from oracles import oracle_skeletons, recognize, skeletons_of_length


def report(number, text):
    print(f"\nACCEPTANCE {number} PASS: {text}")


def test_criterion_1_capacity_ratio():
    # 3 payload bits per 16-bit sample, exactly
    for n in (1, 5, 16000, 999_983):
        clip = AudioClip(8000, 1, np.zeros(n, dtype=np.uint16))
        assert capacity_bits(clip) == 3 * n
        assert capacity_bits(clip) / (16 * n) == 0.1875
        assert capacity_bytes(clip) == max(0, (3 * n - 32) // 8)
    assert 3 / 16 == 0.1875
    report(1, "capacity is exactly 3 bits per 16-bit sample (ratio 0.1875)")


def test_criterion_2_known_answer_chunking_vector():
    bits = ascii7_bits("kill joe")
    assert len(bits) == 56
    got = chunk(bitstr(bits)).tolist()
    expected = [0b110, 0b101, 0b111, 0b010, 0b011, 0b101, 0b100, 0b110, 0b110,
                0b001, 0b000, 0b001, 0b101, 0b010, 0b110, 0b111, 0b111, 0b001,
                0b010]
    assert len(got) == 19
    assert got[:6] == [0b110, 0b101, 0b111, 0b010, 0b011, 0b101]
    assert got[-1] == 0b010  # trailing '01' zero-padded
    assert got == expected
    report(2, "the 56-bit test message chunks to the 19 known-answer 3-bit values")


# Known-answer embedding vectors: (16-bit sample string, 3-bit chunk string).
# Embedded spaces are stripped; entries that are not well-formed 16-bit
# strings (two are 15 digits long) are skipped.
KNOWN_EMBEDDINGS = [
    ("0010111100111111", "110"),
    ("1110100110110011", "101"),
    ("101000000001111", "111"),     # 15 digits, skipped
    ("1110111111111111", "010"),
    ("11101001 00110000", "011"),
    ("1010101000000000", "101"),
    ("1111001011111111", "100"),
    ("1110100110110011", "110"),
    ("1010001100001111", "110"),
    ("1110111111111000", "001"),
    ("1110101100110010", "000"),
    ("1010101000000000", "001"),
    ("0011001011001111", "101"),
    ("0010100100110101", "010"),
    ("1010101000011001", "110"),
    ("0111001001101101", "111"),
    ("1010100100110100", "111"),
    ("0010101000100001", "001"),
    ("011100101111000", "01"),      # 15 digits, skipped
]


def test_criterion_3_embedding_rule_vector():
    vectors = [
        (sample_str.replace(" ", ""), int(chunk_str.ljust(3, "0"), 2))
        for sample_str, chunk_str in KNOWN_EMBEDDINGS
        if len(sample_str.replace(" ", "")) == 16
    ]
    checked = len(vectors)
    assert checked == 17
    samples = np.array([int(s, 2) for s, _ in vectors], dtype=np.uint16)
    values = np.array([v for _, v in vectors], dtype=np.uint8)
    embedded = embed_chunks(samples, np.arange(checked), values)
    for (sample_str, value), got in zip(vectors, embedded.tolist()):
        # independent bit-twiddling oracle: textual splice of the bit strings
        assert format(got, "016b") == sample_str[:13] + format(value, "03b")
    assert np.array_equal(embedded >> 3, samples >> 3)
    assert np.array_equal(embedded & 0b111, values)
    report(3, f"embedding keeps the thirteen high bits on all {checked} known-answer samples")


def test_criterion_4_coordinate_decoding_vector(reference_lexicon, default_lexicon):
    for lexicon in (reference_lexicon, default_lexicon):
        assert lexicon.digits_of(["a", "book", "from", "school"]) == [2, 9, 0, 1]
    report(4, '"a book from school" decodes to [2, 9, 0, 1]')


def test_criterion_5_grammar_oracle_equivalence():
    for length in range(1, 9):
        enumerated = set(skeletons_of_length(length))
        assert enumerated == oracle_skeletons(length), f"length {length}"
        for skeleton in enumerated:
            assert recognize(skeleton)
    # recognizer also rejects exactly the non-members
    rng = np.random.default_rng(2024)
    classes = list(PosClass)
    for _ in range(2000):
        length = int(rng.integers(1, 9))
        skeleton = tuple(classes[i] for i in rng.integers(0, len(classes), size=length))
        assert recognize(skeleton) == (
            skeleton in set(skeletons_of_length(length))
        )
    report(5, "enumeration matches the BFS oracle for lengths 1-8; the CYK oracle agrees")


def test_criterion_6_randomized_round_trip_suite(default_lexicon):
    rng = np.random.default_rng(60486048)
    cases = 1000
    for case in range(cases):
        n = int(round(10 ** rng.uniform(3, 6)))
        if case % 25 == 1:
            n = int(rng.integers(1000, 3000))  # small carrier, filled to the brim
        carrier = AudioClip(8000, 1, rng.integers(0, 1 << 16, size=n, dtype=np.uint16))
        limit = capacity_bytes(carrier)
        if case == 0:
            length = 0
        elif case % 25 == 1:
            length = limit
        else:
            length = int(rng.integers(0, min(limit, 600) + 1))
        payload = rng.bytes(length)
        seed = int(rng.integers(0, 2**63))

        bundle = cover(carrier, payload, default_lexicon, seed=seed)
        assert uncover(bundle.stego_audio, bundle.sentences, default_lexicon) == payload

        delta = np.abs(
            bundle.stego_audio.samples.astype(np.int64) - carrier.samples.astype(np.int64)
        )
        assert delta.max() <= 7
        selected = select_samples(n, math.ceil((8 * length + 32) / 3), seed)
        mask = np.ones(n, dtype=bool)
        mask[selected] = False
        assert np.array_equal(bundle.stego_audio.samples[mask], carrier.samples[mask])
    report(6, f"{cases} randomized carriers/payloads/seeds round-trip bit-exactly")


def test_criterion_7_lexicon_disjointness_enforced():
    text = make_lexicon_text(
        extra=[(0, PosClass.VERB, "walk"), (9, PosClass.VERB, "walk")]
    )
    with pytest.raises(DuplicateWordError):
        load_lexicon(text)
    report(7, "a category table that repeats 'walk' in categories 0 and 9 is rejected")


def test_criterion_8_wav_data_chunk_fidelity():
    rng = np.random.default_rng(88)
    corpus = []
    for channels in (1, 2):
        for frames in (0, 1, 3, 4, 7, 64, 255):
            samples = rng.integers(0, 1 << 16, size=frames * channels, dtype=np.uint16)
            corpus.append(ref_wav_bytes(samples.tolist(), rate=8000, channels=channels))
    # hand-built file with chunks around the data chunk (odd-length one padded)
    corpus.append(
        raw_wav_bytes(
            [
                (b"LIST", b"INFOxyz"),
                (b"fmt ", pcm_fmt_body()),
                (b"data", rng.integers(0, 256, size=10, dtype=np.uint8).tobytes()),
                (b"cue ", b"\x01\x02\x03"),
            ]
        )
    )
    for original in corpus:
        rewritten = write_wav(parse_wav(original))
        assert data_chunk_of(rewritten) == data_chunk_of(original)
        assert same_clip(parse_wav(rewritten), parse_wav(original))
    report(8, f"data chunks round-trip byte-identically across {len(corpus)} generated files")
