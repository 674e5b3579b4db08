import numpy as np
import pytest
from hypothesis import given, strategies as st

from duostego.errors import HeaderCorruptError, OversizeError
from duostego.payload_codec import (
    bits_to_bytes,
    bytes_to_bits,
    chunk,
    frame,
    unchunk,
    unframe,
)

from conftest import ascii7_bits, bitstr

# The worked example: "kill joe" as 7-bit ASCII, 56 bits, 19 chunks.
KILL_JOE_BITS = ascii7_bits("kill joe")
KILL_JOE_CHUNKS = [0b110, 0b101, 0b111, 0b010, 0b011, 0b101, 0b100, 0b110, 0b110,
                   0b001, 0b000, 0b001, 0b101, 0b010, 0b110, 0b111, 0b111, 0b001,
                   0b010]  # final chunk is the trailing '01' zero-padded


class TestBytesBits:
    def test_empty(self):
        assert bytes_to_bits(b"").size == 0
        assert bits_to_bytes(np.zeros(0, dtype=np.uint8)) == b""

    def test_all_ones_byte(self):
        assert bytes_to_bits(b"\xff").tolist() == [1] * 8

    def test_ascii_ki_msb_first(self):
        assert np.array_equal(bytes_to_bits(b"ki"), bitstr("01101011 01101001"))

    def test_single_byte_back(self):
        assert bits_to_bytes(bitstr("01101011")) == b"\x6b"

    @given(st.binary(max_size=300))
    def test_round_trip(self, payload):
        assert bits_to_bytes(bytes_to_bits(payload)) == payload

    def test_string_oracle_agreement(self):
        payload = bytes(range(256))
        expected = "".join(format(b, "08b") for b in payload)
        assert "".join(map(str, bytes_to_bits(payload))) == expected


class TestFrame:
    def test_empty_is_32_zero_bits(self):
        assert frame(np.zeros(0, dtype=np.uint8)).tolist() == [0] * 32

    def test_two_bit_string(self):
        framed = frame(bitstr("01"))
        assert framed.size == 34
        assert framed.tolist() == [0] * 30 + [1, 0] + [0, 1]  # 0x00000002 header, then 01

    @given(st.lists(st.integers(0, 1), max_size=200))
    def test_frame_unframe_identity(self, raw):
        bits = np.array(raw, dtype=np.uint8)
        assert np.array_equal(unframe(frame(bits)), bits)

    def test_oversize(self):
        huge = np.broadcast_to(np.uint8(0), (1 << 32,))  # zero-copy fake length
        with pytest.raises(OversizeError):
            frame(huge)

    def test_unframe_declared_exceeds_available(self):
        bad = frame(bitstr("1010"))[:-1]  # drop one payload bit
        with pytest.raises(HeaderCorruptError):
            unframe(bad)

    def test_unframe_tolerates_chunk_padding(self):
        framed = frame(bitstr("101"))
        padded = np.concatenate([framed, bitstr("00")])
        assert np.array_equal(unframe(padded), bitstr("101"))


class TestChunk:
    def test_paper_vector(self):
        got = chunk(bitstr(KILL_JOE_BITS))
        assert got.tolist() == KILL_JOE_CHUNKS
        assert got.size == 19
        assert got[-1] == 0b010

    def test_empty(self):
        assert chunk(np.zeros(0, dtype=np.uint8)).size == 0

    @given(st.lists(st.integers(0, 1), max_size=200))
    def test_values_and_count(self, raw):
        bits = np.array(raw, dtype=np.uint8)
        out = chunk(bits)
        assert out.size == -(-bits.size // 3)  # ceil
        assert (out <= 7).all()

    def test_string_oracle_agreement(self):
        rng = np.random.default_rng(3)
        bits = rng.integers(0, 2, size=101, dtype=np.uint8)
        text = "".join(map(str, bits))
        expected = [int(text[i : i + 3].ljust(3, "0"), 2) for i in range(0, len(text), 3)]
        assert chunk(bits).tolist() == expected


class TestUnchunk:
    def test_truncation_rule(self):
        assert unchunk(np.array([0b110, 0b101], dtype=np.uint8), 5).tolist() == [1, 1, 0, 1, 0]

    def test_paper_chunks_reconstruct_stream(self):
        got = unchunk(np.array(KILL_JOE_CHUNKS, dtype=np.uint8), 56)
        assert "".join(map(str, got)) == KILL_JOE_BITS

    @given(st.lists(st.integers(0, 1), max_size=200))
    def test_round_trip(self, raw):
        bits = np.array(raw, dtype=np.uint8)
        assert np.array_equal(unchunk(chunk(bits), bits.size), bits)

    @pytest.mark.parametrize("bit_length", [4, 5, 6])
    def test_two_chunks_valid_lengths(self, bit_length):
        assert unchunk(np.array([1, 2], dtype=np.uint8), bit_length).size == bit_length


@given(st.binary(max_size=400))
def test_full_stack_round_trip(payload):
    framed_length = 32 + 8 * len(payload)
    recovered = bits_to_bytes(unframe(unchunk(chunk(frame(bytes_to_bits(payload))), framed_length)))
    assert recovered == payload
