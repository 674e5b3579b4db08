import gc
import os
import struct
import sys
import threading
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from duostego.errors import (
    DuostegoError,
    MissingChunkError,
    NotRiffError,
    TruncatedError,
    UnsupportedCodecError,
    UnsupportedDepthError,
)
from duostego import wav_codec
from duostego.pipeline import cover
from duostego.wav_codec import AudioClip, parse_wav, read_file, sample_buffer, write_wav

from conftest import data_chunk_of, pcm_fmt_body, raw_wav_bytes, ref_wav_bytes, same_clip, traced_peak
from oracles import write_wav_oracle


def clip_of(samples, rate=8000, channels=1, trailing=()):
    return AudioClip(rate, channels, np.array(samples, dtype=np.uint16), trailing)


class TestParse:
    def test_minimal_mono_file_from_reference_writer(self):
        samples = [0, 1, 0x7FFF, 0xFFFF]
        clip = parse_wav(ref_wav_bytes(samples, rate=8000, channels=1))
        assert clip.sample_rate == 8000
        assert clip.channel_count == 1
        assert clip.samples.tolist() == samples
        assert clip.trailing_chunks == ()

    def test_stereo_interleave_counts_every_slot(self):
        # 10 frames of 2 channels = 20 sample slots
        samples = list(range(20))
        clip = parse_wav(ref_wav_bytes(samples, rate=44100, channels=2))
        assert clip.channel_count == 2
        assert clip.sample_count == 20
        assert clip.samples.tolist() == samples

    def test_empty_data_chunk(self):
        clip = parse_wav(ref_wav_bytes([]))
        assert clip.sample_count == 0

    def test_not_riff(self):
        with pytest.raises(NotRiffError):
            parse_wav(b"RIFX" + b"\x00" * 40)
        with pytest.raises(NotRiffError):
            parse_wav(b"")

    def test_wave_magic_required(self):
        data = bytearray(ref_wav_bytes([1, 2]))
        data[8:12] = b"AVI "
        with pytest.raises(NotRiffError):
            parse_wav(bytes(data))

    def test_8bit_rejected(self):
        wav = raw_wav_bytes([(b"fmt ", pcm_fmt_body(bits=8)), (b"data", b"\x00\x01")])
        with pytest.raises(UnsupportedDepthError):
            parse_wav(wav)

    def test_float_codec_rejected(self):
        wav = raw_wav_bytes([(b"fmt ", pcm_fmt_body(tag=3)), (b"data", b"\x00" * 4)])
        with pytest.raises(UnsupportedCodecError):
            parse_wav(wav)

    @pytest.mark.parametrize(
        "channels,rate",
        [(40_000, 8000), (32_768, 8000), (2, 3_000_000_000), (1, 1 << 31)],
    )
    def test_fmt_write_wav_cannot_hold_rejected(self, channels, rate):
        # block align (channels * 2) is a 16-bit field, byte rate a 32-bit one
        wav = raw_wav_bytes([(b"fmt ", pcm_fmt_body(channels, rate)), (b"data", b"\x00" * 4)])
        with pytest.raises(UnsupportedCodecError):
            parse_wav(wav)

    @pytest.mark.parametrize("channels,rate", [(32_767, 8000), (1, (1 << 31) - 1)])
    def test_largest_writable_fmt_round_trips(self, channels, rate):
        wav = raw_wav_bytes([(b"fmt ", pcm_fmt_body(channels, rate)), (b"data", b"\x00" * 4)])
        clip = parse_wav(wav)
        assert (clip.channel_count, clip.sample_rate) == (channels, rate)
        assert same_clip(parse_wav(write_wav(clip)), clip)

    def test_truncated_data_chunk(self):
        good = ref_wav_bytes([1, 2, 3, 4])
        with pytest.raises(TruncatedError):
            parse_wav(good[:-3])

    def test_riff_size_beyond_input(self):
        wav = raw_wav_bytes([(b"fmt ", pcm_fmt_body()), (b"data", b"\x00\x00")], riff_size=9999)
        with pytest.raises(TruncatedError):
            parse_wav(wav)

    def test_odd_data_length_cuts_a_sample(self):
        wav = raw_wav_bytes([(b"fmt ", pcm_fmt_body()), (b"data", b"\x00\x01\x02")])
        with pytest.raises(TruncatedError):
            parse_wav(wav)

    def test_dangling_bytes_after_last_chunk(self):
        # RIFF size 42: "WAVE", fmt (24 bytes), data (10), then 4 bytes, too few for a chunk header
        wav = raw_wav_bytes([(b"fmt ", pcm_fmt_body()), (b"data", b"\x00\x00")], riff_size=42) + bytes(4)
        with pytest.raises(TruncatedError, match="dangling bytes where a chunk header was expected"):
            parse_wav(wav)

    def test_short_fmt_chunk(self):
        wav = raw_wav_bytes([(b"fmt ", pcm_fmt_body()[:14]), (b"data", b"\x00\x00")])
        with pytest.raises(TruncatedError, match="fmt chunk is 14 bytes, need at least 16"):
            parse_wav(wav)

    def test_missing_chunks(self):
        with pytest.raises(MissingChunkError):
            parse_wav(raw_wav_bytes([(b"data", b"\x00\x00")]))
        with pytest.raises(MissingChunkError):
            parse_wav(raw_wav_bytes([(b"fmt ", pcm_fmt_body())]))

    def test_unknown_chunks_preserved_verbatim(self):
        extra_before = (b"LIST", b"INFOsomething")  # odd length, needs padding
        extra_after = (b"cue ", b"\x01\x02\x03\x04")
        wav = raw_wav_bytes(
            [extra_before, (b"fmt ", pcm_fmt_body()), (b"data", b"\xaa\xbb"), extra_after]
        )
        clip = parse_wav(wav)
        assert clip.trailing_chunks == (extra_before, extra_after)
        # they survive a rewrite, after the data chunk
        rewritten = parse_wav(write_wav(clip))
        assert rewritten.trailing_chunks == (extra_before, extra_after)

    @pytest.mark.parametrize("wrap", [bytearray, lambda b: memoryview(bytearray(b))])
    def test_mutable_input_not_aliased(self, wrap):
        buf = wrap(ref_wav_bytes([1, 2, 3]))
        clip = parse_wav(buf)
        buf[-6:] = bytes(6)  # overwrite the data chunk in place
        assert clip.samples.tolist() == [1, 2, 3]

    def test_read_only_memoryview_viewed(self):
        # bytes(memoryview) always copies; a read-only view needs no copy
        backing = np.frombuffer(ref_wav_bytes([1, 2, 3]), np.uint8)
        clip = parse_wav(memoryview(backing))
        assert clip.samples.tolist() == [1, 2, 3]
        assert np.shares_memory(clip.samples, backing)

    def test_bytearray_copied_once(self):
        buf = bytearray(ref_wav_bytes([4, 5]))
        clip = parse_wav(buf)
        assert not np.shares_memory(clip.samples, np.frombuffer(buf, np.uint8))
        buf[-4:] = bytes(4)
        assert clip.samples.tolist() == [4, 5]

    def test_uint16_array_read_as_bytes(self):
        wav = ref_wav_bytes([7, 0xBEEF, 9], rate=16000)
        words = np.frombuffer(wav, "<u2")
        clip = parse_wav(words)
        assert (clip.sample_rate, clip.samples.tolist()) == (16000, [7, 0xBEEF, 9])
        assert np.shares_memory(clip.samples, words)

    def test_chunk_id_in_error_reads_as_bytes(self):
        # the fmt chunk declares 16 bytes; the RIFF size leaves it 4
        wav = b"RIFF" + struct.pack("<I", 16) + b"WAVE" + b"fmt " + struct.pack("<I", 16) + pcm_fmt_body()[:4]
        with pytest.raises(TruncatedError, match=r"chunk b'fmt ' declares 16 bytes but only 4 remain"):
            parse_wav(memoryview(wav))


class TestWrite:
    def test_zero_sample_payload_bytes(self):
        assert data_chunk_of(write_wav(clip_of([0x0000]))) == b"\x00\x00"

    def test_little_endian_sample_bytes(self):
        # verified against the reference writer as well
        ours = data_chunk_of(write_wav(clip_of([0xABCD])))
        ref = data_chunk_of(ref_wav_bytes([0xABCD]))
        assert ours == b"\xcd\xab"
        assert ref == b"\xcd\xab"

    def test_canonical_file_matches_reference_writer(self):
        samples = [12, 345, 6789, 0xFFFF, 0x8000]
        assert write_wav(clip_of(samples, rate=22050, channels=1)) == ref_wav_bytes(
            samples, rate=22050, channels=1
        )

    def test_canonical_stereo_matches_reference_writer(self):
        samples = list(range(8))
        assert write_wav(clip_of(samples, rate=44100, channels=2)) == ref_wav_bytes(
            samples, rate=44100, channels=2
        )

    def test_odd_trailing_chunk_padded(self):
        clip = clip_of([1], trailing=((b"note", b"xyz"),))
        out = write_wav(clip)
        tail = b"note" + struct.pack("<I", 3) + b"xyz\x00"
        assert out[-len(tail) :] == tail
        (declared,) = struct.unpack_from("<I", out, 4)
        assert declared == len(out) - 8
        assert parse_wav(out).trailing_chunks == ((b"note", b"xyz"),)


    def test_output_is_read_only(self):
        out = write_wav(clip_of([1, 2]))
        assert out.readonly and out.format == "B"
        with pytest.raises(TypeError):
            out[0] = 0

    def test_output_is_one_numpy_buffer(self):
        # a numpy array this size is advised onto huge pages; a joined
        # bytes object takes a page fault for every 4 KiB it fills
        out = write_wav(clip_of(np.arange(1000, dtype=np.uint16), trailing=((b"cue ", b"abc"),)))
        assert isinstance(out.obj, np.ndarray)
        assert out.nbytes == out.obj.nbytes

    @given(
        rate=st.integers(1, 192_000),
        channels=st.integers(1, 8),
        samples=st.lists(st.integers(0, 0xFFFF), max_size=64),
        trailing=st.lists(
            st.tuples(st.binary(min_size=4, max_size=4), st.binary(max_size=9)), max_size=4
        ),
    )
    @settings(max_examples=200)
    def test_matches_join_oracle(self, rate, channels, samples, trailing):
        # odd, even and empty trailing bodies; zero samples included
        clip = AudioClip(rate, channels, np.array(samples, dtype=np.uint16), tuple(trailing))
        assert bytes(write_wav(clip)) == write_wav_oracle(clip)


class TestWriteInPlace:
    """A clip over a whole sample_buffer tail is written into that buffer."""

    @staticmethod
    def filled(values) -> np.ndarray:
        samples = sample_buffer(len(values))
        samples[:] = values
        return samples

    @pytest.mark.parametrize("count", [1, 2, 7])
    def test_file_is_the_buffer(self, count):
        samples = self.filled(np.arange(count) * 4099)
        clip = AudioClip(22050, 1, samples)
        out = write_wav(clip)
        kept = bytes(out)
        assert kept == write_wav_oracle(clip)
        assert np.shares_memory(out.obj, samples)
        again = write_wav(clip)  # the first write claimed the room: copied
        assert bytes(again) == kept
        assert not np.shares_memory(again.obj, samples)
        assert bytes(out) == kept

    def test_output_stays_read_only(self):
        samples = self.filled([1, 2, 3])
        out = write_wav(AudioClip(8000, 1, samples))
        assert np.shares_memory(out.obj, samples)
        assert out.readonly and out.format == "B"
        with pytest.raises(TypeError):
            out[0] = 0
        assert not out.obj.flags.writeable
        assert samples.flags.writeable  # the buffer's own tail is not frozen

    def test_second_header_over_one_buffer_is_copied(self):
        samples = self.filled(np.arange(12) * 5003)
        mono, stereo = AudioClip(8000, 1, samples), AudioClip(44100, 2, samples)
        first = write_wav(mono)
        kept = bytes(first)
        second = write_wav(stereo)
        assert kept == write_wav_oracle(mono)
        assert bytes(second) == write_wav_oracle(stereo)
        assert bytes(first) == kept  # the second write left the first file alone
        assert np.shares_memory(first.obj, samples) and not np.shares_memory(second.obj, samples)

    def test_racing_headers_one_is_written_in_place(self):
        # more threads than cores, switching as often as the interpreter
        # allows: only the write that pops the buffer's claim fills its room,
        # so a look-up that did not remove the claim would let two headers in
        threads_per_round = 4
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for round_ in range(300):
                samples = self.filled(np.arange(64) + round_)
                clips = [AudioClip(8000 + i, 1, samples) for i in range(threads_per_round)]
                outs = [None] * threads_per_round
                barrier = threading.Barrier(threads_per_round, timeout=10)

                def write(i):
                    barrier.wait()
                    outs[i] = write_wav(clips[i])

                threads = [threading.Thread(target=write, args=(i,)) for i in range(threads_per_round)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=10)
                assert not any(thread.is_alive() for thread in threads)
                assert [bytes(out) for out in outs] == [write_wav_oracle(clip) for clip in clips]
                assert sum(np.shares_memory(out.obj, samples) for out in outs) == 1
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("cut", [slice(1, None), slice(None, -1)], ids=["late-start", "early-end"])
    def test_part_of_a_buffer_is_copied(self, cut):
        samples = self.filled(np.arange(9))
        clip = AudioClip(8000, 1, samples[cut])
        out = write_wav(clip)
        assert bytes(out) == write_wav_oracle(clip)
        assert not np.shares_memory(out.obj, samples)

    def test_callers_array_head_is_never_written(self):
        # zero room in front of the samples is not enough: the buffer
        # must come from sample_buffer
        owner = np.zeros(22 + 4, np.uint16)
        owner[22:] = [5, 6, 7, 8]
        clip = AudioClip(8000, 1, owner[22:])
        out = write_wav(clip)
        assert bytes(out) == write_wav_oracle(clip)
        assert not owner[:22].any() and not np.shares_memory(out.obj, owner)

    def test_carrier_with_trailing_chunks_is_copied(self, default_lexicon):
        rng = np.random.default_rng(4)
        carrier = AudioClip(
            8000, 1, rng.integers(0, 1 << 16, 5000, dtype=np.uint16), ((b"LIST", b"INFOabc"), (b"cue ", b"xy"))
        )
        stego = cover(carrier, b"trailing", default_lexicon, seed=5).stego_audio
        out = write_wav(stego)
        assert bytes(out) == write_wav_oracle(stego)
        assert not np.shares_memory(out.obj, stego.samples)


class TestRegistry:
    """A sample_buffer's registry entry goes when it is claimed or dropped."""

    @staticmethod
    def entries() -> int:
        return len(wav_codec._IMAGES)

    def test_dropped_buffers_leave_no_entry(self):
        gc.collect()
        before = self.entries()
        buffers = [sample_buffer(8) for _ in range(1000)]
        assert self.entries() == before + 1000
        del buffers
        assert self.entries() == before

    @pytest.mark.parametrize("written", [True, False], ids=["written", "unwritten"])
    def test_cover_leaves_no_entry(self, default_lexicon, written):
        carrier = AudioClip(8000, 1, np.random.default_rng(6).integers(0, 1 << 16, 5000, dtype=np.uint16))
        gc.collect()
        before = self.entries()
        bundle = cover(carrier, b"registry", default_lexicon, seed=7)
        assert self.entries() == before + 1
        if written:
            out = write_wav(bundle.stego_audio)
            assert np.shares_memory(out.obj, bundle.stego_audio.samples)
            assert self.entries() == before  # claimed
            del out
        del bundle
        assert self.entries() == before


class TestRoundTrip:
    @pytest.mark.parametrize("count", [0, 1, 2, 3, 16, 255])
    @pytest.mark.parametrize("channels", [1, 2])
    def test_write_then_parse_is_identity(self, count, channels):
        rng = np.random.default_rng(count * 2 + channels)
        clip = AudioClip(
            11025, channels, rng.integers(0, 1 << 16, size=count, dtype=np.uint16)
        )
        assert same_clip(parse_wav(write_wav(clip)), clip)

    @pytest.mark.parametrize("frames,channels", [(3, 1), (4, 1), (5, 2), (8, 2)])
    def test_parse_then_write_keeps_data_chunk(self, frames, channels):
        rng = np.random.default_rng(frames)
        samples = rng.integers(0, 1 << 16, size=frames * channels, dtype=np.uint16).tolist()
        original = ref_wav_bytes(samples, channels=channels)
        rewritten = write_wav(parse_wav(original))
        assert data_chunk_of(rewritten) == data_chunk_of(original)

    def test_samples_are_opaque_patterns(self):
        # all-bits-set and sign-bit patterns survive untouched
        clip = clip_of([0x8000, 0xFFFF, 0x7FFF, 0x0001])
        assert parse_wav(write_wav(clip)).samples.tolist() == [0x8000, 0xFFFF, 0x7FFF, 0x0001]


class TestClipInvariants:
    def test_samples_read_only(self):
        clip = clip_of([1, 2, 3])
        with pytest.raises(ValueError):
            clip.samples[0] = 9

    def test_caller_array_stays_writable(self):
        arr = np.array([1, 2, 3], dtype=np.uint16)
        clip = AudioClip(8000, 1, arr)
        assert arr.flags.writeable
        assert not clip.samples.flags.writeable
        assert np.shares_memory(clip.samples, arr)  # a view, never a copy

    def test_int16_array_viewed_not_copied(self):
        # the usual signed waveform used to be cast to a second carrier-sized array
        arr = np.arange(-300, 300, 7, dtype=np.int16)
        clip = AudioClip(8000, 1, arr)
        assert np.shares_memory(clip.samples, arr)
        assert np.array_equal(clip.samples, arr.astype(np.uint16))
        assert arr.flags.writeable
        assert not clip.samples.flags.writeable

    @pytest.mark.parametrize("shape", [(5000, 2), (2, 3, 4), (1, 0)])
    def test_multidimensional_samples_rejected(self, shape):
        # cover and distortion_report index the samples as one interleaved
        # row; a 2-D array would reach them as a stray IndexError
        with pytest.raises(UnsupportedCodecError, match=rf"shape \({shape[0]}, {shape[1]}"):
            AudioClip(8000, 2, np.zeros(shape, dtype=np.uint16))

    @pytest.mark.parametrize("samples", [[[1, 2], [3]], [1, [2, 3]], [[1], [2, 3], []]])
    def test_ragged_samples_rejected(self, samples):
        # np.asarray raises a bare ValueError on a ragged nested list
        with pytest.raises(UnsupportedCodecError, match="ragged"):
            AudioClip(8000, 1, samples)

    @pytest.mark.parametrize(
        "samples",
        [
            np.array([0.7, 3.2]),
            np.array([1.0], dtype=np.float32),
            np.array([70000], dtype=np.int32),
            np.array([-32769]),
            np.array([65536], dtype=np.uint64),
            np.array([True]),
            [70000],
            [1.5],
            [2**70],
        ],
        ids=["float64", "float32", "int32-high", "int64-low", "uint64-high", "bool", "list-high", "list-float", "list-huge"],
    )
    def test_samples_not_16_bit_integers_rejected(self, samples):
        # astype(uint16) would truncate a float waveform and wrap a wide
        # integer silently, embedding the payload in garbage
        with pytest.raises(UnsupportedCodecError, match="integers in"):
            AudioClip(8000, 1, samples)

    @pytest.mark.parametrize(
        "samples,patterns",
        [
            ([-1, -32768, 65535, 0], [0xFFFF, 0x8000, 0xFFFF, 0]),
            (np.array([-1, 32767, 65535], dtype=np.int64), [0xFFFF, 0x7FFF, 0xFFFF]),
            (np.array([65535, 0], dtype=np.uint64), [0xFFFF, 0]),
            (np.array([-2, 7], dtype=np.int16), [0xFFFE, 7]),
            (np.array([-2, 7, 300], dtype=">i2"), [0xFFFE, 7, 300]),
            (np.array([-2, 5, 7, 9], dtype=np.int16)[::2], [0xFFFE, 7]),
            ([], []),
        ],
        ids=["list", "int64", "uint64", "int16", "int16-big-endian", "int16-strided", "empty-float64"],
    )
    def test_16_bit_integers_stored_as_patterns(self, samples, patterns):
        # a negative value wraps exactly as an int16 array does
        clip = AudioClip(8000, 1, samples)
        assert clip.samples.dtype == np.uint16 and clip.samples.tolist() == patterns
        assert clip.samples.flags.c_contiguous
        assert parse_wav(write_wav(clip)).samples.tolist() == patterns

    @pytest.mark.parametrize(
        "trailing",
        [
            ((b"ab", b"x"),),
            ((b"LISTX", b""),),
            ((b"LIST", "text"),),
            (("LIST", b"text"),),
            ((b"LIST", 3),),
            ((b"LIST",),),
            ((b"LIST", b"a", b"b"),),
            (b"LIST", b"body"),
        ],
        ids=["short-id", "long-id", "str-body", "str-id", "int-body", "single", "triple", "unnested"],
    )
    def test_chunk_write_wav_cannot_emit_rejected(self, trailing):
        # a 2-byte id used to write a file parse_wav rejects as truncated,
        # and a str body to reach write_wav as a bare TypeError
        with pytest.raises(UnsupportedCodecError, match="chunk"):
            AudioClip(8000, 1, np.zeros(4, dtype=np.uint16), trailing)

    def test_chunk_pairs_stored_as_bytes_tuples(self):
        trailing = [[b"LIST", bytearray(b"ab")], (memoryview(b"cue "), np.array([1, 2], dtype="<u2"))]
        clip = AudioClip(8000, 1, np.zeros(4, dtype=np.uint16), trailing)
        assert clip.trailing_chunks == ((b"LIST", b"ab"), (b"cue ", b"\x01\x00\x02\x00"))
        assert all(type(pair) is tuple and {type(x) for x in pair} == {bytes} for pair in clip.trailing_chunks)
        assert parse_wav(write_wav(clip)).trailing_chunks == clip.trailing_chunks

    def test_bad_metadata_rejected(self):
        with pytest.raises(UnsupportedCodecError):
            AudioClip(0, 1, np.zeros(1, dtype=np.uint16))
        with pytest.raises(UnsupportedCodecError):
            AudioClip(8000, 0, np.zeros(1, dtype=np.uint16))

    @pytest.mark.parametrize("channels,rate", [(1, 8000.5), (1, "8000"), (1.0, 8000), ("2", 8000)])
    def test_non_integer_metadata_rejected(self, channels, rate):
        # a float or str would pass the range check and then reach
        # write_wav's struct.pack as a bare struct.error
        with pytest.raises(UnsupportedCodecError):
            AudioClip(rate, channels, np.zeros(2, dtype=np.uint16))

    def test_numpy_integer_metadata_stored_as_int(self):
        clip = AudioClip(np.uint32(8000), np.int64(2), np.zeros(2, dtype=np.uint16))
        assert (clip.sample_rate, clip.channel_count) == (8000, 2)
        assert type(clip.sample_rate) is int and type(clip.channel_count) is int
        assert same_clip(parse_wav(write_wav(clip)), clip)

    @pytest.mark.parametrize("channels,rate", [(2, 3_000_000_000), (40_000, 8000)])
    def test_fmt_write_wav_cannot_hold_rejected_in_code(self, channels, rate):
        # the clip itself refuses what write_wav's fmt fields cannot hold,
        # so write_wav is never reached with it (no struct.error)
        with pytest.raises(UnsupportedCodecError):
            AudioClip(rate, channels, np.zeros(4, dtype=np.uint16))

    @pytest.mark.parametrize("channels,rate", [(32_767, 8000), (1, (1 << 31) - 1)])
    def test_largest_clip_built_in_code_writes(self, channels, rate):
        clip = AudioClip(rate, channels, np.zeros(4, dtype=np.uint16))
        assert same_clip(parse_wav(write_wav(clip)), clip)

    def test_with_samples_replaces_only_samples(self):
        clip = clip_of([1, 2], trailing=((b"cue ", b"abcd"),))
        other = clip.with_samples(np.array([3, 4], dtype=np.uint16))
        assert other.samples.tolist() == [3, 4]
        assert other.sample_rate == clip.sample_rate
        assert other.trailing_chunks == clip.trailing_chunks
        assert not same_clip(other, clip)


class TestMemory:
    """A carrier-sized step holds one copy of the samples (tracemalloc peaks)."""

    COUNT = 3 * (1 << 20) + 5

    def test_parse_views_the_input_bytes(self):
        samples = np.arange(self.COUNT, dtype=np.uint16)
        data = write_wav(clip_of(samples, trailing=((b"cue ", b"abc"),)))
        clip, peak = traced_peak(parse_wav, data)
        assert np.shares_memory(clip.samples, np.frombuffer(data, np.uint8))
        assert peak < 2**20
        assert clip.trailing_chunks == ((b"cue ", b"abc"),)
        assert type(clip.trailing_chunks[0][1]) is bytes  # not a view pinning the file

    def test_write_peak_is_one_output_copy(self):
        clip = clip_of(np.arange(self.COUNT, dtype=np.uint16))
        data, peak = traced_peak(write_wav, clip)
        assert peak <= len(data) + 2**20
        assert data == ref_wav_bytes(clip.samples.tolist())

    def test_cover_stego_is_written_with_no_copy(self, default_lexicon):
        rng = np.random.default_rng(3)
        carrier = clip_of(rng.integers(0, 1 << 16, self.COUNT - 5, dtype=np.uint16), rate=44100)
        stego = cover(carrier, b"written in place", default_lexicon, seed=6).stego_audio
        data, peak = traced_peak(write_wav, stego)
        assert peak < 2**20
        copied = AudioClip(stego.sample_rate, stego.channel_count, stego.samples.copy())
        assert data == write_wav(copied)


class TestReadFile:
    """read_file gives exactly a file's bytes, in a read-only buffer parse_wav views."""

    CONTENT = bytes(range(256)) * 16 + b"tail"

    # 5 MiB + 3 is above numpy's 4 MiB huge-page threshold.
    @pytest.mark.parametrize("size", [0, 1, 4097, 5 * (1 << 20) + 3])
    def test_equals_read_bytes(self, tmp_path, size):
        path = tmp_path / "file.bin"
        path.write_bytes(np.random.default_rng(size).bytes(size))
        data = read_file(path)
        assert type(data) is memoryview and data.readonly and data.format == "B"
        assert data == path.read_bytes()

    def test_parse_views_the_buffer(self, tmp_path):
        path = tmp_path / "clip.wav"
        path.write_bytes(ref_wav_bytes(list(range(1000)), rate=8000))
        buf = read_file(path)
        clip = parse_wav(buf)
        assert np.shares_memory(clip.samples, buf)
        assert clip.samples.tolist() == list(range(1000))

    @pytest.mark.parametrize("reported", [0, 100, len(CONTENT) + 1, 1 << 20])
    def test_size_fstat_misreports_is_read_in_full(self, tmp_path, monkeypatch, reported):
        path = tmp_path / "file.bin"
        path.write_bytes(self.CONTENT)
        monkeypatch.setattr(wav_codec, "os", SimpleNamespace(fstat=lambda fd: SimpleNamespace(st_size=reported)))
        assert read_file(path) == self.CONTENT

    @pytest.mark.parametrize("size", [0, 100, 2 * len(CONTENT)])
    def test_file_resized_after_fstat_is_read_as_it_ends(self, tmp_path, monkeypatch, size):
        path = tmp_path / "file.bin"
        path.write_bytes(self.CONTENT)
        resized = (self.CONTENT * 2)[:size]

        def fstat_then_resize(fd):
            result = os.fstat(fd)
            path.write_bytes(resized)  # truncates, then writes, through a second descriptor
            return result

        monkeypatch.setattr(wav_codec, "os", SimpleNamespace(fstat=fstat_then_resize))
        assert read_file(path) == resized

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    def test_named_pipe_is_read_to_its_end(self, tmp_path):
        path = tmp_path / "pipe"
        os.mkfifo(path)
        content = np.random.default_rng(7).bytes(300_000)  # more than a pipe buffer holds

        def feed():
            with open(path, "wb") as pipe:
                pipe.write(content)

        writer = threading.Thread(target=feed, daemon=True)
        writer.start()
        data = read_file(path)
        writer.join(timeout=10)
        assert not writer.is_alive()
        assert data == content and data.readonly


# A valid file with chunks on both sides of the data chunk (one odd-length).
FUZZ_BASE = raw_wav_bytes(
    [
        (b"LIST", b"INFOxyz"),
        (b"fmt ", pcm_fmt_body(channels=2)),
        (b"data", bytes(range(24))),
        (b"cue ", b"\x01\x02\x03"),
    ]
)

byte_mutations = st.lists(
    st.tuples(
        st.sampled_from(["set", "insert", "delete", "cut"]),
        st.integers(0, len(FUZZ_BASE)),
        st.integers(0, 255),
    ),
    min_size=1,
    max_size=6,
)


class TestFuzz:
    @given(byte_mutations)
    @settings(max_examples=500)
    def test_mutated_file_fails_typed(self, mutations):
        data = bytearray(FUZZ_BASE)
        for kind, pos, value in mutations:
            pos = min(pos, len(data))
            if kind == "set" and pos < len(data):
                data[pos] = value
            elif kind == "insert":
                data.insert(pos, value)
            elif kind == "delete" and pos < len(data):
                del data[pos]
            elif kind == "cut":
                del data[pos:]
        try:
            parse_wav(bytes(data))
        except DuostegoError:
            pass
