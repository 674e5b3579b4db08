import json
import math
import random
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from duostego import cli, payload_codec, pipeline
from duostego.errors import (
    BadSentenceLengthError,
    CapacityExceededError,
    CoordinateOutOfRangeError,
    DuostegoError,
    ExtractionError,
    HeaderCorruptError,
    LengthMismatchError,
    OutOfRangeError,
    RepeatedPositionError,
    UnknownWordError,
)
from duostego.pipeline import (
    capacity_bits,
    capacity_bytes,
    cover,
    distortion_report,
    uncover,
)
from duostego.sample_grid import embed_chunks, select_samples
from duostego.wav_codec import AudioClip, write_wav

from conftest import same_clip, traced_peak
from oracles import distortion_oracle


def random_carrier(n, seed=0, rate=8000, channels=1):
    rng = np.random.default_rng(seed)
    return AudioClip(rate, channels, rng.integers(0, 1 << 16, size=n, dtype=np.uint16))


def clip_of(samples):
    return AudioClip(8000, 1, np.array(samples, dtype=np.uint16))


class TestCapacity:
    def test_empty_clip(self):
        empty = AudioClip(8000, 1, np.zeros(0, dtype=np.uint16))
        assert capacity_bytes(empty) == 0
        assert capacity_bits(empty) == 0

    def test_formula(self):
        clip = random_carrier(16000)
        assert capacity_bits(clip) == 48000
        assert capacity_bytes(clip) == (48000 - 32) // 8

    def test_three_of_every_sixteen_bits(self):
        for n in (1, 7, 16000):
            clip = random_carrier(n)
            assert capacity_bits(clip) / (16 * n) == 3 / 16 == 0.1875

    def test_tiny_clip_clamps_to_zero(self):
        assert capacity_bytes(random_carrier(5)) == 0  # 15 bits < 32-bit header


class TestCover:
    def test_million_sample_worked_example(self, default_lexicon):
        carrier = random_carrier(1_000_000, seed=1)
        bundle = cover(carrier, b"kill joe", default_lexicon, seed=42)
        assert len(bundle.sentences) == 32  # ceil((64 + 32) / 3)
        assert all(len(s) == 6 for s in bundle.sentences)  # 2 x 3-digit coordinates
        assert uncover(bundle.stego_audio, bundle.sentences, default_lexicon) == b"kill joe"
        assert bundle.seed_used == 42

    def test_empty_payload(self, default_lexicon):
        carrier = random_carrier(200, seed=2)
        bundle = cover(carrier, b"", default_lexicon, seed=9)
        assert len(bundle.sentences) == 11  # header only: ceil(32/3)
        assert uncover(bundle.stego_audio, bundle.sentences, default_lexicon) == b""

    def test_capacity_boundary(self, default_lexicon):
        carrier = random_carrier(100, seed=3)
        limit = capacity_bytes(carrier)  # (300 - 32) // 8 = 33
        assert limit == 33
        bundle = cover(carrier, b"x" * limit, default_lexicon, seed=4)
        assert uncover(bundle.stego_audio, bundle.sentences, default_lexicon) == b"x" * limit
        with pytest.raises(CapacityExceededError):
            cover(carrier, b"x" * (limit + 1), default_lexicon, seed=4)

    def test_only_selected_samples_change_and_only_low_bits(self, default_lexicon):
        carrier = random_carrier(5000, seed=5)
        payload = bytes(range(64))
        bundle = cover(carrier, payload, default_lexicon, seed=77)
        chunks = math.ceil((8 * len(payload) + 32) / 3)
        selected = select_samples(5000, chunks, seed=77)
        mask = np.ones(5000, dtype=bool)
        mask[selected] = False
        assert np.array_equal(bundle.stego_audio.samples[mask], carrier.samples[mask])
        deltas = np.abs(
            bundle.stego_audio.samples.astype(np.int64) - carrier.samples.astype(np.int64)
        )
        assert deltas.max() <= 7
        assert np.array_equal(
            bundle.stego_audio.samples >> 3, carrier.samples >> 3
        )

    def test_sentence_count_formula(self, default_lexicon):
        carrier = random_carrier(3000, seed=6)
        for length in (0, 1, 2, 3, 50, 100):
            bundle = cover(carrier, b"q" * length, default_lexicon, seed=8)
            assert len(bundle.sentences) == math.ceil((8 * length + 32) / 3)

    def test_default_seed_is_random_but_reproducible(self, default_lexicon):
        carrier = random_carrier(400, seed=7)
        one = cover(carrier, b"secret", default_lexicon)
        two = cover(carrier, b"secret", default_lexicon)
        assert one.seed_used != two.seed_used  # 2^-64 collision chance
        assert uncover(one.stego_audio, one.sentences, default_lexicon) == b"secret"
        replay = cover(carrier, b"secret", default_lexicon, seed=one.seed_used)
        assert replay.sentences == one.sentences
        assert same_clip(replay.stego_audio, one.stego_audio)

    def test_default_seed_comes_from_os_entropy(self, default_lexicon):
        # A seed drawn from the seedable module-level Mersenne Twister would
        # make the sample positions predictable: seeding it must not repeat one.
        carrier = random_carrier(400, seed=7)
        state = random.getstate()
        try:
            used = []
            for _ in range(2):
                random.seed(0)
                used.append(cover(carrier, b"secret", default_lexicon).seed_used)
        finally:
            random.setstate(state)
        assert used[0] != used[1]  # 2^-64 collision chance
        assert all(type(seed) is int and 0 <= seed < 1 << 64 for seed in used)
        assert isinstance(pipeline.secrets.randbits.__self__, random.SystemRandom)

    def test_int16_carrier_covers_as_its_uint16_twin(self, default_lexicon):
        twin = random_carrier(1200, seed=12, channels=2)
        carrier = AudioClip(8000, 2, twin.samples.view(np.int16).copy())
        one = cover(carrier, b"signed", default_lexicon, seed=9)
        two = cover(twin, b"signed", default_lexicon, seed=9)
        assert write_wav(one.stego_audio) == write_wav(two.stego_audio)
        assert one.sentences == two.sentences

    def test_sentences_name_selected_samples_in_order(self, default_lexicon):
        from duostego.sample_grid import geometry

        carrier = random_carrier(1500, seed=40)
        payload = b"where exactly?"
        bundle = cover(carrier, payload, default_lexicon, seed=41)
        geom = geometry(1500)
        selected = select_samples(1500, len(bundle.sentences), seed=41)
        for sentence, expected_index in zip(bundle.sentences, selected):
            digits = default_lexicon.digits_of(sentence)
            assert geom.index_from_digits(digits) == expected_index

    @pytest.mark.parametrize(
        "seed",
        [np.uint64(5), np.int64(5), np.uint64(2**64 - 3), np.int64(2**63 - 1)],
        ids=["uint64", "int64", "uint64-top", "int64-top"],
    )
    def test_numpy_integer_seed_covers_as_its_int(self, default_lexicon, seed):
        carrier = random_carrier(400, seed=7)
        bundle = cover(carrier, b"secret", default_lexicon, seed=seed)
        expected = cover(carrier, b"secret", default_lexicon, seed=int(seed))
        assert bundle.sentences == expected.sentences
        assert same_clip(bundle.stego_audio, expected.stego_audio)
        assert bundle.seed_used == int(seed)

    @pytest.mark.parametrize("seed", [np.uint64(2**63 + 5), np.int64(5)], ids=["uint64", "int64"])
    def test_numpy_integer_seed_used_is_a_python_int(self, default_lexicon, seed):
        bundle = cover(random_carrier(400, seed=7), b"secret", default_lexicon, seed=seed)
        assert type(bundle.seed_used) is int
        assert json.loads(json.dumps({"seed": bundle.seed_used})) == {"seed": int(seed)}

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_64_bits_rejected(self, default_lexicon, seed):
        with pytest.raises(OutOfRangeError):
            cover(random_carrier(400, seed=7), b"secret", default_lexicon, seed=seed)

    def test_carrier_metadata_preserved(self, default_lexicon):
        carrier = AudioClip(
            22050, 2, np.arange(600, dtype=np.uint16), ((b"LIST", b"INFO"),)
        )
        bundle = cover(carrier, b"hi", default_lexicon, seed=1)
        assert bundle.stego_audio.sample_rate == 22050
        assert bundle.stego_audio.channel_count == 2
        assert bundle.stego_audio.trailing_chunks == ((b"LIST", b"INFO"),)


class TestUncover:
    def test_round_trip_various_sizes(self, default_lexicon):
        rng = np.random.default_rng(10)
        for n, length in [(100, 0), (100, 33), (1000, 1), (1000, 200), (4096, 512)]:
            carrier = random_carrier(n, seed=n)
            payload = rng.bytes(length)
            bundle = cover(carrier, payload, default_lexicon, seed=int(rng.integers(2**63)))
            assert uncover(bundle.stego_audio, bundle.sentences, default_lexicon) == payload

    def test_tampered_sample_changes_output(self, default_lexicon):
        carrier = random_carrier(2000, seed=11)
        payload = b"attack at dawn"
        bundle = cover(carrier, payload, default_lexicon, seed=13)
        chunks = math.ceil((8 * len(payload) + 32) / 3)
        victim = select_samples(2000, chunks, seed=13)[chunks // 2]
        damaged = bundle.stego_audio.samples.copy()
        damaged[victim] ^= 0b001
        tampered = bundle.stego_audio.with_samples(damaged)
        try:
            assert uncover(tampered, bundle.sentences, default_lexicon) != payload
        except ExtractionError:
            pass  # corruption detected outright is fine too

    def test_wrong_carrier_fails(self, default_lexicon):
        carrier = random_carrier(3000, seed=14)
        payload = np.random.default_rng(15).bytes(16)
        bundle = cover(carrier, payload, default_lexicon, seed=16)
        impostor = random_carrier(3000, seed=999)
        try:
            assert uncover(impostor, bundle.sentences, default_lexicon) != payload
        except ExtractionError:
            pass

    def test_wrong_text_fails(self, default_lexicon):
        carrier = random_carrier(3000, seed=50)
        payload = np.random.default_rng(51).bytes(16)
        bundle = cover(carrier, payload, default_lexicon, seed=52)
        other = cover(carrier, payload, default_lexicon, seed=53)
        try:
            assert uncover(bundle.stego_audio, other.sentences, default_lexicon) != payload
        except ExtractionError:
            pass

    def test_bad_sentence_length(self, default_lexicon):
        carrier = random_carrier(1_000_000, seed=17)  # d = 3, sentences are 6 words
        bundle = cover(carrier, b"ok", default_lexicon, seed=18)
        sentences = list(bundle.sentences)
        sentences[0] = ("move", "across", "the", "bridge", "now")
        with pytest.raises(BadSentenceLengthError):
            uncover(bundle.stego_audio, sentences, default_lexicon)

    def test_unknown_word(self, default_lexicon):
        carrier = random_carrier(1000, seed=19)
        bundle = cover(carrier, b"ok", default_lexicon, seed=20)
        sentences = list(bundle.sentences)
        sentences[2] = ("xyzzy",) + tuple(sentences[2][1:])
        with pytest.raises(UnknownWordError) as err:
            uncover(bundle.stego_audio, sentences, default_lexicon)
        assert err.value.position == 0

    @pytest.mark.parametrize("token", [1, None, b"the", ["the"]], ids=["int", "none", "bytes", "unhashable"])
    def test_token_that_is_not_text_is_an_unknown_word(self, default_lexicon, token):
        carrier = random_carrier(1000, seed=19)
        bundle = cover(carrier, b"ok", default_lexicon, seed=20)
        sentences = [list(sentence) for sentence in bundle.sentences]
        sentences[2][1] = token
        with pytest.raises(UnknownWordError) as err:
            uncover(bundle.stego_audio, sentences, default_lexicon)
        assert (err.value.word, err.value.position) == (token, 1)
        every = [[token] * len(sentences[0])] * len(sentences)
        with pytest.raises(UnknownWordError) as err:
            uncover(bundle.stego_audio, every, default_lexicon)
        assert (err.value.word, err.value.position) == (token, 0)

    def test_coordinate_off_grid(self, default_lexicon):
        carrier = random_carrier(1000, seed=21)  # 32x32 grid, d = 2
        bundle = cover(carrier, b"ok", default_lexicon, seed=22)
        sentences = list(bundle.sentences)
        # four category-9 words decode to (99, 99), far off the grid
        sentences[0] = ("the", "floor", "among", "harvard")
        with pytest.raises(CoordinateOutOfRangeError):
            uncover(bundle.stego_audio, sentences, default_lexicon)

    def test_dropped_sentence_detected(self, default_lexicon):
        carrier = random_carrier(1000, seed=23)
        bundle = cover(carrier, b"hello world", default_lexicon, seed=24)
        with pytest.raises(HeaderCorruptError):
            uncover(bundle.stego_audio, bundle.sentences[:-1], default_lexicon)

    def test_duplicated_sentence_detected(self, default_lexicon):
        # a duplicated line plus a dropped last line keeps the sentence
        # count, so the length header alone cannot catch it
        carrier = random_carrier(1000, seed=23)
        bundle = cover(carrier, b"hello world", default_lexicon, seed=24)
        damaged = list(bundle.sentences)
        damaged.insert(10, damaged[10])
        damaged.pop()
        with pytest.raises(RepeatedPositionError) as err:
            uncover(bundle.stego_audio, damaged, default_lexicon)
        assert (err.value.first, err.value.second) == (10, 11)

    def test_too_few_sentences_for_header(self, default_lexicon):
        carrier = random_carrier(1000, seed=25)
        bundle = cover(carrier, b"", default_lexicon, seed=26)
        with pytest.raises(HeaderCorruptError):
            uncover(bundle.stego_audio, bundle.sentences[:5], default_lexicon)

    @pytest.mark.parametrize(
        "size, declared, message",
        [
            # 24 chunks hold 72 bits, 56 more than the header and 16 bits.
            (5, 16, "24 sentences are inconsistent with a declared payload of 16 bits"),
            # 27 chunks hold 81 bits: the header and 49 bits, with no slack.
            (6, 49, "declared payload of 49 bits is not a whole number of bytes"),
        ],
    )
    def test_header_inconsistent_with_text(self, tmp_path, capsys, default_lexicon, size, declared, message):
        # The stego is embedded again with the length header rewritten;
        # the text, and so the positions, stay those of the true payload.
        carrier, seed = random_carrier(1000, seed=37), 38
        bundle = cover(carrier, bytes(range(size)), default_lexicon, seed=seed)
        bits = payload_codec.frame(payload_codec.bytes_to_bits(bytes(range(size))))
        bits[: payload_codec.HEADER_BITS] = payload_codec.bytes_to_bits(struct.pack(">I", declared))
        chunks = payload_codec.chunk(bits)
        indices = np.array(select_samples(carrier.sample_count, len(chunks), seed))
        stego = carrier.with_samples(embed_chunks(carrier.samples, indices, chunks))
        assert len(bundle.sentences) == len(chunks)
        with pytest.raises(HeaderCorruptError, match=message):
            uncover(stego, bundle.sentences, default_lexicon)
        stego_path, text_path, out = tmp_path / "stego.wav", tmp_path / "text.txt", tmp_path / "out.bin"
        stego_path.write_bytes(write_wav(stego))
        text_path.write_text("".join(" ".join(words) + "\n" for words in bundle.sentences), encoding="utf-8")
        assert cli.main(["uncover", str(stego_path), str(text_path), "-o", str(out)]) == 6
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_no_sentences(self, default_lexicon):
        carrier = random_carrier(100, seed=27)
        with pytest.raises(HeaderCorruptError):
            uncover(carrier, [], default_lexicon)

    def test_empty_audio(self, default_lexicon):
        empty = AudioClip(8000, 1, np.zeros(0, dtype=np.uint16))
        with pytest.raises(ExtractionError):
            uncover(empty, [("eat",)], default_lexicon)

    def test_sentence_order_matters(self, default_lexicon):
        carrier = random_carrier(2000, seed=28)
        payload = b"ordered payload bytes"
        bundle = cover(carrier, payload, default_lexicon, seed=29)
        # swap two sentences whose samples hold different chunk values
        # (swapping equal chunks, e.g. leading header zeros, is a no-op)
        chunks = payload_codec.chunk(payload_codec.frame(payload_codec.bytes_to_bits(payload)))
        i, j = next(
            (i, j)
            for i in range(11, len(chunks))
            for j in range(i + 1, len(chunks))
            if chunks[i] != chunks[j]
        )
        shuffled = list(bundle.sentences)
        shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
        try:
            assert uncover(bundle.stego_audio, shuffled, default_lexicon) != payload
        except ExtractionError:
            pass


# Equal-length sample and mask arrays; each stego sample is the original
# XOR its mask: zero, a 3-LSB change or anything. Half the masks are
# sparse (zeros with a few nonzero entries), so a block of 1-7 samples
# may hold no change, a few or nothing but changes, and the kernel's
# gathered and whole-block branches both run.
_masks = st.one_of(st.just(0), st.integers(0, 7), st.integers(0, 0xFFFF))
_clip_pairs = st.integers(0, 100).flatmap(
    lambda n: st.tuples(
        arrays(np.uint16, n, elements=st.one_of(st.just(0), st.integers(0, 0xFFFF))),
        st.one_of(
            arrays(np.uint16, n, elements=_masks),
            arrays(np.uint16, n, elements=_masks, fill=st.just(0)),
        ),
    )
)


def block_report(original, stego, block):
    """distortion_report over uint16 arrays, walked in blocks of `block` samples."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipeline, "_BLOCK", block)
        return distortion_report(clip_of(original), clip_of(stego))


class TestDistortionReport:
    def test_identical_clips(self):
        clip = random_carrier(64, seed=30)
        report = distortion_report(clip, clip)
        assert report.samples_changed == 0
        assert report.max_abs_delta == 0
        assert report.mean_abs_delta == 0.0
        assert report.snr_db == math.inf

    def test_single_sample_delta(self):
        before = clip_of([0x0007, 0x1000])
        after = clip_of([0x0000, 0x1000])
        report = distortion_report(before, after)
        assert report.samples_changed == 1
        assert report.max_abs_delta == 7
        assert report.mean_abs_delta == 3.5
        # independent arithmetic: signal power / noise power in dB
        expected = 10 * math.log10((7**2 + 0x1000**2) / 7**2)
        assert report.snr_db == pytest.approx(expected)

    def test_cover_output_bounds(self, default_lexicon):
        carrier = random_carrier(4000, seed=31)
        bundle = cover(carrier, b"some payload", default_lexicon, seed=32)
        report = distortion_report(carrier, bundle.stego_audio)
        assert report.max_abs_delta <= 7
        assert report.samples_changed <= len(bundle.sentences)
        assert report.snr_db > 40  # tiny, inaudible damage

    def test_signed_interpretation(self):
        # 0x8000 is the most negative 16-bit amplitude, not +32768
        before = clip_of([0x8000])
        after = clip_of([0x8007])
        report = distortion_report(before, after)
        assert report.max_abs_delta == 7
        expected = 10 * math.log10(32768**2 / 7**2)
        assert report.snr_db == pytest.approx(expected)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            distortion_report(clip_of([1, 2]), clip_of([1]))

    def test_empty_clips(self):
        empty = clip_of([])
        report = distortion_report(empty, empty)
        assert (report.samples_changed, report.max_abs_delta) == (0, 0)
        assert report.mean_abs_delta == 0.0
        assert report.snr_db == math.inf

    def test_sign_wrap(self):
        report = distortion_report(clip_of([0x7FFF]), clip_of([0x8000]))
        assert report.max_abs_delta == 1
        assert report.mean_abs_delta == 1.0
        # the signed amplitude jumps from 32767 to -32768
        assert report.snr_db == 10.0 * math.log10(32767**2 / 65535**2)

    def test_worst_case_block_is_exact(self):
        # The largest |noise| in every sample of one full block: the
        # biggest power sum a block can hold.
        original = np.full(pipeline._BLOCK, 0x8000, np.uint16)
        stego = np.full(pipeline._BLOCK, 0x7FFF, np.uint16)
        report = distortion_report(clip_of(original), clip_of(stego))
        assert (
            report.samples_changed,
            report.max_abs_delta,
            report.mean_abs_delta,
            report.snr_db,
        ) == distortion_oracle(original, stego)

    def test_block_power_sums_fit_int64(self):
        # Signal squares are int32: |s| <= 2**15, so s**2 <= 2**30.
        assert 2**15 * 2**15 < 2**31
        # Noise squares wrap in int32 but are read as uint32: |noise| <= 0xFFFF.
        assert 0xFFFF**2 < 2**32
        # A block sums at most _BLOCK squares in 64 bits; past 2**63 the
        # signal power's int64 sum would wrap silently.
        assert pipeline._BLOCK * 0xFFFF**2 < 2**63

    @given(_clip_pairs, st.integers(1, 7))
    @example((np.zeros(3, np.uint16), np.array([0, 5, 0], np.uint16)), 2)  # -inf dB
    @example((np.array([0x7FFF], np.uint16), np.array([0xFFFF], np.uint16)), 1)  # sign wrap
    @example(  # 0x7FFF -> 0x8000 alone in a block of 7: the gathered branch,
        (  # where |noise| = 0xFFFF and its int32 square wraps
            np.array([0, 0, 0, 0x7FFF, 0, 0, 0], np.uint16),
            np.array([0, 0, 0, 0xFFFF, 0, 0, 0], np.uint16),
        ),
        7,
    )
    @example(  # 0x8000 -> 0x7FFF, the same wrap from a negative noise
        (
            np.array([0, 0, 0, 0x8000, 0, 0, 0], np.uint16),
            np.array([0, 0, 0, 0xFFFF, 0, 0, 0], np.uint16),
        ),
        7,
    )
    @settings(max_examples=200)
    def test_blocks_match_whole_array_oracle(self, clips, block):
        original, masks = clips
        stego = original ^ masks
        report = block_report(original, stego, block)
        changed, max_delta, mean_delta, snr = distortion_oracle(original, stego)
        assert report.samples_changed == changed
        assert report.max_abs_delta == max_delta
        assert report.snr_db == snr
        abs_sum = sum(abs(int(a) - int(b)) for a, b in zip(original, stego))
        n = original.size
        assert report.mean_abs_delta == (abs_sum / n if n else 0.0)
        assert report.mean_abs_delta == pytest.approx(mean_delta, rel=1e-12)

    @staticmethod
    def _peak_when_every(stride):
        """Peak bytes of distortion_report when every stride-th sample changed."""
        # 48 full blocks and a ragged one. The whole-array int64 formula
        # (oracles.distortion_oracle) peaks near 150 MB here.
        original = random_carrier(3 * (1 << 20) + 5, seed=33)
        masks = np.zeros(original.sample_count, np.uint16)
        masks[::stride] = 5
        stego = original.with_samples(original.samples ^ masks)
        report, peak = traced_peak(distortion_report, original, stego)
        assert report.samples_changed == masks[::stride].size
        return peak

    def test_peak_memory_bounded(self):
        assert self._peak_when_every(1) < 2**20  # whole-block branch

    def test_sparse_peak_memory_bounded(self):
        assert self._peak_when_every(10_000) < 2**19  # gathered branch

    @staticmethod
    def check_blocks(original, stego):
        """The report in blocks of 4 samples; it matches the default walk and the oracle."""
        report = block_report(original, stego, 4)
        assert report == distortion_report(clip_of(original), clip_of(stego))
        changed, max_delta, mean_delta, snr = distortion_oracle(original, stego)
        assert (report.samples_changed, report.max_abs_delta, report.snr_db) == (
            changed,
            max_delta,
            snr,
        )
        assert report.mean_abs_delta == pytest.approx(mean_delta, rel=1e-12)
        return report

    # Blocks of 4 samples; each clip ends in a ragged block of one sample.
    @pytest.mark.parametrize("n", [33, 37])
    def test_changes_on_every_block_edge(self, n):
        original = random_carrier(n, seed=34).samples
        stego = original.copy()
        edges = sorted({i for start in range(0, n, 4) for i in (start, min(start + 3, n - 1))})
        stego[edges] ^= np.uint16(0x8005)
        report = self.check_blocks(original, stego)
        assert report.samples_changed == len(edges) == n // 4 * 2 + 1
        assert report.max_abs_delta >= 0x7FFB

    def test_ragged_last_block_alone_changed(self):
        original = random_carrier(37, seed=35).samples
        stego = original.copy()
        stego[-1] ^= 3
        assert self.check_blocks(original, stego).samples_changed == 1

    def test_identical_clips_in_blocks(self):
        original = random_carrier(37, seed=36).samples
        assert self.check_blocks(original, original.copy()).snr_db == math.inf

    def test_silent_original(self):
        original = np.zeros(37, np.uint16)
        stego = original.copy()
        stego[[3, 20, 36]] = [1, 0xFFFF, 7]
        assert self.check_blocks(original, stego).snr_db == -math.inf


@pytest.fixture(scope="module")
def fuzz_bundle(default_lexicon):
    return cover(random_carrier(2000, seed=40), b"fuzz me", default_lexicon, seed=41)


_line_edits = st.lists(
    st.tuples(
        st.sampled_from(["drop", "duplicate", "swap", "truncate", "word", "junk", "extra"]),
        st.integers(0, 10**6),
        st.integers(0, 10**6),
        st.text(max_size=6),
    ),
    max_size=5,
)


class TestUncoverFuzz:
    @given(_line_edits, st.one_of(st.none(), st.integers(0, 4000)))
    @settings(max_examples=300)
    def test_damaged_bundle_fails_typed(self, fuzz_bundle, default_lexicon, edits, resize):
        words = [w for cells in default_lexicon.words_by_pos for cell in cells for w in cell]
        lines = [list(s) for s in fuzz_bundle.sentences]
        for kind, i, j, junk in edits:
            if kind == "truncate":
                del lines[i % (len(lines) + 1) :]
                continue
            if not lines:
                continue
            i %= len(lines)
            line = lines[i]
            if kind == "drop":
                del lines[i]
            elif kind == "duplicate":
                lines.insert(i, list(line))
            elif kind == "swap":
                j %= len(lines)
                lines[i], lines[j] = lines[j], lines[i]
            elif kind == "extra":
                line.insert(j % (len(line) + 1), words[j % len(words)])
            elif line:  # replace one word with a lexicon word or with junk text
                line[j % len(line)] = words[j % len(words)] if kind == "word" else junk
        stego = fuzz_bundle.stego_audio
        if resize is not None:
            stego = stego.with_samples(np.resize(stego.samples, resize))
        try:
            uncover(stego, lines, default_lexicon)
        except DuostegoError:
            pass
