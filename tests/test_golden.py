"""Golden vectors that freeze the wire format.

Every value here was recorded from the original implementation; a
rewrite of the generator, the selection, the coordinate digits, the
sentence generator or the embedding must reproduce them exactly. Same
seed, carrier, payload and lexicon must give byte-identical output.

Carriers and payloads come from SHAKE-128 over a fixed label, so the
inputs do not depend on any numpy random stream.
"""

import hashlib

import numpy as np
import pytest

from duostego import cover, select_samples, uncover, write_wav
from duostego.grammar import generate_sentence
from duostego.rng import SplitMix64, below_many
from duostego.sample_grid import geometry
from duostego.wav_codec import AudioClip

from conftest import words_for
from oracles import _seed_whose_first_output_is, below, skeletons_of_length


def _rejection_limit(bound: int) -> int:
    """The smallest raw draw that a draw for bound rejects."""
    return (1 << 64) - (1 << 64) % bound


def _below(seed: int, bound: int) -> int:
    """One draw in [0, bound) through below_many."""
    return next(below_many(seed, range(bound, bound + 1)))


def test_splitmix64_reference_outputs():
    # The published reference outputs of SplitMix64 at seed 1234567.
    rng = SplitMix64(1234567)
    assert [rng.next64() for _ in range(5)] == [
        6457827717110365317,
        3203168211198807973,
        9817491932198370423,
        4593380528125082431,
        16408922859458223821,
    ]


@pytest.mark.parametrize(
    "bound, expected, raw_draws",
    [
        (1, [0, 0, 0, 0, 0, 0], 6),
        (7, [4, 5, 2, 4, 1, 3], 6),
        (282, [32, 249, 207, 62, 221, 149], 6),
        # About half of all 64-bit draws are rejected for this bound: the
        # six answers took eight raw outputs.
        (
            2**63 + 1,
            [
                470456245648421624,
                153245711798325687,
                425401269711290699,
                2206529413268972963,
                4872513426528128778,
                5336553030172775127,
            ],
            8,
        ),
    ],
)
def test_below_known_answers(bound, expected, raw_draws):
    # Six draws with one bound from one stream; below_many takes a range
    # of bounds, which cannot repeat one, so the scalar oracle draws them.
    rng = SplitMix64(20240601)
    assert [below(rng, bound) for _ in range(6)] == expected
    # The stream resumes right after the last raw draw, rejected ones included.
    reference = SplitMix64(20240601)
    for _ in range(raw_draws):
        reference.next64()
    assert rng.next64() == reference.next64()


@pytest.mark.parametrize("bound", [7, 8, 282, 2**40, 2**63 + 1, 3 * 2**62, 2**64 - 1])
def test_below_rejection_limit(bound):
    # A raw draw is kept iff it lies under the largest multiple of bound
    # that fits in 64 bits; a rejected draw is replaced by the next one.
    # A power of two divides 2**64, so nothing is rejected for it.
    limit = (1 << 64) - (1 << 64) % bound
    kept = _seed_whose_first_output_is(limit - 1)
    assert SplitMix64(kept).next64() == limit - 1
    assert _below(kept, bound) == (limit - 1) % bound
    if limit == 1 << 64:
        return
    rejected = _seed_whose_first_output_is(limit)
    reference = SplitMix64(rejected)
    assert reference.next64() == limit
    draw = reference.next64()
    while draw >= limit:
        draw = reference.next64()
    assert _below(rejected, bound) == draw % bound


@pytest.mark.parametrize(
    "n, m, seed, expected",
    [
        (10, 10, 7, [7, 0, 4, 6, 8, 5, 2, 1, 9, 3]),
        (1000, 8, 42, [413, 182, 552, 26, 338, 942, 855, 396]),
        (5_292_000, 6, 0, [687535, 2308902, 619185, 2242570, 5093347, 4660180]),
        (80_000, 5, 2**64 - 1, [43936, 37826, 13125, 68657, 57734]),
    ],
)
def test_select_samples_known_answers(n, m, seed, expected):
    assert select_samples(n, m, seed) == expected


def test_select_samples_known_answer_through_a_rejection():
    # The seed's fourth raw draw is the smallest one that bound 997 rejects,
    # so shuffle step 3 (bound 1000 - 3) takes the raw draw after it.
    seed = 11276121638811354316
    rng = SplitMix64(seed)
    raw = [rng.next64() for _ in range(4)]
    assert raw[3] == _rejection_limit(997)
    assert all(z < _rejection_limit(1000 - t) for t, z in enumerate(raw[:3]))
    assert select_samples(1000, 8, seed) == [453, 467, 207, 296, 166, 617, 532, 951]


@pytest.mark.parametrize(
    "digits, seed, expected",
    [
        ((2, 0, 6, 3, 1, 8), 5, ["alice", "find", "into", "most", "story", "tower"]),
        (
            (0, 1, 9, 4, 2, 3, 0, 7),
            2**64 - 1,
            ["watch", "emma", "throughout", "them", "to", "moscow", "during", "none"],
        ),
        (
            (9, 9, 9, 9, 9, 9, 9, 9),
            0,
            ["eighteen", "violin", "following", "georgia", "bag", "draw", "before", "georgia"],
        ),
    ],
)
def test_generate_sentence_known_answers(default_lexicon, digits, seed, expected):
    assert generate_sentence(default_lexicon, list(digits), seed) == expected


@pytest.mark.parametrize(
    "digits, seed, rejected_row, expected",
    [
        # Raw draw 0, the skeleton draw over 282 skeletons, is rejected.
        (
            (2, 2, 9, 9, 2, 0, 0, 0),
            15174537778894032359,
            0,
            ["break", "these", "violin", "queen", "girl", "river", "from", "mary"],
        ),
        # Raw draw 5, the draw of the fifth word from a 7-word cell, is rejected.
        (
            (0, 1, 9, 4, 0, 3, 0, 7),
            4033948046686266798,
            5,
            ["this", "story", "pen", "garden", "about", "denver", "spoon", "dream"],
        ),
    ],
)
def test_generate_sentence_known_answers_through_a_rejection(
    default_lexicon, digits, seed, rejected_row, expected
):
    rng = SplitMix64(seed)
    raw = [rng.next64() for _ in range(rejected_row + 1)]
    skeletons = skeletons_of_length(len(digits))
    bounds = [len(skeletons)]
    if rejected_row:
        skeleton = skeletons[raw[0] % len(skeletons)]
        bounds += [len(words_for(default_lexicon, d, pos)) for d, pos in zip(digits, skeleton)]
    assert raw[rejected_row] == _rejection_limit(bounds[rejected_row])
    assert all(z < _rejection_limit(b) for z, b in zip(raw[:rejected_row], bounds))
    assert generate_sentence(default_lexicon, digits, seed) == expected


# The skeleton order is wire format: generate_sentence picks a skeleton by
# its index in this order, so reordering changes every sentence's words.
@pytest.mark.parametrize(
    "length, count, digest",
    [
        (1, 1, "3984942fa38de592a22c79ddd0acc31554a43a19be86ebe329f46679a36a6212"),
        (2, 4, "5786063730b229d5e998731b74e0997158efaf19fe144edbb04835b9e3aa163e"),
        (3, 8, "6b9045f536e907c00ac4857342aece1b72db6d2528069e0baf86049f92ceddb6"),
        (4, 15, "3f0bd2e1bb2347a06583df589ac2ad1517accc488de5ec6239943a28fab4be9d"),
        (5, 30, "7466fa93a7d29b3cc714af4ff33590aaee34d932a1a73fd57f1e1d8405cf8690"),
        (6, 62, "84952d807715db5414e35b6846c485715a40c29c6c471bc4adfc0ad7855d2c15"),
        (7, 131, "7cebaefb34efd46e1a47338e910402bf3d88d242cc6e8d33031ca062c0b6d5a4"),
        (8, 282, "4b11fbd3d54b3711016af7060451caea8e843ea76d5281f236cef568956337b8"),
        (9, 613, "a7f4385b5ff2f24b21a4092fd60da27b2ffd7a6f3e033ebda1f0e5fba433c6e2"),
        (10, 1343, "2aacdc9e4fe27bfaeacbf010980431979e5becf787ecb0cd6da8ee8d03f6fd9e"),
        (11, 2953, "56a4bdb94daeb87f0c286bcef7ded37c7353fbd03867b2a358008f77a713e4d6"),
        (12, 6511, "637b5e24aa0088d5683e9fe819b41cb4371cf7f52ad98e689db0002e2c607f23"),
    ],
)
def test_skeleton_order_known_answers(length, count, digest):
    skeletons = skeletons_of_length(length)
    listing = repr([tuple(pos.value for pos in skeleton) for skeleton in skeletons])
    assert len(skeletons) == count
    assert hashlib.sha256(listing.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "n, index, digits",
    [
        (1, 0, (0, 0)),
        (101, 100, (0, 9, 0, 1)),
        (1000, 999, (3, 1, 0, 7)),
        (80_000, 12345, (0, 4, 3, 1, 7, 6)),
        (1_000_000, 206318, (2, 0, 6, 3, 1, 8)),
        (5_292_000, 5_291_999, (2, 2, 9, 9, 2, 0, 0, 0)),
    ],
)
def test_coordinate_digits_known_answers(n, index, digits):
    g = geometry(n)
    assert g.digits_for(index) == digits
    assert g.index_from_digits(digits) == index


def _shake(label: str, size: int) -> bytes:
    return hashlib.shake_128(label.encode()).digest(size)


@pytest.mark.parametrize(
    "name, n, rate, channels, payload_len, seed, wav_sha256, text_sha256, sentences",
    [
        (
            "small-mono", 1000, 8000, 1, 20, 1,
            "9ee66eacfe2d7c99b1e7ee741dedf36b8cdb65b78dd1992325895fb393e9b8af",
            "a750d207da827ed05fccfb35f572d3282c66a16f70d3baf54d601f1acd22f59c",
            64,
        ),
        (
            "stereo-6digit", 1_000_000, 44100, 2, 100, 2**64 - 1,
            "011c6e98a137f52436b929fabcef1bca89b8d435c905e848dd910862c40cb4ef",
            "3f75c9af64214bf539e7e346d5c1ae34fc86fb605b9ed36f203dffec22e847dc",
            278,
        ),
        (
            # 299 of the 300 samples carry a chunk.
            "full", 300, 8000, 1, 108, 12345,
            "86b806c6535152ff3413fee6efbdc03b0528b747253142abc065442e407baa0b",
            "f31806a432667fe540b2bee3a17b946829f5f048c832bf0fc575e9ddafd77dfa",
            299,
        ),
    ],
)
def test_frozen_cover_digests(
    default_lexicon, name, n, rate, channels, payload_len, seed, wav_sha256, text_sha256, sentences
):
    samples = np.frombuffer(_shake(f"{name}/carrier", 2 * n), dtype="<u2").copy()
    carrier = AudioClip(rate, channels, samples)
    payload = _shake(f"{name}/payload", payload_len)
    bundle = cover(carrier, payload, default_lexicon, seed)
    text = "\n".join(" ".join(s) for s in bundle.sentences) + "\n"
    assert len(bundle.sentences) == sentences
    assert hashlib.sha256(write_wav(bundle.stego_audio)).hexdigest() == wav_sha256
    assert hashlib.sha256(text.encode()).hexdigest() == text_sha256
    assert uncover(bundle.stego_audio, bundle.sentences, default_lexicon) == payload
