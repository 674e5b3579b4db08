import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from duostego import grammar
from duostego.errors import OutOfRangeError
from duostego.grammar import generate_sentence
from duostego.lexicon import PosClass, load_default_lexicon, load_lexicon
from duostego.rng import RANGE64, outputs

from conftest import words_for
from oracles import (
    ReferenceSplitMix64,
    generate_sentence_oracle,
    oracle_skeletons,
    recognize,
    rejection_limit,
    skeletons_of_length,
)

P = PosClass

# hypothesis-driven tests cannot take fixtures; share one loaded lexicon
_SESSION_LEXICON = load_default_lexicon()


class TestSkeletonEnumeration:
    def test_length_one(self):
        assert skeletons_of_length(1) == ((P.VERB,),)

    def test_length_two(self):
        assert set(skeletons_of_length(2)) == {
            (P.PRONOUN, P.VERB),
            (P.PROPER_NOUN, P.VERB),
            (P.VERB, P.PRONOUN),
            (P.VERB, P.PROPER_NOUN),
        }

    @pytest.mark.parametrize("length", range(1, 7))
    def test_matches_brute_force_oracle(self, length):
        assert set(skeletons_of_length(length)) == oracle_skeletons(length)

    def test_deterministic_order(self):
        # wire order: lexicographic by each class's position in PosClass
        position = {pos: i for i, pos in enumerate(PosClass)}
        skeletons = skeletons_of_length(5)
        assert list(skeletons) == sorted(skeletons, key=lambda sk: [position[p] for p in sk])
        assert len(set(skeletons)) == len(skeletons)

    def test_every_skeleton_recognized(self):
        for length in range(1, 7):
            for skeleton in skeletons_of_length(length):
                assert recognize(skeleton)

    def test_zero_length_rejected(self):
        # no rule derives the empty string, so no sentence has zero words
        assert skeletons_of_length(0) == ()


class TestRecognize:
    def test_lone_verb(self):
        assert recognize((P.VERB,))

    def test_bare_noun_phrase_is_not_a_sentence(self):
        assert not recognize((P.DET, P.NOUN, P.PREPOSITION, P.NOUN))

    def test_subject_verb_prepositional_phrase(self):
        assert recognize((P.DET, P.NOUN, P.VERB, P.PREPOSITION, P.DET, P.NOUN))

    def test_empty(self):
        assert not recognize(())

    @given(st.lists(st.sampled_from(list(PosClass)), min_size=1, max_size=6))
    @settings(max_examples=300)
    def test_agrees_with_enumeration(self, sequence):
        skeleton = tuple(sequence)
        expected = skeleton in set(skeletons_of_length(len(skeleton)))
        assert recognize(skeleton) == expected


class TestGenerate:
    def test_paper_coordinate_digits(self, reference_lexicon):
        digits = [2, 9, 0, 1]
        tokens = generate_sentence(reference_lexicon, digits, seed=7)
        assert len(tokens) == 4
        assert reference_lexicon.digits_of(tokens) == digits
        # the realized part-of-speech sequence must be a derivable skeleton
        skeletons = set(skeletons_of_length(4))
        candidates = [
            sk
            for sk in skeletons
            if all(t in words_for(reference_lexicon, d, p) for t, d, p in zip(tokens, digits, sk))
        ]
        assert candidates

    def test_single_digit_yields_a_verb(self, default_lexicon):
        tokens = generate_sentence(default_lexicon, [5], seed=3)
        assert len(tokens) == 1
        assert tokens[0] in words_for(default_lexicon, 5, P.VERB)

    def test_deterministic(self, default_lexicon):
        first = generate_sentence(default_lexicon, [1, 2, 3, 4], seed=99)
        second = generate_sentence(default_lexicon, [1, 2, 3, 4], seed=99)
        assert first == second

    def test_seed_varies_output(self, default_lexicon):
        outputs = {
            tuple(generate_sentence(default_lexicon, [4, 4, 4, 4], seed=s))
            for s in range(20)
        }
        assert len(outputs) > 1

    @pytest.mark.parametrize(
        "seed",
        [np.int64(12345), np.uint64(12345), np.int32(12345), np.uint32(12345), np.int16(-7), np.uint8(200),
         np.int64(-(2**63)), np.uint64(2**64 - 1)],
    )
    def test_numpy_integer_seed_matches_int(self, default_lexicon, seed):
        # numpy seeds used to overflow in `seed & MASK64`.
        digits = [1, 2, 3, 0, 9]
        assert generate_sentence(default_lexicon, digits, seed) == generate_sentence(
            default_lexicon, digits, int(seed)
        )

    def test_empty_digits_rejected(self, default_lexicon):
        with pytest.raises(ValueError):
            generate_sentence(default_lexicon, [], seed=0)

    @pytest.mark.parametrize("digits", [(7,), (2, 9, 0, 1), (3, 1, 4, 1, 5, 9, 2, 0), (0,) * 12])
    @pytest.mark.parametrize("seed", [0, 5, 2**64 - 1, 9215558724009774362])
    def test_numpy_digit_array_matches_tuple(self, default_lexicon, digits, seed):
        # `if not digits` used to raise numpy's ambiguous-truth-value error
        array = np.array(digits)
        assert generate_sentence(default_lexicon, array, seed) == generate_sentence(
            default_lexicon, tuple(digits), seed
        )

    def test_empty_digit_array_rejected(self, default_lexicon):
        with pytest.raises(ValueError, match="zero digits"):
            generate_sentence(default_lexicon, np.array([], dtype=np.int64), seed=0)

    def test_digit_array_outside_0_to_9_rejected(self, default_lexicon):
        with pytest.raises(OutOfRangeError, match=r"got \[1, -1\]$"):
            generate_sentence(default_lexicon, np.array([1, -1]), seed=3)

    @given(
        st.lists(st.integers(0, 9), min_size=1, max_size=12),
        st.integers(0, 2**64 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_decode_inverts_generate(self, digits, seed):
        lexicon = _SESSION_LEXICON
        tokens = generate_sentence(lexicon, digits, seed)
        assert lexicon.digits_of(tokens) == digits

    @given(st.lists(st.integers(0, 9), min_size=1, max_size=8), st.integers(0, 2**64 - 1))
    @example(digits=[0], seed=0)
    @example(digits=[9] * 8, seed=2**64 - 1)
    @settings(max_examples=300, deadline=None)
    def test_matches_scalar_oracle(self, digits, seed):
        tokens = generate_sentence(_SESSION_LEXICON, digits, seed)
        assert tokens == generate_sentence_oracle(_SESSION_LEXICON, digits, seed)


def _prefixed(lexicon, prefix: str):
    """A copy of lexicon with every word prefixed, so each cell keeps its order."""
    return load_lexicon(
        "\n".join(
            f"{digit}|{pos.value}|{prefix}{word}"
            for pos, row in zip(PosClass, lexicon.words_by_pos)
            for digit, cell in enumerate(row)
            for word in cell
        )
    )


class TestDrawTable:
    """generate_sentence's draw table is kept per (lexicon, length), for the 8 latest keys."""

    def test_lexicons_of_one_length_draw_their_own_words(self):
        # A table keyed by length alone would give the second sentence the
        # first lexicon's words, and the third the second's.
        first_lexicon, second_lexicon = _SESSION_LEXICON, _prefixed(_SESSION_LEXICON, "x")
        digits, seed = [3, 1, 4, 1, 5, 9, 2, 6], 27
        first, second, third = (
            generate_sentence(lexicon, digits, seed) for lexicon in (first_lexicon, second_lexicon, first_lexicon)
        )
        assert first == third == generate_sentence_oracle(first_lexicon, digits, seed)
        assert second == generate_sentence_oracle(second_lexicon, digits, seed) == ["x" + word for word in first]

    def test_dropped_lexicon_freed_after_eight_newer_keys(self):
        lexicon = _prefixed(_SESSION_LEXICON, "y")
        generate_sentence(lexicon, [1, 2], 0)
        dropped = weakref.ref(lexicon)
        del lexicon
        for length in range(1, 8):
            generate_sentence(_SESSION_LEXICON, [0] * length, 0)
        assert dropped() is not None  # its key is still one of the 8 latest
        generate_sentence(_SESSION_LEXICON, [0] * 8, 0)
        assert dropped() is None


def _bounds(lexicon, digits, skeleton_draw: int) -> list[int]:
    """Option counts of a sentence's draws: the skeletons, then each word's cell."""
    skeletons = skeletons_of_length(len(digits))
    skeleton = skeletons[skeleton_draw % len(skeletons)]
    return [len(skeletons)] + [len(words_for(lexicon, d, pos)) for d, pos in zip(digits, skeleton)]


@pytest.fixture
def blocks(monkeypatch):
    """The block sizes that generate_sentence asks rng.outputs for, in order."""
    sizes = []

    def spy(state, k):
        sizes.append(k)
        return outputs(state, k)

    monkeypatch.setattr(grammar, "outputs", spy)
    return sizes


class TestRejection:
    """generate_sentence skips rejected draws as the one-draw-at-a-time oracle does.

    The known answers were recorded before the draws went block-wise. A
    sentence of n digits draws a block of n + 1 outputs, so one rejection
    uses it up and a block of 2(n + 1) from the same seed replaces it.
    """

    @pytest.mark.parametrize(
        "digits, seed, row, expected",
        [
            # Draw 8, the last word's over a 10-word cell: the block's last lane.
            pytest.param(
                (3, 1, 4, 1, 5, 9, 2, 0),
                9215558724009774362,
                8,
                ["seventy", "board", "including", "chicago", "catch", "enough", "doctor", "door"],
                id="last-lane",
            ),
            # A 1-digit sentence's word draw, the last of a 2-lane block.
            pytest.param((0,), 15233586164433957293, 1, ["find"], id="one-digit-word"),
            # 4 is the shortest length whose skeleton count (15) is no power of two.
            pytest.param((3, 1, 4, 1), 3558559446808474027, 0, ["samsung", "study", "amidst", "he"], id="skeleton"),
        ],
    )
    def test_known_answers(self, blocks, digits, seed, row, expected):
        rng = ReferenceSplitMix64(seed)
        raw = [rng.next64() for _ in range(row + 2)]
        bounds = _bounds(_SESSION_LEXICON, digits, raw[1] if row == 0 else raw[0])
        assert raw[row] == rejection_limit(bounds[row])
        assert all(z < rejection_limit(b) for z, b in zip(raw[:row], bounds))
        tokens = generate_sentence(_SESSION_LEXICON, digits, seed)
        assert tokens == expected == generate_sentence_oracle(_SESSION_LEXICON, digits, seed)
        assert blocks == [len(digits) + 1, 2 * (len(digits) + 1)]

    def test_one_digit_skeleton_draw_is_never_rejected(self, blocks):
        # Length 1 has one skeleton, and a draw over one option rejects
        # nothing: even this seed's first draw, the largest there is, is kept.
        seed = 3558559446808474027
        first_draw = ReferenceSplitMix64(seed).next64()
        assert first_draw == RANGE64 - 1 < rejection_limit(len(skeletons_of_length(1)))
        tokens = generate_sentence(_SESSION_LEXICON, [7], seed)
        assert tokens == ["forget"] == generate_sentence_oracle(_SESSION_LEXICON, [7], seed)
        assert blocks == [2]

    # Two rejected draws in a row are out of reach of a real seed: with
    # cells of at most 10 words, a draw is rejected with odds below 2**-60.
    # So these cases insert rejected draws into the real stream. A rejected
    # draw is skipped, so the words must stay those of the plain stream.
    @pytest.mark.parametrize(
        "digits, seed, rows",
        [
            pytest.param((2, 9, 0, 1, 3, 3, 4, 5), 8, {0, 1}, id="skeleton-twice"),
            pytest.param((2, 9, 0, 1, 3, 3, 4, 5), 8, {3, 4}, id="mid-sentence"),
            pytest.param((2, 9, 0, 1, 3, 3, 4, 5), 8, {8, 9}, id="last-lane-twice"),
            pytest.param((2, 9, 0, 1, 3, 3, 4, 5), 7, set(range(5, 25)), id="twenty-in-a-row"),
            pytest.param((1,), 11, {1, 2}, id="one-digit"),
        ],
    )
    def test_rejected_draws_in_a_row(self, monkeypatch, digits, seed, rows):
        rejected = RANGE64 - 1  # rejected over any count that is not a power of two
        sizes = []

        def stream(state, k):
            sizes.append(k)
            real = ReferenceSplitMix64(state)
            return tuple(rejected if t in rows else real.next64() for t in range(k))

        bounds = _bounds(_SESSION_LEXICON, digits, ReferenceSplitMix64(seed).next64())
        for row in rows:  # each inserted draw is rejected by the draw it stands in for
            assert rejected >= rejection_limit(bounds[row - sum(r < row for r in rows)])
        expected = generate_sentence_oracle(_SESSION_LEXICON, digits, seed)
        monkeypatch.setattr(grammar, "outputs", stream)
        assert generate_sentence(_SESSION_LEXICON, digits, seed) == expected
        # Each block is n + 1 longer than the last, until one holds the
        # n + 1 kept draws and every inserted one.
        block = len(digits) + 1
        needed = -(-(block + len(rows)) // block)
        assert sizes == [block * b for b in range(1, needed + 1)]

    @pytest.mark.parametrize("digits", [[-1], [10], [1, 2, 3, -1], [4, 10, 4, 4]])
    def test_digits_outside_0_to_9_rejected(self, digits):
        # A negative digit used to wrap round to category 9 silently.
        with pytest.raises(OutOfRangeError, match="0-9"):
            generate_sentence(_SESSION_LEXICON, digits, 3)
