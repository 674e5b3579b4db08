import pytest
from hypothesis import example, given, settings, strategies as st

from duostego.errors import UnknownWordError
from duostego.grammar import Grammar, decode_sentence
from duostego.lexicon import PosClass, load_default_lexicon

from conftest import words_for
from oracles import generate_sentence_oracle, oracle_skeletons, recognize, skeletons_of_length

P = PosClass

# hypothesis-driven tests cannot take fixtures; share one loaded lexicon
_SESSION_LEXICON = load_default_lexicon()


@pytest.fixture(scope="module")
def grammar():
    return Grammar()


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
    def test_paper_coordinate_digits(self, grammar, reference_lexicon):
        digits = [2, 9, 0, 1]
        tokens = grammar.generate_sentence(reference_lexicon, digits, seed=7)
        assert len(tokens) == 4
        assert decode_sentence(reference_lexicon, tokens) == digits
        # the realized part-of-speech sequence must be a derivable skeleton
        skeletons = set(skeletons_of_length(4))
        candidates = [
            sk
            for sk in skeletons
            if all(t in words_for(reference_lexicon, d, p) for t, d, p in zip(tokens, digits, sk))
        ]
        assert candidates

    def test_single_digit_yields_a_verb(self, grammar, default_lexicon):
        tokens = grammar.generate_sentence(default_lexicon, [5], seed=3)
        assert len(tokens) == 1
        assert tokens[0] in words_for(default_lexicon, 5, P.VERB)

    def test_deterministic(self, grammar, default_lexicon):
        first = grammar.generate_sentence(default_lexicon, [1, 2, 3, 4], seed=99)
        second = grammar.generate_sentence(default_lexicon, [1, 2, 3, 4], seed=99)
        assert first == second

    def test_seed_varies_output(self, grammar, default_lexicon):
        outputs = {
            tuple(grammar.generate_sentence(default_lexicon, [4, 4, 4, 4], seed=s))
            for s in range(20)
        }
        assert len(outputs) > 1

    def test_empty_digits_rejected(self, grammar, default_lexicon):
        with pytest.raises(ValueError):
            grammar.generate_sentence(default_lexicon, [], seed=0)

    @given(
        st.lists(st.integers(0, 9), min_size=1, max_size=12),
        st.integers(0, 2**64 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_decode_inverts_generate(self, digits, seed):
        grammar = Grammar()
        lexicon = _SESSION_LEXICON
        tokens = grammar.generate_sentence(lexicon, digits, seed)
        assert decode_sentence(lexicon, tokens) == digits

    @given(st.lists(st.integers(0, 9), min_size=1, max_size=8), st.integers(0, 2**64 - 1))
    @example(digits=[0], seed=0)
    @example(digits=[9] * 8, seed=2**64 - 1)
    @settings(max_examples=300, deadline=None)
    def test_matches_scalar_oracle(self, digits, seed):
        tokens = Grammar().generate_sentence(_SESSION_LEXICON, digits, seed)
        assert tokens == generate_sentence_oracle(_SESSION_LEXICON, digits, seed)


class TestDecode:
    def test_known_answer_example(self, reference_lexicon):
        assert decode_sentence(reference_lexicon, ["a", "book", "from", "school"]) == [2, 9, 0, 1]

    def test_case_and_grammarless(self, reference_lexicon):
        # decoding never consults the grammar, so an underivable word
        # salad still decodes
        assert decode_sentence(reference_lexicon, ["A", "BOOK", "School"]) == [2, 9, 1]

    def test_unknown_word_position(self, reference_lexicon):
        with pytest.raises(UnknownWordError) as err:
            decode_sentence(reference_lexicon, ["a", "zzzz"])
        assert err.value.position == 1
        assert err.value.word == "zzzz"

    def test_unknown_word_after_mixed_case(self, reference_lexicon):
        # the first unknown token is named, even when an earlier token
        # only matches after case folding
        with pytest.raises(UnknownWordError) as err:
            decode_sentence(reference_lexicon, ["A", "book", "zzzz", "Qqqq"])
        assert err.value.position == 2
        assert err.value.word == "zzzz"

    def test_any_iterable(self, reference_lexicon):
        tokens = ["A", "BOOK", "from", "School"]
        assert decode_sentence(reference_lexicon, iter(tokens)) == [2, 9, 0, 1]
        assert decode_sentence(reference_lexicon, tuple(tokens)) == [2, 9, 0, 1]
