import pytest
from hypothesis import example, given, settings, strategies as st

from duostego.errors import (
    DuostegoError,
    DuplicateWordError,
    IncompleteCategoryError,
    LexiconParseError,
    UnknownWordError,
)
from duostego.lexicon import PosClass, load_lexicon

from conftest import REFERENCE_PLACEMENTS, make_lexicon_text, words_for


class TestLoading:
    def test_reference_placements_resolve(self, reference_lexicon):
        assert reference_lexicon.digits_of(["a", "book", "from", "school"]) == [2, 9, 0, 1]

    def test_duplicate_across_categories_rejected(self):
        text = make_lexicon_text(
            extra=[(0, PosClass.VERB, "walk"), (9, PosClass.VERB, "walk")]
        )
        with pytest.raises(DuplicateWordError) as err:
            load_lexicon(text)
        assert err.value.word == "walk"
        assert {err.value.first_category, err.value.second_category} == {0, 9}

    def test_empty_file_is_incomplete(self):
        with pytest.raises(IncompleteCategoryError):
            load_lexicon("")

    def test_one_missing_cell_is_incomplete(self):
        lines = [
            line
            for line in make_lexicon_text().splitlines()
            if not line.startswith("7|noun|")
        ]
        with pytest.raises(IncompleteCategoryError) as err:
            load_lexicon("\n".join(lines))
        assert "7" in str(err.value)

    def test_empty_cells_reported_digit_major(self):
        dropped = ("3|noun|", "0|verb|", "3|det|", "5|propernoun|", "1|pronoun|", "8|verb|", "0|det|")
        lines = [line for line in make_lexicon_text().splitlines() if not line.startswith(dropped)]
        with pytest.raises(IncompleteCategoryError) as err:
            load_lexicon("\n".join(lines))
        assert str(err.value) == (
            "7 empty (digit, pos) cells, first few: "
            "[(0, 'det'), (0, 'verb'), (1, 'pronoun'), (3, 'det'), (3, 'noun')]"
        )

    def test_first_duplicate_in_digit_major_order_reported(self):
        # "tree" meets its second category (5) before "walk" meets its (7)
        text = make_lexicon_text(
            extra=[
                (7, PosClass.NOUN, "walk"),
                (2, PosClass.VERB, "Walk"),
                (5, PosClass.DET, "tree"),
                (1, PosClass.PROPER_NOUN, "tree"),
            ]
        )
        with pytest.raises(DuplicateWordError) as err:
            load_lexicon(text)
        assert (err.value.word, err.value.first_category, err.value.second_category) == ("tree", 1, 5)

    def test_case_variants_fold_to_one_word(self):
        text = make_lexicon_text(extra=[(4, PosClass.NOUN, "Dance"), (4, PosClass.NOUN, "dance")])
        assert words_for(load_lexicon(text), 4, PosClass.NOUN) == ("dance", "noun4x0", "noun4x1")

    def test_leading_byte_order_mark_ignored(self):
        # As saved by a BOM-writing editor; the mark used to stick to line 1's digit.
        text = "0|noun|door\n" + make_lexicon_text()
        lex = load_lexicon("\ufeff" + text)
        assert lex.words_by_pos == load_lexicon(text).words_by_pos
        assert lex.digits_of(["door"]) == [0]

    @pytest.mark.parametrize("prefix", ["\ufeff\ufeff", "# comment\n\ufeff"])
    def test_only_one_mark_at_the_very_start_ignored(self, prefix):
        with pytest.raises(LexiconParseError):
            load_lexicon(prefix + "0|noun|door\n" + make_lexicon_text())

    def test_comments_and_blank_lines_ignored(self):
        text = "# a comment\n\n" + make_lexicon_text() + "\n   \n# the end\n"
        load_lexicon(text)

    @pytest.mark.parametrize(
        "line",
        [
            "0|noun",  # missing field
            "0|noun|door|extra",  # too many fields
            "x|noun|door",  # bad digit
            "10|noun|door",  # two digits
            "\u00b2|noun|door",  # superscript two: str.isdigit() but not int()
            "\u0663|noun|door",  # Arabic-Indic three: int() reads it as 3
            "\uff13|noun|door",  # fullwidth three: int() reads it as 3
            "0|adverb|door",  # unknown POS
            "0|noun|",  # empty word
            "0|noun|front door",  # inner whitespace
        ],
    )
    def test_malformed_lines(self, line):
        with pytest.raises(LexiconParseError):
            load_lexicon(make_lexicon_text() + line + "\n")

    def test_same_word_two_pos_same_category_allowed(self):
        text = make_lexicon_text(
            extra=[(4, PosClass.NOUN, "dance"), (4, PosClass.VERB, "dance")]
        )
        lex = load_lexicon(text)
        assert lex.digits_of(["dance"]) == [4]
        assert "dance" in words_for(lex, 4, PosClass.NOUN)
        assert "dance" in words_for(lex, 4, PosClass.VERB)


class TestLookup:
    def test_case_insensitive(self, reference_lexicon):
        for spelling in ("harvard", "Harvard", "HARVARD"):
            assert reference_lexicon.digits_of([spelling]) == [9]

    def test_unknown_word(self, reference_lexicon):
        with pytest.raises(UnknownWordError):
            reference_lexicon.digits_of(["zzzz"])

    def test_words_for_sorted_unique_nonempty(self, reference_lexicon):
        words = words_for(reference_lexicon, 0, PosClass.PREPOSITION)
        assert "from" in words
        assert list(words) == sorted(set(words))
        for digit in range(10):
            for pos in PosClass:
                assert len(words_for(reference_lexicon, digit, pos)) >= 1

    def test_forward_reverse_consistency(self, reference_lexicon):
        for digit in range(10):
            for pos in PosClass:
                words = words_for(reference_lexicon, digit, pos)
                assert reference_lexicon.digits_of(words) == [digit] * len(words)

    def test_words_by_pos_matches_lexicon_text(self, reference_lexicon):
        # the cells as the source text lays them out, parsed independently
        expected = {}
        for line in make_lexicon_text(extra=REFERENCE_PLACEMENTS).splitlines():
            digit, pos, word = line.split("|")
            expected.setdefault((int(digit), PosClass(pos)), set()).add(word)
        table = reference_lexicon.words_by_pos
        assert len(table) == len(PosClass)
        for i, pos in enumerate(PosClass):
            assert [table[i][digit] for digit in range(10)] == [
                tuple(sorted(expected[(digit, pos)])) for digit in range(10)
            ]

    def test_digits_of_matches_one_token_lookups(self, reference_lexicon):
        # one bulk lookup agrees with token-at-a-time lookups, also when a
        # mixed-case token sends the bulk lookup to its case-folding path
        tokens = ["harvard", "Texas", "FROM", "a", "book"]
        one_by_one = [reference_lexicon.digits_of([t])[0] for t in tokens]
        assert reference_lexicon.digits_of(tokens) == one_by_one == [9, 1, 0, 2, 9]

    def test_digits_of_names_first_unknown(self, reference_lexicon):
        with pytest.raises(UnknownWordError) as err:
            reference_lexicon.digits_of(["Texas", "zzzz", "yyyy"])
        assert (err.value.word, err.value.position) == ("zzzz", 1)

    def test_known_answer_example(self, reference_lexicon):
        assert reference_lexicon.digits_of(["a", "book", "from", "school"]) == [2, 9, 0, 1]

    def test_case_and_grammarless(self, reference_lexicon):
        # decoding never consults the grammar, so an underivable word
        # salad still decodes
        assert reference_lexicon.digits_of(["A", "BOOK", "School"]) == [2, 9, 1]

    def test_unknown_word_position(self, reference_lexicon):
        with pytest.raises(UnknownWordError) as err:
            reference_lexicon.digits_of(["a", "zzzz"])
        assert err.value.position == 1
        assert err.value.word == "zzzz"

    def test_unknown_word_after_mixed_case(self, reference_lexicon):
        # the first unknown token is named, even when an earlier token
        # only matches after case folding
        with pytest.raises(UnknownWordError) as err:
            reference_lexicon.digits_of(["A", "book", "zzzz", "Qqqq"])
        assert err.value.position == 2
        assert err.value.word == "zzzz"

    def test_any_iterable(self, reference_lexicon):
        # A one-pass iterator used to be used up by the lowercase lookup
        # before a case miss sent it to the case-folding path, which then
        # decoded only what was left: [9, 0, 1].
        tokens = ["A", "BOOK", "from", "School"]
        assert reference_lexicon.digits_of(iter(tokens)) == [2, 9, 0, 1]
        assert reference_lexicon.digits_of(t for t in tokens) == [2, 9, 0, 1]
        assert reference_lexicon.digits_of(tuple(tokens)) == [2, 9, 0, 1]
        with pytest.raises(UnknownWordError) as err:
            reference_lexicon.digits_of(iter(["A", "book", "zzzz"]))
        assert (err.value.word, err.value.position) == ("zzzz", 2)


class TestBundledLexicon:
    def test_loads_and_validates(self, default_lexicon):
        # load_default_lexicon runs the full validator, so reaching here
        # means the asset is disjoint and complete; spot-check the rest
        words = {w for cells in default_lexicon.words_by_pos for cell in cells for w in cell}
        assert len(words) > 400

    def test_every_cell_nonempty(self, default_lexicon):
        for digit in range(10):
            for pos in PosClass:
                assert words_for(default_lexicon, digit, pos)

    def test_contains_reference_placements(self, default_lexicon):
        assert default_lexicon.digits_of(["a", "book", "from", "school", "Harvard"]) == [2, 9, 0, 1, 9]
        assert "this" in words_for(default_lexicon, 0, PosClass.DET)


FUZZ_LINES = make_lexicon_text(cell_size=1).splitlines()

field_mutations = st.lists(
    st.tuples(st.integers(0, len(FUZZ_LINES) - 1), st.integers(0, 2), st.text(max_size=4)),
    min_size=1,
    max_size=4,
)


class TestFuzz:
    @given(field_mutations)
    @example([(0, 0, "\u00b2")])  # superscript two passes str.isdigit() but not int()
    @settings(max_examples=200)
    def test_mutated_lines_fail_typed(self, mutations):
        lines = list(FUZZ_LINES)
        for line, field, text in mutations:
            fields = lines[line].split("|")
            fields[field] = text
            lines[line] = "|".join(fields)
        try:
            load_lexicon("\n".join(lines))
        except DuostegoError:
            pass
