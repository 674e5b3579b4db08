"""Ten-category word inventory mapping words to decimal digits.

Every word belongs to exactly one category 0-9 and, within it, to one
or more of six part-of-speech classes. Decoding a word needs only its
category, so categories must be globally disjoint; generation pulls
from a specific (digit, POS) cell, so every cell must be non-empty or a
sentence skeleton could dead-end.

File format: UTF-8 text, one ``digit|pos|word`` entry per line, where
pos is one of det, pronoun, preposition, noun, verb, propernoun. A
leading byte-order mark is ignored. Lines starting with ``#`` are
comments; blank lines are ignored. Words are normalized to lowercase
and may not contain whitespace.
"""

from __future__ import annotations

import enum
from importlib import resources
from typing import Iterable

from .errors import (
    DuplicateWordError,
    IncompleteCategoryError,
    LexiconParseError,
    UnknownWordError,
)

DIGITS = tuple(range(10))
_DIGIT_FIELDS = frozenset(map(str, DIGITS))  # ASCII only: str.isdigit() also takes '²'


class PosClass(enum.Enum):
    """The six part-of-speech classes; values are the file-format tags."""

    DET = "det"
    PRONOUN = "pronoun"
    PREPOSITION = "preposition"
    NOUN = "noun"
    VERB = "verb"
    PROPER_NOUN = "propernoun"


_POS_ROWS = {pos.value: row for row, pos in enumerate(PosClass)}  # file tag -> cell-table row


class Lexicon:
    """Validated, immutable word inventory; build it with load_lexicon().

    Takes cells[i][digit], the lowercase word set of the i-th PosClass in
    category digit, and keeps them sorted as words_by_pos; generation
    draws from grammar._draws' table, built from these rows.
    """

    words_by_pos: tuple[tuple[tuple[str, ...], ...], ...]

    def __init__(self, cells: list[list[set[str]]]):
        missing = [
            (digit, pos.value)
            for digit in DIGITS
            for pos, row in zip(PosClass, cells)
            if not row[digit]
        ]
        if missing:
            raise IncompleteCategoryError(
                f"{len(missing)} empty (digit, pos) cells, first few: {missing[:5]}"
            )
        self.words_by_pos = tuple(tuple(tuple(sorted(cell)) for cell in row) for row in cells)

        digit_by_word = {}
        for digit in DIGITS:
            for cell in self.words_by_pos:
                for word in cell[digit]:
                    seen = digit_by_word.get(word)
                    if seen is not None and seen != digit:
                        raise DuplicateWordError(word, seen, digit)
                    digit_by_word[word] = digit
        self._digit_by_word = digit_by_word

    def digits_of(self, tokens: Iterable[str]) -> list[int]:
        """Category digit of every token, case-insensitive: a sentence's digits.

        Decoding consults the lexicon alone, never the grammar, so text
        that was reformatted (or was never derivable) still decodes.
        Raises UnknownWordError naming the first token in no category;
        a token that is not a str is in none.
        """
        if not isinstance(tokens, (list, tuple)):
            tokens = list(tokens)  # a miss below reads the tokens again
        table = self._digit_by_word
        try:
            return [table[token] for token in tokens]  # lowercase text, as generated
        except (KeyError, TypeError):  # TypeError: an unhashable token
            pass
        words = [token.lower() if isinstance(token, str) else None for token in tokens]
        for position, word in enumerate(words):
            if word not in table:
                raise UnknownWordError(tokens[position], position)
        return [table[word] for word in words]


def load_lexicon(text: str) -> Lexicon:
    """Parse and validate lexicon text (see module docstring for the format)."""
    cells = [[set() for _ in DIGITS] for _ in PosClass]
    text = text.removeprefix("\ufeff")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split("|")
        if len(fields) != 3:
            raise LexiconParseError(f"line {lineno}: expected digit|pos|word, got {raw!r}")
        digit_field, pos_field, word = (f.strip() for f in fields)
        if digit_field not in _DIGIT_FIELDS:
            raise LexiconParseError(f"line {lineno}: category must be a single digit 0-9, got {digit_field!r}")
        row = _POS_ROWS.get(pos_field.lower())
        if row is None:
            raise LexiconParseError(
                f"line {lineno}: unknown part of speech {pos_field!r} (expected one of {', '.join(_POS_ROWS)})"
            )
        if not word:
            raise LexiconParseError(f"line {lineno}: empty word")
        if any(c.isspace() for c in word):
            raise LexiconParseError(f"line {lineno}: word {word!r} contains whitespace")
        cells[row][int(digit_field)].add(word.lower())
    return Lexicon(cells)


def load_default_lexicon() -> Lexicon:
    """The lexicon bundled with the package."""
    text = resources.files("duostego").joinpath("data/default_lexicon.txt").read_text("utf-8")
    return load_lexicon(text)
