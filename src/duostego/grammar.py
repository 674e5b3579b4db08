"""The compiled-in sentence grammar.

Fourteen production rules over five nonterminals generate every
sentence shape this package emits; the terminals are the six
part-of-speech classes, and the lexicon supplies the actual words.
_skeletons() lists every derivable part-of-speech sequence of an exact
length, from one memoized derivation, _derivable(symbol, length),
which cuts `length` into one positive share per right-hand side symbol;
a share that symbol cannot derive just adds nothing. No rule derives
the empty string and the unit rules (S -> VP, VP -> VERB, ...) form no
cycle, so every recursive call is on a shorter length or lower in the
unit-rule order, and the recursion ends.
generate_sentence() realizes a digit sequence as words, one word per
digit, picking skeleton and words from a seeded stream.

Decoding is the odd one out: decode_sentence() maps words to digits
through the lexicon alone and never consults the grammar, so text that
was reformatted (or was never derivable to begin with) still decodes.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations, product
from typing import Iterable, Sequence

from .lexicon import Lexicon, PosClass
from .rng import GAMMA, MASK64, MIX1, MIX2, RANGE64

# fmt: off
PRODUCTIONS: tuple[tuple[str, tuple], ...] = (
    ("S",       ("NP", "VP")),
    ("S",       ("VP",)),
    ("NP",      (PosClass.PRONOUN,)),
    ("NP",      (PosClass.PROPER_NOUN,)),
    ("NP",      (PosClass.DET, "Nominal")),
    ("Nominal", (PosClass.NOUN,)),
    ("Nominal", ("Nominal", PosClass.NOUN)),
    ("Nominal", ("Nominal", "PP")),
    ("VP",      (PosClass.VERB,)),
    ("VP",      (PosClass.VERB, "NP")),
    ("VP",      (PosClass.VERB, "NP", "PP")),
    ("VP",      (PosClass.VERB, "PP")),
    ("VP",      ("VP", "PP")),
    ("PP",      (PosClass.PREPOSITION, "NP")),
)
# fmt: on

START = "S"

_RULES = {lhs: [rhs for head, rhs in PRODUCTIONS if head == lhs] for lhs, _ in PRODUCTIONS}


@cache
def _derivable(symbol, length: int) -> frozenset:
    """PosClass-index tuples of exactly `length` terminals that `symbol` derives."""
    if isinstance(symbol, PosClass):
        return frozenset([(list(PosClass).index(symbol),)]) if length == 1 else frozenset()
    found = set()
    for rhs in _RULES[symbol]:
        for cuts in combinations(range(1, length), len(rhs) - 1):
            bounds = (0, *cuts, length)
            parts = [_derivable(s, end - begin) for s, begin, end in zip(rhs, bounds, bounds[1:])]
            found.update(sum(pieces, ()) for pieces in product(*parts))
    return frozenset(found)


@cache
def _skeletons(length: int) -> tuple[tuple[int, ...], ...]:
    """Every skeleton of `length` terminals, as PosClass indices, in wire order."""
    return tuple(sorted(_derivable(START, length)))


class Grammar:
    """The fixed production set."""

    def generate_sentence(
        self, lexicon: Lexicon, digits: Sequence[int], seed: int
    ) -> list[str]:
        """Words realizing `digits`, one word per digit, seed-deterministic.

        Token i is drawn from lexicon category digits[i]; the tokens'
        part-of-speech sequence is one of _skeletons(len(digits)).
        """
        if not digits:
            raise ValueError("cannot generate a sentence for zero digits")
        cells = lexicon.words_by_pos
        skeleton = None
        tokens: list[str] = []
        # The first draw picks the skeleton, each later one the next word.
        # The draws are SplitMix64(seed) draws over len(options) in turn:
        # the step, rng.mix and below_many's rejection rule written out on
        # a local state, which test_matches_scalar_oracle checks. This runs
        # for every sentence of a cover, where a call per draw dominates.
        options = _skeletons(len(digits))
        state = seed & MASK64
        while True:
            bound = len(options)
            limit = RANGE64 - RANGE64 % bound
            while True:
                state = (state + GAMMA) & MASK64
                z = ((state ^ (state >> 30)) * MIX1) & MASK64
                z = ((z ^ (z >> 27)) * MIX2) & MASK64
                z ^= z >> 31
                if z < limit:
                    break
            pick = options[z % bound]
            if skeleton is None:
                skeleton = pick
            else:
                tokens.append(pick)
            i = len(tokens)
            if i == len(digits):
                return tokens
            options = cells[skeleton[i]][digits[i]]


def decode_sentence(lexicon: Lexicon, tokens: Iterable[str]) -> list[int]:
    """Token-wise category digits; lexicon-only, the grammar is never consulted."""
    if not isinstance(tokens, (list, tuple)):
        tokens = list(tokens)  # digits_of may read the tokens twice
    return lexicon.digits_of(tokens)


DEFAULT_GRAMMAR = Grammar()
