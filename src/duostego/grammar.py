"""The compiled-in sentence grammar.

Fourteen production rules over five nonterminals generate every
sentence shape this package emits; the terminals are the six
part-of-speech classes, and the lexicon supplies the actual words.
_draws() lists every derivable part-of-speech sequence of an exact
length, from one memoized derivation, _derivable(symbol, length),
which cuts `length` into one positive share per right-hand side symbol;
a share that symbol cannot derive just adds nothing. No rule derives
the empty string and the unit rules (S -> VP, VP -> VERB, ...) form no
cycle, so every recursive call is on a shorter length or lower in the
unit-rule order, and the recursion ends.
generate_sentence() realizes a digit sequence as words, one word per
digit: one rng.outputs block of seeded draws picks the skeleton, then
each word, and a rejected draw is skipped as in below_many.
"""

from __future__ import annotations

from functools import cache, lru_cache
from itertools import combinations, product
from operator import index
from typing import Sequence

from .errors import OutOfRangeError
from .lexicon import DIGITS, Lexicon, PosClass
from .rng import MASK64, RANGE64, outputs

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


@lru_cache(maxsize=8)
def _draws(lexicon: Lexicon, length: int):
    """(skeletons, rejection limit of a draw over them, cells) of a `length`-word sentence.

    The skeletons are every PosClass-index sequence of `length` terminals,
    in wire order. cells maps digit -> (words, draw rejection limit) per
    PosClass row of lexicon; a dict, so -1 has no entry.
    """
    skeletons = tuple(sorted(_derivable(START, length)))
    rows = lexicon.words_by_pos
    cells = {d: tuple((row[d], RANGE64 - RANGE64 % len(row[d])) for row in rows) for d in DIGITS}
    return skeletons, RANGE64 - RANGE64 % len(skeletons), cells


def generate_sentence(lexicon: Lexicon, digits: Sequence[int], seed: int) -> list[str]:
    """Words realizing `digits`, one word per digit, seed-deterministic.

    Token i is drawn from lexicon category digits[i]; the tokens'
    part-of-speech sequence is one of the skeletons in _draws(lexicon,
    len(digits)); a numpy digit array works too. Raises OutOfRangeError
    for a digit outside 0-9.
    """
    if len(digits) == 0:
        raise ValueError("cannot generate a sentence for zero digits")
    skeletons, skeleton_limit, cells = _draws(lexicon, len(digits))
    # Only rejections use up the block of len(digits) + 1 draws. A longer
    # block from the same seed starts with the same draws: walk it again.
    state = index(seed) & MASK64
    k = step = len(digits) + 1
    while True:
        draws = iter(outputs(state, k))
        try:
            z = next(draws)
            while z >= skeleton_limit:
                z = next(draws)
            skeleton = skeletons[z % len(skeletons)]
            tokens = []
            for pos, digit in zip(skeleton, digits):
                words, limit = cells[digit][pos]
                z = next(draws)
                while z >= limit:
                    z = next(draws)
                tokens.append(words[z % len(words)])
            return tokens
        except StopIteration:
            k += step
        except KeyError:
            raise OutOfRangeError(f"sentence digits must lie in 0-9, got {list(map(int, digits))}") from None
