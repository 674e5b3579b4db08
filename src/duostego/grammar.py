"""The compiled-in sentence grammar.

Fourteen production rules over five nonterminals generate every
sentence shape this package emits; the terminals are the six
part-of-speech classes, and the lexicon supplies the actual words.
skeletons_of_length() enumerates every derivable part-of-speech
sequence of an exact length (length-indexed bottom-up construction, so
the recursive rules terminate); generate_sentence() realizes a digit
sequence as words, one word per digit, picking skeleton and words from
a seeded stream.

Decoding is the odd one out: decode_sentence() maps words to digits
through the lexicon alone and never consults the grammar, so text that
was reformatted (or was never derivable to begin with) still decodes.
"""

from __future__ import annotations

from itertools import product
from typing import Iterable, Sequence

from .errors import NoSkeletonError
from .lexicon import _POS_ORDER, Lexicon, PosClass
from .rng import SplitMix64

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


def _skeleton_key(skeleton):
    return tuple(_POS_ORDER[p] for p in skeleton)


class Grammar:
    """The fixed production set, with per-instance caches."""

    def __init__(self):
        self._rules: dict[str, list[tuple]] = {}
        for lhs, rhs in PRODUCTIONS:
            self._rules.setdefault(lhs, []).append(rhs)
        self._min_len = self._minimum_lengths()
        self._derivable_cache: dict[tuple, frozenset] = {}
        self._skeletons_cache: dict[int, tuple] = {}
        self._skeleton_keys_cache: dict[int, tuple] = {}

    # -- exact-length enumeration ---------------------------------------

    def skeletons_of_length(self, length: int) -> tuple[tuple[PosClass, ...], ...]:
        """All derivable part-of-speech sequences of exactly `length` terminals.

        Deterministically ordered; raises NoSkeletonError on an empty
        result (unreachable for this grammar when length >= 1).
        """
        if length < 1:
            raise ValueError(f"length must be positive, got {length}")
        cached = self._skeletons_cache.get(length)
        if cached is None:
            cached = tuple(sorted(self._derivable(START, length), key=_skeleton_key))
            self._skeletons_cache[length] = cached
        if not cached:
            raise NoSkeletonError(f"no derivable sentence shape of length {length}")
        return cached

    def _derivable(self, symbol, length: int) -> frozenset:
        if isinstance(symbol, PosClass):
            return frozenset([(symbol,)]) if length == 1 else frozenset()
        key = (symbol, length)
        hit = self._derivable_cache.get(key)
        if hit is not None:
            return hit
        found = set()
        for rhs in self._rules[symbol]:
            for parts in self._splits(rhs, length):
                for pieces in product(*(self._derivable(s, n) for s, n in zip(rhs, parts))):
                    found.add(sum(pieces, ()))
        result = frozenset(found)
        self._derivable_cache[key] = result
        return result

    def _splits(self, symbols, total: int):
        """Ways to apportion `total` terminals among `symbols`, min-length pruned."""
        if len(symbols) == 1:
            if self._min_len[symbols[0]] <= total:
                yield (total,)
            return
        head, tail = symbols[0], symbols[1:]
        tail_min = sum(self._min_len[s] for s in tail)
        for n in range(self._min_len[head], total - tail_min + 1):
            for rest in self._splits(tail, total - n):
                yield (n, *rest)

    def _minimum_lengths(self) -> dict:
        min_len = {pos: 1 for pos in PosClass}
        for lhs in self._rules:
            min_len[lhs] = len(PosClass) * 4  # any finite over-estimate
        changed = True
        while changed:
            changed = False
            for lhs, rhs in PRODUCTIONS:
                candidate = sum(min_len[s] for s in rhs)
                if candidate < min_len[lhs]:
                    min_len[lhs] = candidate
                    changed = True
        return min_len

    # -- generation ---------------------------------------------------------

    def generate_sentence(
        self, lexicon: Lexicon, digits: Sequence[int], seed: int
    ) -> list[str]:
        """Words realizing `digits`, one word per digit, seed-deterministic.

        Token i is drawn from lexicon category digits[i]; the tokens'
        part-of-speech sequence is one of skeletons_of_length(len(digits)).
        """
        if not digits:
            raise ValueError("cannot generate a sentence for zero digits")
        skeletons = self._skeleton_keys(len(digits))
        below = SplitMix64(seed).below
        skeleton = skeletons[below(len(skeletons))]
        cells = lexicon.words_by_pos
        tokens = []
        for digit, pos in zip(digits, skeleton):
            words = cells[pos][digit]
            tokens.append(words[below(len(words))])
        return tokens

    def _skeleton_keys(self, length: int) -> tuple[tuple[int, ...], ...]:
        """skeletons_of_length(length) with each PosClass as its index in PosClass."""
        cached = self._skeleton_keys_cache.get(length)
        if cached is None:
            cached = tuple(map(_skeleton_key, self.skeletons_of_length(length)))
            self._skeleton_keys_cache[length] = cached
        return cached


def decode_sentence(lexicon: Lexicon, tokens: Iterable[str]) -> list[int]:
    """Token-wise category digits; lexicon-only, the grammar is never consulted."""
    if not isinstance(tokens, (list, tuple)):
        tokens = list(tokens)  # digits_of may read the tokens twice
    return lexicon.digits_of(tokens)


DEFAULT_GRAMMAR = Grammar()
