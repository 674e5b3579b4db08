"""Reference implementations that tests compare the package against.

* oracle_skeletons(): breadth-first expansion of sentential forms under
  a rule set written from scratch (string symbols, no shared code with
  the enumerator in duostego.grammar);
* recognize(): a CYK membership check over a binarized copy of
  grammar.PRODUCTIONS, independent of the enumerator;
* embed_oracle(): the 3-LSB embedding rule as a textual splice of bit
  strings;
* write_wav_oracle(): a canonical WAV file as one b"".join of its
  parts, the writer wav_codec.write_wav replaced with one numpy buffer;
* distortion_oracle(): the distortion statistics as whole-array int64
  arithmetic, the formula pipeline.distortion_report used before it
  went block-wise;
* skeletons_of_length(): the skeletons of grammar's draw table mapped
  back to PosClass members, the form the grammar tests compare;
* ReferenceSplitMix64 and splitmix64_mix(): SplitMix64 written from its
  published definition in Python ints, one output at a time, with its
  own constants and no code from duostego.rng;
* below(): one scalar draw in [0, bound) with SplitMix64's rejection
  rule (rejection_limit()), the reference that below_many and
  generate_sentence's walk over a block of rng.outputs must reproduce;
* select_samples_oracle() and generate_sentence_oracle(): sample
  selection and sentence generation with one below() call per draw
  from a ReferenceSplitMix64, as the package made them before its
  draws went block-wise;
* _seed_whose_first_output_is(): a seed chosen through the inverse of
  SplitMix64's output function, to force a given raw draw.
"""

import math
import struct
from collections import deque
from typing import Sequence

import numpy as np

from duostego.grammar import PRODUCTIONS, START, _derivable, _draws
from duostego.lexicon import Lexicon, PosClass, load_lexicon
from duostego.wav_codec import AudioClip

ORACLE_RULES = {
    "S": [["NP", "VP"], ["VP"]],
    "NP": [["pronoun"], ["propernoun"], ["det", "Nominal"]],
    "Nominal": [["noun"], ["Nominal", "noun"], ["Nominal", "PP"]],
    "VP": [["verb"], ["verb", "NP"], ["verb", "NP", "PP"], ["verb", "PP"], ["VP", "PP"]],
    "PP": [["preposition", "NP"]],
}


def oracle_skeletons(length):
    """All length-`length` terminal sequences derivable from S, by BFS."""
    done = set()
    seen = {("S",)}
    queue = deque([("S",)])
    while queue:
        form = queue.popleft()
        if len(form) > length:
            continue  # every symbol derives at least one terminal
        nonterminal = next((i for i, s in enumerate(form) if s in ORACLE_RULES), None)
        if nonterminal is None:
            if len(form) == length:
                done.add(tuple(PosClass(s) for s in form))
            continue
        for rhs in ORACLE_RULES[form[nonterminal]]:
            successor = form[:nonterminal] + tuple(rhs) + form[nonterminal + 1 :]
            if successor not in seen:
                seen.add(successor)
                queue.append(successor)
    return done


# Skeletons do not depend on the words, so any complete lexicon keys the table.
_ONE_WORD_CELLS = load_lexicon("\n".join(f"{d}|{pos.value}|{pos.value}{d}" for d in range(10) for pos in PosClass))


def skeletons_of_length(length: int) -> tuple[tuple[PosClass, ...], ...]:
    """The skeletons of grammar._draws(lexicon, length), each PosClass index mapped to its member.

    No sentence has zero words, so length 0 has no draw table; it reads
    the derivation, which finds no skeleton there.
    """
    classes = tuple(PosClass)
    skeletons = _draws(_ONE_WORD_CELLS, length)[0] if length else _derivable(START, 0)
    return tuple(tuple(classes[i] for i in skeleton) for skeleton in skeletons)


def _binarize():
    """Unit map and binary rule table for CYK; >2-symbol rules get fresh heads."""
    units: dict = {}
    binary: dict[tuple, set] = {}
    counter = 0
    for lhs, rhs in PRODUCTIONS:
        if len(rhs) == 1:
            units.setdefault(rhs[0], set()).add(lhs)
            continue
        symbols = list(rhs)
        while len(symbols) > 2:
            counter += 1
            fresh = f"_BIN{counter}"
            binary.setdefault((symbols[0], symbols[1]), set()).add(fresh)
            symbols[:2] = [fresh]
        binary.setdefault(tuple(symbols), set()).add(lhs)
    return units, binary


_UNIT_CLOSURE, _BINARY_RULES = _binarize()


def _close(symbols: set) -> set:
    out = set(symbols)
    frontier = list(symbols)
    while frontier:
        sym = frontier.pop()
        for lhs in _UNIT_CLOSURE.get(sym, ()):
            if lhs not in out:
                out.add(lhs)
                frontier.append(lhs)
    return out


def recognize(skeleton: Sequence[PosClass]) -> bool:
    """True iff the part-of-speech sequence derives from S (CYK)."""
    n = len(skeleton)
    if n == 0:
        return False
    # chart[(i, j)] = symbols deriving skeleton[i:j]
    chart: dict[tuple[int, int], set] = {}
    for i, pos in enumerate(skeleton):
        chart[(i, i + 1)] = _close({pos})
    for span in range(2, n + 1):
        for i in range(n - span + 1):
            j = i + span
            cell = set()
            for k in range(i + 1, j):
                left, right = chart[(i, k)], chart[(k, j)]
                for (a, b), lhss in _BINARY_RULES.items():
                    if a in left and b in right:
                        cell.update(lhss)
            chart[(i, j)] = _close(cell)
    return START in chart[(0, n)]


def embed_oracle(sample: int, chunk: int) -> int:
    """Independent bit-twiddling oracle: splice bit strings textually."""
    return int(format(sample, "016b")[:13] + format(chunk, "03b"), 2)


def write_wav_oracle(clip: AudioClip) -> bytes:
    """The canonical file of clip: header, fmt, data and trailing chunks, joined."""
    payload = memoryview(clip.samples.astype("<u2", copy=False)).cast("B")
    block_align = clip.channel_count * 2
    fmt_body = struct.pack(
        "<HHIIHH", 1, clip.channel_count, clip.sample_rate, clip.sample_rate * block_align, block_align, 16
    )
    parts = []
    for cid, body in [(b"fmt ", fmt_body), (b"data", payload), *clip.trailing_chunks]:
        parts += (cid, struct.pack("<I", len(body)), body, b"\x00" * (len(body) & 1))
    riff_size = 4 + sum(map(len, parts))
    return b"".join([b"RIFF", struct.pack("<I", riff_size), b"WAVE", *parts])


def distortion_oracle(original: np.ndarray, stego: np.ndarray):
    """(samples_changed, max_abs_delta, mean_abs_delta, snr_db) of two uint16 arrays."""
    delta = np.abs(original.astype(np.int64) - stego.astype(np.int64))
    changed = int(np.count_nonzero(delta))
    max_delta = int(delta.max()) if delta.size else 0
    mean_delta = float(delta.mean()) if delta.size else 0.0
    signal = original.view(np.int16).astype(np.int64)
    noise = signal - stego.view(np.int16).astype(np.int64)
    noise_power = int(np.sum(noise * noise))
    if noise_power == 0:
        return changed, max_delta, mean_delta, math.inf
    signal_power = int(np.sum(signal * signal))
    snr = 10.0 * math.log10(signal_power / noise_power) if signal_power else -math.inf
    return changed, max_delta, mean_delta, snr


# SplitMix64 (Steele, Lea & Flood 2014), as published: state += GAMMA,
# then Stafford's Mix13 output step on the new state.
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_RANGE = 2**64


def splitmix64_mix(z: int) -> int:
    """SplitMix64's output step on a 64-bit counter z."""
    z = (z ^ (z >> 30)) * _MIX1 % _RANGE
    z = (z ^ (z >> 27)) * _MIX2 % _RANGE
    return z ^ (z >> 31)


class ReferenceSplitMix64:
    """SplitMix64 from seed, one output at a time: the k-th is mix(seed + k * GAMMA)."""

    def __init__(self, seed: int):
        self.state = seed % _RANGE

    def next64(self) -> int:
        self.state = (self.state + _GAMMA) % _RANGE
        return splitmix64_mix(self.state)


def rejection_limit(bound: int) -> int:
    """The smallest raw draw that a draw over `bound` options rejects."""
    return _RANGE - _RANGE % bound


def below(rng, bound: int) -> int:
    """Uniform integer in [0, bound) from rng.next64(), for bound in [1, 2**64].

    A raw draw is kept only under the largest multiple of bound that fits
    in 64 bits, which avoids modulo bias; a rejected draw is replaced by
    the next one. rng is a ReferenceSplitMix64, or the package's
    SplitMix64 where a test pins its known answers.
    """
    limit = rejection_limit(bound)
    while True:
        z = rng.next64()
        if z < limit:
            return z % bound


def select_samples_oracle(n: int, m: int, seed: int) -> list[int]:
    """Sparse partial Fisher-Yates, one scalar below(n - t) per step t."""
    rng = ReferenceSplitMix64(seed)
    displaced: dict[int, int] = {}
    out = []
    for t in range(m):
        j = t + below(rng, n - t)
        out.append(displaced.get(j, j))
        displaced[j] = displaced.get(t, t)
    return out


def generate_sentence_oracle(lexicon: Lexicon, digits: Sequence[int], seed: int) -> list[str]:
    """One below() draw for the skeleton, then one per word."""
    skeletons = _draws(lexicon, len(digits))[0]
    rng = ReferenceSplitMix64(seed)
    skeleton = skeletons[below(rng, len(skeletons))]
    cells = lexicon.words_by_pos
    tokens = []
    for digit, pos in zip(digits, skeleton):
        words = cells[pos][digit]
        tokens.append(words[below(rng, len(words))])
    return tokens


def _unshift_xor(z: int, shift: int) -> int:
    """Inverse of z ^ (z >> shift) on 64-bit values."""
    x = z
    for _ in range(64 // shift + 1):
        x = z ^ (x >> shift)
    return x


def _seed_whose_first_output_is(z: int) -> int:
    """Invert the published SplitMix64 output function for the first draw."""
    z = _unshift_xor(z, 31)
    z = z * pow(_MIX2, -1, _RANGE) % _RANGE
    z = _unshift_xor(z, 27)
    z = z * pow(_MIX1, -1, _RANGE) % _RANGE
    state = _unshift_xor(z, 30)
    return (state - _GAMMA) % _RANGE
