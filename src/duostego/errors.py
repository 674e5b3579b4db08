"""Exception hierarchy.

Errors are grouped into families so the CLI can map each family to a
distinct exit code: WAV container problems, lexicon problems, capacity
overruns, and failures while recovering a payload. UnknownWordError
belongs to two families, extraction and lexicon; the CLI's exit-code
table takes the first family that matches, so it exits as an
extraction failure.
"""


class DuostegoError(Exception):
    """Base class for every error raised by this package."""


# WAV container ------------------------------------------------------------

class WavError(DuostegoError):
    """A RIFF/WAVE byte stream could not be parsed or is unsupported."""


class NotRiffError(WavError):
    """Input is missing the RIFF/WAVE magic."""


class UnsupportedDepthError(WavError):
    """Bits per sample is not 16."""


class UnsupportedCodecError(WavError):
    """Format tag is not PCM (1), or a rate or channel count no fmt chunk can hold (parsed or built).

    A built clip also raises it for samples that are not a 1-D array of
    integers in [-32768, 65535], or chunks that are not (4-byte id, bytes) pairs.
    """


class TruncatedError(WavError):
    """Declared chunk sizes exceed the available bytes, or a sample is cut off."""


class MissingChunkError(WavError):
    """The container has no fmt or no data chunk."""


# Payload framing ----------------------------------------------------------

class OversizeError(DuostegoError):
    """Bit string too long for the 32-bit length header."""


class LengthMismatchError(DuostegoError):
    """A stated length is inconsistent with the data it describes."""


# Sample grid --------------------------------------------------------------

class OutOfRangeError(DuostegoError):
    """A seed or sentence digit outside its range."""


class CapacityExceededError(DuostegoError):
    """Payload needs more embedding slots than the carrier has."""


# Lexicon ------------------------------------------------------------------

class LexiconError(DuostegoError):
    """Base class for lexicon loading and lookup failures."""


class LexiconParseError(LexiconError):
    """Malformed lexicon line (bad field count, digit, POS tag, or word)."""


class DuplicateWordError(LexiconError):
    """A word appears in two different digit categories."""

    def __init__(self, word, first_category, second_category):
        self.word = word
        self.first_category = first_category
        self.second_category = second_category
        super().__init__(
            f"word {word!r} appears in category {first_category} "
            f"and category {second_category}; categories must be disjoint"
        )


class IncompleteCategoryError(LexiconError):
    """Some (digit, part-of-speech) cell has no words."""


# Uncovering ---------------------------------------------------------------

class ExtractionError(DuostegoError):
    """Base class for failures while recovering a payload."""


class UnknownWordError(ExtractionError, LexiconError):
    """A token of the location text does not belong to any category."""

    def __init__(self, word, position):
        self.word = word
        self.position = position
        super().__init__(f"unknown word {word!r} (token {position})")


class BadSentenceLengthError(ExtractionError):
    """A sentence does not have exactly 2 x digit-width tokens."""


class CoordinateOutOfRangeError(ExtractionError):
    """Decoded coordinates point outside the carrier's sample grid."""


class HeaderCorruptError(ExtractionError):
    """The recovered length header is inconsistent with the recovered bits."""


class RepeatedPositionError(ExtractionError):
    """Two sentences name the same sample, which covering never does."""

    def __init__(self, first, second, index):
        self.first = first
        self.second = second
        self.index = index
        super().__init__(
            f"sentences {first} and {second} both name sample {index}; "
            f"the location text is damaged (a duplicated line?)"
        )
