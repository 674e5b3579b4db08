"""Two-artifact audio steganography.

A payload is hidden in the three least significant bits of randomly
selected 16-bit samples of a WAV carrier; the selected positions are
published separately as grammatically valid English sentences whose
words encode the samples' grid coordinates. Recovering the payload
requires the stego audio, the sentence text, and the shared lexicon.
"""

from . import errors
from .lexicon import Lexicon, PosClass, load_default_lexicon, load_lexicon
from .pipeline import (
    DistortionReport,
    StegoBundle,
    capacity_bits,
    capacity_bytes,
    cover,
    distortion_report,
    uncover,
)
from .sample_grid import select_samples
from .wav_codec import AudioClip, parse_wav, write_wav

__version__ = "0.1.0"

__all__ = [
    "AudioClip",
    "DistortionReport",
    "Lexicon",
    "PosClass",
    "StegoBundle",
    "capacity_bits",
    "capacity_bytes",
    "cover",
    "distortion_report",
    "errors",
    "load_default_lexicon",
    "load_lexicon",
    "parse_wav",
    "select_samples",
    "uncover",
    "write_wav",
    "__version__",
]
