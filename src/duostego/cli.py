"""Command-line interface.

Subcommands: cover, uncover, capacity, inspect. Exit codes: 0 success,
2 usage (argparse), 1 anything else, and for each error family the code
of the first matching row of _FAMILY_CODES: 3 capacity exceeded,
6 extraction failures, 4 lexicon problems, 5 WAV parse problems.

The text intermediate is written one sentence per line, lowercase
words separated by single spaces; reading back tolerates any amount of
whitespace and any letter case.

PARSER is built once, at import; main() parses with it and runs each
command with the cyclic garbage collector paused.

The module's name Path is pathlib's concrete path class with one
override: read_bytes reads through wav_codec.read_file, into one
read-only numpy buffer that parse_wav views without a copy. The
readers the benchmark pins call Path(...).read_bytes(), so rebinding
the name gives them the faster read without editing them.
"""

from __future__ import annotations

import argparse
import gc
import pathlib
import sys

from .errors import (
    CapacityExceededError,
    DuostegoError,
    ExtractionError,
    LexiconError,
    WavError,
)
from .lexicon import Lexicon, load_default_lexicon, load_lexicon
from .pipeline import capacity_bytes, cover, distortion_report, uncover
from .wav_codec import parse_wav, read_file, write_wav


class Path(type(pathlib.Path())):  # pathlib.Path itself cannot be subclassed before 3.12
    def read_bytes(self) -> memoryview:
        return read_file(self)


# Ordered: UnknownWordError is both an extraction and a lexicon error.
_FAMILY_CODES = ((CapacityExceededError, 3), (ExtractionError, 6), (LexiconError, 4), (WavError, 5))


def _load_lexicon_arg(path: str | None) -> Lexicon:
    if path is None:
        return load_default_lexicon()
    return load_lexicon(Path(path).read_text("utf-8"))


def _read_clip(path: str):
    return parse_wav(Path(path).read_bytes())


def _read_sentences(path: str) -> list[list[str]]:
    lines = Path(path).read_text("utf-8").splitlines()
    return [words for words in (line.split() for line in lines) if words]


def cmd_cover(args) -> int:
    carrier = _read_clip(args.carrier)
    payload = Path(args.payload).read_bytes()
    lexicon = _load_lexicon_arg(args.lexicon)
    bundle = cover(carrier, payload, lexicon, args.seed)
    Path(args.out_wav).write_bytes(write_wav(bundle.stego_audio))
    text = "\n".join(" ".join(sentence) for sentence in bundle.sentences)
    Path(args.out_text).write_text(text + "\n", "utf-8")
    print(
        f"hid {len(payload)} bytes in {len(bundle.sentences)} of "
        f"{carrier.sample_count} samples (seed {bundle.seed_used})"
    )
    print(f"wrote {args.out_wav} and {args.out_text}")
    return 0


def cmd_uncover(args) -> int:
    stego = _read_clip(args.stego)
    sentences = _read_sentences(args.text)
    lexicon = _load_lexicon_arg(args.lexicon)
    payload = uncover(stego, sentences, lexicon)
    Path(args.out).write_bytes(payload)
    print(f"recovered {len(payload)} bytes into {args.out}")
    return 0


def cmd_capacity(args) -> int:
    clip = _read_clip(args.carrier)
    print(
        f"{capacity_bytes(clip)} payload bytes "
        f"({clip.sample_count} samples, 3 of every 16 carrier bits = 18.75%)"
    )
    return 0


def cmd_inspect(args) -> int:
    original = _read_clip(args.original)
    stego = _read_clip(args.stego)
    report = distortion_report(original, stego)
    print(f"samples changed: {report.samples_changed}")
    print(f"max abs delta:   {report.max_abs_delta}")
    print(f"mean abs delta:  {report.mean_abs_delta:.6f}")
    print(f"snr:             {report.snr_db:.2f} dB")
    return 0


def _undecodable(exc: UnicodeDecodeError) -> str:
    """exc's message, led by the path and line of the text file it came from.

    Only the two text readers decode, and the path is the `path`
    argument of the one whose frame the traceback passes through; None
    is the bundled lexicon. Lines break where the readers' splitlines
    breaks them, counted over the valid prefix.
    """
    tb = exc.__traceback__
    while tb is not None:
        if tb.tb_frame.f_code in (_load_lexicon_arg.__code__, _read_sentences.__code__):
            line = len((exc.object[: exc.start].decode("utf-8") + "_").splitlines())
            path = tb.tb_frame.f_locals["path"] or "duostego/data/default_lexicon.txt"
            return f"{path}, line {line}: not UTF-8 text ({exc})"
        tb = tb.tb_next
    return str(exc)


PARSER = argparse.ArgumentParser(
    prog="duostego",
    description=(
        "Hide data in the three low bits of randomly chosen 16-bit WAV "
        "samples; the chosen positions are encoded as English sentences."
    ),
)
sub = PARSER.add_subparsers(dest="command", required=True)

p = sub.add_parser("cover", help="hide a payload in a carrier WAV")
p.add_argument("carrier", help="carrier WAV path (16-bit PCM)")
p.add_argument("payload", help="payload file path")
p.add_argument("-o", "--out-wav", required=True, help="stego WAV output path")
p.add_argument("-t", "--out-text", required=True, help="location text output path")
p.add_argument("--lexicon", help="lexicon file (default: bundled)")
p.add_argument("--seed", type=int, help="64-bit seed for reproducible covering")

p = sub.add_parser("uncover", help="recover a payload from stego WAV + text")
p.add_argument("stego", help="stego WAV path")
p.add_argument("text", help="location text path")
p.add_argument("-o", "--out", required=True, help="recovered payload output path")
p.add_argument("--lexicon", help="lexicon file (default: bundled)")

p = sub.add_parser("capacity", help="print a carrier's payload capacity")
p.add_argument("carrier", help="carrier WAV path")

p = sub.add_parser("inspect", help="compare original and stego WAVs")
p.add_argument("original", help="original WAV path")
p.add_argument("stego", help="stego WAV path")
del sub, p


def main(argv: list[str] | None = None) -> int:
    args = PARSER.parse_args(argv)
    # Commands build no reference cycles, so collector passes over their
    # ~10^5 word lists would find nothing; the caller's state is restored.
    collecting = gc.isenabled()
    gc.disable()
    try:
        # Looked up per call, so a cmd_* rebound on the module is the one that runs.
        return globals()[f"cmd_{args.command}"](args)
    except UnicodeDecodeError as exc:
        print(f"error: {_undecodable(exc)}", file=sys.stderr)
        return 1
    except (DuostegoError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next((code for family, code in _FAMILY_CODES if isinstance(exc, family)), 1)
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    raise SystemExit(main())
