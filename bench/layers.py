"""Per-layer spans for the traced run, recorded from outside the program.

The traced run rebuilds each CLI command from the public functions of the
modules that command calls, with a span around each call. Nothing under
src/ is instrumented. run.py checks that every rebuilt command writes the
same stego WAV, text, payload and report as `cli.main` did.

Stages that run once per sentence (coordinate digits and generation in
cover, decoding and digits -> index in uncover) stay interleaved as in
pipeline.cover/uncover, so memory behaves as in the real pipeline. They
are timed call by call and added up; the cost of those clock reads is part
of the tracing overhead, which shows as cli.<command>_s against
cli.<command>_untraced_s.

Each rebuild is a copy of program code, pinned to a digest of what it
copies (DIGESTS). If that code has changed since, or is gone, the
original is called as a whole instead, and the metrics of the stages
inside it are absent from the result. So no per-layer figure comes from
code the program no longer runs. After updating a copy, print the new
digests with

    PYTHONPATH=src python3 bench/layers.py
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import inspect
import io
import textwrap
import time
import tokenize
import tracemalloc
from collections import defaultdict
from pathlib import Path

import numpy as np

from duostego import cli, pipeline

MB = 1 << 20
MODULES = {"cli": cli, "pipeline": pipeline}

# The program functions each rebuild copies, and a sha256 of each one's
# tokens (comments and blank lines do not count) when the copy was made.
# The copies call what they copy through the copied module's own names, so
# an unchanged function guarantees that every name its copy calls exists.
COVER_CLI = ("cli.cmd_cover", "cli._read_clip", "cli._load_lexicon_arg")
UNCOVER_CLI = ("cli.cmd_uncover", "cli._read_clip", "cli._read_sentences", "cli._load_lexicon_arg")
INSPECT_CLI = ("cli.cmd_inspect", "cli._read_clip")
DIGESTS = {
    "cli.cmd_cover": "15f9a0734460d244d2f5756b42e9b15b2dcfdcfdf737515a49a3402a49aa1e93",
    "cli.cmd_uncover": "ac8f37e5189bf8f86ca9a017ea8222bb95a13b5944c389b39551afb50c3b7602",
    "cli.cmd_inspect": "f8b534c349fd25d71e1af2b2fb2a290b00fdbc23ac6bb7c05dbdbe8926095273",
    "cli._read_clip": "00a82456075605df3c4061ce6a2f19c0b9e2e2e554ad84db08eeef6d56ff13fb",
    "cli._read_sentences": "30d8cf1b802909cab7337e26a3dd99ee3370cf0cfdb384fc35b1e3205b6d147b",
    "cli._load_lexicon_arg": "bfafd7d37b5f50a2036b393367c64a01ac03f6388ec04213cab9a68eb5018877",
    "pipeline.cover": "f3094c2ba4bf63f1791db869d5b8d4081df46a9870d18bc1a0310a73b90fe17e",
    "pipeline.uncover": "c375a5ea5b95c6f44dc6c827c1f79c9a1411333809bb2c0e47b6f5efe2575755",
}

# Spans reported as <span>_s, each summed over every command it ran in.
STAGES = (
    "wav_codec.parse",
    "wav_codec.write",
    "lexicon.load",
    "payload_codec.encode",
    "payload_codec.decode",
    "sample_grid.select",
    "sample_grid.embed",
    "sample_grid.coords",
    "sample_grid.positions",
    "sample_grid.extract",
    "grammar.generate",
    "grammar.decode",
    "pipeline.cover",
    "pipeline.uncover",
    "pipeline.distortion",
)
# Span paths reported as <span>_self_s: duration minus direct children.
SELF_PATHS = (
    "cli.cover/pipeline.cover",
    "cli.uncover/pipeline.uncover",
    "cli.cover",
    "cli.uncover",
    "cli.inspect",
)
TOTALS = ("cli.cover", "cli.uncover", "cli.inspect")  # reported as <span>_s
COUNTS = (
    "wav_codec.bytes",
    "payload_codec.chunks",
    "sample_grid.selected",
    "sample_grid.select_fraction",
    "grammar.sentences",
    "grammar.tokens",
    "cli.text_bytes",
)
# Spans whose tracemalloc peak is reported as <span>_peak_mb.
PEAKS = ("pipeline.cover", "pipeline.uncover", "pipeline.distortion", "wav_codec.write", "grammar.generate")


@functools.cache
def digest(name: str) -> str | None:
    """sha256 of the tokens of the function `module.name` of duostego, or None if it is gone."""
    module, function = name.split(".")
    try:
        source = textwrap.dedent(inspect.getsource(getattr(MODULES[module], function, None)))
    except (OSError, TypeError):
        return None
    skip = (tokenize.COMMENT, tokenize.NL)
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    text = "".join(t.string for t in tokens if t.type not in skip)
    return hashlib.sha256(text.encode()).hexdigest()


def unchanged(*names: str) -> bool:
    """True when every function in `names` is still the code its copy mirrors."""
    return all(digest(name) == DIGESTS[name] for name in names)


def stale() -> list[str]:
    """The mirrored functions that have changed since their copy was made."""
    return [name for name in DIGESTS if not unchanged(name)]


class Tracer:
    """Span durations keyed by the path of open span names, plus counts.

    With memory=True each span also records its tracemalloc peak above the
    traced memory at its start (the caller starts tracemalloc). The
    durations of such a pass are slowed by tracemalloc and are not reported.
    """

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.durations: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(int)
        self.peaks: dict[str, int] = {}
        self._open: list[list] = []  # [path, traced bytes at start, peak bytes]

    @contextlib.contextmanager
    def span(self, name: str):
        path = f"{self._open[-1][0]}/{name}" if self._open else name
        frame = [path, 0, 0]
        if self.memory:
            current, peak = tracemalloc.get_traced_memory()
            self._raise_peaks(peak)
            tracemalloc.reset_peak()
            frame[1] = frame[2] = current
        self._open.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            self.durations[path] += time.perf_counter() - start
            if self.memory:
                self._raise_peaks(tracemalloc.get_traced_memory()[1])
                self.peaks[name] = max(self.peaks.get(name, 0), frame[2] - frame[1])
            self._open.pop()

    def memory_span(self, name: str):
        """A span for its memory peak only; a no-op when memory is off."""
        return self.span(name) if self.memory else contextlib.nullcontext()

    def add(self, name: str, seconds: float) -> None:
        """Time of a stage that ran in pieces inside the innermost open span."""
        self.durations[f"{self._open[-1][0]}/{name}"] += seconds

    def count(self, name: str, value: float) -> None:
        self.counts[name] += value

    def _raise_peaks(self, peak: int) -> None:
        for frame in self._open:
            frame[2] = max(frame[2], peak)

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of this pass; stages that did not run are absent."""
        out: dict[str, float] = {}
        if self.memory:
            for name in PEAKS:
                if name in self.peaks:
                    out[f"{name}_peak_mb"] = self.peaks[name] / MB
            return out
        for name in STAGES:
            times = [t for path, t in self.durations.items() if path.rsplit("/", 1)[-1] == name]
            if times:
                out[f"{name}_s"] = sum(times)
        for path in SELF_PATHS:
            children = [t for p, t in self.durations.items() if p.rsplit("/", 1)[0] == path and p != path]
            if path in self.durations and children:
                out[f"{path.rsplit('/', 1)[-1]}_self_s"] = self.durations[path] - sum(children)
        for name in TOTALS:
            if name in self.durations:
                out[f"{name}_s"] = self.durations[name]
        for name in COUNTS:
            if name in self.counts:
                out[name] = self.counts[name]
        return out


def _parse(tracer: Tracer, path: Path):
    data = path.read_bytes()
    with tracer.span("wav_codec.parse"):
        clip = cli.parse_wav(data)
    tracer.count("wav_codec.bytes", len(data))
    return clip


def _whole(tracer: Tracer, name: str, argv: list[str]) -> str:
    """cli.main(argv) as one span, for a command whose rebuild is stale; returns its stdout."""
    out = io.StringIO()
    with tracer.span(name), contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"{argv[0]} exited with {code}")
    return out.getvalue()


def traced_cover(tracer: Tracer, carrier_path, payload_path, out_wav, out_text, seed: int) -> None:
    """cli.cmd_cover with the default lexicon, one span per layer call."""
    if not unchanged(*COVER_CLI):
        argv = ["cover", str(carrier_path), str(payload_path), "-o", str(out_wav), "-t", str(out_text)]
        _whole(tracer, "cli.cover", argv + ["--seed", str(seed)])
        return
    with tracer.span("cli.cover"):
        carrier = _parse(tracer, carrier_path)
        payload = Path(payload_path).read_bytes()
        with tracer.span("lexicon.load"):
            lex = cli.load_default_lexicon()
        with tracer.span("pipeline.cover"):
            if unchanged("pipeline.cover"):
                stego, sentences = _cover_stages(tracer, carrier, payload, lex, seed)
            else:
                bundle = cli.cover(carrier, payload, lex, seed)
                stego, sentences = bundle.stego_audio, bundle.sentences
        with tracer.span("wav_codec.write"):
            wav = cli.write_wav(stego)
        tracer.count("wav_codec.bytes", len(wav))
        Path(out_wav).write_bytes(wav)
        text = "\n".join(" ".join(sentence) for sentence in sentences)
        Path(out_text).write_text(text + "\n", "utf-8")
    # One chunk, one selected sample and one sentence per 3 payload bits.
    for name in ("payload_codec.chunks", "sample_grid.selected", "grammar.sentences"):
        tracer.count(name, len(sentences))
    tracer.count("sample_grid.select_fraction", len(sentences) / carrier.sample_count)
    tracer.count("grammar.tokens", sum(map(len, sentences)))
    tracer.count("cli.text_bytes", Path(out_text).stat().st_size)


def _cover_stages(tracer: Tracer, carrier, payload: bytes, lex, seed: int):
    """pipeline.cover, stage by stage; returns (stego clip, sentences)."""
    from duostego.pipeline import (
        _TEXT_STREAM_SALT, DEFAULT_GRAMMAR, HEADER_BITS, CapacityExceededError, SplitMix64,
        capacity_bits, payload_codec, sample_grid,
    )

    n = carrier.sample_count
    needed_bits = 8 * len(payload) + HEADER_BITS
    if needed_bits > capacity_bits(carrier):
        raise CapacityExceededError(f"payload of {len(payload)} bytes does not fit")
    with tracer.span("payload_codec.encode"):
        chunks = payload_codec.chunk(payload_codec.frame(payload_codec.bytes_to_bits(payload)))
    with tracer.span("sample_grid.select"):
        order = sample_grid.select_samples(n, len(chunks), seed)
        indices = np.fromiter(order, dtype=np.int64, count=len(order))
    with tracer.span("sample_grid.embed"):
        stego = carrier.with_samples(sample_grid.embed_chunks(carrier.samples, indices, chunks))

    geom = sample_grid.geometry(n)
    seeder = SplitMix64(seed ^ _TEXT_STREAM_SALT)
    generate = DEFAULT_GRAMMAR.generate_sentence
    clock = time.perf_counter
    coords_s = generate_s = 0.0
    sentences = []
    with tracer.memory_span("grammar.generate"):
        for i in order:
            t0 = clock()
            digits = geom.digits_for(i)
            t1 = clock()
            sentences.append(tuple(generate(lex, digits, seeder.next64())))
            t2 = clock()
            coords_s += t1 - t0
            generate_s += t2 - t1
        sentences = tuple(sentences)
    tracer.add("sample_grid.coords", coords_s)
    tracer.add("grammar.generate", generate_s)
    return stego, sentences


def traced_uncover(tracer: Tracer, stego_path, text_path, out_path) -> None:
    """cli.cmd_uncover with the default lexicon, one span per layer call."""
    if not unchanged(*UNCOVER_CLI):
        _whole(tracer, "cli.uncover", ["uncover", str(stego_path), str(text_path), "-o", str(out_path)])
        return
    with tracer.span("cli.uncover"):
        stego = _parse(tracer, stego_path)
        lines = Path(text_path).read_text("utf-8").splitlines()
        sentences = [words for words in (line.split() for line in lines) if words]
        with tracer.span("lexicon.load"):
            lex = cli.load_default_lexicon()
        with tracer.span("pipeline.uncover"):
            if unchanged("pipeline.uncover"):
                payload = _uncover_stages(tracer, stego, sentences, lex)
            else:
                payload = cli.uncover(stego, sentences, lex)
        Path(out_path).write_bytes(payload)


def _uncover_stages(tracer: Tracer, stego, sentences, lex) -> bytes:
    """pipeline.uncover, stage by stage, with the same checks."""
    from duostego.pipeline import (
        HEADER_BITS, BadSentenceLengthError, HeaderCorruptError, decode_sentence, payload_codec,
        sample_grid,
    )

    if stego.sample_count == 0:
        raise HeaderCorruptError("stego audio has no samples")
    geom = sample_grid.geometry(stego.sample_count)
    expected_len = 2 * geom.digit_width
    clock = time.perf_counter
    decode_s = positions_s = 0.0
    positions = []
    for line_no, tokens in enumerate(sentences):
        tokens = list(tokens)
        if len(tokens) != expected_len:
            raise BadSentenceLengthError(f"sentence {line_no}: {len(tokens)} words")
        t0 = clock()
        digits = decode_sentence(lex, tokens)
        t1 = clock()
        positions.append(geom.index_from_digits(digits))
        t2 = clock()
        decode_s += t1 - t0
        positions_s += t2 - t1
    tracer.add("grammar.decode", decode_s)
    tracer.add("sample_grid.positions", positions_s)

    m = len(positions)
    total_bits = 3 * m
    if total_bits < HEADER_BITS:
        raise HeaderCorruptError(f"{m} sentences are too few for the length header")
    with tracer.span("sample_grid.extract"):
        indices = np.fromiter(positions, dtype=np.int64, count=m)
        chunks = sample_grid.extract_chunks(stego.samples, indices)
    with tracer.span("payload_codec.decode"):
        bits = payload_codec.unchunk(chunks, total_bits)
        payload_bits = payload_codec.unframe(bits)
        slack = total_bits - HEADER_BITS - payload_bits.size
        if not 0 <= slack < 3 or payload_bits.size % 8:
            raise HeaderCorruptError(f"{m} sentences disagree with the length header")
        return payload_codec.bits_to_bytes(payload_bits)


def traced_inspect(tracer: Tracer, original_path, stego_path) -> str:
    """cli.cmd_inspect; returns the text the command prints."""
    if not unchanged(*INSPECT_CLI):
        return _whole(tracer, "cli.inspect", ["inspect", str(original_path), str(stego_path)])
    with tracer.span("cli.inspect"):
        original = _parse(tracer, original_path)
        stego = _parse(tracer, stego_path)
        with tracer.span("pipeline.distortion"):
            report = cli.distortion_report(original, stego)
        return (
            f"samples changed: {report.samples_changed}\n"
            f"max abs delta:   {report.max_abs_delta}\n"
            f"mean abs delta:  {report.mean_abs_delta:.6f}\n"
            f"snr:             {report.snr_db:.2f} dB\n"
        )


if __name__ == "__main__":
    for name in DIGESTS:
        print(f'    "{name}": "{digest(name)}",')
