"""duostego benchmark: one closed-loop client driving the public CLI.

    python3 bench/run.py --workload text-bound --seed 1 --seconds 25 --trace 0

Each repetition runs `cover` -> `uncover` -> `inspect` through
`duostego.cli.main` in this process, each command waiting for the one
before it. `--trace 0` reports the end-to-end metrics; `--trace 1` reports
per-layer metrics from a stage-by-stage rebuild of the same commands (see
layers.py). Inputs are synthetic and made from `--seed`. Every operation's
output is checked. The last line of stdout is the JSON result; the line
before it is a JSON record of the run and its environment. See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import re
import shutil
import statistics
import struct
import subprocess
import sys
import time
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CHILD = BENCH / "child.py"
GOLDEN = BENCH / "golden.json"

DEFAULT_SEED = 0
FROZEN_SCALE = 0.01  # every run also covers the default-seed inputs at this scale
WARM_PAYLOAD_BYTES = 64
SETUP_BLOCKS = 5  # set-up interpreters run in blocks, one block after each repetition
SETUP_BLOCK_RUNS = 5  # back to back within a block
MIN_REPS = 3  # untraced repetitions, whatever --seconds says
CHILD_TIMEOUT_S = 170
MAX_ABS_DELTA = 7  # three low bits


@dataclass(frozen=True)
class Workload:
    name: str
    audio_seconds: float
    rate: int
    channels: int
    payload_bytes: int | None  # None: the carrier's whole capacity


# Why each workload exists is in README.md and BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("text-bound", 60, 44100, 2, 100_000),
        Workload("carrier-bound", 300, 44100, 2, 1024),
        Workload("full-capacity", 10, 8000, 1, None),
    )
}

END_TO_END = {
    "setup_s": "s",
    "cover_s": "s",
    "uncover_s": "s",
    "inspect_s": "s",
    "cover_peak_mb": "MB",
    "uncover_peak_mb": "MB",
    "inspect_peak_mb": "MB",
}
PER_LAYER = {
    "wav_codec.parse_s": "s",
    "wav_codec.write_s": "s",
    "wav_codec.bytes": "B",
    "payload_codec.encode_s": "s",
    "payload_codec.decode_s": "s",
    "payload_codec.chunks": "count",
    "sample_grid.select_s": "s",
    "sample_grid.embed_s": "s",
    "sample_grid.extract_s": "s",
    "sample_grid.coords_s": "s",
    "sample_grid.positions_s": "s",
    "sample_grid.selected": "count",
    "sample_grid.select_fraction": "ratio",
    "grammar.generate_s": "s",
    "grammar.decode_s": "s",
    "grammar.sentences": "count",
    "grammar.tokens": "count",
    "lexicon.load_s": "s",
    "pipeline.cover_s": "s",
    "pipeline.uncover_s": "s",
    "pipeline.distortion_s": "s",
    "pipeline.cover_self_s": "s",
    "pipeline.uncover_self_s": "s",
    "cli.cover_self_s": "s",
    "cli.uncover_self_s": "s",
    "cli.inspect_self_s": "s",
    "cli.text_bytes": "B",
    "cli.cover_s": "s",
    "cli.uncover_s": "s",
    "cli.inspect_s": "s",
    "cli.cover_untraced_s": "s",
    "cli.uncover_untraced_s": "s",
    "cli.inspect_untraced_s": "s",
    "pipeline.cover_peak_mb": "MB",
    "pipeline.uncover_peak_mb": "MB",
    "pipeline.distortion_peak_mb": "MB",
    "wav_codec.write_peak_mb": "MB",
    "grammar.generate_peak_mb": "MB",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="workload seed (inputs and cover seed)")
    p.add_argument("--seconds", type=float, default=25.0, help="how long the timed loop runs")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics")
    p.add_argument("--scale", type=float, default=1.0, help="shrink carrier and payload, for quick checks")
    p.add_argument(
        "--tamper", choices=("none", "duplicate-line"), default="none",
        help="corrupt the text after each cover; the run must then report failures",
    )
    return p.parse_args(argv)


def import_duostego():
    """Import duostego from this checkout's src/, and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import duostego
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import duostego from {SRC}: {exc}")
    if not Path(duostego.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"bench: duostego was imported from {duostego.__file__}, not from {SRC}")


# -- inputs -------------------------------------------------------------------


def sentences_for(payload_len: int) -> int:
    """Sentences cover() must write: one per 3-bit chunk of the framed payload."""
    return math.ceil((8 * payload_len + 32) / 3)


def wav_bytes(samples, rate: int, channels: int) -> bytes:
    """Canonical 16-bit PCM WAV, written here rather than by the program under test."""
    data = samples.astype("<i2").tobytes()
    fmt = struct.pack("<HHIIHH", 1, channels, rate, rate * channels * 2, channels * 2, 16)
    body = b"fmt " + struct.pack("<I", len(fmt)) + fmt + b"data" + struct.pack("<I", len(data)) + data
    return b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body


def make_inputs(w: Workload, seed: int, scale: float):
    """(carrier WAV bytes, payload, cover seed), all a function of (workload, seed, scale)."""
    import numpy as np

    rng = np.random.default_rng(seed)
    slots = max(1, round(w.audio_seconds * w.rate * scale)) * w.channels
    noise = np.rint(rng.normal(0.0, 3000.0, slots))
    samples = np.clip(noise, -32768, 32767).astype(np.int16)
    if w.payload_bytes is None:
        size = (3 * slots - 32) // 8
    else:
        size = max(1, round(w.payload_bytes * scale))
    payload = rng.bytes(size)
    cover_seed = int(rng.integers(0, 2**64, dtype=np.uint64))
    return wav_bytes(samples, w.rate, w.channels), payload, cover_seed


def duplicate_line(text_path: Path) -> None:
    """Repeat the middle sentence and drop the last, keeping the line count."""
    lines = text_path.read_text("utf-8").splitlines()
    middle = len(lines) // 2
    lines.insert(middle, lines[middle])
    lines.pop()
    text_path.write_text("\n".join(lines) + "\n", "utf-8")


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# -- operations and their checks ----------------------------------------------


class Tally:
    """Operations attempted and the problems of each failed one."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, op: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failures.append(f"{op}: {'; '.join(problems)}")
        return not problems


@dataclass
class Case:
    """One carrier/payload/seed and the files its commands read and write."""

    name: str
    work: Path
    carrier: Path
    payload: bytes
    seed: int
    golden: dict | None = None  # digests recorded for these inputs, if any
    digests: dict | None = None  # of the first cover; every later cover must repeat them

    def __post_init__(self):
        self.payload_path = self.work / f"{self.name}.payload.bin"
        self.payload_path.write_bytes(self.payload)

    def path(self, tag: str) -> Path:
        return self.work / f"{self.name}.{tag}"

    def cover_argv(self, prefix: str) -> list[str]:
        return [
            "cover", str(self.carrier), str(self.payload_path),
            "-o", str(self.path(f"{prefix}stego.wav")), "-t", str(self.path(f"{prefix}text.txt")),
            "--seed", str(self.seed),
        ]

    def check_cover(self, code, prefix: str) -> list[str]:
        if code != 0:
            return [f"exit {code}"]
        stego, text = self.path(f"{prefix}stego.wav"), self.path(f"{prefix}text.txt")
        problems = []
        lines = text.read_bytes().count(b"\n")
        if lines != sentences_for(len(self.payload)):
            problems.append(f"{lines} sentences, expected {sentences_for(len(self.payload))}")
        digests = {"stego_sha256": sha256(stego), "text_sha256": sha256(text)}
        if self.digests is None:
            self.digests = digests
            if self.golden is not None and digests != self.golden:
                problems.append(f"digests {digests} differ from the recorded {self.golden}")
        elif digests != self.digests:
            problems.append("output differs from this run's first cover")
        return problems

    def check_uncover(self, code, out: Path) -> list[str]:
        if code != 0:
            return [f"exit {code}"]
        if out.read_bytes() != self.payload:
            return ["recovered payload differs from the input"]
        return []

    def check_inspect(self, code, stdout: str) -> list[str]:
        if code != 0:
            return [f"exit {code}"]
        changed = re.search(r"samples changed:\s*(\d+)", stdout)
        delta = re.search(r"max abs delta:\s*(\d+)", stdout)
        if not (changed and delta):
            return [f"unreadable report {stdout!r}"]
        problems = []
        if int(delta.group(1)) > MAX_ABS_DELTA:
            problems.append(f"max abs delta {delta.group(1)} > {MAX_ABS_DELTA}")
        if int(changed.group(1)) > sentences_for(len(self.payload)):
            problems.append(f"{changed.group(1)} samples changed, more than the sentence count")
        return problems


def call_cli(cli, argv: list[str]):
    """Run one command through cli.main; returns (exit code, seconds, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    # Every command starts from the same collector state, close to that of a
    # fresh `duostego` process. Left to itself, how many full collections a
    # command triggers depends on what the commands before it left behind:
    # text-bound cover ran about 25% faster from its third repetition on.
    gc.collect()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash is a failed operation, not a crashed benchmark
            code = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
    return code, seconds, out.getvalue(), err.getvalue()


class Bench:
    def __init__(self, args, work: Path):
        import duostego.cli

        self.cli = duostego.cli
        self.args = args
        self.tally = Tally()
        self.workload = WORKLOADS[args.workload]
        golden = json.loads(GOLDEN.read_text("utf-8")).get(args.workload, {})
        pythonpath = filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(pythonpath))

        carrier, payload, seed = make_inputs(self.workload, args.seed, args.scale)
        (work / "carrier.wav").write_bytes(carrier)
        self.main = Case(
            "main", work, work / "carrier.wav", payload, seed,
            golden.get(str(args.scale)) if args.seed == DEFAULT_SEED else None,
        )
        self.warm = Case("warm", work, work / "carrier.wav", payload[:WARM_PAYLOAD_BYTES], seed)
        carrier, payload, seed = make_inputs(self.workload, DEFAULT_SEED, FROZEN_SCALE)
        (work / "frozen.wav").write_bytes(carrier)
        self.frozen = Case("frozen", work, work / "frozen.wav", payload, seed, golden.get(str(FROZEN_SCALE)))
        self.last_inspect = ""

    def rep(self, case: Case, prefix: str = "") -> dict[str, float]:
        """cover -> uncover -> inspect through cli.main, checked; returns their seconds."""
        stego, text, out = (case.path(prefix + t) for t in ("stego.wav", "text.txt", "out.bin"))
        for path in (stego, text, out):
            path.unlink(missing_ok=True)
        code, cover_s, _, err = call_cli(self.cli, case.cover_argv(prefix))
        if self.tally.record(f"{case.name} cover", case.check_cover(code, prefix) + _err(err)):
            if self.args.tamper == "duplicate-line":
                duplicate_line(text)
        code, uncover_s, _, err = call_cli(self.cli, ["uncover", str(stego), str(text), "-o", str(out)])
        self.tally.record(f"{case.name} uncover", case.check_uncover(code, out) + _err(err))
        code, inspect_s, stdout, err = call_cli(self.cli, ["inspect", str(case.carrier), str(stego)])
        self.tally.record(f"{case.name} inspect", case.check_inspect(code, stdout) + _err(err))
        self.last_inspect = stdout
        return {"cover_s": cover_s, "uncover_s": uncover_s, "inspect_s": inspect_s}

    def traced_rep(self, tracer) -> None:
        """The same three commands rebuilt stage by stage; outputs must match the CLI's."""
        import layers

        case = self.main
        stego, text, out = (case.path("traced." + t) for t in ("stego.wav", "text.txt", "out.bin"))
        for path in (stego, text, out):
            path.unlink(missing_ok=True)
        _, problems = _guard(
            layers.traced_cover, tracer, case.carrier, case.payload_path, stego, text, case.seed
        )
        if self.tally.record("traced cover", problems or case.check_cover(0, "traced.")):
            if self.args.tamper == "duplicate-line":
                duplicate_line(text)
        _, problems = _guard(layers.traced_uncover, tracer, stego, text, out)
        self.tally.record("traced uncover", problems or case.check_uncover(0, out))
        report, problems = _guard(layers.traced_inspect, tracer, case.carrier, stego)
        if not problems and report != self.last_inspect:
            problems = [f"report {report!r} differs from the CLI's {self.last_inspect!r}"]
        self.tally.record("traced inspect", problems or case.check_inspect(0, report))

    def child(self, argv: list[str]):
        """Run child.py in a fresh interpreter; returns (wall seconds, exit code, stdout)."""
        start = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, str(CHILD), *argv], env=self.env, cwd=ROOT,
                capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return time.perf_counter() - start, "timeout", ""
        seconds = time.perf_counter() - start
        return seconds, proc.returncode, proc.stdout

    def setup_child(self, times: list[float]) -> None:
        """Wall time of a fresh interpreter that imports duostego and loads the lexicon."""
        seconds, code, _ = self.child(["setup"])
        if self.tally.record("setup", [] if code == 0 else [f"exit {code}"]):
            times.append(seconds)

    def peak_child(self, command: str, peaks: dict[str, float]) -> None:
        """VmHWM of a fresh interpreter running one command alone, its output checked."""
        case = self.main
        out = case.path("child.out.bin")
        argv, check = {
            "cover": (case.cover_argv("child."), lambda r: case.check_cover(r["exit"], "child.")),
            "uncover": (
                ["uncover", str(case.path("stego.wav")), str(case.path("text.txt")), "-o", str(out)],
                lambda r: case.check_uncover(r["exit"], out),
            ),
            "inspect": (
                ["inspect", str(case.carrier), str(case.path("stego.wav"))],
                lambda r: case.check_inspect(r["exit"], r["stdout"]),
            ),
        }[command]
        _, code, stdout = self.child(["cli", *argv])
        try:
            result = json.loads(stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            self.tally.record(f"child {command}", [f"exit {code}, no report"])
            return
        if self.tally.record(f"child {command}", check(result)):
            peaks[f"{command}_peak_mb"] = result["hwm_mb"]

    def timed(self, body, min_reps: int) -> list:
        """Repeat `body` while the next call is expected to end within --seconds."""
        results, start = [], time.perf_counter()
        while True:
            t0 = time.perf_counter()
            results.append(body())
            last = time.perf_counter() - t0
            if len(results) >= min_reps and time.perf_counter() - start + last > self.args.seconds:
                return results

    def end_to_end(self) -> tuple[dict, dict]:
        # Each repetition is followed by a block of set-up interpreters run
        # back to back, then by at most one peak-memory child. So no set-up
        # time is taken right after a large child, and the blocks sample the
        # machine's drifting speed over the whole run.
        setup, peaks = [], {}
        blocks = [SETUP_BLOCK_RUNS] * SETUP_BLOCKS
        peak_runs = ["cover", "uncover", "inspect"]

        def body():
            rep = self.rep(self.main)
            if blocks:
                for _ in range(blocks.pop()):
                    self.setup_child(setup)
            if peak_runs:
                self.peak_child(peak_runs.pop(0), peaks)
            return rep

        reps = self.timed(body, MIN_REPS)
        for runs in blocks:
            for _ in range(runs):
                self.setup_child(setup)
        for command in peak_runs:
            self.peak_child(command, peaks)
        # The upper quartile of the repetitions, not their median: on a shared
        # host the speed of Python code switches between a usual, busy state
        # and a faster one about 1.5x apart, often several times a run. The
        # median of a run flips with the share of fast repetitions; the upper
        # quartile stays with the busy state unless most of the run was fast.
        # The inclusive method keeps a single slow outlier out of it from five
        # repetitions on.
        commands = ("cover_s", "uncover_s", "inspect_s")
        metrics = {k: upper_quartile([r[k] for r in reps]) for k in commands}
        if setup:
            metrics["setup_s"] = statistics.median(setup)
        metrics.update(peaks)
        return metrics, {"setup_s": setup, "reps": reps}

    def per_layer(self) -> tuple[dict, dict]:
        import layers

        def pair():
            untraced = self.rep(self.main)
            tracer = layers.Tracer()
            self.traced_rep(tracer)
            return untraced, tracer.layer_metrics()

        pairs = self.timed(pair, 1)
        names = {name for _, traced in pairs for name in traced}
        metrics = {name: _median([t[name] for _, t in pairs if name in t]) for name in names}
        for key in ("cover", "uncover", "inspect"):
            metrics[f"cli.{key}_untraced_s"] = statistics.median(u[f"{key}_s"] for u, _ in pairs)

        tracer = layers.Tracer(memory=True)
        tracemalloc.start()
        try:
            self.traced_rep(tracer)
        finally:
            tracemalloc.stop()
        metrics.update(tracer.layer_metrics())
        return metrics, {"pairs": pairs, "stale_copies": layers.stale()}

    def run(self) -> tuple[dict, dict]:
        self.rep(self.frozen)
        self.rep(self.warm)
        metrics, detail = self.per_layer() if self.args.trace else self.end_to_end()
        detail["digests"] = self.main.digests
        return metrics, detail


def _guard(fn, *args):
    """(fn's result, []) or (None, [the exception]): a crash is a failed operation."""
    gc.collect()  # as in call_cli
    try:
        return fn(*args), []
    except Exception as exc:
        return None, [f"{type(exc).__name__}: {exc}"]


def upper_quartile(values: list[float]) -> float:
    """Third quartile by the inclusive method; see Bench.end_to_end."""
    return statistics.quantiles(values, n=4, method="inclusive")[2]


def _median(values: list):
    """Median; a count that every pass repeats stays an integer."""
    return values[0] if len(set(values)) == 1 else statistics.median(values)


def _err(stderr: str) -> list[str]:
    return [f"stderr {stderr.strip()!r}"] if stderr.strip() else []


def environment() -> dict:
    import numpy as np

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    src = hashlib.sha256()
    for path in sorted((SRC / "duostego").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            src.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    cpu = None
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "commit": commit,
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    import_duostego()
    sys.path.insert(0, str(BENCH))
    units = PER_LAYER if args.trace else END_TO_END

    scratch = ROOT / ".bench_tmp"
    work = scratch / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        bench = Bench(args, work)
        metrics, detail = bench.run()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.rmdir()

    tally = bench.tally
    failed = len(tally.failures)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "tamper": args.tamper,
        "fail_ratio": failed / tally.attempted,
        "failures": tally.failures[:20],
        "absent": sorted(set(units) - set(metrics)),
        "environment": environment(),
        **detail,
    }
    print(json.dumps({"record": record}))
    result = {
        "correct": failed == 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items() if k in metrics},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
