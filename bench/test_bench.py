"""Tests of the benchmark itself, run the way a driver runs it.

    python3 -m pytest bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
TINY = ["--seed", "0", "--seconds", "1", "--scale", "0.01"]


def run_bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (json.loads(lines[-1]) if lines else None), proc


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_workload_runs_at_tiny_size(workload, trace):
    code, result, proc = run_bench("--workload", workload, "--trace", str(trace), *TINY)
    assert code == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    assert all(metric["value"] > 0 for metric in result["metrics"].values())


@pytest.mark.parametrize("trace", [0, 1])
def test_duplicated_sentence_is_counted_as_failure(trace):
    code, result, proc = run_bench(
        "--workload", "full-capacity", "--trace", str(trace), "--tamper", "duplicate-line", *TINY
    )
    assert code == 1, proc.stderr[-2000:]
    assert result is not None, proc.stderr[-2000:]
    assert not result["correct"]
    assert result["failed"] / result["attempted"] > 0
    record = json.loads(proc.stdout.strip().splitlines()[-2])["record"]
    assert any("uncover" in failure for failure in record["failures"])


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    code, result, proc = run_bench("--workload", "text-bound", *TINY, cwd=tmp_path)
    assert code != 0
    assert result is None, proc.stdout


@pytest.mark.parametrize(
    "changed, present, absent",
    [
        ("pipeline.cover", {"cli.cover_s", "pipeline.cover_s", "wav_codec.parse_s"}, {"grammar.generate_s"}),
        ("cli.cmd_cover", {"cli.cover_s"}, {"pipeline.cover_s", "wav_codec.parse_s"}),
    ],
)
def test_changed_program_code_is_called_whole(tmp_path, monkeypatch, changed, present, absent):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(BENCH))
    import layers
    import run
    from duostego import cli

    monkeypatch.setitem(layers.DIGESTS, changed, "0" * 64)
    carrier, payload, seed = run.make_inputs(run.WORKLOADS["full-capacity"], 0, 0.01)
    (tmp_path / "carrier.wav").write_bytes(carrier)
    (tmp_path / "payload.bin").write_bytes(payload)
    files = {name: tmp_path / name for name in ("a.wav", "a.txt", "b.wav", "b.txt")}
    tracer = layers.Tracer()
    layers.traced_cover(
        tracer, tmp_path / "carrier.wav", tmp_path / "payload.bin", files["a.wav"], files["a.txt"], seed
    )
    argv = ["cover", str(tmp_path / "carrier.wav"), str(tmp_path / "payload.bin")]
    assert cli.main(argv + ["-o", str(files["b.wav"]), "-t", str(files["b.txt"]), "--seed", str(seed)]) == 0
    assert files["a.wav"].read_bytes() == files["b.wav"].read_bytes()
    assert files["a.txt"].read_bytes() == files["b.txt"].read_bytes()
    metrics = tracer.layer_metrics()
    assert present <= set(metrics) and not absent & set(metrics)
    assert changed in layers.stale()
