"""tools/bench_pairs.py: paired verdicts, and the records its runs write."""

import copy
import importlib.util
import json
import math
from pathlib import Path

import pytest

from test_bench_records import problems_of

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

PR30 = [ROOT / "BENCH_pr30-parent.json", ROOT / "BENCH_pr30.json"]
PR31C = [ROOT / "BENCH_pr31c-parent.json", ROOT / "BENCH_pr31c.json"]
PR34 = [ROOT / "BENCH_pr34-parent.json", ROOT / "BENCH_pr34.json"]


def load(path):
    return json.loads(path.read_text("utf-8"))


def test_compare_on_the_pr30_records(capsys):
    assert bench_pairs.main(["compare", *map(str, PR30)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3 * 7 + 3
    cells = {tuple(line.split()[:2]): line for line in lines}
    assert cells["full-capacity", "inspect_s"].endswith("wins 10/10  [0.58, 0.71]  better")
    assert cells["full-capacity", "cover_s"].endswith("[0.77, 1.05]  within the bound")
    assert cells["carrier-bound", "setup_s"].endswith("[0.73, 1.39]  unresolved")


def test_compare_prints_inspect_faults_without_a_verdict(capsys):
    assert bench_pairs.main(["compare", *map(str, PR31C)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-2:] == [
        "text-bound    inspect_minflt  median per timed inspect: parent 2553, change 2850",
        "carrier-bound inspect_minflt  median per timed inspect: parent 25841, change 25840",
    ]


def test_compare_prints_the_faults_of_every_timed_command(capsys):
    assert bench_pairs.main(["compare", *map(str, PR34)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3 * 7 + 3 * 3
    faults = [tuple(line.split()[:2]) for line in lines[3 * 7 :]]
    assert faults == [(w, f"{c}_minflt") for w in bench_pairs.WORKLOADS for c in ("cover", "uncover", "inspect")]
    assert lines[-5:-3] == [
        "carrier-bound uncover_minflt  median per timed uncover: parent 12920, change 656",
        "carrier-bound inspect_minflt  median per timed inspect: parent 25840, change 801",
    ]


def test_an_older_record_compares_on_inspect_faults_alone(capsys):
    # BENCH_pr33.json, like every record before it, counts only inspect's faults.
    assert bench_pairs.main(["compare", str(ROOT / "BENCH_pr33.json"), str(PR34[1])]) == 0
    faults = [line.split()[1] for line in capsys.readouterr().out.splitlines()[3 * 7 :]]
    assert faults == ["inspect_minflt"] * 3


def test_a_side_without_fault_counts_prints_no_fault_line(tmp_path, capsys):
    parent = load(PR30[0])
    for run in parent["workloads"]["text-bound"]["runs"]:
        del run["inspect_minflt"]
    (tmp_path / "parent.json").write_text(json.dumps(parent), "utf-8")
    assert bench_pairs.main(["compare", str(tmp_path / "parent.json"), str(PR30[1])]) == 0
    faults = [line.split()[0] for line in capsys.readouterr().out.splitlines() if "inspect_minflt" in line]
    assert faults == ["carrier-bound", "full-capacity"]


def test_rows_follow_benchmark_order():
    rows = bench_pairs.compare(*map(load, PR30))
    assert [(row["workload"], row["metric"]) for row in rows] == [
        (workload, metric) for workload in bench_pairs.WORKLOADS for metric in bench_pairs.BOUNDS
    ]
    inspect = {(row["workload"], row["metric"]): row for row in rows}["full-capacity", "inspect_s"]
    assert inspect["pairs"] == 10 and inspect["median"] == pytest.approx(0.650, abs=5e-4)


@pytest.mark.parametrize(
    "n, k",
    # k = 2 for 10 pairs: P(Bin(10, 1/2) <= 1) = 11/1024, P(<= 2) = 56/1024.
    [(1, 0), (5, 0), (6, 1), (8, 1), (9, 2), (10, 2), (12, 3), (20, 6)],
)
def test_sign_test_k(n, k):
    assert bench_pairs.sign_test_k(n) == k
    if k:
        assert sum(math.comb(n, i) for i in range(k)) / 2**n <= 0.025
    assert sum(math.comb(n, i) for i in range(k + 1)) / 2**n > 0.025


@pytest.mark.parametrize(
    "lo, hi, clear, verdict",
    [
        (0.5, 0.99, True, "better"),
        # An interval below 1 is no gain while the medians differ by less than the parent's IQR.
        (0.5, 0.99, False, "within the bound"),
        (1.26, 2.0, False, "worse"),
        (0.9, 1.25, False, "within the bound"),
        (1.0, 1.0, False, "within the bound"),
        (0.9, 1.26, False, "unresolved"),
        (0.0, math.inf, False, "unresolved"),
    ],
)
def test_verdict(lo, hi, clear, verdict):
    assert bench_pairs.verdict(lo, hi, 0.25, clear) == verdict


@pytest.mark.parametrize(
    "change, clear",
    [
        # The parent's quartiles are 1.75 and 4.25 (IQR 2.5) and its median 3.
        ([0.3, 0.4, 0.4, 0.5, 0.6], True),
        # A gap of exactly the IQR does not clear it.
        ([0.5, 0.5, 0.5, 0.5, 0.5], False),
        ([2.0, 2.0, 2.0, 2.0, 2.0], False),
    ],
)
def test_clears_spread(change, clear):
    assert bench_pairs.clears_spread([1.0, 2.5, 3.0, 4.0, 4.5], change) is clear


def test_unequal_pair_sets_are_an_error(tmp_path, capsys):
    parent, change = map(load, PR30)
    del change["workloads"]["carrier-bound"]["runs"][-1]
    with pytest.raises(ValueError, match="carrier-bound"):
        bench_pairs.compare(parent, change)
    (tmp_path / "change.json").write_text(json.dumps(change), "utf-8")
    assert bench_pairs.main(["compare", str(PR30[0]), str(tmp_path / "change.json")]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "pairs" in captured.err


def test_unequal_workloads_are_an_error():
    parent, change = map(load, PR30)
    del change["workloads"]["text-bound"]
    with pytest.raises(ValueError, match="workloads"):
        bench_pairs.compare(parent, change)


def fake_run(side, workload, template):
    """A run as run_one returns it, from a pr30 run with side-marked values."""
    run = copy.deepcopy(template[workload])
    run.pop("pair")
    for metric in run["result"]["metrics"].values():
        metric["value"] *= 1.0 if side == "parent" else 0.5
    return run


def test_runs_alternate_and_write_valid_records(tmp_path):
    template = {name: entry["runs"][0] for name, entry in load(PR30[1])["workloads"].items()}
    calls = []

    def one(side, workload):
        calls.append((side, workload))
        return fake_run(side, workload, template)

    workloads = ["carrier-bound", "full-capacity"]
    runs = bench_pairs.run_pairs(workloads, 6, one)
    odd = [(side, w) for w in workloads for side in ("parent", "change")]
    even = [(side, w) for w in workloads for side in ("change", "parent")]
    assert calls == (odd + even) * 3

    sources = {"parent": "commit p", "change": "commit p with this change applied"}
    paths = bench_pairs.write_records(tmp_path, "prX", sources, runs)
    assert [path.name for path in paths] == ["BENCH_prX-parent.json", "BENCH_prX.json"]
    for path in paths:
        assert problems_of(path.read_text("utf-8")) == []
    parent, change = map(load, paths)
    assert parent["label"] == "prX-parent" and change["source"].startswith("commit p with")
    assert "--seconds 25 " in change["command"] and "--scale" not in change["command"]
    assert [run["pair"] for run in change["workloads"]["full-capacity"]["runs"]] == [1, 2, 3, 4, 5, 6]
    assert "inspect_minflt" in change["workloads"]["full-capacity"]["runs"][0]
    rows = bench_pairs.compare(parent, change)
    # Six pairs give k = 1: the interval runs from the least ratio to the greatest.
    assert all(row["interval"] == (0.5, 0.5) and row["verdict"] == "better" for row in rows)
    assert all(row["median"] == 0.5 and row["wins"] == 6 for row in rows)


def test_run_refuses_checkouts_whose_paths_differ_in_length(tmp_path, monkeypatch, capsys):
    (tmp_path / "parent").mkdir()
    (tmp_path / "change-x").mkdir()

    def no_run(*args, **kwargs):
        raise AssertionError("a run started")

    monkeypatch.setattr(bench_pairs.subprocess, "run", no_run)
    monkeypatch.setattr(bench_pairs, "run_pairs", no_run)
    argv = ["run", str(tmp_path / "parent"), str(tmp_path / "change-x"), "--label", "prX", "--out", str(tmp_path)]
    assert bench_pairs.main(argv) == 2
    assert "length" in capsys.readouterr().err
    assert list(tmp_path.glob("BENCH_*")) == []


def benchmark_tree(root):
    """A checkout holding only BENCHMARK.json and bench/, with a stale bytecode file."""
    (root / "bench" / "__pycache__").mkdir(parents=True)
    (root / "BENCHMARK.json").write_text('{"run_seconds": 25}\n', "utf-8")
    (root / "bench" / "run.py").write_text("print('run')\n", "utf-8")
    (root / "bench" / "__pycache__" / "run.cpython-311.pyc").write_bytes(root.name.encode())
    return root


class RunStarted(Exception):
    pass


@pytest.fixture
def run_argv(tmp_path, monkeypatch):
    """argv for `run` on two checkouts under tmp_path; starting a run raises RunStarted."""

    def no_run(*args, **kwargs):
        raise RunStarted

    monkeypatch.setattr(bench_pairs.subprocess, "run", no_run)
    monkeypatch.setattr(bench_pairs, "run_pairs", no_run)
    return ["run", str(tmp_path / "parent"), str(tmp_path / "change"), "--label", "prX", "--out", str(tmp_path)]


def test_run_accepts_checkouts_that_differ_only_in_bytecode(tmp_path, run_argv):
    benchmark_tree(tmp_path / "parent")
    benchmark_tree(tmp_path / "change")
    with pytest.raises(RunStarted):
        bench_pairs.main(run_argv)


@pytest.mark.parametrize("name", ["bench/run.py", "BENCHMARK.json", "bench/extra.py"])
def test_run_refuses_checkouts_whose_benchmarks_differ(tmp_path, run_argv, capsys, name):
    benchmark_tree(tmp_path / "parent")
    change = benchmark_tree(tmp_path / "change")
    (change / name).write_text("changed\n", "utf-8")
    assert bench_pairs.main(run_argv) == 2
    assert name in capsys.readouterr().err
    assert list(tmp_path.glob("BENCH_*")) == []
