"""Paired benchmark runs of two checkouts, and verdicts from the pairs.

    python3 tools/bench_pairs.py run PARENT CHANGE --label pr31 --pairs 10
    python3 tools/bench_pairs.py compare BENCH_pr31-parent.json BENCH_pr31.json

`run` runs each checkout's own bench/run.py (`--trace 0`), from the
checkout's root, after byte-compiling its src/ and bench/. Within pair i
the parent runs first when i is odd and the change first when i is even,
and the workloads are interleaved pair by pair, so a drift in the
host's speed falls on both sides alike. Each run also counts the minor
page faults of every timed `cover`, `uncover` and `inspect`. The runs
are written as BENCH_<label>-parent.json and BENCH_<label>.json, in the
format that tests/test_bench_records.py checks. Every run is
BENCHMARK.json's run_seconds long, at scale 1. The two checkouts' paths
must be of equal length, since the paths are in every command line the
benchmark runs, and their BENCHMARK.json and bench/ files (outside
__pycache__) must be the same, so that the pairs compare one benchmark;
`run` refuses them otherwise, before any run.

`compare` takes, per workload and end-to-end metric, the ratio
change/parent of each pair. It prints their median, the pairs the change
won, and a sign-test interval for the median ratio: the k-th smallest
and k-th largest ratio, with k the largest such that
P(Bin(N, 1/2) <= k - 1) <= 0.025 (k = 2 for 10 pairs: a 97.9% interval).
The verdict, with b the metric's bound in BENCHMARK.json, is `better` if
the whole interval is below 1 and the change's median is below the
parent's by more than the parent's interquartile range, `worse` if the
interval is above 1 + b, `within the bound` if its top is at most 1 + b,
and `unresolved` otherwise. Then, per workload and with no verdict, it
prints each side's median minor faults per timed call of each command
that both sides counted, over all the timed calls of its runs. Records
made before `cover` and `uncover` were counted hold `inspect` only.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
UNITS = {metric["name"]: metric["unit"] for metric in BENCHMARK["end_to_end"]}
BOUNDS = {metric["name"]: metric["bound"] for metric in BENCHMARK["end_to_end"]}
WORKLOADS = [workload["name"] for workload in BENCHMARK["workloads"]]
SIDES = ("parent", "change")
COMMANDS = ("cover", "uncover", "inspect")  # the timed calls whose minor faults a run counts
# Per-run detail that run.py's record holds but the records leave out.
DROPPED = ("reps", "setup_s")

# Runs in a fresh interpreter in the checkout's root, with run.py's
# arguments in sys.argv. It counts the faults of each timed command
# (Bench.rep on the main case), then prints them after run.py's lines.
WRAPPER = """\
import collections, importlib.util, json, resource, sys
spec = importlib.util.spec_from_file_location("run", "bench/run.py")
run = sys.modules["run"] = importlib.util.module_from_spec(spec)
spec.loader.exec_module(run)
faults, timed = collections.defaultdict(collections.Counter), [False]
call_cli, rep = run.call_cli, run.Bench.rep

def counted_call(cli, argv):
    if not timed[0]:
        return call_cli(cli, argv)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    out = call_cli(cli, argv)
    faults[argv[0]][resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before] += 1
    return out

def counted_rep(self, case, prefix=""):
    timed[0] = case is self.main
    try:
        return rep(self, case, prefix)
    finally:
        timed[0] = False

run.call_cli, run.Bench.rep = counted_call, counted_rep
code = run.main(sys.argv[1:])
print(json.dumps({f"{c}_minflt": {str(k): n for k, n in sorted(counts.items())} for c, counts in faults.items()}))
sys.exit(code)
"""


def run_one(checkout: Path, workload: str) -> dict:
    """One wrapped bench/run.py run: {"record", "result"} and a <command>_minflt per command."""
    argv = ["--workload", workload, "--seconds", str(BENCHMARK["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(
        [sys.executable, "-c", WRAPPER, *argv],
        cwd=checkout,
        capture_output=True,
        text=True,
        encoding="utf-8",
    )
    lines = proc.stdout.strip().splitlines()[-3:]
    if proc.returncode != 0 or len(lines) != 3:
        raise SystemExit(f"{checkout} {workload}: exit {proc.returncode}\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    record, result, faults = map(json.loads, lines)
    record = {k: v for k, v in record["record"].items() if k not in DROPPED}
    return {"record": record, "result": result, **faults}


def benchmark_files(checkout: Path) -> dict[str, bytes]:
    """A checkout's BENCHMARK.json and bench/ files outside __pycache__, by relative path."""
    paths = [checkout / "BENCHMARK.json", *(checkout / "bench").rglob("*")]
    return {
        path.relative_to(checkout).as_posix(): path.read_bytes()
        for path in paths
        if path.is_file() and "__pycache__" not in path.parts
    }


def run_pairs(workloads: list[str], pairs: int, one) -> dict:
    """side -> workload -> runs, from `pairs` alternating pairs; one(side, workload) runs one."""
    runs = {side: {workload: [] for workload in workloads} for side in SIDES}
    for pair in range(1, pairs + 1):
        order = SIDES if pair % 2 else SIDES[::-1]
        for workload in workloads:
            for side in order:
                print(f"pair {pair}/{pairs} {workload} {side}", file=sys.stderr, flush=True)
                runs[side][workload].append({"pair": pair, **one(side, workload)})
    return runs


def medians(runs: list[dict]) -> dict:
    """Per end-to-end metric that every run has, the median over the runs."""
    return {
        metric: {"value": statistics.median(run["result"]["metrics"][metric]["value"] for run in runs), "unit": unit}
        for metric, unit in UNITS.items()
        if runs and all(metric in run["result"]["metrics"] for run in runs)
    }


def record_doc(label: str, source: str, runs: dict) -> dict:
    """A BENCH_<label>.json document for one side's runs (workload -> runs)."""
    first = next(run for entries in runs.values() for run in entries)["record"]["environment"]
    return {
        "label": label,
        "source": f"{source}; each record's src_sha256 names its src",
        "command": f"python3 bench/run.py --workload <name> --seconds {BENCHMARK['run_seconds']:g} (seed 0, --trace 0)",
        "host": f"{first['nproc']} CPUs ({first['cpu_model']}), Python {first['python']}, numpy {first['numpy']}",
        "how": (
            "tools/bench_pairs.py run: the parent and the change alternate within each numbered pair "
            "(the parent first in odd pairs, the change first in even ones), with the workloads interleaved "
            "pair by pair. Each checkout is byte-compiled first (python -m compileall -f src bench) and "
            "run from its own root, through a wrapper that imports its bench/run.py and reads getrusage "
            "minor faults around each timed cover, uncover and inspect call (<command>_minflt: fault count -> "
            "timed repetitions with that count); the result and record lines are run.py's own. The record's per-run setup_s "
            "list and reps are left out; the result holds their medians."
        ),
        "workloads": {name: {"runs": entries, "median": medians(entries)} for name, entries in runs.items()},
    }


def write_records(out: Path, label: str, sources: dict, runs: dict) -> list[Path]:
    """Write BENCH_<label>-parent.json and BENCH_<label>.json; returns their paths."""
    paths = []
    for side, name in zip(SIDES, (f"{label}-parent", label)):
        path = out / f"BENCH_{name}.json"
        doc = record_doc(name, sources[side], runs[side])
        path.write_text(json.dumps(doc, indent=1) + "\n", "utf-8")
        paths.append(path)
    return paths


def sign_test_k(n: int, alpha: float = 0.025) -> int:
    """Largest k with P(Bin(n, 1/2) <= k - 1) <= alpha; 0 if there is none."""
    k, tail = 0, 0
    while k < n:
        tail += math.comb(n, k)
        if tail / 2**n > alpha:
            break
        k += 1
    return k


def pair_values(parent: dict, change: dict, workload: str, metric: str) -> tuple[list[float], list[float]]:
    """(parent, change) values of one metric, pair by pair; unequal pair sets are an error."""
    by_pair = [
        {run["pair"]: run["result"]["metrics"][metric]["value"] for run in doc["workloads"][workload]["runs"]}
        for doc in (parent, change)
    ]
    if by_pair[0].keys() != by_pair[1].keys():
        raise ValueError(f"{workload}: the parent has pairs {sorted(by_pair[0])}, the change {sorted(by_pair[1])}")
    pairs = sorted(by_pair[0])
    return [by_pair[0][pair] for pair in pairs], [by_pair[1][pair] for pair in pairs]


def clears_spread(parent: list[float], change: list[float]) -> bool:
    """Whether the change's median is below the parent's by more than the parent's IQR."""
    q1, _, q3 = statistics.quantiles(parent, n=4) if len(parent) > 1 else (parent[0],) * 3
    return statistics.median(parent) - statistics.median(change) > q3 - q1


def verdict(lo: float, hi: float, bound: float, clear: bool) -> str:
    """The verdict on a sign-test interval [lo, hi]; clear as clears_spread gives it."""
    if hi < 1 and clear:
        return "better"
    if lo > 1 + bound:
        return "worse"
    if hi <= 1 + bound:
        return "within the bound"
    return "unresolved"


def compare(parent: dict, change: dict) -> list[dict]:
    """One row per workload and end-to-end metric, in BENCHMARK.json's order."""
    if parent["workloads"].keys() != change["workloads"].keys():
        raise ValueError(f"the parent has workloads {sorted(parent['workloads'])}, the change {sorted(change['workloads'])}")
    rows = []
    for workload in (name for name in WORKLOADS if name in parent["workloads"]):
        for metric, bound in BOUNDS.items():
            before, after = pair_values(parent, change, workload, metric)
            ratios = sorted(b / a for a, b in zip(before, after))
            k = sign_test_k(len(ratios))
            lo, hi = (ratios[k - 1], ratios[-k]) if k else (0.0, math.inf)
            rows.append(
                {
                    "workload": workload,
                    "metric": metric,
                    "median": statistics.median(ratios),
                    "wins": sum(ratio < 1 for ratio in ratios),
                    "pairs": len(ratios),
                    "interval": (lo, hi),
                    "verdict": verdict(lo, hi, bound, clears_spread(before, after)),
                }
            )
    return rows


def minflt_median(doc: dict, workload: str, command: str) -> int | None:
    """The median minor faults per timed call of command over a workload's runs; None without counts."""
    faults = [
        int(count)
        for run in doc["workloads"][workload]["runs"]
        for count, reps in run.get(f"{command}_minflt", {}).items()
        for _ in range(reps)
    ]
    return statistics.median_low(faults) if faults else None


def format_row(row: dict) -> str:
    lo, hi = row["interval"]
    return (
        f"{row['workload']:<13} {row['metric']:<15} median {row['median']:.3f}  "
        f"wins {row['wins']}/{row['pairs']}  [{lo:.2f}, {hi:.2f}]  {row['verdict']}"
    )


def cmd_run(args) -> int:
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    if len(str(checkouts["parent"])) != len(str(checkouts["change"])):
        print("bench_pairs: the checkouts' paths differ in length", file=sys.stderr)
        return 2
    before, after = (benchmark_files(checkout) for checkout in checkouts.values())
    differ = sorted(name for name in before.keys() | after.keys() if before.get(name) != after.get(name))
    if differ:
        print(f"bench_pairs: the checkouts' benchmarks differ in {', '.join(differ)}", file=sys.stderr)
        return 2
    for checkout in checkouts.values():
        subprocess.run([sys.executable, "-m", "compileall", "-q", "-f", "src", "bench"], cwd=checkout, check=True)
    runs = run_pairs(
        args.workloads,
        args.pairs,
        lambda side, workload: run_one(checkouts[side], workload),
    )
    sources = {"parent": args.parent_source or args.parent.name, "change": args.change_source or args.change.name}
    for path in write_records(args.out, args.label, sources, runs):
        print(path)
    return 0


def cmd_compare(args) -> int:
    parent, change = (json.loads(path.read_text("utf-8")) for path in (args.parent, args.change))
    try:
        rows = compare(parent, change)
    except ValueError as exc:
        print(f"bench_pairs: {exc}", file=sys.stderr)
        return 2
    for row in rows:
        print(format_row(row))
    for workload in dict.fromkeys(row["workload"] for row in rows):
        for command in COMMANDS:
            faults = [minflt_median(doc, workload, command) for doc in (parent, change)]
            if None not in faults:
                key = f"{command}_minflt"
                print(f"{workload:<13} {key:<15} median per timed {command}: parent {faults[0]}, change {faults[1]}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="paired runs of two checkouts")
    run.add_argument("parent", type=Path)
    run.add_argument("change", type=Path)
    run.add_argument("--label", required=True)
    run.add_argument("--pairs", type=int, default=10)
    run.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=WORKLOADS)
    run.add_argument("--out", type=Path, default=Path("."), help="where the two records go")
    run.add_argument("--parent-source", help="the parent's source in its record (default: its directory name)")
    run.add_argument("--change-source", help="the change's source in its record (default: its directory name)")
    pairs = commands.add_parser("compare", help="verdicts from the pairs of two records")
    pairs.add_argument("parent", type=Path)
    pairs.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    return cmd_run(args) if args.command == "run" else cmd_compare(args)


if __name__ == "__main__":
    sys.exit(main())
