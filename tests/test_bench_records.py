"""The checked-in benchmark records, BENCH_*.json at the repo root.

Each file maps workload name -> {"runs", "median"}. A run is the last two
stdout lines of one `bench/run.py --trace 0` run: its record, without the
per-repetition `reps`, and its result. The median holds, per end-to-end
metric of BENCHMARK.json, the median of that metric over the runs. No
file is tied to a source digest, so the records of earlier commits stay
valid. With no record checked in, there is nothing to check.
"""

import json
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
UNITS = {metric["name"]: metric["unit"] for metric in BENCHMARK["end_to_end"]}
WORKLOADS = {workload["name"] for workload in BENCHMARK["workloads"]}


def problems_of(text: str) -> list[str]:
    """Every way a record file's text breaks the format; empty if none."""
    try:
        workloads = json.loads(text)["workloads"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable: {exc!r}"]
    problems = []
    for name, entry in workloads.items():
        runs = entry["runs"]
        if name not in WORKLOADS:
            problems.append(f"{name}: not a workload of BENCHMARK.json")
        if not runs:
            problems.append(f"{name}: no runs")
        for i, run in enumerate(runs):
            record, result = run["record"], run["result"]
            if "reps" in record:
                problems.append(f"{name} run {i}: the record holds reps")
            if (record["workload"], record["trace"]) != (name, 0):
                problems.append(f"{name} run {i}: a {record['workload']} run with --trace {record['trace']}")
            if result["correct"] is not True or result["failed"] != 0:
                problems.append(f"{name} run {i}: correct {result['correct']}, failed {result['failed']}")
            units = {metric: value["unit"] for metric, value in result["metrics"].items()}
            if units != UNITS:
                problems.append(f"{name} run {i}: metrics {units}, not BENCHMARK.json's {UNITS}")
        expected = {
            metric: {"value": statistics.median(run["result"]["metrics"][metric]["value"] for run in runs), "unit": unit}
            for metric, unit in UNITS.items()
            if runs and all(metric in run["result"]["metrics"] for run in runs)
        }
        if entry["median"] != expected:
            problems.append(f"{name}: median {entry['median']}, not the runs' {expected}")
    return problems


@pytest.mark.parametrize("path", sorted(ROOT.glob("BENCH_*.json")), ids=lambda path: path.name)
def test_checked_in_record(path):
    assert problems_of(path.read_text("utf-8")) == []


def _valid() -> dict:
    values = {metric: [1.0, 3.0, 2.0] for metric in UNITS}
    runs = [
        {
            "record": {"workload": "full-capacity", "trace": 0, "seed": 0},
            "result": {
                "correct": True,
                "attempted": 9,
                "failed": 0,
                "metrics": {metric: {"value": values[metric][i], "unit": unit} for metric, unit in UNITS.items()},
            },
        }
        for i in range(3)
    ]
    median = {metric: {"value": 2.0, "unit": unit} for metric, unit in UNITS.items()}
    return {"workloads": {"full-capacity": {"runs": runs, "median": median}}}


def _break(record: dict, fault: str) -> None:
    entry = record["workloads"]["full-capacity"]
    run = entry["runs"][1]
    if fault == "reps":
        run["record"]["reps"] = [{"cover_s": 1.0}]
    elif fault == "failed":
        run["result"].update(correct=False, failed=1)
    elif fault == "unit":
        run["result"]["metrics"]["cover_s"]["unit"] = "ms"
    elif fault == "missing-metric":
        del run["result"]["metrics"]["inspect_peak_mb"]
    elif fault == "median":
        entry["median"]["cover_s"]["value"] = 3.0
    elif fault == "workload":
        record["workloads"]["full"] = record["workloads"].pop("full-capacity")
    elif fault == "traced":
        run["record"]["trace"] = 1


def test_a_valid_record_passes():
    assert problems_of(json.dumps(_valid())) == []
    assert problems_of(json.dumps({"workloads": {}})) == []


@pytest.mark.parametrize("fault", ["reps", "failed", "unit", "missing-metric", "median", "workload", "traced"])
def test_each_fault_is_reported(fault):
    record = _valid()
    _break(record, fault)
    assert problems_of(json.dumps(record))


def test_unparseable_record_is_reported():
    assert problems_of('{"workloads": ') and problems_of("[]")
