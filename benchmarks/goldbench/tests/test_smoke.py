"""A ``--smoke`` traced run reaches every workload and every metric, and
BENCHMARK.json describes exactly what run.py reports."""

import json
import os
import subprocess
import sys

import run

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(os.path.dirname(BENCH))


def test_smoke_run_reports_every_metric_of_every_workload():
    completed = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--smoke",
         "--trace", "1"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=300, cwd=ROOT)
    assert completed.returncode == 0, completed.stdout + completed.stderr
    lines = completed.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0
    for workload in run.WORKLOADS:
        assert f"goldbench {workload} " in completed.stdout
        for name, unit, *_ in run.PER_LAYER:
            metric = result["metrics"][f"{workload}.{name}"]
            assert metric["unit"] == unit
            assert isinstance(metric["value"], (int, float))
    for name, *_ in run.END_TO_END:
        assert completed.stdout.count(f"  {name} ") == len(run.WORKLOADS)


def test_benchmark_json_matches_run_py():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    assert spec["command"] == ["python3", "benchmarks/goldbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == \
        [(name, unit, better) for name, unit, better, *_ in run.PER_LAYER]
    assert spec["run_seconds"] == run.Settings().seconds


def test_seconds_must_match_the_window_the_bounds_hold_for():
    completed = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload",
         "browse", "--seconds", "5"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=60, cwd=ROOT)
    assert completed.returncode == 2
    assert f"--seconds must be {run.Settings.seconds:g}" in completed.stderr
