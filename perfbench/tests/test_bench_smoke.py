"""The benchmark command end to end, at smoke size (a few seconds a workload)."""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def bench(workload, trace=0, seed=3, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def result(proc):
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    return doc


def digests(proc):
    line = next(ln for ln in proc.stderr.splitlines() if "trace digests" in ln)
    return json.loads(line.split("trace digests ", 1)[1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_reports_every_end_to_end_metric(workload):
    doc = result(bench(workload))
    assert doc["correct"] is True
    assert doc["attempted"] >= 1
    # the stdio random agent's parity check fails on every run, and only it
    expected_failed = doc["attempted"] // 3 if workload == "wire-episode" else 0
    assert doc["failed"] == expected_failed
    for metric in SPEC["end_to_end"]:
        value = doc["metrics"][metric["name"]]
        assert value["unit"] == metric["unit"]
        assert value["value"] > 0


@pytest.mark.parametrize("workload", ["stage1-battery", "wire-episode"])
def test_traced_run_reports_every_per_layer_metric(workload):
    doc = result(bench(workload, trace=1))
    names = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in doc["metrics"].items()} == names
    assert doc["metrics"]["worldgen.aggregate_passes_per_step"]["value"] > 0


def test_trace_digests_repeat_across_processes():
    first, second = bench("stage1-battery"), bench("stage1-battery")
    result(first), result(second)
    assert digests(first) and digests(first) == digests(second)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("stage1-battery", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
