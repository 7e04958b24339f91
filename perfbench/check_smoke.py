"""Smoke tests of the benchmark at its tiny size.

    python3 -m pytest -q perfbench/check_smoke.py

Each workload runs once untraced and once traced with one set-up run and a
one-second budget.  The file is not named test_*.py, so the repository's
test suite does not collect it; it takes about a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def bench(workload, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180)
    return proc


def parse(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_end_to_end_metrics(workload):
    report, result = parse(bench(workload, 0))
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert report["failed_frac"] == 0 and report["failed_frac_base"]
    assert all(report["cli_gate"].values())
    env = report["environment"]
    assert env["python"] and env["nproc"] and "cpu_cache_bytes" in env
    assert "source_sha256" in env and "git_sha" in env


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_per_layer_metrics(workload):
    report, result = parse(bench(workload, 1))
    assert result["correct"], report
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    for name, reason in report["absent"].items():
        assert name in want and reason
    assert all(report["span_checks"].values())
    assert report["traced_passes"] >= 2


def test_refuses_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "solve", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
