"""Smoke test of the benchmark harness.

    python3 -m pytest perfbench/test_smoke.py

Runs each workload briefly and checks the output contract against
BENCHMARK.json.  Not part of the package's test suite (``tests/``).
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170)


def last_json(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload",
                         [w["name"] for w in SPEC["workloads"]])
def test_end_to_end_run(workload):
    out = last_json(bench("--workload", workload, "--seed", "3",
                          "--seconds", "0.5", "--trace", "0"))
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True
    assert out["attempted"] >= 1
    assert set(out["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in out["metrics"].values())


def test_traced_run_reports_every_layer_metric():
    out = last_json(bench("--workload", "move_walk", "--seed", "3",
                          "--seconds", "0.5", "--trace", "1"))
    metrics = {k: v["value"] for k, v in out["metrics"].items()}
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    assert metrics["triangulation.pachner_plus.calls"] > 0
    layers = sum(metrics[f"{layer}.self_s"] for layer in (
        "algebra", "operators", "sixj", "statesum", "triangulation", "cli"))
    assert layers + metrics["harness.self_s"] == pytest.approx(
        metrics["trace.run_s"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "fixture_sweep", "--seed", "0",
                 "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
