"""Benchmark of the cyclic6j pipeline: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each sample runs in a fresh child
process (``worker.py``) under a fixed memory budget with BLAS pinned to one
thread: first ``SETUP_SAMPLES - 1`` set-up-only children, then the one
that measures.  ``setup_s`` is the median set-up time of all of them.

With ``--trace 0`` the last line of stdout carries the end-to-end metrics,
with ``--trace 1`` the per-layer metrics of a traced run.  The lines
before it give the environment, the latency percentile and sample count
behind ``op_tail_s``, and failures by reason.  See ``DESIGN.md``.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SPEC = ROOT / "BENCHMARK.json"
SETUP_SAMPLES = 5
# the whole run must end within 180 s
DEADLINE_S = 170.0


def load_spec() -> dict:
    """BENCHMARK.json: the workload names and each metric's name and unit."""
    return json.loads(SPEC.read_text())


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] \
        if env.get("PYTHONPATH") else src
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONDONTWRITEBYTECODE="1")
    return env


def run_child(args: list[str], timeout: float) -> dict:
    """Run ``worker.py`` to completion; returns its last stdout line."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args], cwd=ROOT,
        env=child_env(), capture_output=True, text=True, timeout=timeout)
    try:
        if proc.returncode == 0:
            return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        pass
    raise RuntimeError(f"worker exited {proc.returncode}: "
                       f"{proc.stderr.strip()[-2000:]}")


def main(argv=None) -> int:
    spec = load_spec()
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    missing = [rel for rel in ("src/cyclic6j/cli.py",
                               "fixtures/boundary4simplex.json")
               if not (ROOT / rel).is_file()]
    if missing:
        print(f"error: not a cyclic6j checkout, missing {missing}",
              file=sys.stderr)
        return 2

    start = monotonic()
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds)]
    try:
        setups = [run_child([*common, "--setup-only"], 60.0)["setup_s"]
                  for _ in range(SETUP_SAMPLES - 1)]
        res = run_child([*common, "--trace", str(args.trace)],
                        DEADLINE_S - (monotonic() - start))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups.append(res["setup_s"])

    measured = dict(res["metrics"], setup_s=statistics.median(setups))
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    missing = sorted(set(units) - set(measured))
    if missing:
        print(f"error: the run did not measure {missing}", file=sys.stderr)
        return 1
    metrics = {k: measured[k] for k in units}
    print("env: " + json.dumps({**res["env"], "setup_samples_s": setups}))
    print("detail: " + json.dumps(res["detail"]))
    print(f"{args.workload} seed={args.seed} attempted={res['attempted']} "
          f"failed={res['failed']} wrong={res['wrong']}")
    for name in sorted(metrics):
        print(f"  {name:44s} {metrics[name]:14.6g} {units[name]}")
    print(json.dumps({
        "correct": res["wrong"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
