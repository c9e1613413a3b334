"""One benchmark process: set up a workload, run it closed loop, report.

Started by ``run.py`` in a fresh interpreter per sample, so that import
time, peak RSS and the memory budget belong to this workload alone::

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 [--setup-only]

The last line of stdout is one JSON object with the raw results.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import tempfile
from collections import Counter
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent

# a tail percentile needs at least this many samples beyond it; with
# fewer than 2 * TAIL_SAMPLES + 2 samples the tail falls back to the median
TAIL_SAMPLES = 10


def run_op(op) -> tuple[float, str, str, object]:
    """Run one op; returns (latency, status, reason, op result)."""
    from workloads import WrongOutput
    t = perf_counter()
    result, status, reason = None, "ok", ""
    try:
        result = op.run()
    except WrongOutput as exc:
        status, reason = "wrong", str(exc)
    except MemoryError:
        status, reason = "failed", "MemoryError"
    except Exception as exc:       # any other error is a failed op
        status, reason = "failed", f"{type(exc).__name__}: {exc}"[:160]
    return perf_counter() - t, status, reason, result


def run_rounds(workload, seconds: float, rounds: int | None = None,
               min_ops: int = TAIL_SAMPLES + 1):
    """Closed loop, one client: whole rounds until ``seconds`` have passed
    and ``min_ops`` ops have run, or exactly ``rounds`` rounds.

    Returns (records, rounds run, wall seconds).
    """
    records = []
    i = 0
    t0 = perf_counter()
    while True:
        for op in workload.round(i):
            records.append((op.label, *run_op(op)))
        i += 1
        wall = perf_counter() - t0
        if rounds is not None:
            if i >= rounds:
                return records, i, wall
        elif wall >= seconds and len(records) >= min_ops:
            return records, i, wall


def end_to_end(records, wall: float) -> tuple[dict, dict]:
    """End-to-end metrics of one measured loop, and the detail behind them."""
    # Latency is taken over successful ops; failures show in ok_frac and
    # goodput.  A run without one success falls back to every op.
    lats = sorted(r[1] for r in records if r[2] == "ok")
    ok = len(lats)
    lats = lats or sorted(r[1] for r in records)
    n = len(lats)
    tail_index = max(n - TAIL_SAMPLES - 1, n // 2)
    metrics = {
        "goodput_ops_s": ok / wall,
        "ok_frac": ok / len(records),
        "op_p50_s": statistics.median_high(lats),
        "op_tail_s": lats[tail_index],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    by_label: dict[str, list[float]] = {}
    for label, lat, status, _, _ in records:
        if status == "ok":
            by_label.setdefault(label, []).append(lat)
    detail = {
        "samples": n,
        "tail_percentile": 100.0 * (tail_index + 1) / n,
        "wall_s": wall,
        "failures": dict(Counter(f"{label}: {reason}"
                                 for label, _, status, reason, _ in records
                                 if status != "ok")),
        "ok_median_s": {k: statistics.median(v) for k, v in by_label.items()},
    }
    return metrics, detail


def distinct_args(records) -> int:
    """Most distinct ``reduced_arg`` values (to 1e-6) among the invariants
    of one N; all of them were checked equal mod qtilde, so anything above
    1 is the canonical representative's branch-cut defect."""
    seen: dict[int, set] = {}
    for _, _, status, _, result in records:
        if status == "ok" and result is not None:
            N, arg = result
            seen.setdefault(N, set()).add(round(arg, 6))
    return max((len(v) for v in seen.values()), default=0)


def traced_run(workload, seconds: float, out_dir: Path, name: str):
    """Untraced rounds for half the time, the same rounds traced, and, if
    they reached the state sum, once more for its peak allocation."""
    import tracing
    records, rounds, untraced = run_rounds(workload, seconds / 2, min_ops=1)
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        traced_records, _, traced = run_rounds(workload, 0, rounds)
    finally:
        restore()
    if any(span[0] == "statesum.state_sum" for span in tracer.spans):
        memory = tracing.Tracer(memory=True)
        restore = tracing.install(memory, only=("statesum.state_sum",))
        try:
            run_rounds(workload, 0, rounds)
        finally:
            restore()
        tracer.state_sum_peak = memory.state_sum_peak
    layer = tracing.per_layer(tracer, traced)
    metrics = {k: (v / rounds if k.endswith((".self_s", ".calls", ".failed"))
                   else v) for k, v in layer.items()}
    metrics.update({
        "trace.rounds": rounds,
        "trace.run_s": traced / rounds,
        "trace.untraced_s": untraced / rounds,
        "trace.overhead_s": (traced - untraced) / rounds,
        "statesum.canonical_rep.distinct_args":
            distinct_args(records + traced_records),
    })
    out_dir.mkdir(exist_ok=True)
    tracer.dump(out_dir / f"{name}.json")
    return records + traced_records, metrics


def parse_args(argv):
    from workloads import REGISTRY
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(REGISTRY))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    return args


def main(argv=None) -> int:
    t0 = perf_counter()
    import cyclic6j
    if not Path(cyclic6j.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"cyclic6j imported from {cyclic6j.__file__}, not from this "
              "checkout", file=sys.stderr)
        return 2
    import numpy as np
    from workloads import REGISTRY, Context
    args = parse_args(argv)
    # Address-space cap of this process, so that an over-budget
    # contraction raises MemoryError, counted as a failed op, instead of
    # drawing the machine's OOM killer.
    budget = REGISTRY[args.workload].BUDGET_MB << 20
    resource.setrlimit(resource.RLIMIT_AS, (budget, budget))
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as work:
        ctx = Context(ROOT, Path(work), args.seed)
        workload = REGISTRY[args.workload](ctx)
        workload.warm_up()
        setup_s = perf_counter() - t0
        result = {"setup_s": setup_s}
        if not args.setup_only:
            if args.trace:
                records, metrics = traced_run(
                    workload, args.seconds, ROOT / "perfbench-trace",
                    f"{args.workload}-seed{args.seed}")
                detail = {}
            else:
                records, _, wall = run_rounds(workload, args.seconds)
                metrics, detail = end_to_end(records, wall)
                detail["distinct_args"] = distinct_args(records)
            detail["walk_tally"] = ctx.tally
            result.update({
                "metrics": metrics,
                "detail": detail,
                "attempted": len(records),
                "failed": sum(1 for r in records if r[2] != "ok"),
                "wrong": sum(1 for r in records if r[2] == "wrong"),
                "env": {
                    "budget_bytes": budget,
                    "nproc": len(os.sched_getaffinity(0)),
                    "python": sys.version.split()[0],
                    "numpy": np.__version__,
                    "threads": {k: os.environ.get(k) for k in (
                        "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                        "MKL_NUM_THREADS")},
                },
            })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
