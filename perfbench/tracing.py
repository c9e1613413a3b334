"""Spans around the public functions of the package, and per-layer metrics.

:func:`install` wraps each function named in :data:`TRACED` and rebinds
the wrapper in every ``cyclic6j`` module that holds the original under
that name (``sixj.intertwiner_S``, ``statesum.sixj_pos``, ...), so calls
between modules are seen too.  Nothing in the package's source changes,
and nothing is traced unless a benchmark process installs the tracer.

A span is ``[name, start, end, parent index, exception class or None]``.
Spans stay in memory until :meth:`Tracer.dump`.  A tracer made with
``memory=True`` runs ``tracemalloc`` inside ``statesum.state_sum`` spans,
and only there, for the contraction's peak traced allocation.  Tracing
every allocation slows the code inside several-fold, so the benchmark
takes that peak in a separate pass and the span times from a pass
without it.
"""
from __future__ import annotations

import functools
import importlib
import json
import sys
import tracemalloc
from collections import defaultdict
from pathlib import Path
from time import perf_counter

from cyclic6j.algebra import AlgebraError
from cyclic6j.triangulation import TopologyError

# Functions per layer.  The named ones carry per-function metrics; the
# rest are there so that layer work called from the verify suites is not
# booked to ``cli.run_suite``.  Cheap scalar helpers (coords, group_mul,
# HalfInt arithmetic) are left out: wrapping them would cost more than
# they do.
TRACED = {
    "algebra": ("psi_coeffs", "psi_coeffs_product", "psi_scalar", "gauss_L",
                "rep_matrices", "intertwiner_S", "duality_d", "duality_b",
                "random_admissible_pair"),
    "operators": ("compose", "identity_block", "op_A", "op_Astar", "op_B",
                  "op_Bstar", "op_A_oracle", "op_B_oracle", "op_L", "op_R",
                  "op_sqrtL", "op_sqrtR", "op_C", "pow_L", "pow_R", "op_sfA",
                  "op_sfB", "op_word", "assemble_q"),
    "sixj": ("tform_tensor", "tbar_tensor", "t_form", "tbar_form",
             "sixj_pos", "sixj_neg", "check_charged_pentagon",
             "check_charged_inversion", "check_symmetry_relations",
             "check_uncharged_symmetries"),
    "statesum": ("state_sum", "tetra_weight", "equal_mod_qtilde",
                 "canonical_rep", "invariant_record"),
    "triangulation": ("load_document", "scene_document", "validate_charge",
                      "find_charge", "deform_charge", "pachner_plus",
                      "pachner_minus", "bubble_plus", "bubble_minus",
                      "gauge_transform", "random_gauge", "make_admissible"),
    "cli": ("main", "run_suite"),
}

MOVES = ("pachner_plus", "pachner_minus", "bubble_plus", "bubble_minus")


def _arg_key(name: str, args: tuple) -> tuple:
    """What the result of gauss_L / intertwiner_S depends on."""
    root = args[0]
    if name == "algebra.gauss_L":
        U, V = args[1], args[2]
        return root.N, root.k, U.tobytes(), V.tobytes()
    g, h = args[1], args[2]
    return root.N, root.k, g.x, g.y, h.x, h.y


KEYED = ("algebra.gauss_L", "algebra.intertwiner_S")


class Tracer:
    """Collects spans; one instance per traced run."""

    def __init__(self, memory: bool = False) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.keys: dict[str, set] = defaultdict(set)
        self.memory = memory
        self.state_sum_peak = 0

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self.stack
        keys = self.keys[name] if name in KEYED else None
        malloc = self.memory and name == "statesum.state_sum"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if keys is not None:
                keys.add(_arg_key(name, args))
            span = [name, perf_counter(), 0.0, stack[-1] if stack else -1,
                    None]
            stack.append(len(spans))
            spans.append(span)
            if malloc:
                tracemalloc.start()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                span[4] = type(exc)
                raise
            else:
                # numpy reports a refused allocation at its full size, so
                # only calls that returned give a real peak
                if malloc:
                    peak = tracemalloc.get_traced_memory()[1]
                    self.state_sum_peak = max(self.state_sum_peak, peak)
                return out
            finally:
                if malloc:
                    tracemalloc.stop()
                stack.pop()
                span[2] = perf_counter()
        return traced

    def dump(self, path: Path) -> None:
        """Write every span as JSON: name, start, end, parent, exception."""
        rows = [[n, s, e, p, x.__name__ if x else None]
                for n, s, e, p, x in self.spans]
        path.write_text(json.dumps({"spans": rows}))


def install(tracer: Tracer, only: tuple[str, ...] | None = None):
    """Wrap every function in :data:`TRACED`, or those named in ``only``;
    returns an undo callable."""
    undo = []
    modules = [m for k, m in list(sys.modules.items())
               if k == "cyclic6j" or k.startswith("cyclic6j.")]
    for layer, names in TRACED.items():
        home = importlib.import_module(f"cyclic6j.{layer}")
        for fname in names:
            if only is not None and f"{layer}.{fname}" not in only:
                continue
            orig = getattr(home, fname)
            wrapper = tracer.wrap(f"{layer}.{fname}", orig)
            for mod in modules:
                if mod.__dict__.get(fname) is orig:
                    setattr(mod, fname, wrapper)
                    undo.append((mod, fname, orig))

    def restore() -> None:
        for mod, fname, orig in undo:
            setattr(mod, fname, orig)
    return restore


def per_layer(tracer: Tracer, run_s: float) -> dict[str, float]:
    """Per-layer metrics of a traced run that took ``run_s`` seconds:
    calls and self time of every traced function, layer totals and the
    derived fractions; ``run.py`` reports those BENCHMARK.json names.

    Self time is a span's duration minus that of its direct children;
    ``harness.self_s`` is the part of the run inside no span, so the layer
    self times and it add up to ``run_s``.
    """
    spans = tracer.spans
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    raised: dict[str, int] = defaultdict(int)
    refused: dict[str, int] = defaultdict(int)
    tensors = discarded = 0
    for i, (name, start, end, parent, exc) in enumerate(spans):
        calls[name] += 1
        self_s[name] += end - start - child[i]
        if exc is not None:
            raised[name] += 1
            if issubclass(exc, (TopologyError, AlgebraError)):
                refused[name] += 1
        if name in ("sixj.tform_tensor", "sixj.tbar_tensor"):
            tensors += 1
            if parent >= 0 and spans[parent][0] == "cli.run_suite":
                discarded += 1

    def frac(num: float, den: float) -> float:
        return num / den if den else 0.0

    out: dict[str, float] = {}
    for layer in TRACED:
        out[f"{layer}.self_s"] = sum(v for k, v in self_s.items()
                                     if k.split(".")[0] == layer)
    out["harness.self_s"] = run_s - sum(self_s.values())
    for layer, names in TRACED.items():
        for fname in names:
            name = f"{layer}.{fname}"
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
    for name in KEYED:
        out[f"{name}.unique_frac"] = frac(len(tracer.keys[name]), calls[name])
    for move in MOVES:
        name = f"triangulation.{move}"
        out[f"{name}.refused_frac"] = frac(refused[name], calls[name])
    out["sixj.tensors.discard_frac"] = frac(discarded, tensors)
    out["statesum.state_sum.peak_mb"] = tracer.state_sum_peak / 2**20
    out["statesum.state_sum.failed"] = raised["statesum.state_sum"]
    return out
