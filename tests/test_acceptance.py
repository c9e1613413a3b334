"""Acceptance gate: one test per criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass lines alongside the residual rows.
"""

import json
import time
from pathlib import Path

import pytest

from cyclic6j.algebra import RootData
from cyclic6j.cli import run_suite
from cyclic6j.fixtures import boundary4simplex_document, boundary4simplex_scene
from cyclic6j.statesum import canonical_rep, state_sum
from cyclic6j.triangulation import (
    find_charge, is_admissible, load_document, validate_charge,
)

DATA = Path(__file__).parent / "data"


def _report(label: str, rows, elapsed: float, budget: float) -> None:
    worst = max((v / b for _, v, b, kind in rows if kind == "max"),
                default=0.0)
    print(f"{label}: PASS ({len(rows)} identities, worst residual "
          f"{worst:.2e} of bound, {elapsed:.1f} s / {budget:.0f} s budget)")


def _failures(rows):
    return [name for name, value, bound, kind in rows
            if (value > bound if kind == "max" else value < bound)]


def test_criterion_1_algebra_residuals():
    t0 = time.perf_counter()
    rows, ok = run_suite("algebra", N=5, seed=0, trials=200,
                         tol=1e-9, tol_strict=1e-9)
    elapsed = time.perf_counter() - t0
    assert ok, _failures(rows)
    assert elapsed < 10.0
    _report("criterion 1 (algebra suite, 200 pairs, N=5)", rows, elapsed, 10)


@pytest.mark.parametrize("N", [3, 5])
def test_criterion_2_operator_identities(N):
    t0 = time.perf_counter()
    rows, ok = run_suite("operators", N=N, seed=0, trials=None,
                         tol=1e-9, tol_strict=1e-10)
    elapsed = time.perf_counter() - t0
    assert ok, _failures(rows)
    _report(f"criterion 2 (operator suite, N={N})", rows, elapsed, 60)


@pytest.mark.parametrize("N", [3, 5])
def test_criterion_3_sixj_identities(N):
    t0 = time.perf_counter()
    rows, ok = run_suite("sixj", N=N, seed=0, trials=20,
                         tol=1e-8, tol_strict=1e-10)
    elapsed = time.perf_counter() - t0
    assert ok, _failures(rows)
    assert elapsed < 300.0
    controls = [v for name, v, b, kind in rows if kind == "min"]
    assert controls and all(v > 1e-3 for v in controls)
    _report(f"criterion 3 (6j suite, 20 draws, N={N})", rows, elapsed, 300)


def test_criterion_4_topology_invariance():
    scene = load_document(boundary4simplex_document())
    validate_charge(scene.complex, scene.link, scene.charge)
    assert is_admissible(scene.coloring)
    found = find_charge(scene.complex, scene.link)
    validate_charge(scene.complex, scene.link, found)

    t0 = time.perf_counter()
    # tol 1e-8 is stricter than the stated 1e-7 mod-qtilde bound and is
    # exactly the stated bound for the gauge rows
    rows, ok = run_suite("moves", N=3, seed=0, trials=5,
                         tol=1e-8, tol_strict=1e-10)
    elapsed = time.perf_counter() - t0
    assert ok, _failures(rows)
    assert elapsed < 120.0
    names = {name for name, *_ in rows}
    assert {"pachner_plus_mod_qtilde", "bubble_plus_mod_qtilde",
            "charge_deform_mod_qtilde", "vertex_reorder_mod_qtilde",
            "gauge_exact"} <= names
    _report("criterion 4 (topology suite, N=3)", rows, elapsed, 120)


def test_criterion_5_regression_canonical_rep():
    root = RootData(3)
    value = state_sum(root, boundary4simplex_scene())
    modulus, reduced_arg = canonical_rep(value, root)
    # a missing record fails here rather than being written afresh
    stored = json.loads((DATA / "regression_canonical_N3.json").read_text())
    assert stored["N"] == 3
    assert modulus == pytest.approx(stored["modulus"], abs=1e-9)
    assert reduced_arg == pytest.approx(stored["reduced_arg"], abs=1e-9)
    print(f"criterion 5 (regression, N=3): PASS (modulus {modulus:.12f}, "
          f"reduced arg {reduced_arg:.3e})")
