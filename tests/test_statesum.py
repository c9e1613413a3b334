import string

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cyclic6j import statesum
from cyclic6j.algebra import RootData
from cyclic6j.operators import qtilde
from cyclic6j.statesum import (
    InvariantError, TypeMismatch, ZeroValue, canonical_rep, equal_mod_qtilde,
    invariant_record, mod_qtilde_residual, qtilde_order, state_sum,
    tetra_weight, tetra_weights,
)
from cyclic6j.triangulation import Scene, deform_charge


def test_qtilde_order(root3, root5):
    assert qtilde_order(root3) == 6
    q5 = qtilde(root5)
    assert abs(q5 ** qtilde_order(root5) - 1) < 1e-9


@pytest.mark.parametrize("N", range(3, 22, 2))
def test_qtilde_order_is_the_least_period(N):
    # the closed form against the powers themselves, at every k coprime to N
    for k in (k for k in range(1, N) if np.gcd(k, N) == 1):
        root = RootData(N, k)
        powers = qtilde(root) ** np.arange(1, qtilde_order(root) + 1)
        assert abs(powers[-1] - 1) < 1e-9
        assert np.all(np.abs(powers[:-1] - 1) > 1e-3)


def test_fixture_value_is_one_ninth(root3, fixture_scene):
    K = state_sum(root3, fixture_scene)
    assert K.real == pytest.approx(1.0 / 9.0, abs=1e-10)
    assert K.imag == pytest.approx(0.0, abs=1e-10)


@pytest.mark.parametrize("N", [3, 5, 7, 9, 11, 13])
def test_fixture_value_is_one_over_N_squared(N, fixture_scene):
    root = RootData(N)
    K = state_sum(root, fixture_scene)
    assert abs(K) * N * N == pytest.approx(1.0, abs=1e-12)
    assert equal_mod_qtilde(K, 1.0 / N ** 2, root)


@pytest.mark.parametrize("n_tets", [30, 60])
def test_grown_s3_keeps_the_fixture_value(n_tets, root3, fixture_scene,
                                          grown_s3):
    grown = grown_s3(n_tets)
    K = state_sum(root3, grown)
    assert abs(K) * 9 == pytest.approx(1.0, abs=1e-12)
    assert equal_mod_qtilde(K, state_sum(root3, fixture_scene), root3)


def _no_weights(*args, **kwargs):
    raise AssertionError("a weight was built for a refused contraction")


def test_over_budget_plan_is_refused_before_any_weight(root3, fixture_scene,
                                                       monkeypatch):
    # the fixture's plan peaks at rank 6: 729 entries at N = 3
    monkeypatch.setattr(statesum, "MAX_ENTRIES", 3 ** 6 - 1)
    for builder in ("tetra_weight", "tetra_weights", "sixj_stack"):
        monkeypatch.setattr(statesum, builder, _no_weights)
    with pytest.raises(InvariantError, match="budget"):
        state_sum(root3, fixture_scene)


def test_stacked_weights_match_one_at_a_time(root3, grown_s3):
    grown = grown_s3(30)
    T = grown.complex
    stacked = tetra_weights(root3, T, grown.coloring, grown.charge,
                            range(T.n_tets))
    for t, (S, faces) in enumerate(stacked):
        one, one_faces = tetra_weight(root3, T, grown.coloring, grown.charge,
                                      t)
        assert faces == one_faces and S.legs == one.legs
        assert np.allclose(S.entries, one.entries, rtol=1e-13, atol=0)


def test_self_glued_faces_are_traced_and_components_merged(rng):
    x = rng.normal(size=(3, 3, 3, 3))
    assert np.allclose(statesum._trace_self_glued(x, [5, 7, 5, 9]),
                       np.trace(x, axis1=0, axis2=2))
    assert statesum._open_legs([5, 7, 5, 9]) == [7, 9]
    # two components: each closes to a scalar, and the scalars merge last
    steps, peak = statesum._plan([[1, 2], [2, 1], [3], [3]])
    assert steps == [(0, 1, ([0, 1], [1, 0])), (2, 3, ([0], [0])),
                     (4, 5, ([], []))]
    assert peak == 2


def test_contraction_order_independence(root3, fixture_scene):
    # contract the whole network in one einsum call instead of the
    # greedy pairwise schedule
    T = fixture_scene.complex
    letters = {}
    subs, tensors = [], []
    for t in range(T.n_tets):
        S, face_cls = tetra_weight(root3, T, fixture_scene.coloring,
                                   fixture_scene.charge, t)
        tensors.append(S.entries)
        subs.append("".join(
            letters.setdefault(cls, string.ascii_letters[len(letters)])
            for cls in face_cls))
    alt = np.einsum(",".join(subs) + "->", *tensors, optimize=True)
    alt *= (1.0 / root3.N) ** len(fixture_scene.link)
    assert alt == pytest.approx(state_sum(root3, fixture_scene), abs=1e-9)


def test_scene_needs_coloring_and_charge(root3, fixture_scene):
    bare = Scene(fixture_scene.complex, fixture_scene.link)
    with pytest.raises(InvariantError):
        state_sum(root3, bare)
    uncharged = Scene(fixture_scene.complex, fixture_scene.link,
                      fixture_scene.coloring)
    with pytest.raises(InvariantError):
        state_sum(root3, uncharged)


def test_non_cocycle_coloring_fails_to_pair(root3, fixture_scene):
    broken = dict(fixture_scene.coloring)
    cls = min(broken)
    g = broken[cls]
    broken[cls] = type(g)(g.x + 0.5, g.y)
    sc = Scene(fixture_scene.complex, fixture_scene.link, broken,
               fixture_scene.charge)
    with pytest.raises((TypeMismatch,) ):
        state_sum(root3, sc)


@pytest.mark.parametrize("tets,legs", [([0, 1, 2, 3], 1),
                                       ([0, 1, 2, 3, 4, 0], 3)])
def test_face_without_two_legs_fails_to_pair(root3, fixture_scene, tets, legs):
    sc = fixture_scene
    weights = tetra_weights(root3, sc.complex, sc.coloring, sc.charge, tets)
    with pytest.raises(TypeMismatch, match=f"has {legs} legs"):
        statesum._check_faces(weights)


def test_equal_mod_qtilde_semantics(root3):
    qt = qtilde(root3)
    z = 0.3 - 0.7j
    for k in range(qtilde_order(root3)):
        assert equal_mod_qtilde(z, z * qt ** k, root3)
    assert not equal_mod_qtilde(z, 1.7 * z, root3)
    assert not equal_mod_qtilde(z, z * np.exp(0.1j), root3)
    for k in range(qtilde_order(root3)):
        residual, got = mod_qtilde_residual(z * qt ** k, z, root3)
        assert got == k and residual < 1e-12
    assert equal_mod_qtilde(0.0, 0.0, root3)
    assert not equal_mod_qtilde(z, 0.0, root3)
    assert not equal_mod_qtilde(0.0, z, root3)


@given(st.complex_numbers(min_magnitude=1e-3, max_magnitude=1e3),
       st.integers(0, 11))
def test_canonical_rep_collapses_qtilde_orbit(z, k):
    root = RootData(3)
    r1, a1 = canonical_rep(z, root)
    r2, a2 = canonical_rep(z * qtilde(root) ** k, root)
    assert r2 == pytest.approx(r1, rel=1e-9)
    step = 2 * np.pi / qtilde_order(root)
    # arguments agree modulo the step, allowing wrap-around at the seam
    delta = abs(a1 - a2)
    assert min(delta, abs(delta - step)) < 1e-7


def test_canonical_rep_snaps_the_branch_cut(root3):
    # rounding puts the real fixture value on either side of the cut
    below = canonical_rep(1 / 9 - 1.2e-17j, root3)
    assert below == canonical_rep(1 / 9 - 5e-17j, root3)
    assert below == canonical_rep(1 / 9 + 5e-17j, root3)
    assert below[1] == 0.0


def test_canonical_rep_takes_subnormal_imaginary_parts(root3):
    assert canonical_rep(2 + 5e-324j, root3) == (2.0, 0.0)


def test_canonical_rep_rejects_zero(root3):
    with pytest.raises(ZeroValue):
        canonical_rep(0.0, root3)


def test_invariant_record_shape(root3):
    rec = invariant_record(0.1 + 0.2j, root3)
    assert set(rec) == {"value", "modulus", "reduced_arg", "qtilde_order", "N"}
    assert rec["N"] == 3
    assert rec["qtilde_order"] == 6
    assert rec["modulus"] == pytest.approx(abs(0.1 + 0.2j))
    assert 0.0 <= rec["reduced_arg"] < 2 * np.pi / 6


def test_deformed_charge_changes_value_only_mod_qtilde(root3, fixture_scene):
    T = fixture_scene.complex
    K0 = state_sum(root3, fixture_scene)
    c2 = deform_charge(T, fixture_scene.link, fixture_scene.charge, 3)
    K1 = state_sum(root3, Scene(T, fixture_scene.link,
                                fixture_scene.coloring, c2))
    assert equal_mod_qtilde(K1, K0, root3)
