import json
import string

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cyclic6j import statesum
from cyclic6j.algebra import RootData
from cyclic6j.operators import NotScalarError, qtilde
from cyclic6j.statesum import (
    InvariantError, TypeMismatch, ZeroValue, canonical_rep, equal_mod_qtilde,
    invariant_record, mod_qtilde_residual, qtilde_order, state_sum,
    tetra_weight, tetra_weights,
)
from cyclic6j.triangulation import Scene, deform_charge, load_document

from conftest import _grow


def _rank_plan(legs: list[list[int]]) -> tuple[list, int]:
    """The rank-keyed planner the graded one replaced, kept as an oracle.

    Each step merges the pair whose result has the fewest legs, over all
    the faces the two share.  Returns the steps as ``(a, b, (axes of a,
    axes of b))`` and the most legs any tensor of the plan carries.
    """
    live = dict(enumerate(legs))
    holders: dict[int, set[int]] = {}
    for i, ls in live.items():
        for f in ls:
            holders.setdefault(f, set()).add(i)
    steps, peak = [], max(map(len, legs))
    while len(live) > 1:
        pairs = {tuple(sorted(ids)) for ids in holders.values()} \
            or {tuple(sorted(live)[:2])}
        a, b = min(pairs, key=lambda p: (len(set(live[p[0]])
                                             ^ set(live[p[1]])), p))
        la, lb = live.pop(a), live.pop(b)
        shared = [f for f in la if f in lb]
        steps.append((a, b, ([la.index(f) for f in shared],
                             [lb.index(f) for f in shared])))
        new = len(legs) + len(steps) - 1
        live[new] = [f for f in la + lb if f not in shared]
        for f in shared:
            del holders[f]
        for f in live[new]:
            holders[f] = holders[f] - {a, b} | {new}
        peak = max(peak, len(live[new]))
    return steps, peak


def _dense_contract(arrays: list, legs: list[list[int]]) -> complex:
    steps, _ = _rank_plan(legs)
    arrays = list(arrays)
    for a, b, axes in steps:
        arrays.append(np.tensordot(arrays[a], arrays[b], axes=axes))
        arrays[a] = arrays[b] = None
    return complex(arrays[-1])


def _dense_state_sum(root: RootData, scene: Scene,
                     sliced: bool = False) -> complex:
    """The dense contraction the graded one replaced, kept as an oracle:
    every weight dense, contracted by ``np.tensordot`` in the rank-keyed
    order.  ``sliced`` fixes the first face of tetrahedron 0 to each of
    its N values in turn and sums the N contractions; on the fixture,
    where every intermediate holds that face, this lowers the peak rank
    by one."""
    T = scene.complex
    arrays, _, faces = tetra_weights(root, T, scene.coloring, scene.charge,
                                     range(T.n_tets))
    legs = faces.tolist()
    scale = (1.0 / root.N) ** len(scene.link)
    if not sliced:
        return _dense_contract(arrays, legs) * scale
    f = legs[0][0]
    cut = [[g for g in ls if g != f] for ls in legs]
    return sum(_dense_contract(
        [np.take(a, x, axis=ls.index(f)) if f in ls else a
         for a, ls in zip(arrays, legs)], cut)
        for x in range(root.N)) * scale


def _leaves(scene: Scene) -> list:
    _, right, faces = statesum._corners(scene.complex,
                                        np.arange(scene.complex.n_tets))
    return [statesum._leaf(fs, r) for fs, r in zip(faces.tolist(),
                                                   right.tolist())]


def _replay(leaves: list, pairs) -> list:
    """The graded steps of a given pairwise order."""
    nodes, steps = list(leaves), []
    for a, b in pairs:
        node, *step = statesum._merge(nodes[a], nodes[b])
        steps.append(statesum._Step(a, b, *step))
        nodes.append(node)
    return steps


def _layouts(leaves: list, steps: list) -> list:
    """The layout of every tensor of a plan: the leaves, then each step's
    result."""
    nodes = list(leaves)
    for s in steps:
        nodes.append(statesum._merge(nodes[s.a], nodes[s.b])[0])
    return nodes


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
    # the fixture's plan holds at most 594 stored entries at N = 3
    monkeypatch.setattr(statesum, "MAX_ENTRIES", 594 - 1)
    for builder in ("tetra_weight", "tetra_weights", "sixj_stack"):
        monkeypatch.setattr(statesum, builder, _no_weights)
    with pytest.raises(InvariantError, match="594 stored entries.*budget"):
        state_sum(root3, fixture_scene)


def test_over_budget_root_is_refused_before_the_q_guard(fixture_scene,
                                                      monkeypatch):
    # the guard multiplies dense N x N operators: 26 s at N = 3001
    def guard(root):
        raise AssertionError("the q guard ran before the budget refusal")
    monkeypatch.setattr(statesum, "_assert_q_scalar", guard)
    with pytest.raises(InvariantError, match="budget"):
        state_sum(RootData(3001), fixture_scene)


def test_budget_is_the_largest_step_of_stored_entries(root3, fixture_scene,
                                                     monkeypatch):
    leaves = _leaves(fixture_scene)
    steps = statesum._plan(leaves, 3)
    results = _layouts(leaves, steps)[len(leaves):]
    # every live stored tensor, the step's gathered operands and its result
    sizes = [3 ** len(n.axes) for n in leaves]
    held = []
    for s, node in zip(steps, results):
        dh, dr, dk, dc = s.dims
        held.append(sum(sizes) + 3 ** (dh + dr + dk) + 3 ** (dh + dk + dc)
                    + 3 ** len(node.axes))
        sizes[s.a] = sizes[s.b] = 0
        sizes.append(3 ** len(node.axes))
    assert statesum._stored_peak(leaves, steps, 3) == max(held) == 594
    monkeypatch.setattr(statesum, "MAX_ENTRIES", 594)
    assert abs(state_sum(root3, fixture_scene)) * 9 == pytest.approx(1.0)


def test_stacked_weights_match_one_at_a_time(root3, grown_s3):
    grown = grown_s3(30)
    T = grown.complex
    stacked = tetra_weights(root3, T, grown.coloring, grown.charge,
                            range(T.n_tets))
    for t, (S, pairs, faces) in enumerate(zip(*stacked)):
        one, one_pairs, one_faces = tetra_weight(root3, T, grown.coloring,
                                                 grown.charge, t)
        assert np.array_equal(faces, one_faces)
        assert np.array_equal(pairs, one_pairs)
        assert np.allclose(S, one, rtol=1e-13, atol=0)


def _twice(doc: dict) -> dict:
    """Two disjoint copies of a document, the second's tetrahedra offset."""
    n = len(doc["tetrahedra"])

    def cell(entry, key):
        return {**entry, key: [entry[key][0] + n, *entry[key][1:]]}
    return {
        "tetrahedra": doc["tetrahedra"] * 2,
        "gluings": doc["gluings"] + [cell(cell(g, "a"), "b")
                                     for g in doc["gluings"]],
        "link": doc["link"] + [[t + n, e] for t, e in doc["link"]],
        "coloring": doc["coloring"] + [cell(c, "edge")
                                       for c in doc["coloring"]],
        "charge": doc["charge"] + [{**c, "tet": c["tet"] + n}
                                   for c in doc["charge"]],
    }


TWICE = "fixtures/boundary4simplex_twice.json"


def test_two_component_file_is_the_fixture_twice():
    with open("fixtures/boundary4simplex.json") as fh:
        doc = json.load(fh)
    with open(TWICE) as fh:
        assert fh.read() == json.dumps(_twice(doc), sort_keys=True,
                                       indent=1) + "\n"


@pytest.mark.parametrize("N", [3, 5])
def test_two_components_give_the_product_of_their_values(N, fixture_scene):
    root = RootData(N)
    with open(TWICE) as fh:
        twice = load_document(json.load(fh))
    K = state_sum(root, fixture_scene)
    assert abs(state_sum(root, twice) - K * K) <= 1e-12 * abs(K * K)
    # each component closes to a scalar, and the two scalars merge last
    steps = statesum._plan(_leaves(twice), N)
    assert steps[-1].dims == (0, 0, 0, 0)
    assert sum(s.dims == (0, 0, 0, 0) for s in steps) == 1


def test_leaf_is_one_flux_group_stored_over_legs_0_to_2():
    # positive legs carry +1, +1, 0, -1 and negative ones +1, 0, -1, -1:
    # the last face follows from the others and is not stored
    pos, neg = statesum._leaf([1, 2, 3, 4], True), statesum._leaf(
        [1, 2, 3, 4], False)
    assert pos.groups == ({1: 1, 2: 1, 4: -1},)
    assert neg.groups == ({1: 1, 3: -1, 4: -1},)
    assert pos.axes == neg.axes == (1, 2, 3)
    assert pos.pivots == neg.pivots == {4}


def test_support_guard_refuses_an_off_support_entry(root3, fixture_scene,
                                                    monkeypatch):
    build = statesum.sixj_stack

    def bumped(*args, **kwargs):
        weights = build(*args, **kwargs)
        # i0 + i1 - i3 and i0 - i2 - i3 are both -1 here: off the support
        weights[2, 0, 0, 0, 1] += 1e-6 * np.abs(weights[2]).max()
        return weights
    monkeypatch.setattr(statesum, "sixj_stack", bumped)
    with pytest.raises(NotScalarError, match="of tensor 2 "):
        state_sum(root3, fixture_scene)


@pytest.mark.parametrize("N", range(3, 16, 2))
def test_graded_contraction_equals_dense_on_the_fixture(N, fixture_scene):
    root = RootData(N)
    dense = _dense_state_sum(root, fixture_scene, sliced=N >= 13)
    assert abs(state_sum(root, fixture_scene) - dense) <= 1e-12 * abs(dense)


# 120 tetrahedra at N = 7 are left out: the dense oracle peaks at rank 8
# there and needs ~600 MB
@pytest.mark.parametrize("n_tets,N", [(30, 3), (30, 5), (30, 7), (60, 3),
                                      (60, 5), (60, 7), (120, 3), (120, 5)])
def test_graded_contraction_equals_dense_on_grown_s3(n_tets, N, grown_s3):
    root, grown = RootData(N), grown_s3(n_tets)
    dense = _dense_state_sum(root, grown)
    assert abs(state_sum(root, grown) - dense) <= 1e-12 * abs(dense)


def _random_network(rng, n_tets: int, N: int) -> tuple:
    """Weights on their flux support, random off nothing else, with each
    face pairing a check slot (legs 0, 1) with a hat slot (legs 2, 3) of
    another tensor at random."""
    checks = [(t, p) for t in range(n_tets) for p in (0, 1)]
    hats = [(t, p) for t in range(n_tets) for p in (2, 3)]
    while True:
        pick = rng.permutation(len(hats))
        if all(checks[f][0] != hats[k][0] for f, k in enumerate(pick)):
            break
    faces = [[0] * 4 for _ in range(n_tets)]
    for f, k in enumerate(pick):
        (t, p), (u, q) = checks[f], hats[k]
        faces[t][p] = faces[u][q] = f
    rights = rng.integers(2, size=n_tets).astype(bool)
    i = np.indices((N,) * 4)
    weights = []
    for right in rights:
        c = statesum._FLUX[right]
        on = sum(cp * ip for cp, ip in zip(c, i)) % N == 0
        entries = rng.normal(size=on.shape) + 1j * rng.normal(size=on.shape)
        weights.append(np.where(on, entries, 0))
    return np.array(weights), faces, rights


# seeds 17, 23 and 34 are the first whose random networks' plans hold
# tensors of several groups
_SEEDS = range(36)


def _random_case(seed: int) -> tuple:
    rng = np.random.default_rng(seed)
    N = (3, 5)[seed % 2]
    return N, *_random_network(rng, 2 + seed % 6, N)


@pytest.mark.parametrize("seed", _SEEDS)
def test_graded_contraction_equals_dense_on_random_networks(seed):
    N, weights, faces, rights = _random_case(seed)
    leaves = [statesum._leaf(fs, r) for fs, r in zip(faces, rights)]
    arrays = statesum._stored_weights(N, weights, rights)
    steps = statesum._plan(leaves, N)
    tail = statesum._tail(N, 4 * len(leaves))
    for s in steps:
        arrays.append(statesum._contract(arrays[s.a], arrays[s.b], s, N,
                                         tail))
    dense = _dense_contract(list(weights), faces)
    assert abs(arrays[-1][0] - dense) <= 1e-12 * max(1.0, abs(dense))


def test_random_networks_reach_grounded_trees_and_several_groups():
    # the random networks reach both merge paths that S^3 walks also take:
    # a shared face constrained on one side only (a tree joined to the
    # ground), and tensors of several groups
    grounded = several = 0
    for seed in _SEEDS:
        N, _, faces, rights = _random_case(seed)
        leaves = [statesum._leaf(fs, r) for fs, r in zip(faces, rights)]
        steps = statesum._plan(leaves, N)
        nodes = _layouts(leaves, steps)
        for s in steps:
            A, B = nodes[s.a], nodes[s.b]
            grounded += any((x in A.owner) != (x in B.owner)
                            for x in A.faces & B.faces)
        several += sum(len(n.groups) > 1 for n in nodes)
    assert grounded and several


def test_merge_layouts_are_consistent(fixture_scene, grown_s3):
    for scene in (fixture_scene, grown_s3(30), grown_s3(60)):
        leaves = _leaves(scene)
        steps = statesum._plan(leaves, 5)
        nodes = _layouts(leaves, steps)
        for s, node in zip(steps, nodes[len(leaves):]):
            A, B = nodes[s.a], nodes[s.b]
            dh, dr, dk, dc = s.dims
            # the stored-axes count the planner keys on is the merge's
            assert statesum._stored_axes(A, B) == len(node.axes) \
                == dh + dr + dc
            # gathers never grow an operand
            assert dh + dr + dk <= len(A.axes) and dh + dk + dc <= len(B.axes)
            n = dh + dr + dk + dc
            assert s.fa.shape == (len(A.axes), n)
            assert s.fb.shape == (len(B.axes), n)
            # coordinates are numbered h, r, k, c: a reads no c, b no r
            assert not s.fa[:, dh + dr + dk:].any()
            assert not s.fb[:, dh:dh + dr].any()


def test_heap_plan_against_the_rank_order(fixture_scene):
    # The heap plan keys on stored entries, the rank order on legs.  On
    # most seeded walks it gives a lower stored peak than the rank order,
    # and a far lower one on the whole; a greedy order cannot promise it
    # on every document (the 120-tetrahedron walk of seed 7 peaks higher).
    ratios = []
    for n_tets in (20, 40, 80, 120):
        for seed in range(1, 11):
            leaves = _leaves(_grow(fixture_scene, n_tets, seed))
            old = [(a, b) for a, b, _ in
                   _rank_plan([list(n.legs) for n in leaves])[0]]
            for N in (3, 7):
                steps = statesum._plan(leaves, N)
                if [(s.a, s.b) for s in steps] == old:
                    ratios.append(1.0)
                    continue
                ratios.append(statesum._stored_peak(leaves, steps, N)
                              / statesum._stored_peak(
                                  leaves, _replay(leaves, old), N))
    assert sum(r <= 1 for r in ratios) >= 0.9 * len(ratios)
    assert np.exp(np.mean(np.log(ratios))) < 0.5


def test_contraction_order_independence(root3, fixture_scene):
    # contract the whole network in one einsum call instead of the
    # greedy pairwise schedule
    T = fixture_scene.complex
    letters = {}
    subs, tensors = [], []
    for t in range(T.n_tets):
        S, _, face_cls = tetra_weight(root3, T, fixture_scene.coloring,
                                      fixture_scene.charge, t)
        tensors.append(S)
        subs.append("".join(
            letters.setdefault(cls, string.ascii_letters[len(letters)])
            for cls in face_cls.tolist()))
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
    _, pairs, faces = tetra_weights(root3, sc.complex, sc.coloring,
                                    sc.charge, tets)
    with pytest.raises(TypeMismatch, match=f"has {legs} legs"):
        statesum._check_faces(pairs, faces)


def test_face_of_two_check_legs_fails_to_pair(root3, fixture_scene):
    sc = fixture_scene
    _, pairs, faces = tetra_weights(root3, sc.complex, sc.coloring,
                                    sc.charge, range(5))
    statesum._check_faces(pairs, faces)
    # move a check leg's face to a hat leg of its tensor and back
    faces[0, [0, 2]] = faces[0, [2, 0]]
    with pytest.raises(TypeMismatch,
                       match="pairs (check with check|hat with hat)"):
        statesum._check_faces(pairs, faces)


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
