import dataclasses
import hashlib
import itertools
import json
from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cyclic6j import triangulation
from cyclic6j.algebra import AlgebraError, GroupElement, group_inv, group_mul
from cyclic6j.fixtures import boundary4simplex_document, boundary4simplex_scene
from cyclic6j.statesum import mod_qtilde_residual, state_sum
from cyclic6j.triangulation import (
    BadCharge, BadColoring, BadLoop, EDGE_CORNERS, FACE_CORNERS,
    Gluing, MoveNotApplicable, NotClosed, NotHamiltonian, NotOrientable,
    NotQuasiRegular, OPPOSITE_EDGE, ParseError, Scene, TopologyError,
    TriComplex,
    _EDGE_INDEX, _charge_rows, _check_cocycle, _glue_faces, _perm_sign,
    _smith_solve, _tet_ends,
    bubble_minus, bubble_plus,
    charge_class, color_of, deform_charge, edge_between, find_charge,
    gauge_transform, holonomy, is_admissible, load_complex, load_document,
    make_admissible, pachner_minus, pachner_plus, point_gauge, random_gauge,
    scene_document, validate_charge, validate_link,
)


def double_tet() -> TriComplex:
    """Two tetrahedra glued along all four faces by corner-preserving maps."""
    return TriComplex([1, -1], [
        Gluing((0, 0), (1, 0), ((1, 1), (2, 2), (3, 3))),
        Gluing((0, 1), (1, 1), ((0, 0), (2, 2), (3, 3))),
        Gluing((0, 2), (1, 2), ((0, 0), (1, 1), (3, 3))),
        Gluing((0, 3), (1, 3), ((0, 0), (1, 1), (2, 2))),
    ])


def test_glue_faces_matches_the_hand_written_gluings():
    assert _glue_faces(_tet_ends([(0, 1, 2, 3)] * 2)) == list(
        double_tet().gluings)


@pytest.mark.parametrize("copies", [1, 3])
def test_glue_faces_refuses_a_triple_without_two_ends(copies):
    with pytest.raises(TopologyError, match=f"has {copies} ends"):
        _glue_faces(_tet_ends([(0, 1, 2, 3)] * copies))


def edge_degrees(T: TriComplex) -> list[int]:
    return sorted(len(T.edge_incidences(c)) for c in range(T.n_edges))


def test_corner_schema_constants():
    assert len(EDGE_CORNERS) == 6
    for e, (a, b) in enumerate(EDGE_CORNERS):
        assert a < b
        # opposite edge has the complementary corner pair
        oa, ob = EDGE_CORNERS[OPPOSITE_EDGE[e]]
        assert {a, b} | {oa, ob} == {0, 1, 2, 3}
        assert OPPOSITE_EDGE[OPPOSITE_EDGE[e]] == e
        assert _EDGE_INDEX[(a, b)] == e
    for f in range(4):
        assert f not in FACE_CORNERS[f]


@given(st.permutations(range(5)))
def test_perm_sign_matches_determinant(perm):
    mat = np.zeros((5, 5))
    for i, j in enumerate(perm):
        mat[i, j] = 1.0
    assert _perm_sign(perm) == pytest.approx(np.linalg.det(mat))


def _sparse(rows):
    """Dense rows as the ``{variable: coefficient}`` rows of the solver."""
    return [{j: v for j, v in enumerate(row) if v} for row in rows]


def _dense(rows, nvars):
    """The inverse of :func:`_sparse` over ``nvars`` variables."""
    return [[row.get(j, 0) for j in range(nvars)] for row in rows]


def test_smith_solver_on_constructed_systems():
    rng = np.random.default_rng(7)
    for _ in range(50):
        nvars = int(rng.integers(2, 7))
        neqs = int(rng.integers(1, 6))
        A = rng.integers(-4, 5, size=(neqs, nvars))
        x0 = rng.integers(-3, 4, size=nvars)
        b = A @ x0
        res = _smith_solve(_sparse(A.tolist()), [int(v) for v in b], nvars)
        assert res is not None
        part, kernel = res
        assert np.array_equal(A @ np.array(part), b)
        for col in kernel:
            assert np.array_equal(A @ np.array(col), np.zeros(neqs, int))


def test_smith_solver_detects_unsolvable():
    assert _smith_solve([{0: 2}], [1], 1) is None


def _oracle_smith_solve(rows, rhs, nvars):
    """The sequential elimination on Python ints that ``_smith_solve``
    must reproduce exactly: same pivots, same swaps, same result."""
    A = [row[:] for row in rows]
    b = list(rhs)
    m = len(A)
    V = [[1 if i == j else 0 for j in range(nvars)] for i in range(nvars)]

    def row_op(i, k, q):  # row_i -= q * row_k
        A[i] = [x - q * y for x, y in zip(A[i], A[k])]
        b[i] -= q * b[k]

    def col_op(j, k, q):  # col_j -= q * col_k
        for r in range(m):
            A[r][j] -= q * A[r][k]
        for r in range(nvars):
            V[r][j] -= q * V[r][k]

    rank = 0
    for k in range(min(m, nvars)):
        # pick the smallest nonzero pivot at or beyond (k, k)
        best = None
        for i in range(k, m):
            for j in range(k, nvars):
                if A[i][j] != 0 and (best is None
                                     or abs(A[i][j]) < abs(A[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        i, j = best
        A[k], A[i] = A[i], A[k]
        b[k], b[i] = b[i], b[k]
        if j != k:
            for r in range(m):
                A[r][k], A[r][j] = A[r][j], A[r][k]
            for r in range(nvars):
                V[r][k], V[r][j] = V[r][j], V[r][k]
        while True:
            dirty = False
            for i in range(k + 1, m):
                if A[i][k]:
                    q = A[i][k] // A[k][k]
                    row_op(i, k, q)
                    if A[i][k]:
                        A[k], A[i] = A[i], A[k]
                        b[k], b[i] = b[i], b[k]
                        dirty = True
            for j in range(k + 1, nvars):
                if A[k][j]:
                    q = A[k][j] // A[k][k]
                    col_op(j, k, q)
                    if A[k][j]:
                        for r in range(m):
                            A[r][k], A[r][j] = A[r][j], A[r][k]
                        for r in range(nvars):
                            V[r][k], V[r][j] = V[r][j], V[r][k]
                        dirty = True
            if not dirty:
                break
        rank += 1
    y = [0] * nvars
    for k in range(rank):
        if b[k] % A[k][k]:
            return None
        y[k] = b[k] // A[k][k]
    for k in range(rank, m):
        if b[k]:
            return None
    x = [sum(V[r][j] * y[j] for j in range(nvars)) for r in range(nvars)]
    kernel = [[V[r][j] for r in range(nvars)] for j in range(rank, nvars)]
    return x, kernel


def _random_system(rng, kind):
    nvars = int(rng.integers(1, 7))
    neqs = int(rng.integers(1, 6))
    A = rng.integers(-4, 5, size=(neqs, nvars))
    if kind == "non-unit":
        # entries in {0, +-2, +-3, +-4}: every pivot has |.| >= 2
        A = np.where(np.abs(A) == 1, 2 * A, A)
    elif kind == "rank-deficient" and neqs > 1:
        A[-1] = A[0] - 2 * A[1]
    if rng.random() < 0.5:
        b = A @ rng.integers(-3, 4, size=nvars)
    else:
        b = rng.integers(-9, 10, size=neqs)
    return [list(map(int, row)) for row in A], [int(v) for v in b], nvars


def test_smith_solver_matches_the_sequential_oracle():
    rng = np.random.default_rng(11)
    unsolvable = with_kernel = 0
    for trial in range(600):
        kind = ("plain", "non-unit", "rank-deficient")[trial % 3]
        rows, rhs, nvars = _random_system(rng, kind)
        want = _oracle_smith_solve(rows, rhs, nvars)
        assert _smith_solve(_sparse(rows), rhs, nvars) == want, (rows, rhs)
        unsolvable += want is None
        with_kernel += want is not None and len(want[1]) > 0
    assert unsolvable >= 50 and with_kernel >= 50


@pytest.mark.parametrize("n_tets", [30, 60])
def test_smith_solver_matches_the_oracle_on_charge_systems(n_tets, grown_s3):
    scene = grown_s3(n_tets)
    T = scene.complex
    rows, rhs, _ = _charge_rows(T, scene.link, list(range(T.n_tets)))
    want = _oracle_smith_solve(_dense(rows, 3 * T.n_tets), rhs, 3 * T.n_tets)
    assert want is not None
    assert _smith_solve(rows, rhs, 3 * T.n_tets) == want


def _residuals(rows, rhs, x):
    return [sum(a * v for a, v in zip(row, x)) - r for row, r in zip(rows, rhs)]


def test_smith_solver_is_exact_past_int64():
    cases = [
        # the elimination's entries pass int64 (wrapped, they give None),
        # while the solution is small
        ([[49560776, -27820551], [58889430, -66908869]],
         [-232143981, -377394897], 2),
        # the solution itself passes int64
        ([[2**32 + 1, 2**32 - 1, 7], [2**32, 2**32 + 3, 11]], [2**33, 1], 3),
    ]
    for rows, rhs, nvars in cases:
        got = _smith_solve(_sparse(rows), rhs, nvars)
        assert got == _oracle_smith_solve(rows, rhs, nvars)
        x, kernel = got
        assert _residuals(rows, rhs, x) == [0, 0]
        for k in kernel:
            assert _residuals(rows, [0, 0], k) == [0, 0]
    rows, rhs, nvars = cases[0]
    assert _smith_solve(_sparse(rows), rhs, nvars) == ([-3, 3], [])
    rows, rhs, nvars = cases[1]
    x, _ = _smith_solve(_sparse(rows), rhs, nvars)
    assert max(abs(v) for v in x) >= 2**63
    # coefficients that int64 cannot hold at all
    rows = [[2**70 + 3, 5], [7, 2**64 + 1]]
    rhs = _residuals(rows, [0, 0], [3, -2])
    got = _smith_solve(_sparse(rows), rhs, 2)
    assert got == _oracle_smith_solve(rows, rhs, 2) == ([3, -2], [])


def test_fixture_combinatorics(fixture_scene):
    T = fixture_scene.complex
    assert T.n_tets == 5
    assert T.n_vertices == 5
    assert T.n_edges == 10
    assert T.n_faces == 10
    assert edge_degrees(T) == [3] * 10
    assert len(fixture_scene.link) == 5
    validate_link(T, fixture_scene.link)
    validate_charge(T, fixture_scene.link, fixture_scene.charge)
    assert is_admissible(fixture_scene.coloring)


def test_color_orientation_inverts(fixture_scene):
    T = fixture_scene.complex
    col = fixture_scene.coloring
    for t in range(T.n_tets):
        for a, b in EDGE_CORNERS:
            fwd = color_of(T, col, t, a, b)
            back = color_of(T, col, t, b, a)
            assert group_mul(fwd, back).x == pytest.approx(0.0, abs=1e-12)


def test_closed_form_color_of_matches_edge_ends(grown_s3):
    scene = grown_s3(30)
    T, col = scene.complex, scene.coloring
    for t in range(T.n_tets):
        for a, b in itertools.permutations(range(4), 2):
            cls = T.edge_class(t, _EDGE_INDEX[(a, b)])
            lo, _ = T.edge_ends(cls)
            want = col[cls] if T.vertex_class(t, a) == lo \
                else group_inv(col[cls])
            assert color_of(T, col, t, a, b) == want


def test_with_vertex_ranks_copies_only_the_ranks(grown_s3):
    T = grown_s3(30).complex
    before = T.vertex_rank
    n = T.n_vertices
    for bad in ([0] * n, list(range(n - 1)), list(range(1, n + 1))):
        with pytest.raises(ParseError):
            T.with_vertex_ranks(bad)
        assert T.vertex_rank == before
    perm = list(reversed(range(n)))
    T2 = T.with_vertex_ranks(perm)
    assert T2.vertex_rank == tuple(perm)
    assert T.vertex_rank == before
    rebuilt = TriComplex(T.orientations, T.gluings).with_vertex_ranks(perm)
    for t in range(T.n_tets):
        for c in range(4):
            assert T2.vertex_class(t, c) == rebuilt.vertex_class(t, c)
            assert T2.face_class(t, c) == rebuilt.face_class(t, c)
            assert T2.partner(t, c) == rebuilt.partner(t, c)
        for e in range(6):
            assert T2.edge_class(t, e) == rebuilt.edge_class(t, e)
    for cls in range(T.n_edges):
        assert T2.edge_incidences(cls) == rebuilt.edge_incidences(cls)


class _UnionFind:
    def __init__(self, n: int) -> None:
        self.parent = list(range(n))

    def find(self, i: int) -> int:
        while self.parent[i] != i:
            self.parent[i] = self.parent[self.parent[i]]
            i = self.parent[i]
        return i

    def union(self, i: int, j: int) -> None:
        ri, rj = self.find(i), self.find(j)
        if ri != rj:
            self.parent[max(ri, rj)] = min(ri, rj)


def _oracle_classes(T: TriComplex):
    """Vertex, edge and face classes per tetrahedron by union-find over
    the gluings, numbered by first appearance in (tetrahedron, slot)
    order."""
    n = T.n_tets
    vuf, euf, fuf = _UnionFind(4 * n), _UnionFind(6 * n), _UnionFind(4 * n)
    for g in T.gluings:
        (ta, fa), (tb, fb) = g.a, g.b
        fuf.union(4 * ta + fa, 4 * tb + fb)
        cmap = dict(g.corner_map)
        for ca, cb in cmap.items():
            vuf.union(4 * ta + ca, 4 * tb + cb)
        for ca, cb in itertools.combinations(sorted(cmap), 2):
            euf.union(6 * ta + _EDGE_INDEX[(ca, cb)],
                      6 * tb + _EDGE_INDEX[(cmap[ca], cmap[cb])])

    def number(uf, width):
        ids: dict[int, int] = {}
        flat = [ids.setdefault(uf.find(i), len(ids)) for i in range(width * n)]
        return [tuple(flat[width * t:width * t + width]) for t in range(n)]

    return number(vuf, 4), number(euf, 6), number(fuf, 4)


def _excursion_peak(top: int) -> Scene:
    return next(out for _, out in _excursion(0, top=top, bottom=top)
                if isinstance(out, Scene) and out.complex.n_tets >= top)


@pytest.mark.parametrize("source", ["fixture", "grown30", "grown60",
                                    "excursion30"])
def test_classes_match_the_union_find_oracle(source, fixture_scene,
                                             grown_s3):
    scene = {"fixture": lambda: fixture_scene,
             "grown30": lambda: grown_s3(30), "grown60": lambda: grown_s3(60),
             "excursion30": lambda: _excursion_peak(30)}[source]()
    T = scene.complex
    vc, ec, fc = _oracle_classes(T)
    assert T.n_vertices == 1 + max(map(max, vc))
    assert T.n_edges == 1 + max(map(max, ec))
    assert T.n_faces == 1 + max(map(max, fc))
    for t in range(T.n_tets):
        assert tuple(T.vertex_class(t, c) for c in range(4)) == vc[t]
        assert tuple(T.edge_class(t, e) for e in range(6)) == ec[t]
        assert tuple(T.face_class(t, f) for f in range(4)) == fc[t]
    for cls in range(T.n_vertices):
        assert T.vertex_incidences(cls) == [
            (t, c) for t in range(T.n_tets) for c in range(4) if vc[t][c] == cls]
    for cls in range(T.n_edges):
        assert T.edge_incidences(cls) == [
            (t, e) for t in range(T.n_tets) for e in range(6) if ec[t][e] == cls]
    for g in T.gluings:
        tb, fb, a_to_b = T.partner(*g.a)
        ta, fa, b_to_a = T.partner(*g.b)
        assert (ta, fa, tb, fb) == (*g.a, *g.b)
        for i, j in g.corner_map:
            assert (a_to_b[i], b_to_a[j]) == (j, i)


_TWO_TETS = double_tet().gluings


@pytest.mark.parametrize("orientations,gluings,error,message", [
    ([], [], ParseError, "empty complex"),
    ([0, -1], _TWO_TETS, ParseError,
     "tetrahedron 0: orientation must be +-1"),
    ([1, -1], (Gluing((0, 0), (0, 0), ((1, 1), (2, 2), (3, 3))),)
     + _TWO_TETS[1:], ParseError, "face (0, 0) glued to itself"),
    ([1, -1], _TWO_TETS + (Gluing((1, 0), (0, 0),
                                  ((1, 1), (2, 2), (3, 3))),),
     NotClosed, "face (1, 0) glued twice"),
    ([1, -1], (Gluing((0, 0), (1, 0), ((1, 1), (2, 2), (0, 3))),)
     + _TWO_TETS[1:], ParseError,
     "gluing (0, 0)~(1, 0): corner map is not a bijection of the face "
     "corners"),
    ([1, -1], (Gluing((0, 0), (1, 0), ((1, 1), (2, 2))),)
     + _TWO_TETS[1:], ParseError,
     "gluing (0, 0)~(1, 0): corner map is not a bijection of the face "
     "corners"),
    # several faults: the first faulty gluing, at its first failing check
    ([1, -1], (Gluing((0, 0), (1, 0), ((1, 1), (2, 2), (0, 3))),
               Gluing((0, 1), (5, 1), ((0, 0), (2, 2), (3, 3))))
     + _TWO_TETS[2:], ParseError,
     "gluing (0, 0)~(1, 0): corner map is not a bijection of the face "
     "corners"),
    ([1, -1], (Gluing((0, 0), (1, 7), ((1, 1), (2, 2), (0, 3))),)
     + _TWO_TETS[1:], ParseError, "gluing references missing face (1, 7)"),
    ([1, -1], _TWO_TETS[:3] + (Gluing((0, 0), (1, 3),
                                      ((1, 0), (2, 1), (3, 2))),),
     NotClosed, "face (0, 0) glued twice"),
    ([1, -1], _TWO_TETS[:3], NotClosed, "face (0, 3) is unglued"),
], ids=["empty", "orientation-0", "self-glued", "glued-twice",
        "not-a-bijection", "two-pairs", "first-gluing-first",
        "range-before-bijection", "first-side-glued-twice", "unglued"])
def test_complex_refusals(orientations, gluings, error, message):
    with pytest.raises(error) as exc:
        TriComplex(orientations, gluings)
    assert type(exc.value) is error
    assert str(exc.value) == message


def test_index_beyond_int64_is_a_missing_face():
    gluings = (Gluing((0, 0), (-2**70, 0), ((1, 1), (2, 2), (3, 3))),
               Gluing((2**70, 1), (1, 1), ((0, 0), (2, 2), (3, 3))))
    with pytest.raises(ParseError) as exc:
        TriComplex([1, -1], gluings + _TWO_TETS[2:])
    assert str(exc.value) == f"gluing references missing face {(-2**70, 0)}"


def test_unglued_face_detected():
    with pytest.raises(NotClosed):
        TriComplex([1, -1], [
            Gluing((0, 0), (1, 0), ((1, 1), (2, 2), (3, 3))),
            Gluing((0, 1), (1, 1), ((0, 0), (2, 2), (3, 3))),
            Gluing((0, 2), (1, 2), ((0, 0), (1, 1), (3, 3))),
        ])


def test_orientation_parity_rule_enforced(fixture_scene):
    T = fixture_scene.complex
    flipped = [-o if t == 1 else o for t, o in enumerate(T.orientations)]
    with pytest.raises(NotOrientable):
        TriComplex(flipped, T.gluings)


def test_loop_edges_detected():
    doc = {
        "tetrahedra": [{"orientation": 1}],
        "gluings": [
            {"a": [0, 0], "b": [0, 1], "corner_map": [[1, 0], [2, 2], [3, 3]]},
            {"a": [0, 2], "b": [0, 3], "corner_map": [[0, 0], [1, 1], [3, 2]]},
        ],
    }
    with pytest.raises(NotQuasiRegular):
        load_complex(doc)


@pytest.mark.parametrize("f1,f2", itertools.combinations(range(4), 2))
def test_a_tetrahedron_glued_to_itself_is_refused(f1, f2, fixture_scene):
    # Gluing f1 to f2 sends corner f2, which lies on f1, to a corner of f2,
    # never f2 itself: two corners of one tetrahedron meet, and the edge
    # between them is a loop.  Reglue the fixture so: f1 of tetrahedron 0
    # to its f2, with every corner map, their two partner faces to each
    # other, with every corner map, and tetrahedron 0 of either orientation.
    T = fixture_scene.complex
    (u1, g1, _), (u2, g2, _) = T.partner(0, f1), T.partner(0, f2)
    sides = {(0, f1), (0, f2)}
    kept = [g for g in T.gluings if not sides & {g.a, g.b}]
    # with the two gluings it dropped, the rest rebuilds the fixture
    TriComplex(T.orientations, kept + [g for g in T.gluings
                                       if sides & {g.a, g.b}])
    for own, other, o in itertools.product(
            itertools.permutations(FACE_CORNERS[f2]),
            itertools.permutations(FACE_CORNERS[g2]), (1, -1)):
        gluings = kept + [
            Gluing((0, f1), (0, f2), tuple(zip(FACE_CORNERS[f1], own))),
            Gluing((u1, g1), (u2, g2), tuple(zip(FACE_CORNERS[g1], other)))]
        with pytest.raises((NotOrientable, NotQuasiRegular)):
            TriComplex((o,) + T.orientations[1:], gluings)


def test_parse_errors():
    with pytest.raises(ParseError):
        load_complex({"gluings": []})
    with pytest.raises(ParseError):
        load_complex({
            "tetrahedra": [{"orientation": 1}],
            "gluings": [{"a": [0, 0], "b": [5, 0],
                         "corner_map": [[1, 1], [2, 2], [3, 3]]}],
        })


@pytest.mark.parametrize("key", ["link", "coloring", "charge"])
def test_document_cells_past_the_last_tetrahedron_are_refused(key):
    doc = boundary4simplex_document()
    n_tets = len(doc["tetrahedra"])
    if key == "link":
        doc["link"][0] = [n_tets, 0]
    elif key == "coloring":
        doc["coloring"][0]["edge"][0] = n_tets
    else:
        doc["charge"][0]["tet"] = n_tets
    with pytest.raises(ParseError, match=f"{key} entry references missing "
                                         f"edge \\({n_tets}, "):
        load_document(doc)


def test_short_link_rejected(fixture_scene):
    T = fixture_scene.complex
    broken = frozenset(list(fixture_scene.link)[1:])
    with pytest.raises(NotHamiltonian):
        validate_link(T, broken)


def test_document_round_trip_is_byte_stable(fixture_scene):
    doc1 = scene_document(fixture_scene)
    text1 = json.dumps(doc1, sort_keys=True)
    doc2 = scene_document(load_document(doc1))
    assert json.dumps(doc2, sort_keys=True) == text1


def test_document_integers_may_be_integral_floats_or_numpy(fixture_scene):
    # every integer of the document, rewritten as a float and as an int64,
    # loads to the same scene; fractions and bools are refused (test_cli)
    def retype(x, kind):
        if type(x) is int:
            return kind(x)
        if isinstance(x, list):
            return [retype(v, kind) for v in x]
        if isinstance(x, dict):
            return {k: v if k == "g" else retype(v, kind)
                    for k, v in x.items()}
        return x
    doc = scene_document(fixture_scene)
    text = json.dumps(doc, sort_keys=True)
    for kind in (float, np.int64):
        back = scene_document(load_document(retype(doc, kind)))
        assert json.dumps(back, sort_keys=True) == text


@pytest.mark.parametrize("value", ["-0.5", True, float("nan"), float("inf"),
                                   10**400],
                         ids=["string", "bool", "nan", "inf", "huge-int"])
def test_document_reals_are_finite_numbers(value):
    # float() read the first two as -0.5 and 1.0
    doc = boundary4simplex_document()
    doc["coloring"][0]["g"][0] = value
    with pytest.raises(ParseError, match="not a finite real number"):
        load_document(doc)


def test_document_fills_opposite_charge_slots():
    scene = load_document(boundary4simplex_document())
    for row in scene.charge:
        for e in range(6):
            assert row[e] == row[OPPOSITE_EDGE[e]]


def test_tampered_charge_rejected(fixture_scene):
    T = fixture_scene.complex
    rows = [list(r) for r in fixture_scene.charge]
    rows[0][0] += 1
    rows[0][OPPOSITE_EDGE[0]] += 1
    with pytest.raises(BadCharge):
        validate_charge(T, fixture_scene.link, tuple(tuple(r) for r in rows))


def test_tampered_coloring_rejected():
    doc = boundary4simplex_document()
    doc["coloring"][0]["g"] = [2.5, 1.0]
    with pytest.raises(BadColoring):
        load_document(doc)


def test_cocycle_check_compares_both_coordinates(fixture_scene):
    # a coboundary in the subgroup x = 0, where only y can break the check
    T = fixture_scene.complex
    col = {}
    for cls in range(T.n_edges):
        lo, hi = T.edge_ends(cls)
        col[cls] = GroupElement(0.0, 2.0 ** (hi - lo))
    scene = dataclasses.replace(fixture_scene, coloring=col)
    load_document(scene_document(scene))
    for g in (GroupElement(0.0, 3.0), GroupElement(0.5, col[0].y)):
        tampered = dataclasses.replace(scene, coloring={**col, 0: g})
        with pytest.raises(BadColoring):
            load_document(scene_document(tampered))


def test_cocycle_check_names_the_first_failing_face(grown_s3):
    T, col = grown_s3(30).complex, grown_s3(30).coloring
    for cls in (0, T.n_edges // 2, T.n_edges - 1):
        first = min((t, f) for t, e in T.edge_incidences(cls)
                    for f in range(4) if f not in EDGE_CORNERS[e])
        g = col[cls]
        with pytest.raises(BadColoring) as exc:
            _check_cocycle(T, {**col, cls: GroupElement(g.x + 0.5, g.y)})
        assert str(exc.value) == (f"face {first}: edge colors do not "
                                  "satisfy the cocycle condition")


def test_charge_values_in_doubled_range(fixture_scene):
    # per-tetrahedron pair sums are 1 (doubled), link edges sum to 0
    T = fixture_scene.complex
    for t in range(T.n_tets):
        row = fixture_scene.charge[t]
        pair_sum = row[0] + row[1] + row[2]
        assert pair_sum == 1
    for cls in range(T.n_edges):
        total = sum(fixture_scene.charge[t][e]
                    for t, e in T.edge_incidences(cls))
        assert total == (0 if cls in fixture_scene.link else 2)


def test_find_charge_and_all_deformations(fixture_scene):
    T = fixture_scene.complex
    c0 = find_charge(T, fixture_scene.link)
    validate_charge(T, fixture_scene.link, c0)
    for cls in range(T.n_edges):
        validate_charge(T, fixture_scene.link,
                        deform_charge(T, fixture_scene.link, c0, cls))


def _three_tet_loop(T):
    t0 = 0
    t1, f10, _ = T.partner(t0, 0)
    for f_out1 in range(4):
        if f_out1 == f10:
            continue
        t2, f21, _ = T.partner(t1, f_out1)
        if t2 in (t0, t1):
            continue
        for f_out2 in range(4):
            if f_out2 == f21:
                continue
            t3, f3, _ = T.partner(t2, f_out2)
            if t3 == t0 and f3 != 0:
                return [(t0, f3, 0), (t1, f10, f_out1), (t2, f21, f_out2)]
    raise AssertionError("no three-tetrahedron loop found")


def test_charge_class_is_deformation_invariant(fixture_scene):
    T = fixture_scene.complex
    loop = _three_tet_loop(T)
    v = charge_class(T, fixture_scene.charge, loop)
    assert v in (0, 1)
    for cls in range(T.n_edges):
        c1 = deform_charge(T, fixture_scene.link, fixture_scene.charge, cls)
        assert charge_class(T, c1, loop) == v


def test_charge_class_rejects_broken_loops(fixture_scene):
    T = fixture_scene.complex
    loop = _three_tet_loop(T)
    with pytest.raises(BadLoop):
        charge_class(T, fixture_scene.charge, [(0, 1, 1)])
    with pytest.raises(BadLoop):
        charge_class(T, fixture_scene.charge, loop[:2])


def test_pachner_round_trip_restores_combinatorics(fixture_scene):
    bigger = pachner_plus(fixture_scene, 0, 0)
    T2 = bigger.complex
    assert T2.n_tets == 6
    assert sum(edge_degrees(T2)) == 6 * T2.n_tets
    assert edge_degrees(T2) == [2, 2, 2, 3, 3, 4, 4, 4, 4, 4, 4]
    load_document(scene_document(bigger))  # transported data revalidates
    new_tets = {T2.n_tets - 3, T2.n_tets - 2, T2.n_tets - 1}
    central = next(cls for cls in range(T2.n_edges)
                   if {t for t, _ in T2.edge_incidences(cls)} == new_tets)
    t_at, e_at = T2.edge_incidences(central)[0]
    back = pachner_minus(bigger, t_at, e_at)
    assert back.complex.n_tets == 5
    assert edge_degrees(back.complex) == [3] * 10
    load_document(scene_document(back))


# excursions: three positive draws to one negative on the way up, then
# negative moves only on the way down
_UP = ("pachner+", "bubble+") * 3 + ("pachner-", "bubble-")
_DOWN = ("pachner-", "bubble-")


def _random_move(kind: str, scene: Scene, rng) -> Scene:
    T = scene.complex
    if kind == "bubble-":
        return bubble_minus(scene, int(rng.integers(T.n_vertices)))
    t = int(rng.integers(T.n_tets))
    if kind == "pachner+":
        return pachner_plus(scene, t, int(rng.integers(4)))
    if kind == "pachner-":
        return pachner_minus(scene, t, int(rng.integers(6)))
    return bubble_plus(scene, t, int(rng.integers(4)))


def _excursion(seed: int, top: int, bottom: int, patience: int = 200):
    """Seeded moves of all four kinds at random cells, from the fixture up
    to ``top`` tetrahedra and back down to ``bottom`` (or until
    ``patience`` moves in a row are refused).  Yields ``(kind, scene)``
    for every applied move and ``(kind, exception)`` for every refusal."""
    rng = np.random.default_rng(seed)
    scene, kinds, refused = boundary4simplex_scene(), _UP, 0
    while refused < patience:
        if scene.complex.n_tets >= top:
            kinds = _DOWN
        if kinds is _DOWN and scene.complex.n_tets <= bottom:
            return
        kind = kinds[int(rng.integers(len(kinds)))]
        try:
            scene = _random_move(kind, scene, rng)
        except (TopologyError, AlgebraError) as exc:
            refused += 1
            yield kind, exc
            continue
        refused = 0
        yield kind, scene


def _canonical(scene: Scene) -> bytes:
    """The scene independent of gluing order: orientations, the set of
    gluings (each with its lower side first), ranks, link, coloring bits
    and charge rows."""
    T = scene.complex
    gluings = sorted(
        min((g.a, g.b, tuple(sorted(g.corner_map))),
            (g.b, g.a, tuple(sorted((j, i) for i, j in g.corner_map))))
        for g in T.gluings)
    coloring = None if scene.coloring is None else [
        (cls, g.x.hex(), g.y.hex()) for cls, g in sorted(scene.coloring.items())]
    return repr((T.orientations, gluings, T.vertex_rank, sorted(scene.link),
                 coloring, scene.charge)).encode()


# SHA-256 of the four excursions below; any change to what a move builds,
# or to which moves it refuses and how, changes it
WALK_DIGEST = ("4a1fdd3ec52de802018c1f0dc34b6203"
               "f3b8c24915658fc620e1d07a60527605")


def test_move_walk_digest_is_pinned():
    digest = hashlib.sha256()
    refusals = Counter()
    for seed in range(4):
        for kind, out in _excursion(seed, top=30, bottom=8):
            if isinstance(out, Scene):
                digest.update(_canonical(out))
            else:
                refusals[kind, type(out).__name__] += 1
    digest.update(repr(sorted(refusals.items())).encode())
    assert digest.hexdigest() == WALK_DIGEST


def test_smith_solver_matches_the_oracle_on_every_walk_system(monkeypatch):
    calls, solve = [], triangulation._smith_solve

    def record(rows, rhs, nvars):
        out = solve(rows, rhs, nvars)
        calls.append((rows, rhs, nvars, out))
        return out
    monkeypatch.setattr(triangulation, "_smith_solve", record)
    for seed in (0, 1):
        for _ in _excursion(seed, top=30, bottom=8):
            pass
    for rows, rhs, nvars, out in calls:
        assert out == _oracle_smith_solve(_dense(rows, nvars), rhs,
                                          nvars), (rows, rhs)
    # bubble- solves for no variables, and kernels of dimension 0 to 2 occur
    assert any(nvars == 0 for _, _, nvars, _ in calls)
    assert {0, 1, 2} <= {len(out[1]) for *_, out in calls if out}


def test_negative_moves_keep_the_invariant_beyond_the_fixture(root3,
                                                             fixture_scene):
    K0 = state_sum(root3, fixture_scene)
    applied = Counter()
    for seed in (10, 11):
        for kind, out in _excursion(seed, top=30, bottom=8):
            if kind in _DOWN and isinstance(out, Scene):
                K = state_sum(root3, out)
                assert mod_qtilde_residual(K, K0, root3)[0] <= 1e-8, kind
                applied[kind] += 1
    assert min(applied[kind] for kind in _DOWN) >= 10, applied


@pytest.mark.parametrize("move", [pachner_plus, pachner_minus, bubble_plus,
                                  bubble_minus])
def test_moves_refuse_targets_out_of_range(move, fixture_scene):
    T = fixture_scene.complex
    limits = {pachner_plus: (T.n_tets, 4), pachner_minus: (T.n_tets, 6),
              bubble_plus: (T.n_tets, 4), bubble_minus: (T.n_vertices,)}[move]
    for pos, limit in enumerate(limits):
        for bad in (-1, limit):
            args = [0] * len(limits)
            args[pos] = bad
            with pytest.raises(MoveNotApplicable, match="out of range"):
                move(fixture_scene, *args)


def test_pachner_minus_refusals(fixture_scene):
    T = fixture_scene.complex
    link_cls = next(iter(fixture_scene.link))
    t, e = T.edge_incidences(link_cls)[0]
    with pytest.raises(MoveNotApplicable):
        pachner_minus(fixture_scene, t, e)


def test_pachner_plus_refuses_coincident_apexes():
    sc = Scene(double_tet(), frozenset())
    with pytest.raises(MoveNotApplicable):
        pachner_plus(sc, 0, 0)


def _link_face(scene):
    T = scene.complex
    return next(
        (t, f) for t in range(T.n_tets) for f in range(4)
        if any(T.edge_class(t, _EDGE_INDEX[(a, b)]) in scene.link
               for a, b in itertools.combinations(FACE_CORNERS[f], 2)))


def test_bubble_round_trip_restores_charge(fixture_scene):
    t, f = _link_face(fixture_scene)
    blown = bubble_plus(fixture_scene, t, f)
    T2 = blown.complex
    assert T2.n_tets == 7
    assert T2.n_vertices == 6
    assert len(blown.link) == 6
    load_document(scene_document(blown))
    new_v = max(range(T2.n_vertices), key=lambda v: T2.vertex_rank[v])
    back = bubble_minus(blown, new_v)
    assert back.complex.n_tets == 5
    assert back.charge == fixture_scene.charge
    assert set(back.link) == set(fixture_scene.link)


def test_bubble_plus_needs_a_link_edge(fixture_scene):
    # every face of the bare fixture meets the link (no independent
    # vertex triple on a 5-cycle), so grow the complex first
    grown = pachner_plus(fixture_scene, 0, 0)
    T = grown.complex
    non_link = next(
        (t, f) for t in range(T.n_tets) for f in range(4)
        if not any(T.edge_class(t, _EDGE_INDEX[(a, b)]) in grown.link
                   for a, b in itertools.combinations(FACE_CORNERS[f], 2)))
    with pytest.raises(MoveNotApplicable):
        bubble_plus(grown, *non_link)


def test_bubble_minus_needs_a_small_vertex(fixture_scene):
    with pytest.raises(MoveNotApplicable):
        bubble_minus(fixture_scene, 0)


def test_gauge_preserves_cocycle_and_conjugates_holonomy(fixture_scene, rng):
    T = fixture_scene.complex
    col = fixture_scene.coloring
    gauge = random_gauge(T, rng)
    col2 = gauge_transform(T, col, gauge)
    load_document(scene_document(dataclasses.replace(
        fixture_scene, coloring=col2)))
    # holonomy around a vertex cycle transforms by basepoint conjugation
    cycle = [0, 1, 2]
    h1 = holonomy(T, col, cycle)
    h2 = holonomy(T, col2, cycle)
    d = gauge[cycle[0]]
    want = group_mul(d, group_mul(h1, group_inv(d)))
    assert h2.x == pytest.approx(want.x, abs=1e-9)
    assert h2.y == pytest.approx(want.y, rel=1e-9)


def test_make_admissible_recovers_from_bad_gauge(fixture_scene, rng):
    T = fixture_scene.complex
    col = fixture_scene.coloring
    # a point gauge chosen to zero out one edge color's x part
    cls0 = min(col)
    lo, _ = T.edge_ends(cls0)
    killer = point_gauge(T, lo, GroupElement(-col[cls0].x, 1.0))
    broken = gauge_transform(T, col, killer)
    assert not is_admissible(broken)
    fixed = make_admissible(T, broken, rng)
    assert is_admissible(fixed)


def test_admissibility_bounds_both_orientations():
    assert is_admissible({0: GroupElement(1e-3, 1.0)})
    # one bound at a time: the inverse's |x| / y, then |x| itself
    assert not is_admissible({0: GroupElement(1e-3, 1e4)})
    assert not is_admissible({0: GroupElement(-1e-7, 1e-4)})


def test_edge_between_endpoints(fixture_scene):
    T = fixture_scene.complex
    for cls in range(T.n_edges):
        lo, hi = T.edge_ends(cls)
        assert edge_between(T, lo, hi) == cls
