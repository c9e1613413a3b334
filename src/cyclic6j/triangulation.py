"""Quasi-regular triangulations of closed oriented 3-manifolds.

A complex is a list of oriented tetrahedra plus a perfect matching of
their faces; vertex, edge and face classes are derived by union-find
over the gluing maps.  On top of the bare complex live:

* Hamiltonian links (edge sets covering every vertex exactly twice),
* half-integer charges (stored as doubled integers) with per-face sums
  1/2 and global edge sums 1 (plain edge) or 0 (link edge),
* G-colorings: group-valued 1-cocycles on oriented edges, with vertex
  gauges acting on them,
* the local moves connecting any two such triangulations of the same
  pair (manifold, link): Pachner 2<->3 and bubble.

Every move swaps a star for another star with the same boundary, and one
routine, ``_swap_star``, carries it out.  A move checks that it applies,
then names the tetrahedra it removes and lists the new ones as tuples of
vertex tags with an orientation; a corner's tag is its vertex class, and
a vertex the move creates takes the next free id.  The routine derives
every new gluing by matching the tag triples of faces: each boundary face
of the old star meets the new face with its triple, two new faces with
one triple are glued to each other, and with nothing new (``bubble_minus``)
the two boundary faces sharing a triple are glued together.  The positive
bubble also unglues one face and names which new tetrahedron each side of
it meets.  Kept tetrahedra keep their order and the new ones follow; the
vertex ranks, link, coloring and charge are carried over through the
old-to-new vertex and edge class maps, and the charge of the new
tetrahedra is the minimal-norm integral solution of the local system.

Local index conventions (normative for the JSON format): corners 0..3,
face f is opposite corner f, edges 0..5 enumerate the corner pairs
(0,1),(0,2),(0,3),(1,2),(1,3),(2,3), opposite edge pairs (0,5),(1,4),(2,3).
"""
from __future__ import annotations

import copy
import itertools
from dataclasses import dataclass

import numpy as np

from .algebra import (AlgebraError, BadOperands, GroupElement, group_close,
                      group_inv, group_mul)

__all__ = [
    "TopologyError", "ParseError", "NotClosed", "NotQuasiRegular",
    "NotOrientable", "NotHamiltonian", "NoCharge", "BadCharge", "BadLoop",
    "BadColoring", "MoveNotApplicable", "AdmissibilityFailed",
    "EDGE_CORNERS", "OPPOSITE_EDGE", "FACE_CORNERS",
    "Gluing", "TriComplex", "Charge", "GGauge", "Scene",
    "load_complex", "load_document", "scene_document",
    "validate_link", "find_charge", "validate_charge", "deform_charge",
    "charge_class",
    "pachner_plus", "pachner_minus", "bubble_plus", "bubble_minus",
    "gauge_transform", "point_gauge", "random_gauge",
    "is_admissible", "make_admissible", "edge_between", "holonomy",
]


class TopologyError(ValueError):
    """Base class for triangulation errors."""


class ParseError(TopologyError):
    """Malformed triangulation document."""


class NotClosed(TopologyError):
    """A face is unglued or glued more than once."""


class NotQuasiRegular(TopologyError):
    """An edge class with coinciding endpoints."""


class NotOrientable(TopologyError):
    """A gluing fails to reverse the induced face orientation."""


class NotHamiltonian(TopologyError):
    """A vertex not covered exactly twice by the link."""


class NoCharge(TopologyError):
    """The charge system has no integral solution."""


class BadCharge(TopologyError):
    """A charge violating a tetrahedron or edge constraint."""


class BadLoop(TopologyError):
    """A loop that is not a valid chain of face passages."""


class BadColoring(TopologyError):
    """Edge colors violating the face cocycle condition."""


class MoveNotApplicable(TopologyError):
    """The requested move cannot be performed at the given cells."""


class AdmissibilityFailed(TopologyError):
    """No admissible coloring found within the retry budget."""


EDGE_CORNERS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
OPPOSITE_EDGE = (5, 4, 3, 2, 1, 0)
FACE_CORNERS = tuple(tuple(c for c in range(4) if c != f) for f in range(4))
_EDGE_INDEX = {}
for _i, (_a, _b) in enumerate(EDGE_CORNERS):
    _EDGE_INDEX[(_a, _b)] = _i
    _EDGE_INDEX[(_b, _a)] = _i
_PAIR_OF_EDGE = (0, 1, 2, 2, 1, 0)
_PAIR_REPS = (0, 1, 2)  # edge slots representing the three opposite pairs


def _perm_sign(seq) -> int:
    sign = 1
    items = list(seq)
    for i in range(len(items)):
        for j in range(i + 1, len(items)):
            if items[i] > items[j]:
                sign = -sign
    return sign


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


@dataclass(frozen=True)
class Gluing:
    """A face pairing with an explicit corner bijection.

    ``a`` and ``b`` are (tetrahedron, face) pairs; ``corner_map`` lists
    three (corner of a's tet, corner of b's tet) pairs covering exactly
    the corners on each side of the face.
    """

    a: tuple[int, int]
    b: tuple[int, int]
    corner_map: tuple[tuple[int, int], ...]


class TriComplex:
    """Validated closed oriented quasi-regular triangulation.

    Immutable after construction; all derived classes (vertices, edges,
    faces) are numbered by first appearance in lexicographic
    (tetrahedron, local index) order, so numbering is reproducible.
    ``with_vertex_ranks`` copies only the rank tuple: the copy shares the
    validated gluings, classes and incidences, which ranks do not touch.
    """

    def __init__(self, orientations, gluings, vertex_ranks=None):
        self.orientations = tuple(int(o) for o in orientations)
        self.gluings = tuple(gluings)
        n = len(self.orientations)
        if n == 0:
            raise ParseError("empty complex")
        for t, o in enumerate(self.orientations):
            if o not in (1, -1):
                raise ParseError(f"tetrahedron {t}: orientation must be +-1")
        self._build_partners(n)
        self._build_classes(n)
        self._check_orientations()
        self._check_quasi_regular()
        if vertex_ranks is None:
            self.vertex_rank = tuple(range(self.n_vertices))
        else:
            self.vertex_rank = self._checked_ranks(vertex_ranks)

    # -- construction ------------------------------------------------

    def _build_partners(self, n: int) -> None:
        partner: dict[tuple[int, int], tuple[int, int, dict[int, int]]] = {}
        for g in self.gluings:
            for (t, f) in (g.a, g.b):
                if not (0 <= t < n and 0 <= f < 4):
                    raise ParseError(f"gluing references missing face {(t, f)}")
            if g.a == g.b:
                raise ParseError(f"face {g.a} glued to itself")
            fwd = {i: j for i, j in g.corner_map}
            bwd = {j: i for i, j in g.corner_map}
            if sorted(fwd) != list(FACE_CORNERS[g.a[1]]) \
                    or sorted(bwd) != list(FACE_CORNERS[g.b[1]]):
                raise ParseError(f"gluing {g.a}~{g.b}: corner map is not a "
                                 "bijection of the face corners")
            for side, cmap in ((g.a, fwd), (g.b, bwd)):
                if side in partner:
                    raise NotClosed(f"face {side} glued twice")
                other = g.b if side == g.a else g.a
                partner[side] = (other[0], other[1], cmap)
        for t in range(n):
            for f in range(4):
                if (t, f) not in partner:
                    raise NotClosed(f"face ({t}, {f}) is unglued")
        self._partner = partner

    def _build_classes(self, n: int) -> None:
        vuf = _UnionFind(4 * n)
        euf = _UnionFind(6 * n)
        fuf = _UnionFind(4 * n)
        for g in self.gluings:
            (ta, fa), (tb, fb) = g.a, g.b
            fuf.union(4 * ta + fa, 4 * tb + fb)
            cmap = {i: j for i, j in g.corner_map}
            for ca, cb in cmap.items():
                vuf.union(4 * ta + ca, 4 * tb + cb)
            for ca, cb in itertools.combinations(sorted(cmap), 2):
                ea = _EDGE_INDEX[(ca, cb)]
                eb = _EDGE_INDEX[(cmap[ca], cmap[cb])]
                euf.union(6 * ta + ea, 6 * tb + eb)

        def number(uf, count):
            ids, nxt = {}, 0
            out = []
            for i in range(count):
                r = uf.find(i)
                if r not in ids:
                    ids[r] = nxt
                    nxt += 1
                out.append(ids[r])
            return out, nxt

        vflat, self.n_vertices = number(vuf, 4 * n)
        eflat, self.n_edges = number(euf, 6 * n)
        fflat, self.n_faces = number(fuf, 4 * n)
        self._vc = tuple(tuple(vflat[4 * t:4 * t + 4]) for t in range(n))
        self._ec = tuple(tuple(eflat[6 * t:6 * t + 6]) for t in range(n))
        self._fc = tuple(tuple(fflat[4 * t:4 * t + 4]) for t in range(n))
        self._edge_inc: list[list[tuple[int, int]]] = [[] for _ in range(self.n_edges)]
        for t in range(n):
            for e in range(6):
                self._edge_inc[self._ec[t][e]].append((t, e))
        self._vertex_inc: list[list[tuple[int, int]]] = [[] for _ in range(self.n_vertices)]
        for t in range(n):
            for c in range(4):
                self._vertex_inc[self._vc[t][c]].append((t, c))

    def _check_orientations(self) -> None:
        # the gluing must reverse the boundary orientation of the face
        for g in self.gluings:
            (ta, fa), (tb, fb) = g.a, g.b
            cmap = {i: j for i, j in g.corner_map}
            images = [cmap[c] for c in FACE_CORNERS[fa]]
            want = -self.orientations[ta] * self.orientations[tb] \
                * (-1) ** (fa + fb)
            if _perm_sign(images) != want:
                raise NotOrientable(f"gluing {g.a}~{g.b} does not reverse "
                                    "the face orientation")

    def _check_quasi_regular(self) -> None:
        for t in range(len(self.orientations)):
            for e, (a, b) in enumerate(EDGE_CORNERS):
                if self._vc[t][a] == self._vc[t][b]:
                    raise NotQuasiRegular(f"edge ({t}, {e}) is a loop at "
                                          f"vertex {self._vc[t][a]}")

    # -- accessors ---------------------------------------------------

    @property
    def n_tets(self) -> int:
        return len(self.orientations)

    def vertex_class(self, t: int, corner: int) -> int:
        return self._vc[t][corner]

    def edge_class(self, t: int, e: int) -> int:
        return self._ec[t][e]

    def face_class(self, t: int, f: int) -> int:
        return self._fc[t][f]

    def partner(self, t: int, f: int) -> tuple[int, int, dict[int, int]]:
        return self._partner[(t, f)]

    def edge_incidences(self, cls: int) -> list[tuple[int, int]]:
        return list(self._edge_inc[cls])

    def vertex_incidences(self, cls: int) -> list[tuple[int, int]]:
        return list(self._vertex_inc[cls])

    def edge_ends(self, cls: int) -> tuple[int, int]:
        """Endpoint vertex classes of an edge class, as (low id, high id)."""
        t, e = self._edge_inc[cls][0]
        a, b = EDGE_CORNERS[e]
        u, w = self._vc[t][a], self._vc[t][b]
        return (u, w) if u < w else (w, u)

    def _checked_ranks(self, ranks) -> tuple[int, ...]:
        ranks = tuple(int(r) for r in ranks)
        if sorted(ranks) != list(range(self.n_vertices)):
            raise ParseError("vertex_ranks must be a permutation")
        return ranks

    def with_vertex_ranks(self, ranks) -> "TriComplex":
        """The same complex under new vertex ranks; shares the structure."""
        out = copy.copy(self)
        out.vertex_rank = self._checked_ranks(ranks)
        return out


# -- documents -------------------------------------------------------


@dataclass(frozen=True)
class Charge:
    """Half-integer edge charges per tetrahedron, stored doubled."""

    doubled: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class GGauge:
    """A group element per vertex class."""

    values: tuple[GroupElement, ...]


@dataclass(frozen=True)
class Scene:
    """A complex bundled with its link, coloring and charge."""

    complex: TriComplex
    link: frozenset[int]
    coloring: dict[int, GroupElement] | None = None
    charge: Charge | None = None


def load_complex(doc: dict) -> TriComplex:
    """Build and validate the bare complex of a triangulation document."""
    if not isinstance(doc, dict) or "tetrahedra" not in doc:
        raise ParseError("document must be an object with a 'tetrahedra' list")
    try:
        orientations = [int(t["orientation"]) for t in doc["tetrahedra"]]
        gluings = [
            Gluing((int(g["a"][0]), int(g["a"][1])),
                   (int(g["b"][0]), int(g["b"][1])),
                   tuple((int(i), int(j)) for i, j in g["corner_map"]))
            for g in doc.get("gluings", [])
        ]
    except (KeyError, TypeError, IndexError) as exc:
        raise ParseError(f"malformed document: {exc}") from exc
    return TriComplex(orientations, gluings)


def load_document(doc: dict) -> Scene:
    """Load a full document: complex, link, optional coloring and charge."""
    T = load_complex(doc)
    link = frozenset(T.edge_class(int(t), int(e)) for t, e in doc.get("link", []))
    coloring = None
    if "coloring" in doc:
        coloring = {}
        for entry in doc["coloring"]:
            try:
                t, e = (int(v) for v in entry["edge"])
                start = int(entry["from_corner"])
                x, y = (float(v) for v in entry["g"])
            except (KeyError, TypeError, ValueError) as exc:
                raise ParseError(f"malformed coloring entry: {exc}") from exc
            a, b = EDGE_CORNERS[e]
            if start not in (a, b):
                raise ParseError(f"coloring entry for ({t}, {e}): from_corner "
                                 f"{start} is not an endpoint")
            end = b if start == a else a
            try:
                g = GroupElement(x, y)
            except AlgebraError as exc:
                raise ParseError(str(exc)) from exc
            # canonical storage: color of the edge oriented low id -> high id
            if T.vertex_class(t, start) > T.vertex_class(t, end):
                g = group_inv(g)
            cls = T.edge_class(t, e)
            if cls in coloring and not group_close(coloring[cls], g, 1e-10):
                raise ParseError(f"conflicting colors for edge class {cls}")
            coloring[cls] = g
        missing = set(range(T.n_edges)) - set(coloring)
        if missing:
            raise ParseError(f"coloring misses edge classes {sorted(missing)}")
        _check_cocycle(T, coloring)
    charge = None
    if "charge" in doc:
        vals = [[None] * 6 for _ in range(T.n_tets)]
        for entry in doc["charge"]:
            t, e, d = int(entry["tet"]), int(entry["edge_index"]), int(entry["doubled"])
            if not (0 <= t < T.n_tets and 0 <= e < 6):
                raise ParseError(f"charge entry references missing edge ({t}, {e})")
            for slot in (e, OPPOSITE_EDGE[e]):
                if vals[t][slot] is not None and vals[t][slot] != d:
                    raise ParseError(f"conflicting charge at ({t}, {slot})")
                vals[t][slot] = d
        for t, row in enumerate(vals):
            if any(v is None for v in row):
                raise ParseError(f"charge misses edges of tetrahedron {t}")
        charge = Charge(tuple(tuple(row) for row in vals))
    return Scene(T, link, coloring, charge)


def scene_document(scene: Scene) -> dict:
    """Serialize a scene back to the document format (canonical layout)."""
    T = scene.complex
    doc: dict = {
        "tetrahedra": [{"orientation": o} for o in T.orientations],
        "gluings": [
            {"a": list(g.a), "b": list(g.b),
             "corner_map": [list(p) for p in sorted(g.corner_map)]}
            for g in T.gluings
        ],
    }
    if scene.link:
        reps = []
        for cls in sorted(scene.link):
            reps.append(list(T.edge_incidences(cls)[0]))
        doc["link"] = reps
    if scene.coloring is not None:
        entries = []
        for cls in sorted(scene.coloring):
            t, e = T.edge_incidences(cls)[0]
            a, b = EDGE_CORNERS[e]
            lo, _ = T.edge_ends(cls)
            start = a if T.vertex_class(t, a) == lo else b
            g = scene.coloring[cls]
            entries.append({"edge": [t, e], "from_corner": start,
                            "g": [g.x, g.y]})
        doc["coloring"] = entries
    if scene.charge is not None:
        entries = []
        for t in range(T.n_tets):
            for e in _PAIR_REPS:
                entries.append({"tet": t, "edge_index": e,
                                "doubled": scene.charge.doubled[t][e]})
        doc["charge"] = entries
    return doc


# per face, the corners a < b < c and the edge slots of ab, bc and ac
_FACE_TRIANGLES = tuple(
    (a, b, c, _EDGE_INDEX[(a, b)], _EDGE_INDEX[(b, c)], _EDGE_INDEX[(a, c)])
    for a, b, c in FACE_CORNERS)


def _check_cocycle(T: TriComplex, coloring: dict[int, GroupElement],
                   tol: float = 1e-10) -> None:
    """g_ab g_bc = g_ac on every face, to ``group_close`` tolerance.

    ``color_of`` inlined on floats: each class's color and its inverse,
    computed as ``group_inv`` does, then the product of ``group_mul``.
    """
    colors = {cls: (g.x, g.y, -g.x / g.y, 1.0 / g.y)
              for cls, g in coloring.items()}
    for t in range(T.n_tets):
        vc, ec = T._vc[t], T._ec[t]
        for f, (a, b, c, e_ab, e_bc, e_ac) in enumerate(_FACE_TRIANGLES):
            # color of the edge a -> b: forward when vc[a] < vc[b]
            x1, y1, ix, iy = colors[ec[e_ab]]
            if vc[a] > vc[b]:
                x1, y1 = ix, iy
            x2, y2, ix, iy = colors[ec[e_bc]]
            if vc[b] > vc[c]:
                x2, y2 = ix, iy
            x3, y3, ix, iy = colors[ec[e_ac]]
            if vc[a] > vc[c]:
                x3, y3 = ix, iy
            x, y = x1 + y1 * x2, y1 * y2
            # GroupElement refuses these: an inverse of y = inf, an
            # underflowed product
            if not (y > 0 and y3 > 0):
                raise BadOperands(f"face ({t}, {f}): an edge color leaves "
                                  "the group")
            if not (abs(x - x3) <= tol * max(1.0, abs(x))
                    and abs(y - y3) <= tol * max(1.0, abs(y))):
                raise BadColoring(f"face ({t}, {f}): edge colors do not "
                                  "satisfy the cocycle condition")


def color_of(T: TriComplex, coloring: dict[int, GroupElement],
             t: int, c_from: int, c_to: int) -> GroupElement:
    """Color of the oriented edge of a tetrahedron given by two corners.

    Colors are stored for the orientation low -> high vertex id, and
    quasi-regularity makes the two end classes distinct.
    """
    g = coloring[T.edge_class(t, _EDGE_INDEX[(c_from, c_to)])]
    if T.vertex_class(t, c_from) < T.vertex_class(t, c_to):
        return g
    return group_inv(g)


# -- links and charges ----------------------------------------------


def validate_link(T: TriComplex, link: frozenset[int]) -> None:
    """Check the Hamiltonian condition: every vertex on exactly two link edges."""
    degree = [0] * T.n_vertices
    for cls in link:
        if not (0 <= cls < T.n_edges):
            raise NotHamiltonian(f"unknown edge class {cls}")
        u, w = T.edge_ends(cls)
        degree[u] += 1
        degree[w] += 1
    for v, d in enumerate(degree):
        if d != 2:
            raise NotHamiltonian(f"vertex {v} lies on {d} link edges, not 2")


def _edge_target(link: frozenset[int], cls: int) -> int:
    return 0 if cls in link else 2


# with |x|, |y| and |q*y| below this bound, x - q*y cannot wrap int64
_INT64_SAFE = 2**62


def _max_abs(*arrays) -> int:
    return max((max(-int(a.min()), int(a.max())) for a in arrays if a.size),
               default=0)


def _smith_solve(rows: list[list[int]], rhs: list[int],
                 nvars: int) -> tuple[list[int], list[list[int]]] | None:
    """Solve an integer linear system; return (particular, kernel basis).

    Diagonalizes by elementary row and column operations over the
    integers (Kannan & Bachem, SIAM J. Comput. 1979), tracking column
    operations to map back to the original variables.  Returns None when
    no integral solution exists.  The result is a function of the system
    alone: runs on int64 arrays, and reruns the same elimination on Python
    ints when an entry could leave int64.
    """
    try:
        return _smith_eliminate(rows, rhs, nvars, np.int64)
    except OverflowError:
        return _smith_eliminate(rows, rhs, nvars, object)


def _smith_eliminate(rows, rhs, nvars, dtype):
    """The elimination of ``_smith_solve`` on arrays of ``dtype``.

    One array holds the system and the column record, ``[[A, b], [V, 0]]``,
    so a row operation on A carries b along and a column operation carries
    V.  Step k swaps the first entry of least nonzero |.| at or beyond
    (k, k), in row-major order, into (k, k).  Sweeps then clear column k
    below the pivot and row k right of it; an entry the pivot does not
    divide leaves its remainder, which is swapped in as the pivot (Euclid).
    A run of entries the pivot divides is cleared in one array operation:
    the pivot cannot change within the run, so this is the entry-by-entry
    elimination exactly.  On int64 the entries are bounded before every
    operation, and OverflowError is raised before any could wrap.
    """
    m = len(rows)
    W = np.zeros((m + nvars, nvars + 1), dtype=dtype)
    W[:m, :nvars] = np.array(rows, dtype=dtype).reshape(m, nvars)
    W[:m, nvars] = rhs
    W[m + np.arange(nvars), np.arange(nvars)] = 1
    exact = dtype is object
    bound = _max_abs(W)    # at least every |entry| of W

    def guard(q):
        nonlocal bound
        if exact:
            return
        step = 1 + int(np.abs(q).max())
        if bound * step >= _INT64_SAFE:
            bound = _max_abs(W)
            if bound * step >= _INT64_SAFE:
                raise OverflowError("integer elimination leaves int64")
        bound *= step

    def sweep(P, k) -> bool:
        # clear P[k+1:, k] by operations on the rows of P
        dirty = False
        i = k + 1
        while i < len(P):
            col, pivot = P[i:, k], P[k, k]
            left = (col % pivot).nonzero()[0]    # rows leaving a remainder
            end = i + int(left[0]) + 1 if left.size else len(P)
            q = col[:end - i] // pivot
            hit = q.nonzero()[0]
            if hit.size:
                q = q[hit]
                guard(q)
                P[i + hit] -= np.outer(q, P[k])
            if not left.size:
                break
            P[[k, end - 1]] = P[[end - 1, k]]
            dirty = True
            i = end
        return dirty

    if not exact and bound >= _INT64_SAFE:
        raise OverflowError("integer system exceeds int64")
    rank = 0
    by_rows, by_columns = W[:m], W[:, :nvars].T
    for k in range(min(m, nvars)):
        mag = np.abs(W[k:m, k:nvars])
        nonzero = mag[mag != 0]
        if not nonzero.size:
            break
        i, j = divmod(int(np.argmax(mag == nonzero.min())), nvars - k)
        if i:
            W[[k, k + i]] = W[[k + i, k]]
        if j:
            W[:, [k, k + j]] = W[:, [k + j, k]]
        while sweep(by_rows, k) | sweep(by_columns, k):
            pass
        rank += 1
    pivots, b, V = W[:rank, :rank].diagonal(), W[:m, nvars], W[m:, :nvars]
    if (b[:rank] % pivots).any() or b[rank:].any():
        return None
    y = np.zeros(nvars, dtype=dtype)
    y[:rank] = b[:rank] // pivots
    if not exact and _max_abs(V) * _max_abs(y) * nvars >= 2**63:
        raise OverflowError("integer solution leaves int64")
    return (V @ y).tolist(), V[:, rank:].T.tolist()


def _charge_rows(T: TriComplex, link: frozenset[int], tets: list[int],
                 fixed: dict[int, int] | None = None):
    """Rows of the doubled charge system over the pair variables of ``tets``.

    ``fixed`` maps a tetrahedron to known doubled values (6-slot rows) for
    tetrahedra outside ``tets``; their contributions move to the right side.
    """
    var_of = {(t, p): 3 * i + p for i, t in enumerate(tets) for p in range(3)}
    rows, rhs = [], []
    for t in tets:
        row = [0] * (3 * len(tets))
        for p in range(3):
            row[var_of[(t, p)]] = 1
        rows.append(row)
        rhs.append(1)
    touched = sorted({T.edge_class(t, e) for t in tets for e in range(6)})
    for cls in touched:
        row = [0] * (3 * len(tets))
        target = _edge_target(link, cls)
        for (t, e) in T.edge_incidences(cls):
            if (t, _PAIR_OF_EDGE[e]) in var_of:
                row[var_of[(t, _PAIR_OF_EDGE[e])]] += 1
            else:
                target -= fixed[t][e]
        rows.append(row)
        rhs.append(target)
    return rows, rhs, var_of


def find_charge(T: TriComplex, link: frozenset[int]) -> Charge:
    """Solve the global charge system for an integral solution.

    The solution is deterministic: the particular solution of
    ``_smith_solve``, a function of the complex and the link alone.
    """
    validate_link(T, link)
    tets = list(range(T.n_tets))
    rows, rhs, _ = _charge_rows(T, link, tets)
    sol = _smith_solve(rows, rhs, 3 * T.n_tets)
    if sol is None:
        raise NoCharge("the charge system has no half-integer solution")
    x, _ = sol
    doubled = tuple(
        tuple(x[3 * t + _PAIR_OF_EDGE[e]] for e in range(6))
        for t in range(T.n_tets)
    )
    charge = Charge(doubled)
    validate_charge(T, link, charge)
    return charge


def validate_charge(T: TriComplex, link: frozenset[int], c: Charge) -> None:
    if len(c.doubled) != T.n_tets or any(len(r) != 6 for r in c.doubled):
        raise BadCharge("charge shape does not match the complex")
    for t, row in enumerate(c.doubled):
        for e in range(6):
            if row[e] != row[OPPOSITE_EDGE[e]]:
                raise BadCharge(f"tetrahedron {t}: opposite edges {e}, "
                                f"{OPPOSITE_EDGE[e]} carry different charges")
        if row[0] + row[1] + row[2] != 1:
            raise BadCharge(f"tetrahedron {t}: face sum is not 1/2")
    for cls in range(T.n_edges):
        total = sum(c.doubled[t][e] for t, e in T.edge_incidences(cls))
        if total != _edge_target(link, cls):
            raise BadCharge(f"edge class {cls}: incidence sum {total}/2, "
                            f"expected {_edge_target(link, cls)}/2")


def _edge_walk(T: TriComplex, t0: int, e0: int):
    """Walk once around an edge in the positive direction.

    Yields one step per incidence: (tet, edge slot, low corner, top corner,
    exit face, third corner of the exit face).  The top corner is the one
    over the higher-ranked endpoint; positivity follows the manifold
    orientation around the edge directed towards that endpoint.
    """
    a, b = EDGE_CORNERS[e0]
    ra = T.vertex_rank[T.vertex_class(t0, a)]
    rb = T.vertex_rank[T.vertex_class(t0, b)]
    p, q = (a, b) if ra < rb else (b, a)
    t, s = t0, e0
    steps = []
    while True:
        c, d = EDGE_CORNERS[OPPOSITE_EDGE[s]]
        if _perm_sign((p, q, c, d)) * T.orientations[t] > 0:
            r_from, r_to = c, d     # rotation carries c towards d
        else:
            r_from, r_to = d, c
        steps.append((t, s, p, q, r_from, r_to))
        t2, _, cmap = T.partner(t, r_from)
        p2, q2 = cmap[p], cmap[q]
        t, s, p, q = t2, _EDGE_INDEX[(p2, q2)], p2, q2
        if (t, s) == (t0, e0):
            break
        if len(steps) > 6 * T.n_tets:
            raise TopologyError("edge walk failed to close")
    if len(steps) != len(T.edge_incidences(T.edge_class(t0, e0))):
        raise TopologyError("edge walk does not cover the edge class")
    return steps


def deform_charge(T: TriComplex, link: frozenset[int], c: Charge,
                  edge_cls: int) -> Charge:
    """Add the elementary deformation of one edge class to a charge.

    Walking around the edge in the positive direction, each crossed face
    contributes +1/2 on the near side and -1/2 on the far side to the
    edge of that face which joins the top endpoint to the equator; the
    deformation preserves every charge constraint and the mod-2 class.
    """
    t0, e0 = T.edge_incidences(edge_cls)[0]
    delta = [[0] * 6 for _ in range(T.n_tets)]

    def bump(t, slot, amount):
        delta[t][slot] += amount
        delta[t][OPPOSITE_EDGE[slot]] += amount

    for (t, s, p, q, r_from, r_to) in _edge_walk(T, t0, e0):
        e_i = _EDGE_INDEX[(q, r_to)]
        bump(t, e_i, +1)
        t2, _, cmap = T.partner(t, r_from)
        bump(t2, _EDGE_INDEX[(cmap[q], cmap[r_to])], -1)
    out = Charge(tuple(
        tuple(c.doubled[t][e] + delta[t][e] for e in range(6))
        for t in range(T.n_tets)
    ))
    validate_charge(T, link, out)
    return out


def charge_class(T: TriComplex, c: Charge,
                 loop: list[tuple[int, int, int]]) -> int:
    """Mod-2 class of a charge on a loop of tetrahedron passages.

    ``loop`` lists (tetrahedron, entering face, departing face); each
    consecutive pair must be glued, and the loop must close up.
    """
    if not loop:
        raise BadLoop("empty loop")
    total = 0
    for idx, (t, f_in, f_out) in enumerate(loop):
        if f_in == f_out:
            raise BadLoop(f"passage {idx} exits through the entering face")
        if not (0 <= t < T.n_tets and 0 <= f_in < 4 and 0 <= f_out < 4):
            raise BadLoop(f"passage {idx} references missing cells")
        t_next, f_next, _ = T.partner(t, f_out)
        want = loop[(idx + 1) % len(loop)]
        if (t_next, f_next) != (want[0], want[1]):
            raise BadLoop(f"passages {idx} and {idx + 1} are not glued")
        common = [c2 for c2 in range(4) if c2 not in (f_in, f_out)]
        total += c.doubled[t][_EDGE_INDEX[tuple(common)]]
    return total % 2


# -- moves -----------------------------------------------------------


def _check_range(value: int, limit: int, label: str) -> None:
    if not 0 <= value < limit:
        raise MoveNotApplicable(f"{label} {value} out of range [0, {limit})")


def _regular(g: GroupElement, margin: float = 1e-6) -> bool:
    """``g`` stays ``margin`` inside the regular part in both orientations."""
    return not (abs(g.x) < margin or abs(g.x) / g.y < margin)


def _transport_coloring(T_old, coloring, T_new, edge_map, vertex_map,
                        new_edges):
    """Carry edge colors across a move.

    ``edge_map`` and ``vertex_map`` send surviving old classes to new ones;
    ``new_edges`` maps the edge classes the move creates to their colors,
    each oriented from the first to the second new vertex class given.
    """
    out: dict[int, GroupElement] = {}
    for cls, g in coloring.items():
        if cls in edge_map:
            cls2, lo = edge_map[cls], vertex_map[T_old.edge_ends(cls)[0]]
            out[cls2] = g if lo == T_new.edge_ends(cls2)[0] else group_inv(g)
    for cls2, (u, g) in new_edges.items():
        out[cls2] = g if u == T_new.edge_ends(cls2)[0] else group_inv(g)
    missing = set(range(T_new.n_edges)) - set(out)
    if missing:
        raise TopologyError(f"coloring transport missed classes {sorted(missing)}")
    _check_cocycle(T_new, out)
    return out


def _transport_charge(T_new, link_new, rows, new_tets: range) -> Charge:
    """Complete the surviving charge ``rows`` over the tetrahedra created by
    a move.

    Solves the local doubled system (tetrahedron sums plus incidence sums
    of every touched edge class, with surviving charges fixed) and picks
    the minimal-norm integral solution, ties broken lexicographically
    over (tetrahedron, edge) doubled values.  The surviving rows are the
    same in every candidate, so the key holds the rows of ``new_tets``
    only, in increasing order.
    """
    eqs, rhs, _ = _charge_rows(T_new, link_new, list(new_tets),
                               fixed={t: r for t, r in enumerate(rows)
                                      if r is not None})
    sol = _smith_solve(eqs, rhs, 3 * len(new_tets))
    if sol is None:
        raise NoCharge("charge transport system is inconsistent")
    x0, kernel = sol
    best = None
    if kernel and len(kernel) <= 4:
        K = np.array(kernel, dtype=float).T
        lam, *_ = np.linalg.lstsq(K, -np.array(x0, dtype=float), rcond=None)
        grids = [range(int(np.floor(v)) - 1, int(np.ceil(v)) + 2) for v in lam]
        for combo in itertools.product(*grids):
            x = [x0[j] + sum(c * kernel[i][j] for i, c in enumerate(combo))
                 for j in range(len(x0))]
            flat = tuple(x[3 * i + _PAIR_OF_EDGE[e]]
                         for i in range(len(new_tets)) for e in range(6))
            key = (sum(v * v for v in flat), flat)
            if best is None or key < best[0]:
                best = (key, x)
        x0 = best[1]
    for i, t in enumerate(new_tets):
        rows[t] = [x0[3 * i + _PAIR_OF_EDGE[e]] for e in range(6)]
    out = Charge(tuple(tuple(r) for r in rows))
    validate_charge(T_new, link_new, out)
    return out


def _swap_star(scene: Scene, removed, new, glue=(), link=None, new_link=(),
               new_colors=None) -> Scene:
    """Replace a star by another star with the same boundary.

    Every corner is tagged by its vertex class; a vertex the move creates
    is tagged ``T.n_vertices`` (and up), so it ranks after every old one.
    The move names the ``removed`` tetrahedra and lists the ``new`` ones
    as (tag tuple, orientation); each tuple is sorted by rank here, its
    orientation following the permutation.  Kept tetrahedra keep their
    order and the new ones follow.

    The gluings come from the tag triples of faces.  An old gluing with
    one side removed leaves its other side as an end of the old star's
    boundary, and each new face is an end.  The kept faces in ``glue``
    are unglued from each other, and the k-th of them meets the k-th new
    face with its triple.  Every other triple must belong to exactly two
    ends, and those two are glued.

    ``link`` is the edited link in old classes (default: unchanged) and
    ``new_link`` adds new edges as tag pairs; ``new_colors`` maps a tag
    pair to the color of the new edge oriented from the first tag.
    """
    T = scene.complex
    keep = [t for t in range(T.n_tets) if t not in removed]
    keep_index = {t: i for i, t in enumerate(keep)}
    base = len(keep)

    def rank(tag):
        return T.vertex_rank[tag] if tag < T.n_vertices else tag

    tets, orientations = [], [T.orientations[t] for t in keep]
    for tags, o in new:
        s = tuple(sorted(tags, key=rank))
        tets.append(s)
        orientations.append(o * _perm_sign([tags.index(tag) for tag in s]))

    def kept_end(t, f):
        tag_at = {T.vertex_class(t, c): c for c in FACE_CORNERS[f]}
        return (keep_index[t], f), tag_at

    ends: dict[frozenset, list] = {}
    gluings = []
    for g in T.gluings:
        if g.a in glue:
            continue
        out_a, out_b = g.a[0] in removed, g.b[0] in removed
        if not (out_a or out_b):
            gluings.append(Gluing((keep_index[g.a[0]], g.a[1]),
                                  (keep_index[g.b[0]], g.b[1]), g.corner_map))
        elif not (out_a and out_b):
            side, tag_at = kept_end(*(g.b if out_a else g.a))
            ends.setdefault(frozenset(tag_at), []).append((side, tag_at))
    for i, s in enumerate(tets):
        for f in range(4):
            tag_at = {s[c]: c for c in FACE_CORNERS[f]}
            ends.setdefault(frozenset(tag_at), []).append(((base + i, f), tag_at))
    pairs = []
    for side in glue:
        end = kept_end(*side)
        pairs.append((end, ends[frozenset(end[1])].pop(0)))
    for triple, those in ends.items():
        if len(those) not in (0, 2):
            raise TopologyError(f"face {sorted(triple)} has {len(those)} "
                                "ends after the move")
        if those:
            pairs.append(those)
    for (sa, ta), (sb, tb) in pairs:
        gluings.append(Gluing(sa, sb, tuple(sorted((ta[v], tb[v]) for v in ta))))
    T_new = TriComplex(orientations, gluings)

    vertex_map = {T.vertex_class(t, c): T_new.vertex_class(i, c)
                  for t, i in keep_index.items() for c in range(4)}
    for i, s in enumerate(tets):
        vertex_map.update((tag, T_new.vertex_class(base + i, c))
                          for c, tag in enumerate(s))
    if len(vertex_map) != T_new.n_vertices:
        raise TopologyError("vertex bookkeeping failed during the move")
    ranks = [0] * T_new.n_vertices
    for r, tag in enumerate(sorted(vertex_map, key=rank)):
        ranks[vertex_map[tag]] = r
    T_new = T_new.with_vertex_ranks(ranks)
    edge_map = {T.edge_class(t, e): T_new.edge_class(i, e)
                for t, i in keep_index.items() for e in range(6)}

    def new_edge(u, w):
        i, s = next((i, s) for i, s in enumerate(tets) if u in s and w in s)
        return T_new.edge_class(base + i, _EDGE_INDEX[(s.index(u), s.index(w))])

    link_new = {new_edge(u, w) for u, w in new_link}
    for cls in scene.link if link is None else link:
        if cls not in edge_map:
            raise TopologyError(f"link class {cls} lost by the move")
        link_new.add(edge_map[cls])
    link_new = frozenset(link_new)
    validate_link(T_new, link_new)
    coloring = None
    if scene.coloring is not None:
        coloring = _transport_coloring(
            T, scene.coloring, T_new, edge_map, vertex_map,
            {new_edge(u, w): (vertex_map[u], g)
             for (u, w), g in (new_colors or {}).items()})
    charge = None
    if scene.charge is not None:
        rows = [list(scene.charge.doubled[t]) for t in keep] + [None] * len(new)
        charge = _transport_charge(T_new, link_new, rows,
                                   range(base, base + len(new)))
    return Scene(T_new, link_new, coloring, charge)


def pachner_plus(scene: Scene, tet: int, face: int) -> Scene:
    """The 2 -> 3 move at a face: replace the two adjacent tetrahedra by
    three around a new interior edge joining the opposite corners."""
    T = scene.complex
    _check_range(tet, T.n_tets, "tet")
    _check_range(face, 4, "face")
    tb, fb, cmap = T.partner(tet, face)
    if tb == tet:
        raise MoveNotApplicable("the face is glued to its own tetrahedron")
    wA = FACE_CORNERS[face]
    uA, uB = T.vertex_class(tet, face), T.vertex_class(tb, fb)
    if uA == uB:
        raise MoveNotApplicable("apex vertices coincide; the new edge "
                                "would be a loop")
    w0, w1, w2 = (T.vertex_class(tet, c) for c in wA)
    o = T.orientations[tet] * _perm_sign((wA[0], face, wA[1], wA[2]))
    new_colors = {}
    if scene.coloring is not None:
        g = group_mul(color_of(T, scene.coloring, tet, face, wA[0]),
                      color_of(T, scene.coloring, tb, cmap[wA[0]], fb))
        if not _regular(g):
            raise AdmissibilityFailed("the induced color of the new edge "
                                      "is out of the regular part")
        new_colors[uA, uB] = g
    return _swap_star(scene, {tet, tb},
                      [((w0, uA, w1, uB), o), ((w0, uA, uB, w2), o),
                       ((uA, w1, uB, w2), o)], new_colors=new_colors)


def pachner_minus(scene: Scene, tet: int, edge: int) -> Scene:
    """The 3 -> 2 move at an interior edge of degree three (not in the link)."""
    T = scene.complex
    _check_range(tet, T.n_tets, "tet")
    _check_range(edge, 6, "edge")
    cls = T.edge_class(tet, edge)
    if cls in scene.link:
        raise MoveNotApplicable("the edge belongs to the link")
    steps = _edge_walk(T, *T.edge_incidences(cls)[0])
    if len(steps) != 3:
        raise MoveNotApplicable(f"edge class {cls} has degree {len(steps)}, "
                                "need exactly 3")
    tets3 = {s[0] for s in steps}
    if len(tets3) != 3:
        raise MoveNotApplicable("the three tetrahedra around the edge "
                                "are not distinct")
    # the first step's tetrahedron covers the sector w0 -> w1 around p -> q
    (t0, _, p0, q0, r_from, r_to), (t1, *_, r_next) = steps[:2]
    p, q = T.vertex_class(t0, p0), T.vertex_class(t0, q0)
    w0, w1 = T.vertex_class(t0, r_to), T.vertex_class(t0, r_from)
    w2 = T.vertex_class(t1, r_next)
    if len({p, q, w0, w1, w2}) != 5:
        raise MoveNotApplicable("equator or apex vertices coincide")
    o = T.orientations[t0] * _perm_sign((r_to, p0, r_from, q0))
    return _swap_star(scene, tets3, [((w0, p, w1, w2), o), ((w0, w1, q, w2), o)])


def bubble_plus(scene: Scene, tet: int, face: int,
                link_slot: int | None = None) -> Scene:
    """The positive bubble move at a face with a link edge.

    Unglues the face, inserts a two-tetrahedron ball around a new vertex,
    and reroutes the link edge through the new vertex.
    """
    T = scene.complex
    _check_range(tet, T.n_tets, "tet")
    _check_range(face, 4, "face")
    tb, fb, _ = T.partner(tet, face)
    corners = FACE_CORNERS[face]
    link_slots = [
        _EDGE_INDEX[(a, b)] for a, b in itertools.combinations(corners, 2)
        if T.edge_class(tet, _EDGE_INDEX[(a, b)]) in scene.link
    ]
    if link_slot is None:
        if not link_slots:
            raise MoveNotApplicable("the face has no link edge")
        link_slot = link_slots[0]
    elif link_slot not in link_slots:
        raise MoveNotApplicable(f"edge ({tet}, {link_slot}) is not a link "
                                "edge of the face")
    w = {c: T.vertex_class(tet, c) for c in corners}
    top = T.n_vertices
    new_colors = {}
    if scene.coloring is not None:
        for g_top in _GENERIC_TOPS:
            colors = {(w[c], top): g_top if c == corners[0] else group_mul(
                color_of(T, scene.coloring, tet, c, corners[0]), g_top)
                for c in corners}
            if all(map(_regular, colors.values())):
                new_colors = colors
                break
        else:
            raise AdmissibilityFailed("no admissible color for the new "
                                      "vertex edges")
    # the two new tetrahedra share every face but the one over the cut;
    # this sign makes (tet, face) meet the first one reversing orientation
    tags = (*w.values(), top)
    o = T.orientations[tet] * (-1) ** face
    va, vb = EDGE_CORNERS[link_slot]
    return _swap_star(scene, set(), [(tags, o), (tags, -o)],
                      glue=((tet, face), (tb, fb)),
                      link=scene.link - {T.edge_class(tet, link_slot)},
                      new_link=((w[va], top), (w[vb], top)),
                      new_colors=new_colors)


_GENERIC_TOPS = tuple(
    GroupElement(x, y) for x, y in
    ((0.6180339887498949, 1.0), (-0.7320508075688772, 1.2),
     (1.4142135623730951, 0.8), (-0.3819660112501051, 1.5),
     (0.2360679774997896, 0.7), (-1.618033988749895, 1.1))
)


def bubble_minus(scene: Scene, vertex: int) -> Scene:
    """The negative bubble move: remove a two-tetrahedron ball around a
    vertex of the link with exactly two incident tetrahedra."""
    T = scene.complex
    _check_range(vertex, T.n_vertices, "vertex")
    inc = T.vertex_incidences(vertex)
    if len(inc) != 2:
        raise MoveNotApplicable(f"vertex {vertex} lies in {len(inc)} "
                                "tetrahedron corners, need exactly 2")
    (t1, c1), (t2, c2) = inc
    if t1 == t2:
        raise MoveNotApplicable("the two corners lie in one tetrahedron")
    if any(T.partner(t1, f)[0] != t2 for f in range(4) if f != c1):
        raise MoveNotApplicable("the ball around the vertex is not "
                                "two tetrahedra glued along three faces")
    link_at = {cls for cls in scene.link if vertex in T.edge_ends(cls)}
    if len(link_at) != 2:
        raise MoveNotApplicable("the vertex does not lie on exactly two "
                                "link edges")
    ends = {u for cls in link_at for u in T.edge_ends(cls)} - {vertex}
    if len(ends) != 2:
        raise MoveNotApplicable("the two link edges at the vertex share "
                                "both endpoints")
    if T.partner(t1, c1)[0] in (t1, t2) or T.partner(t2, c2)[0] in (t1, t2):
        raise MoveNotApplicable("the ball boundary is glued to the ball")
    # the restored link edge joins the two outer endpoints, on the face of
    # t1 opposite the vertex
    a, b = (c for c in range(4) if T.vertex_class(t1, c) in ends)
    restored = T.edge_class(t1, _EDGE_INDEX[(a, b)])
    return _swap_star(scene, {t1, t2}, [],
                      link=scene.link - link_at | {restored})


# -- gauges and admissibility ---------------------------------------


def gauge_transform(T: TriComplex, coloring: dict[int, GroupElement],
                    gauge: GGauge) -> dict[int, GroupElement]:
    """Act on a coloring: conjugate each edge color by the endpoint gauges."""
    out = {}
    for cls, g in coloring.items():
        lo, hi = T.edge_ends(cls)
        out[cls] = group_mul(gauge.values[lo],
                             group_mul(g, group_inv(gauge.values[hi])))
    return out


def point_gauge(T: TriComplex, vertex: int, g: GroupElement) -> GGauge:
    vals = [GroupElement(0.0, 1.0)] * T.n_vertices
    vals[vertex] = g
    return GGauge(tuple(vals))


def random_gauge(T: TriComplex, rng: np.random.Generator) -> GGauge:
    vals = []
    for _ in range(T.n_vertices):
        x = float(rng.uniform(0.2, 1.5) * rng.choice([-1.0, 1.0]))
        y = float(rng.uniform(0.6, 1.6))
        vals.append(GroupElement(x, y))
    return GGauge(tuple(vals))


def is_admissible(coloring: dict[int, GroupElement],
                  margin: float = 1e-6) -> bool:
    """All edge colors (in both orientations) stay in the regular part."""
    return all(_regular(g, margin) for g in coloring.values())


def make_admissible(T: TriComplex, coloring: dict[int, GroupElement],
                    rng: np.random.Generator, margin: float = 1e-6,
                    budget: int = 100) -> dict[int, GroupElement]:
    """Gauge away bad vertices by random point gauges until admissible."""
    current = dict(coloring)
    for _ in range(budget):
        bad = next((cls for cls, g in sorted(current.items())
                    if not _regular(g, margin)), None)
        if bad is None:
            return current
        x = float(rng.uniform(0.3, 1.5) * rng.choice([-1.0, 1.0]))
        y = float(rng.uniform(0.6, 1.6))
        current = gauge_transform(
            T, current, point_gauge(T, T.edge_ends(bad)[0], GroupElement(x, y)))
    raise AdmissibilityFailed(f"still inadmissible after {budget} gauges")


def edge_between(T: TriComplex, u: int, w: int) -> int:
    """The unique edge class with endpoint classes {u, w}; errors if not unique."""
    found = [cls for cls in range(T.n_edges)
             if set(T.edge_ends(cls)) == {u, w}]
    if len(found) != 1:
        raise TopologyError(f"{len(found)} edge classes join vertices "
                            f"{u} and {w}")
    return found[0]


def holonomy(T: TriComplex, coloring: dict[int, GroupElement],
             vertices: list[int]) -> GroupElement:
    """Product of edge colors along a closed vertex path (unique edges only)."""
    total = GroupElement(0.0, 1.0)
    n = len(vertices)
    for i in range(n):
        u, w = vertices[i], vertices[(i + 1) % n]
        cls = edge_between(T, u, w)
        g = coloring[cls]
        lo, _ = T.edge_ends(cls)
        total = group_mul(total, g if u == lo else group_inv(g))
    return total
