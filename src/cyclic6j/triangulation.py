"""Quasi-regular triangulations of closed oriented 3-manifolds.

A complex is a list of oriented tetrahedra plus a perfect matching of
their faces, held as one integer array with a row per gluing (its two
sides and its three corner pairs).  Checks and vertex, edge and face
classes are array operations on it; classes are numbered by first
appearance in (tetrahedron, local index) order.  On top of the bare
complex live:

* Hamiltonian links (edge sets covering every vertex exactly twice),
* half-integer charges (stored as doubled integers) with per-face sums
  1/2 and global edge sums 1 (plain edge) or 0 (link edge),
* G-colorings: group-valued 1-cocycles on oriented edges, with vertex
  gauges acting on them,
* the local moves connecting any two such triangulations of the same
  pair (manifold, link): Pachner 2<->3 and bubble.

Every move swaps a star for another star with the same boundary, and one
routine, ``_swap_star``, carries it out: a move checks that it applies,
names the tetrahedra it removes and lists the new ones by the vertex
classes of their corners.  The routine glues faces by matching vertex
triples and carries the ranks, link, coloring and charge across.

Local index conventions (normative for the JSON format): corners 0..3,
face f is opposite corner f, edges 0..5 enumerate the corner pairs
(0,1),(0,2),(0,3),(1,2),(1,3),(2,3), opposite edge pairs (0,5),(1,4),(2,3).
"""
from __future__ import annotations

import copy
import itertools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .algebra import (AlgebraError, BadOperands, GroupElement, group_close,
                      group_inv, group_mul)

__all__ = [
    "TopologyError", "ParseError", "NotClosed", "NotQuasiRegular",
    "NotOrientable", "NotHamiltonian", "NoCharge", "BadCharge", "BadLoop",
    "BadColoring", "MoveNotApplicable", "AdmissibilityFailed",
    "EDGE_CORNERS", "OPPOSITE_EDGE", "FACE_CORNERS",
    "Gluing", "TriComplex", "DoubledCharge", "Gauge", "Scene",
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
_EDGE_INDEX = {pair: e for e, (a, b) in enumerate(EDGE_CORNERS)
               for pair in ((a, b), (b, a))}
_PAIR_OF_EDGE = (0, 1, 2, 2, 1, 0)
_PAIR_REPS = (0, 1, 2)  # edge slots representing the three opposite pairs


def _perm_sign(seq) -> int:
    inversions = sum(a > b for a, b in itertools.combinations(seq, 2))
    return -1 if inversions % 2 else 1


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


_FACE_CORNER_ARRAY = np.array(FACE_CORNERS)
_EDGE_ENDS = np.array(EDGE_CORNERS).T
_EDGE_SLOT = np.array([[_EDGE_INDEX.get((a, b), -1) for b in range(4)]
                       for a in range(4)])  # edge slot of a corner pair
_SIGN = np.zeros((4,) * 4, dtype=np.int64)  # 0 off the permutations
for _p in itertools.permutations(range(4)):
    _SIGN[_p] = _perm_sign(_p)
# the checks of one gluing, in the order they are reported
_GLUING_FAULTS = (
    (ParseError, "gluing references missing face {a}"),
    (ParseError, "gluing references missing face {b}"),
    (ParseError, "face {a} glued to itself"),
    (ParseError, "gluing {a}~{b}: corner map is not a bijection of the face "
                 "corners"),
    (NotClosed, "face {a} glued twice"),
    (NotClosed, "face {b} glued twice"))


def _classes(*kinds: tuple[int, np.ndarray, np.ndarray]) -> list:
    """Per ``(size, a, b)`` of ``kinds``, the classes of ``a[i] ~ b[i]`` on
    ``range(size)``: each slot's class, numbered by first appearance, and
    the count.  The kinds are stacked at consecutive offsets.

    Hooks the larger label of each pair onto the smaller and jumps
    pointers until stable (Shiloach & Vishkin, J. Algorithms 3, 1982).  A
    label never exceeds its slot, so it ends as its class's smallest slot,
    and each kind's roots follow its own slot order.
    """
    sizes, a, b = zip(*kinds)
    offsets = np.cumsum((0,) + sizes)
    a, b = (np.concatenate([o + np.ravel(x) for o, x in zip(offsets, side)])
            for side in (a, b))
    label = np.arange(offsets[-1])
    while not (label[a] == label[b]).all():
        la, lb = label[a], label[b]
        np.minimum.at(label, np.maximum(la, lb), np.minimum(la, lb))
        while not (label[label] == label).all():
            label = label[label]
    roots, ids = np.unique(label, return_inverse=True)
    first = np.searchsorted(roots, offsets).tolist()
    return [(ids[lo:hi] - f, g - f) for lo, hi, f, g
            in zip(offsets, offsets[1:], first, first[1:])]


def _incidences(ids: np.ndarray, count: int, width: int) -> list[list]:
    """Per class, its (tetrahedron, slot) cells in lexicographic order."""
    order = np.argsort(ids, kind="stable")
    cells = list(zip((order // width).tolist(), (order % width).tolist()))
    ends = np.cumsum(np.bincount(ids, minlength=count)).tolist()
    return [cells[lo:hi] for lo, hi in zip([0] + ends, ends)]


class TriComplex:
    """Validated closed oriented quasi-regular triangulation.

    The gluings become one integer array, a row per gluing: the sides
    ``ta, fa, tb, fb`` and the three corner pairs, sorted.  Sending ``fa``
    to ``fb`` extends a corner map to a permutation of the corners (what
    ``partner(t, f)`` returns, as a 4-tuple indexed by corner), and the
    gluing reverses the face orientation when its sign is ``-o_a * o_b``.
    The classes of the slots ``4 t + c``, ``6 t + e`` and ``4 t + f`` that
    gluings identify are the vertex, edge and face classes, numbered by
    first appearance in lexicographic (tetrahedron, local index) order.
    Immutable; ``with_vertex_ranks`` copies only the rank tuple and shares
    the gluings, classes and incidences, which ranks do not touch.
    """

    def __init__(self, orientations, gluings):
        self.orientations = tuple(int(o) for o in orientations)
        self.gluings = tuple(gluings)
        n = len(self.orientations)
        if n == 0:
            raise ParseError("empty complex")
        for t, o in enumerate(self.orientations):
            if o not in (1, -1):
                raise ParseError(f"tetrahedron {t}: orientation must be +-1")
        # a map without three pairs gets corner -1, which no face has
        rows = [(*g.a, *g.b, *itertools.chain.from_iterable(
            sorted(g.corner_map) if len(g.corner_map) == 3
            else [(-1, -1)] * 3)) for g in self.gluings]
        try:
            rows = np.array(rows, dtype=np.int64).reshape(-1, 10)
        except OverflowError:  # such an index is out of range; clip it
            rows = np.array(rows, dtype=object).reshape(-1, 10).clip(
                -1, 4 * n).astype(np.int64)
        tets, faces = rows[:, [0, 2]], rows[:, [1, 3]]
        ca, cb = rows[:, 4::2], rows[:, 5::2]
        sides = 4 * tets + faces
        seen = np.ones(sides.size, dtype=bool)
        seen[np.unique(sides, return_index=True)[1]] = False
        faults = np.column_stack([
            (tets < 0) | (tets >= n) | (faces < 0) | (faces >= 4),
            (tets[:, 0] == tets[:, 1]) & (faces[:, 0] == faces[:, 1]),
            (ca != _FACE_CORNER_ARRAY[faces[:, 0] % 4]).any(axis=1)
            | (np.sort(cb) != _FACE_CORNER_ARRAY[faces[:, 1] % 4]).any(axis=1),
            seen.reshape(-1, 2)])
        bad = np.flatnonzero(faults.any(axis=1))
        if bad.size:
            g = self.gluings[bad[0]]
            error, message = _GLUING_FAULTS[np.argmax(faults[bad[0]])]
            raise error(message.format(a=g.a, b=g.b))
        covered = np.bincount(sides.ravel(), minlength=4 * n)
        if not covered.all():
            t, f = divmod(int(np.argmin(covered)), 4)
            raise NotClosed(f"face ({t}, {f}) is unglued")

        (ta, tb), (fa, fb) = tets.T, faces.T
        perm = np.empty((len(rows), 4), dtype=np.int64)
        perm[np.arange(len(rows))[:, None], ca] = cb
        perm[np.arange(len(rows)), fa] = fb
        o = np.array(self.orientations)
        wrong = np.flatnonzero(_SIGN[tuple(perm.T)] != -o[ta] * o[tb])
        if wrong.size:
            g = self.gluings[wrong[0]]
            raise NotOrientable(f"gluing {g.a}~{g.b} does not reverse "
                                "the face orientation")
        # the edges of the three corner pairs of each side's face
        ea = 6 * ta[:, None] + _EDGE_SLOT[ca[:, [0, 0, 1]], ca[:, [1, 2, 2]]]
        eb = 6 * tb[:, None] + _EDGE_SLOT[cb[:, [0, 0, 1]], cb[:, [1, 2, 2]]]
        (vc, self.n_vertices), (ec, self.n_edges), (fc, self.n_faces) = \
            _classes((4 * n, 4 * ta[:, None] + ca, 4 * tb[:, None] + cb),
                     (6 * n, ea, eb), (4 * n, *sides.T))
        self._vertex_classes = vc.reshape(n, 4)
        self._edge_classes = ec.reshape(n, 6)
        loops = np.flatnonzero(self._vertex_classes[:, _EDGE_ENDS[0]]
                               == self._vertex_classes[:, _EDGE_ENDS[1]])
        if loops.size:
            t, e = divmod(int(loops[0]), 6)
            raise NotQuasiRegular(f"edge ({t}, {e}) is a loop at vertex "
                                  f"{vc[4 * t + EDGE_CORNERS[e][0]]}")
        self._vc = self._vertex_classes.tolist()
        self._ec = self._edge_classes.tolist()
        self._face_classes = fc.reshape(n, 4)
        self._fc = self._face_classes.tolist()
        self._vertex_inc = _incidences(vc, self.n_vertices, 4)
        self._edge_inc = _incidences(ec, self.n_edges, 6)
        other = np.empty((4 * n, 6), dtype=np.int64)
        other[sides[:, 0]] = np.column_stack([tb, fb, perm])
        other[sides[:, 1]] = np.column_stack([ta, fa, np.argsort(perm)])
        self._partner = [(t, f, tuple(p)) for t, f, *p in other.tolist()]
        self.vertex_rank = tuple(range(self.n_vertices))

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

    def partner(self, t: int, f: int) -> tuple[int, int, tuple[int, ...]]:
        return self._partner[4 * t + f]

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

    def with_vertex_ranks(self, ranks) -> "TriComplex":
        """The same complex under new vertex ranks; shares the structure."""
        ranks = tuple(int(r) for r in ranks)
        if sorted(ranks) != list(range(self.n_vertices)):
            raise ParseError("vertex_ranks must be a permutation")
        out = copy.copy(self)
        out.vertex_rank = ranks
        return out


# -- documents -------------------------------------------------------


# Half-integer edge charges, doubled: a 6-tuple per tetrahedron, indexed
# [tetrahedron][edge]; and a gauge: a group element per vertex class.
DoubledCharge = tuple[tuple[int, ...], ...]
Gauge = tuple[GroupElement, ...]


@dataclass(frozen=True)
class Scene:
    """A complex bundled with its link, coloring and charge."""

    complex: TriComplex
    link: frozenset[int]
    coloring: dict[int, GroupElement] | None = None
    charge: DoubledCharge | None = None


_MALFORMED = (KeyError, TypeError, ValueError, IndexError)
# group_close tolerance of two colors of one edge class and of a face cocycle
_COLOR_TOL = 1e-10


def _integer(value) -> int:
    """A document integer: an int, or a float of integral value.  Bools,
    fractions, strings and anything else raise ``ValueError``, which the
    readers below turn into a :class:`ParseError` naming the entry."""
    if type(value) is int or isinstance(value, np.integer) or (
            isinstance(value, float) and value.is_integer()):
        return int(value)
    raise ValueError(f"{value!r} is not an integer")


def _real(value) -> float:
    """A document or record real: a finite int or float.  Bools, strings,
    NaN, infinities and anything else raise ``ValueError``, as ``_integer``."""
    if (type(value) is int or isinstance(value, (float, np.integer))) and \
            abs(value) <= sys.float_info.max:
        return float(value)
    raise ValueError(f"{value!r} is not a finite real number")


def load_complex(doc: dict) -> TriComplex:
    """Build and validate the bare complex of a triangulation document."""
    if not isinstance(doc, dict) or "tetrahedra" not in doc:
        raise ParseError("document must be an object with a 'tetrahedra' list")
    try:
        orientations = [_integer(t["orientation"]) for t in doc["tetrahedra"]]
        gluings = [
            Gluing(_pair(g["a"]), _pair(g["b"]),
                   tuple(_pair(p) for p in g["corner_map"]))
            for g in doc.get("gluings", [])
        ]
    except _MALFORMED as exc:
        raise ParseError(f"malformed document: {exc}") from exc
    return TriComplex(orientations, gluings)


def _entries(doc: dict, key: str, convert):
    """Convert the entries of list ``key`` one at a time, or ParseError."""
    try:
        for entry in doc.get(key, ()):
            yield convert(entry)
    except _MALFORMED as exc:
        raise ParseError(f"malformed {key} entry: {exc}") from exc


def _pair(cell, kind=_integer) -> tuple:
    a, b = cell
    return kind(a), kind(b)


def _edge_cell(T: TriComplex, what: str, t: int, e: int) -> tuple[int, int]:
    if not (0 <= t < T.n_tets and 0 <= e < 6):
        raise ParseError(f"{what} entry references missing edge ({t}, {e})")
    return t, e


def load_document(doc: dict) -> Scene:
    """Load a full document: complex, link, optional coloring and charge."""
    T = load_complex(doc)
    link = frozenset(T.edge_class(*_edge_cell(T, "link", t, e))
                     for t, e in _entries(doc, "link", _pair))
    coloring = None
    if "coloring" in doc:
        coloring = {}
        for t, e, start, x, y in _entries(doc, "coloring", lambda entry: (
                *_pair(entry["edge"]), _integer(entry["from_corner"]),
                *_pair(entry["g"], _real))):
            _edge_cell(T, "coloring", t, e)
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
            if cls in coloring and not group_close(coloring[cls], g, _COLOR_TOL):
                raise ParseError(f"conflicting colors for edge class {cls}")
            coloring[cls] = g
        missing = set(range(T.n_edges)) - set(coloring)
        if missing:
            raise ParseError(f"coloring misses edge classes {sorted(missing)}")
        _check_cocycle(T, coloring)
    charge = None
    if "charge" in doc:
        vals = [[None] * 6 for _ in range(T.n_tets)]
        for t, e, d in _entries(doc, "charge", lambda entry: tuple(
                _integer(entry[k]) for k in ("tet", "edge_index", "doubled"))):
            _edge_cell(T, "charge", t, e)
            for slot in (e, OPPOSITE_EDGE[e]):
                if vals[t][slot] is not None and vals[t][slot] != d:
                    raise ParseError(f"conflicting charge at ({t}, {slot})")
                vals[t][slot] = d
        for t, row in enumerate(vals):
            if any(v is None for v in row):
                raise ParseError(f"charge misses edges of tetrahedron {t}")
        charge = tuple(tuple(row) for row in vals)
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
        doc["link"] = [list(T.edge_incidences(cls)[0])
                       for cls in sorted(scene.link)]
    if scene.coloring is not None:
        entries = []
        for cls in sorted(scene.coloring):
            t, e = T.edge_incidences(cls)[0]
            start = min(EDGE_CORNERS[e], key=lambda c: T.vertex_class(t, c))
            g = scene.coloring[cls]
            entries.append({"edge": [t, e], "from_corner": start,
                            "g": [g.x, g.y]})
        doc["coloring"] = entries
    if scene.charge is not None:
        doc["charge"] = [{"tet": t, "edge_index": e,
                          "doubled": scene.charge[t][e]}
                         for t in range(T.n_tets) for e in _PAIR_REPS]
    return doc


def _edge_colors(T: TriComplex, coloring: dict[int, GroupElement]):
    """``leg(u, w, rows)``: x and y of the color of the edge from corner
    ``u`` to corner ``w`` of the tetrahedra ``rows`` (all by default), with
    the float operations of ``color_of``."""
    x, y = np.array([(coloring[cls].x, coloring[cls].y)
                     for cls in range(T.n_edges)]).T
    cx, cy = np.array([x, -x / y]), np.array([y, 1.0 / y])
    vc, ec = T._vertex_classes, T._edge_classes

    def leg(u, w, rows=slice(None)):
        inverse = (vc[rows, u] > vc[rows, w]).astype(int)
        cls = ec[rows, _EDGE_SLOT[u, w]]
        return cx[inverse, cls], cy[inverse, cls]
    return leg


def _check_cocycle(T: TriComplex, coloring: dict[int, GroupElement]) -> None:
    """g_ab g_bc = g_ac on every face at once, to ``group_close`` tolerance
    and with the float operations of ``group_mul``; the first failing face
    is reported."""
    leg = _edge_colors(T, coloring)
    a, b, c = _FACE_CORNER_ARRAY.T      # per face, corners a < b < c
    (x1, y1), (x2, y2), (x3, y3) = leg(a, b), leg(b, c), leg(a, c)
    x, y = x1 + y1 * x2, y1 * y2
    # GroupElement refuses an inverse of y = inf and an underflowed product
    in_group = (y > 0) & (y3 > 0)
    close = ((np.abs(x - x3) <= _COLOR_TOL * np.maximum(1.0, np.abs(x)))
             & (np.abs(y - y3) <= _COLOR_TOL * np.maximum(1.0, np.abs(y))))
    bad = np.flatnonzero(~(in_group & close))
    if bad.size:
        t, f = divmod(int(bad[0]), 4)
        if not in_group[t, f]:
            raise BadOperands(f"face ({t}, {f}): an edge color leaves "
                              "the group")
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
        for v in T.edge_ends(cls):
            degree[v] += 1
    for v, d in enumerate(degree):
        if d != 2:
            raise NotHamiltonian(f"vertex {v} lies on {d} link edges, not 2")


def _edge_target(link: frozenset[int], cls: int) -> int:
    return 0 if cls in link else 2


def _smith_solve(rows: list[dict[int, int]], rhs: list[int],
                 nvars: int) -> tuple[list[int], list[list[int]]] | None:
    """Solve an integer linear system; return (particular, kernel basis).

    Diagonalizes by elementary row and column operations over the integers
    (Kannan & Bachem, SIAM J. Comput. 1979); V records the column operations
    to map back to the original variables.  None when no integral solution
    exists.  Step k swaps the first entry of least nonzero |.| at or beyond
    (k, k), in row-major order, into (k, k), then clears column k below and
    row k right of it entry by entry, swapping in any remainder as the pivot
    (Euclid) until both are clean.  One exact path on Python ints: ``rows``
    are ``{index: value}`` dicts, as are the rows of A and the columns of V,
    so an operation touches only nonzeros.  The entries are not bounded: they stay
    small on the sparse charge systems, but can grow without bound on dense
    ones; a dense 7x7 system with entries in [-9, 9] may not finish.
    """
    A = [{j: int(v) for j, v in row.items() if v} for row in rows]
    b, V, m = [int(v) for v in rhs], [{j: 1} for j in range(nvars)], len(A)

    def subtract(target: dict, source: dict, q: int) -> None:
        for idx, v in source.items():
            w = target.pop(idx, 0) - q * v
            if w:
                target[idx] = w

    def swap_columns(j, k):     # the rows before k are zero in both
        for row in A[k:]:
            if k in row or j in row:
                a, c = row.pop(k, 0), row.pop(j, 0)
                row.update((idx, v) for idx, v in ((k, c), (j, a)) if v)
        V[j], V[k] = V[k], V[j]

    rank = 0
    for k in range(min(m, nvars)):
        best = (math.inf,)
        for i in range(k, m):   # the rows from k hold columns from k only
            best = min([best, *((abs(v), i, j) for j, v in A[i].items())])
            if best[0] == 1:
                break
        if best[0] == math.inf:
            break
        _, i, j = best
        A[i], A[k], b[i], b[k] = A[k], A[i], b[k], b[i]
        if j != k:
            swap_columns(j, k)
        dirty = True
        while dirty:
            dirty = False
            # no operation changes a row or column after the one it clears
            for i in [i for i in range(k + 1, m) if k in A[i]]:
                q = A[i][k] // A[k][k]
                subtract(A[i], A[k], q)
                b[i] -= q * b[k]
                if k in A[i]:
                    A[i], A[k], b[i], b[k] = A[k], A[i], b[k], b[i]
                    dirty = True
            for j in sorted(j for j in A[k] if j > k):
                q = A[k][j] // A[k][k]
                for row in [row for row in A[k:] if k in row]:
                    subtract(row, {j: row[k]}, q)
                subtract(V[j], V[k], q)
                if j in A[k]:
                    swap_columns(j, k)
                    dirty = True
        rank += 1
    if any(b[k] % A[k][k] for k in range(rank)) or any(b[rank:]):
        return None
    x = {}
    for k in range(rank):
        subtract(x, V[k], -(b[k] // A[k][k]))
    return [x.get(r, 0) for r in range(nvars)], [
        [col.get(r, 0) for r in range(nvars)] for col in V[rank:]]


def _charge_rows(T: TriComplex, link: frozenset[int], tets: list[int],
                 fixed: dict[int, int] | None = None):
    """Rows of the doubled charge system over the pair variables of ``tets``,
    each a ``{variable: coefficient}`` dict.

    ``fixed`` maps a tetrahedron to known doubled values (6-slot rows) for
    tetrahedra outside ``tets``; their contributions move to the right side.
    """
    var_of = {(t, p): 3 * i + p for i, t in enumerate(tets) for p in range(3)}
    # one face-sum row per tetrahedron: its three pair variables sum to 1
    rows = [{3 * i + p: 1 for p in range(3)} for i in range(len(tets))]
    rhs = [1] * len(tets)
    for cls in sorted({T.edge_class(t, e) for t in tets for e in range(6)}):
        row = {}
        target = _edge_target(link, cls)
        for (t, e) in T.edge_incidences(cls):
            v = var_of.get((t, _PAIR_OF_EDGE[e]))
            if v is None:
                target -= fixed[t][e]
            else:
                row[v] = row.get(v, 0) + 1
        rows.append(row)
        rhs.append(target)
    return rows, rhs, var_of


def find_charge(T: TriComplex, link: frozenset[int]) -> DoubledCharge:
    """Solve the global charge system for an integral solution.

    The solution is deterministic: the particular solution of
    ``_smith_solve``, a function of the complex and the link alone.
    """
    validate_link(T, link)
    rows, rhs, _ = _charge_rows(T, link, list(range(T.n_tets)))
    sol = _smith_solve(rows, rhs, 3 * T.n_tets)
    if sol is None:
        raise NoCharge("the charge system has no half-integer solution")
    x, _ = sol
    charge = tuple(tuple(x[3 * t + p] for p in _PAIR_OF_EDGE)
                   for t in range(T.n_tets))
    validate_charge(T, link, charge)
    return charge


def validate_charge(T: TriComplex, link: frozenset[int],
                    c: DoubledCharge) -> None:
    if len(c) != T.n_tets or any(len(r) != 6 for r in c):
        raise BadCharge("charge shape does not match the complex")
    for t, row in enumerate(c):
        for e in range(6):
            if row[e] != row[OPPOSITE_EDGE[e]]:
                raise BadCharge(f"tetrahedron {t}: opposite edges {e}, "
                                f"{OPPOSITE_EDGE[e]} carry different charges")
        if row[0] + row[1] + row[2] != 1:
            raise BadCharge(f"tetrahedron {t}: face sum is not 1/2")
    for cls in range(T.n_edges):
        total = sum(c[t][e] for t, e in T.edge_incidences(cls))
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
    p, q = sorted(EDGE_CORNERS[e0],
                  key=lambda c: T.vertex_rank[T.vertex_class(t0, c)])
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
    return steps


def deform_charge(T: TriComplex, link: frozenset[int], c: DoubledCharge,
                  edge_cls: int) -> DoubledCharge:
    """Add the elementary deformation of one edge class to a charge.

    Walking around the edge in the positive direction, each crossed face
    contributes +1/2 on the near side and -1/2 on the far side to the
    edge of that face which joins the top endpoint to the equator; the
    deformation preserves every charge constraint and the mod-2 class.
    """
    delta = np.zeros((T.n_tets, 6), dtype=np.int64)
    for (t, s, p, q, r_from, r_to) in _edge_walk(
            T, *T.edge_incidences(edge_cls)[0]):
        delta[t, _EDGE_INDEX[(q, r_to)]] += 1
        t2, _, cmap = T.partner(t, r_from)
        delta[t2, _EDGE_INDEX[(cmap[q], cmap[r_to])]] -= 1
    delta += delta[:, OPPOSITE_EDGE]     # each slot moves with its opposite
    out = tuple(tuple(c[t][e] + d for e, d in enumerate(row))
                for t, row in enumerate(delta.tolist()))
    validate_charge(T, link, out)
    return out


def charge_class(T: TriComplex, c: DoubledCharge,
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
        # the edge on both faces joins the corners other than f_in, f_out
        total += c[t][OPPOSITE_EDGE[_EDGE_INDEX[(f_in, f_out)]]]
    return total % 2


# -- moves -----------------------------------------------------------


def _check_range(value: int, limit: int, label: str,
                 error: type = MoveNotApplicable) -> None:
    if not 0 <= value < limit:
        raise error(f"{label} {value} out of range [0, {limit})")


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
    carried = {edge_map[cls]: (vertex_map[T_old.edge_ends(cls)[0]], g)
               for cls, g in coloring.items() if cls in edge_map}
    out = {cls: g if u == T_new.edge_ends(cls)[0] else group_inv(g)
           for cls, (u, g) in {**carried, **new_edges}.items()}
    missing = set(range(T_new.n_edges)) - set(out)
    if missing:
        raise TopologyError(f"coloring transport missed classes {sorted(missing)}")
    _check_cocycle(T_new, out)
    return out


def _transport_charge(T_new, link_new, rows,
                      new_tets: range) -> DoubledCharge:
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

    def key(x):
        flat = tuple(x[3 * i + p] for i in range(len(new_tets))
                     for p in _PAIR_OF_EDGE)
        return sum(v * v for v in flat), flat

    if kernel and len(kernel) <= 4:
        K = np.array(kernel, dtype=float).T
        lam, *_ = np.linalg.lstsq(K, -np.array(x0, dtype=float), rcond=None)
        grids = [range(int(np.floor(v)) - 1, int(np.ceil(v)) + 2) for v in lam]
        x0 = min(([x0[j] + sum(c * kernel[i][j] for i, c in enumerate(combo))
                   for j in range(len(x0))]
                  for combo in itertools.product(*grids)), key=key)
    for i, t in enumerate(new_tets):
        rows[t] = [x0[3 * i + _PAIR_OF_EDGE[e]] for e in range(6)]
    out = tuple(tuple(r) for r in rows)
    validate_charge(T_new, link_new, out)
    return out


def _tet_ends(tets) -> list:
    """The faces of tetrahedra given by the tags of their corners, as ends:
    face f of tetrahedron t is entry ``4 t + f``, ``((t, f), tets[t])``."""
    return [((t, f), tags) for t, tags in enumerate(tets) for f in range(4)]


def _glue_faces(ends, first=()) -> list[Gluing]:
    """Glue faces by the tags of their corners.

    An end is a side ``(t, f)`` with the distinct tags of t's corners.
    Each end of ``first`` meets the first end of ``ends`` with its face's
    tag triple.  Every other triple must belong to exactly two ends, and
    those two are glued corner to corner by tag, in the order the triple
    first appears.
    """
    def triple(end):
        (_, f), tags = end
        return frozenset(tags[c] for c in FACE_CORNERS[f])

    by_triple: dict[frozenset, list] = {}
    for end in ends:
        by_triple.setdefault(triple(end), []).append(end)
    pairs = [(end, by_triple[triple(end)].pop(0)) for end in first]
    for face, those in by_triple.items():
        if len(those) not in (0, 2):
            raise TopologyError(f"face {sorted(face)} has {len(those)} ends")
        if those:
            pairs.append(those)
    return [Gluing(sa, sb, tuple((c, tb.index(ta[c]))
                                 for c in FACE_CORNERS[sa[1]]))
            for (sa, ta), (sb, tb) in pairs]


def _swap_star(scene: Scene, removed, new, glue=(), link=None, new_link=(),
               new_colors=None) -> Scene:
    """Replace a star by another star with the same boundary.

    Every corner is tagged by its vertex class; a vertex the move creates
    is tagged ``T.n_vertices`` (and up), so it ranks after every old one.
    The move names the ``removed`` tetrahedra and lists the ``new`` ones
    as (tag tuple, orientation); each tuple is sorted by rank here, its
    orientation following the permutation.  Kept tetrahedra keep their
    order and the new ones follow.

    The gluings come from :func:`_glue_faces`.  An old gluing with one
    side removed leaves its other side as an end of the old star's
    boundary, and each new face is an end.  The kept faces in ``glue``
    are unglued from each other and matched first, each with the first
    new face of its triple.

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
    faces = _tet_ends([T._vc[t] for t in keep] + tets)

    def kept_end(t, f):
        return faces[4 * keep_index[t] + f]

    gluings, ends = [], []
    for g in T.gluings:
        if g.a in glue:
            continue
        out_a, out_b = g.a[0] in removed, g.b[0] in removed
        if not (out_a or out_b):
            gluings.append(Gluing((keep_index[g.a[0]], g.a[1]),
                                  (keep_index[g.b[0]], g.b[1]), g.corner_map))
        elif not (out_a and out_b):
            ends.append(kept_end(*(g.b if out_a else g.a)))
    gluings += _glue_faces(ends + faces[4 * base:],
                           [kept_end(*side) for side in glue])
    T_new = TriComplex(orientations, gluings)

    # the corners of T_new are the kept tetrahedra's, then the new tags
    vertex_map = dict(zip(
        T._vertex_classes[keep].ravel().tolist() + [v for s in tets for v in s],
        T_new._vertex_classes.ravel().tolist()))
    if len(vertex_map) != T_new.n_vertices:
        raise TopologyError("vertex bookkeeping failed during the move")
    ranks = [0] * T_new.n_vertices
    for r, tag in enumerate(sorted(vertex_map, key=rank)):
        ranks[vertex_map[tag]] = r
    T_new = T_new.with_vertex_ranks(ranks)
    edge_map = dict(zip(T._edge_classes[keep].ravel().tolist(),
                        T_new._edge_classes[:base].ravel().tolist()))

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
        rows = [list(scene.charge[t]) for t in keep] + [None] * len(new)
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
    link_slots = [e for e in map(_EDGE_INDEX.get, itertools.combinations(
        corners, 2)) if T.edge_class(tet, e) in scene.link]
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
    # quasi-regularity puts the two corners in two tetrahedra
    (t1, c1), (t2, c2) = inc
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
                    gauge: Gauge) -> dict[int, GroupElement]:
    """Act on a coloring: conjugate each edge color by the endpoint gauges."""
    return {cls: group_mul(gauge[lo], group_mul(g, group_inv(gauge[hi])))
            for cls, g in coloring.items() for lo, hi in [T.edge_ends(cls)]}


def point_gauge(T: TriComplex, vertex: int, g: GroupElement) -> Gauge:
    _check_range(vertex, T.n_vertices, "vertex", TopologyError)
    vals = [GroupElement(0.0, 1.0)] * T.n_vertices
    vals[vertex] = g
    return tuple(vals)


def _random_element(rng: np.random.Generator, x_min: float, x_max: float,
                    y: tuple[float, float]) -> GroupElement:
    """|x| uniform in [x_min, x_max) with a random sign, then y uniform in
    the range ``y``: the draws in this order."""
    x = float(rng.uniform(x_min, x_max) * rng.choice([-1.0, 1.0]))
    return GroupElement(x, float(rng.uniform(*y)))


def random_gauge(T: TriComplex, rng: np.random.Generator) -> Gauge:
    return tuple(_random_element(rng, 0.2, 1.5, (0.6, 1.6))
                 for _ in range(T.n_vertices))


def is_admissible(coloring: dict[int, GroupElement],
                  margin: float = 1e-6) -> bool:
    """All edge colors (in both orientations) stay in the regular part."""
    return all(_regular(g, margin) for g in coloring.values())


# Point gauges that :func:`make_admissible` tries before giving up.
_GAUGE_BUDGET = 100


def make_admissible(T: TriComplex, coloring: dict[int, GroupElement],
                    rng: np.random.Generator) -> dict[int, GroupElement]:
    """Gauge away bad vertices by random point gauges until admissible."""
    current = dict(coloring)
    for _ in range(_GAUGE_BUDGET):
        bad = next((cls for cls, g in sorted(current.items())
                    if not _regular(g)), None)
        if bad is None:
            return current
        current = gauge_transform(T, current, point_gauge(
            T, T.edge_ends(bad)[0],
            _random_element(rng, 0.3, 1.5, (0.6, 1.6))))
    raise AdmissibilityFailed(f"still inadmissible after {_GAUGE_BUDGET} gauges")


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
    for u, w in zip(vertices, vertices[1:] + vertices[:1]):
        g = coloring[edge_between(T, u, w)]     # stored oriented low -> high
        total = group_mul(total, g if u < w else group_inv(g))
    return total
