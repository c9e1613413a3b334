"""State-sum invariant of a charged, colored, link-carrying triangulation.

Every tetrahedron contributes a charged 6j tensor: the positive one when
its orientation sign matches the parity of sorting its corners by the
global vertex order, the negative one otherwise.  Labels come from the
edge coloring read along the sorted corners, charges from the stored
half-integer charge.  Each interior face receives one check-valued and
one hat-valued leg from its two sides; contracting every face with the
plain index pairing of the dual bases and multiplying by 1/N per link
edge yields a scalar.  The scalar is invariant under the local moves up
to an integer power of the root-of-unity grading scalar, so values are
compared and normalized modulo that power.

No tetrahedron is glued to itself: that would identify two of its corners
and make the edge between them a loop, which ``TriComplex`` refuses.  So
every weight has four legs on four distinct faces.

The contraction is Z_N-graded.  A weight vanishes unless its leg
indices satisfy one flux constraint mod N, with coefficient +1 on a
check leg, -1 on a hat leg and 0 on the (j, l) leg, so it is stored on
that support: N^3 of its N^4 entries, after a guard that what it drops
is rounding.  Every tensor of the network keeps disjoint constraint
groups of +-1 coefficients.  Contracting two tensors joins the groups
that a shared face links and drops a group that meets a face the other
side leaves free; each step gathers both operands into flux sectors,
without growing either, and multiplies the sectors in one batched
matmul.  The pairwise order is greedy on stored entries, and the plan
is refused before any weight is built when one of its steps would hold
more than ``MAX_ENTRIES`` stored entries.
"""
from __future__ import annotations

import heapq
import math
from typing import NamedTuple, Sequence

import numpy as np

from .algebra import GroupElement, RootData
from .operators import NotScalarError, qtilde, q_scalar, assemble_q
from .sixj import _label_stack, _leg_pairs, sixj_stack
from .triangulation import (
    _EDGE_SLOT, _SIGN, DoubledCharge, Scene, TriComplex, _edge_colors,
    validate_charge,
)

__all__ = [
    "InvariantError", "TypeMismatch", "ZeroValue",
    "tetra_weights", "tetra_weight", "state_sum",
    "qtilde_order", "mod_qtilde_residual", "equal_mod_qtilde",
    "canonical_rep", "invariant_record",
]


class InvariantError(ValueError):
    """Base class for state-sum errors."""


class TypeMismatch(InvariantError):
    """A face whose two sides do not pair a check leg with a hat leg."""


class ZeroValue(InvariantError):
    """A vanishing invariant has no canonical representative."""


_q_checked: set[tuple[int, int]] = set()


def _assert_q_scalar(root: RootData) -> None:
    """Guard: the assembled grading operator is the stated scalar.

    Verified once per root on a fixed admissible pair; everything
    downstream normalizes values by powers of this scalar.
    """
    key = (root.N, root.k)
    if key in _q_checked:
        return
    g = GroupElement(0.7, 1.3)
    h = GroupElement(-1.1, 0.8)
    q_op = assemble_q(root, g, h)
    eye = np.eye(root.N)
    if not (np.allclose(q_op.hat_mat, q_scalar(root, "hat") * eye, atol=1e-8)
            and np.allclose(q_op.check_mat, q_scalar(root, "check") * eye,
                            atol=1e-8)):
        raise InvariantError("grading operator is not the expected scalar")
    _q_checked.add(key)


def _corners(T: TriComplex, tets: np.ndarray) -> tuple:
    """Per tetrahedron of ``tets``: its corners sorted by the global vertex
    order, whether its tensor is the positive one, and the face class of
    each of its legs."""
    vs = np.argsort(np.array(T.vertex_rank)[T._vertex_classes[tets]], axis=1)
    right = np.array(T.orientations)[tets] * _SIGN[tuple(vs.T)] > 0
    opposite = np.where(right[:, None], vs[:, [1, 3, 0, 2]],
                        vs[:, [2, 0, 3, 1]])
    return vs, right, np.take_along_axis(T._face_classes[tets], opposite, 1)


def _weights(root: RootData, T: TriComplex,
             coloring: dict[int, GroupElement], charge: DoubledCharge,
             tets: np.ndarray, vs: np.ndarray, right: np.ndarray) -> tuple:
    """The 6j tensors of the tetrahedra ``tets``, of sorted corners ``vs``
    and signs ``right``, and the label pairs of their legs."""
    leg = _edge_colors(T, coloring)
    i, j, l = (np.stack(leg(vs[:, p], vs[:, p + 1], tets), axis=1)
               for p in range(3))
    pairs = _leg_pairs(_label_stack(i, j, l), right)
    doubled = np.array(charge)[tets]
    a, c = (doubled[np.arange(len(tets)), _EDGE_SLOT[vs[:, p], vs[:, p + 1]]]
            for p in (0, 1))
    return sixj_stack(root, pairs, right, a, c), pairs


def tetra_weights(root: RootData, T: TriComplex,
                  coloring: dict[int, GroupElement], charge: DoubledCharge,
                  tets: Sequence[int]) -> tuple:
    """The 6j tensors of the given tetrahedra, built in one stacked pass,
    with the ``(x, y)`` of each leg's label pair and each leg's face class:
    ``[tensor, leg 1, .., leg 4]``, ``[tensor, leg, g or h, x or y]`` and
    ``[tensor, leg]``.

    Corners are sorted by the global vertex order into (v1, v2, v3, v4);
    the labels are the colors of v1v2, v2v3, v3v4 and their products, the
    charges sit on v1v2 and v2v3.  Leg p of the positive (negative)
    tensor lies on the face opposite v2, v4, v1, v3 (v3, v1, v4, v2).
    """
    tets = np.asarray(tets)
    vs, right, faces = _corners(T, tets)
    return (*_weights(root, T, coloring, charge, tets, vs, right), faces)


def tetra_weight(root: RootData, T: TriComplex,
                 coloring: dict[int, GroupElement], charge: DoubledCharge,
                 t: int) -> tuple:
    """The 6j tensor of one tetrahedron, its leg pairs and its leg faces:
    the one-tetrahedron case of :func:`tetra_weights`."""
    return tuple(x[0] for x in tetra_weights(root, T, coloring, charge, [t]))


# Largest number of complex entries (256 MiB) that one contraction step may
# hold at once: every live stored tensor, the step's two gathered operands
# and its result.  A network whose plan needs more is refused before any
# weight is built.
MAX_ENTRIES = 2 ** 24

# Coefficient of each leg of a positive (True) and a negative (False)
# weight in its flux constraint: +1 on a check leg, -1 on a hat leg and 0
# on the (j, l) leg.  A weight vanishes off sum(c * index) = 0 mod N.
_FLUX = {True: (1, 1, 0, -1), False: (1, 0, -1, -1)}

# Largest entry off that support, relative to the weight's largest entry,
# that storing the weight on its support may drop.  Rounding leaves at
# most ~3e-14 on the fixture at N = 15.
_SUPPORT_TOL = 1e-10


class _Node(NamedTuple):
    """Layout of a graded tensor.

    ``legs`` are the face classes of its open legs, and ``faces`` the same
    as a set.  Each of ``groups`` maps the faces of one flux constraint to
    their coefficients, +1 or -1: the tensor vanishes unless
    ``sum(c * index) = 0 mod N`` over the group.  Groups are disjoint, and
    ``owner`` maps each grouped face to its group.  The last face of each
    group, in ``pivots``, follows from the others and is stored in no
    axis.  The tensor is stored dense over ``axes``, each a leg (its face)
    or a linear form of leg indices (a map face -> coefficient) read mod
    N: ``N ** len(axes)`` entries.
    """
    legs: tuple
    faces: frozenset
    groups: tuple
    owner: dict
    pivots: frozenset
    axes: tuple


def _node(legs, groups, axes) -> _Node:
    """A layout; the last face of each group is its pivot."""
    owner, pivots = {}, set()
    for i, group in enumerate(groups):
        for f in group:
            owner[f] = i
        pivots.add(f)
    return _Node(tuple(legs), frozenset(legs), tuple(groups), owner,
                 frozenset(pivots), tuple(axes))


class _Step(NamedTuple):
    """Contraction of tensors ``a`` and ``b``.

    The joint coordinates are the flux sectors ``h``, the free legs ``r``
    of ``a`` and ``c`` of ``b`` outside the shared faces, and the shared
    faces ``k`` summed freely, ``dims`` = (dh, dr, dk, dc) of them.  Row i
    of ``fa`` holds the coefficients of stored axis i of ``a`` as a linear
    form of the coordinates, and ``fb`` those of ``b``; the coordinates
    are numbered h, r, k, c, and ``a`` reads none of c nor ``b`` any of r.
    The result is stored over (h, r, c).  Integer arrays, not dicts, keep
    a plan from holding thousands of small objects until its contraction.
    """
    a: int
    b: int
    dims: tuple
    fa: np.ndarray
    fb: np.ndarray


def _solve(c: int, others, forms: dict, charge: dict) -> dict:
    """The form ``c * (charge - sum(v * forms[f]))`` over the ``(f, v)``
    pairs of ``others``: the face of coefficient c in a constraint
    ``sum(v * index) = charge``, solved from the other faces."""
    out = {j: c * v for j, v in charge.items()}
    for f, v in others:
        for j, w in forms[f].items():
            out[j] = out.get(j, 0) - c * v * w
    return {j: v for j, v in out.items() if v}


def _leaf(faces: list[int], right: bool) -> _Node:
    """Layout of a weight with the given leg faces and sign: one group, the
    legs of nonzero flux coefficient, stored over legs 0, 1 and 2."""
    return _node(faces, [{f: c for f, c in zip(faces, _FLUX[right]) if c}],
                 faces[:3])


def _coefs(forms: list[dict], n: int) -> np.ndarray:
    """The forms, maps coordinate -> coefficient over n coordinates, as the
    rows of an integer matrix."""
    out = [0] * (len(forms) * n)
    for i, form in enumerate(forms):
        for j, c in form.items():
            out[i * n + j] = c
    return np.array(out, dtype=np.int64).reshape(len(forms), n)


def _merge(A: _Node, B: _Node) -> tuple:
    """Layout of A contracted with B over their shared faces, and the
    coordinates of the contraction (the fields of :class:`_Step` after
    ``a`` and ``b``): ``(node, dims, fa, fb)``.

    The groups that constrain a shared face form a forest: a shared face
    links its group on A's side to its group on B's side, and a face
    constrained on one side only links its group to the ground, -1.
    Both ends of a shared face carry opposite coefficients, so the groups
    of one tree sum to one constraint.  A grounded tree leaves none: the
    outside charge of each of its groups is a free sector.  A closed tree
    keeps one on its groups' outside legs, and its last outside charge
    balances the others.  Each group's last outside leg follows from its
    charge and its other outside legs; each tree face follows from its
    child group, leaves first; the other shared faces are summed freely.
    """
    S = A.faces & B.faces
    groups = A.groups + B.groups
    nA = len(A.groups)
    shared, adj = [], {}
    for x in A.legs:
        if x in S:
            shared.append(x)
            ga, gb = A.owner.get(x, -1), B.owner.get(x, -1 - nA) + nA
            if ga != gb:
                adj.setdefault(ga, []).append((x, gb))
                adj.setdefault(gb, []).append((x, ga))
    # breadth-first trees of (group, face to its parent), the ground's first
    trees, seen = [], set()
    for root in sorted(adj):
        if root not in seen:
            seen.add(root)
            tree = [(root, None)]
            for g, _ in tree:       # the list grows while it is walked
                for x, h in adj[g]:
                    if h not in seen:
                        seen.add(h)
                        tree.append((h, x))
            trees.append(tree)
    outside, sectors, merged, charge, spanned = {}, [], [], {}, set()
    for tree in trees:
        mixed = []
        for g, x in tree:
            spanned.add(x)
            if g >= 0:
                out = outside[g] = [f for f in groups[g] if f not in S]
                if out:
                    mixed.append(g)
        if tree[0][0] >= 0 and mixed:
            last = mixed.pop()
            charge[last] = {j: -1 for j in range(len(sectors),
                                                 len(sectors) + len(mixed))}
            merged.append({f: groups[g][f] for g in mixed + [last]
                           for f in outside[g]})
        for g in mixed:
            charge[g] = {len(sectors): 1}
            sectors.append(g)
    pivots = {*A.pivots, *B.pivots}
    for g, out in outside.items():
        pivots.discard([*groups[g]][-1])
        if out:
            pivots.add(out[-1])
    out_a = [f for f in A.legs if f not in S]
    out_b = [f for f in B.legs if f not in S]
    free_a = [f for f in out_a if f not in pivots]
    free_b = [f for f in out_b if f not in pivots]
    free_s = [f for f in shared if f not in spanned]
    forms = {f: {j: 1} for j, f in enumerate(free_a + free_s + free_b,
                                               len(sectors))}
    for g, out in outside.items():
        # a group's last face is stored in no axis and needs no form
        if out and out[-1] not in A.pivots and out[-1] not in B.pivots:
            group = groups[g]
            forms[out[-1]] = _solve(group[out[-1]],
                                    [(f, group[f]) for f in out[:-1]],
                                    forms, charge.get(g, {}))
    for tree in trees:
        for g, x in reversed(tree[1:]):
            group = groups[g]
            forms[x] = _solve(group[x], [(f, v) for f, v in group.items()
                                         if f in S and f != x], forms,
                              {j: -v for j, v in charge.get(g, {}).items()})
    node = _node(out_a + out_b,
                 [g for i, g in enumerate(groups) if i not in outside]
                 + merged,
                 [{f: groups[g][f] for f in outside[g]} for g in sectors]
                 + free_a + free_b)
    dims = (len(sectors), len(free_a), len(free_s), len(free_b))
    # an axis is a leg or a form sum(c * leg)
    coefs = _coefs([forms[ax] if type(ax) is not dict
                    else _solve(-1, ax.items(), forms, {})
                    for ax in A.axes + B.axes], sum(dims))
    return node, dims, coefs[:len(A.axes)], coefs[len(A.axes):]


def _stored_axes(A: _Node, B: _Node) -> int:
    """Stored axes of A contracted with B: its legs less its groups.

    The groups that constrain a shared face join through the faces both
    sides constrain.  A component with a face constrained on one side only
    (joined to the ground, -1) leaves no group, and any other component
    leaves one if it has a face outside the shared ones.
    """
    nA = len(A.groups)
    S = A.faces & B.faces
    up: dict = {}
    hits: dict = {}
    for x in S:
        ga, gb = A.owner.get(x, -1), B.owner.get(x, -1 - nA) + nA
        for g in (ga, gb):
            if g >= 0:
                hits[g] = hits.get(g, 0) + 1
        while ga in up:
            ga = up[ga]
        while gb in up:
            gb = up[gb]
        if ga != gb:
            up[max(ga, gb)] = min(ga, gb)
    closed = set()
    for g, k in hits.items():
        if len(A.groups[g] if g < nA else B.groups[g - nA]) > k:
            while g in up:
                g = up[g]
            closed.add(g)
    closed.discard(-1)
    return (len(A.legs) + len(B.legs) - 2 * len(S) - nA - len(B.groups)
            + len(hits) - len(closed))


def _plan(leaves: list[_Node], N: int) -> list[_Step]:
    """Pairwise contraction order over tensors with the given layouts.

    Every face class must be an open leg of exactly two tensors.  Each
    step merges the pair sharing a face whose result adds the fewest
    stored entries to the live ones (most removed first), then the one of
    fewest legs, lowest ids first; scalars of disjoint components merge
    last.  Candidate pairs sit in a heap, and only the pairs of each new
    tensor are added to it.  Ids count the inputs and then each step's
    result.  The layouts of merged tensors are dropped as the plan goes.
    """
    nodes = list(leaves)
    holders: dict = {}
    for i, n in enumerate(nodes):
        for f in n.legs:
            holders.setdefault(f, []).append(i)

    size = [N ** len(n.axes) for n in nodes]

    def key(a: int, b: int) -> tuple:
        A, B = nodes[a], nodes[b]
        return (N ** _stored_axes(A, B) - size[a] - size[b],
                len(A.faces ^ B.faces), a, b)

    heap = [key(a, b)
            for a, b in {tuple(sorted(ids)) for ids in holders.values()}]
    heapq.heapify(heap)
    live, steps = set(range(len(nodes))), []
    while len(live) > 1:
        while heap and (heap[0][2] not in live or heap[0][3] not in live):
            heapq.heappop(heap)
        a, b = heapq.heappop(heap)[2:] if heap else sorted(live)[:2]
        node, *step = _merge(nodes[a], nodes[b])
        steps.append(_Step(a, b, *step))
        new = len(nodes)
        live.discard(a)
        live.discard(b)
        nodes[a] = nodes[b] = None
        nodes.append(node)
        size.append(N ** len(node.axes))
        partners = set()
        for f in node.legs:
            ids = holders[f]
            ids[ids.index(a if a in ids else b)] = new
            partners.update(ids)
        partners.discard(new)
        for x in partners:
            heapq.heappush(heap, key(x, new))
        live.add(new)
    return steps


def _stored_peak(leaves: list[_Node], steps: list[_Step], N: int) -> int:
    """Most complex entries held during one step of the plan: every live
    stored tensor, the step's two gathered operands and its result."""
    sizes = [N ** len(n.axes) for n in leaves]
    live = peak = sum(sizes)
    for s in steps:
        dh, dr, dk, dc = s.dims
        out = N ** (dh + dr + dc)
        peak = max(peak, live + N ** (dh + dr + dk) + N ** (dh + dk + dc)
                   + out)
        live += out - sizes[s.a] - sizes[s.b]
        sizes.append(out)
    return peak


def _gather(x: np.ndarray, coefs: np.ndarray, grid: list,
            N: int) -> np.ndarray:
    """The flat tensor ``x``, axes of size N, read at every point of a
    grid, its axis i at ``coefs[i] @ coordinates`` mod N: ``grid[j]`` is
    ``arange(N)`` along the grid axis of coordinate j, and coordinates
    past the grid have no coefficient."""
    index = []
    for row in coefs.tolist():
        u = None
        for g, c in zip(grid, row):
            if c:
                t = g if c == 1 else c * g
                u = t if u is None else u + t
        index.append(0 if u is None else u)
    return x[np.ravel_multi_index(index, (N,) * len(index), mode="wrap")]


def _tail(N: int, n: int) -> list[np.ndarray]:
    """``arange(N)`` along each of the last ``n`` axes, the last first."""
    return [np.arange(N).reshape((N,) + (1,) * m) for m in range(n)]


def _contract(x: np.ndarray, y: np.ndarray, step: _Step, N: int,
              tail: list[np.ndarray]) -> np.ndarray:
    """One step: both operands gathered into their flux sectors, then one
    batched matmul over the sectors.  ``tail`` is :func:`_tail` of at
    least as many axes as any operand."""
    dh, dr, dk, dc = step.dims
    # coordinate j of (h, r, k) on axis j; of (h, k, c) skipping r
    to_b = tail[:dh + dk + dc][::-1]
    a = _gather(x, step.fa, tail[:dh + dr + dk][::-1], N)
    b = _gather(y, step.fb, to_b[:dh] + [None] * dr + to_b[dh:], N)
    return np.matmul(a.reshape(N ** dh, N ** dr, N ** dk),
                     b.reshape(N ** dh, N ** dk, N ** dc)).reshape(-1)


def _check_faces(pairs: np.ndarray, faces: np.ndarray) -> None:
    """Every face class has two legs, a check leg (leg 0 or 1) and a hat leg
    (leg 2 or 3), of labels equal to ``group_close`` tolerance 1e-6.
    ``pairs`` and ``faces`` are as :func:`tetra_weights` returns them; the
    lowest failing face class is reported."""
    flat = faces.ravel()
    ids, counts = np.unique(flat, return_counts=True)
    if (counts != 2).any():
        x = np.argmax(counts != 2)
        raise TypeMismatch(f"face class {ids[x]} has {counts[x]} legs")
    one, two = np.argsort(flat, kind="stable").reshape(-1, 2).T
    p, q = pairs.reshape(-1, 4)[one], pairs.reshape(-1, 4)[two]
    same = one % 4 // 2 == two % 4 // 2
    unequal = ~(np.abs(p - q) <= 1e-6 * np.maximum(1.0, np.abs(p))).all(1)
    bad = np.flatnonzero(same | unequal)
    if bad.size:
        x = bad[0]
        kinds = [("check", "hat")[y % 4 // 2] for y in (one[x], two[x])]
        raise TypeMismatch(f"face class {ids[x]} pairs " + (
            "{} with {}".format(*kinds) if same[x] else "unequal labels"))


def _stored_weights(N: int, weights: np.ndarray, right: np.ndarray) -> list:
    """Each weight on its support, stored over legs 0, 1 and 2.

    Raises :class:`NotScalarError` naming the first weight whose entries
    off the support exceed ``_SUPPORT_TOL`` of its own largest entry.
    """
    stack = weights.reshape(len(weights), -1)
    # the pivot, leg 3, is -c3 * (c0 i0 + c1 i1 + c2 i2) mod N
    flux = np.where(right[:, None], _FLUX[True], _FLUX[False])
    i = np.indices((N,) * 3).reshape(3, -1)
    cols = N * np.arange(N ** 3) + -flux[:, 3:] * (flux[:, :3] @ i) % N
    rows = np.arange(len(stack))[:, None]
    mag = np.abs(stack)
    top = mag.max(axis=1)
    mag[rows, cols] = 0
    off = mag.max(axis=1)
    bad = np.flatnonzero(off > _SUPPORT_TOL * top)
    if bad.size:
        t = bad[0]
        raise NotScalarError(
            f"entry {off[t] / top[t]:.1e} of its largest off the support of "
            f"tensor {t} exceeds {_SUPPORT_TOL:.0e}")
    return list(stack[rows, cols])


def state_sum(root: RootData, scene: Scene) -> complex:
    """Contract all tetra weights over the interior faces.

    Requires a coloring and a valid charge on the scene; raises
    :class:`TypeMismatch` if some face fails to pair a check leg with a
    hat leg of equal labels, and :class:`InvariantError` if a step of the
    contraction plan would hold more than ``MAX_ENTRIES`` stored entries.
    The coloring fixes the one state of the sum, since each regular edge
    color admits a single cyclic module.
    """
    if scene.coloring is None:
        raise InvariantError("the scene carries no coloring")
    if scene.charge is None:
        raise InvariantError("the scene carries no charge")
    T = scene.complex
    validate_charge(T, scene.link, scene.charge)
    tets = np.arange(T.n_tets)
    vs, right, faces = _corners(T, tets)
    leaves = [_leaf(fs, r) for fs, r in zip(faces.tolist(), right.tolist())]
    steps = _plan(leaves, root.N)
    peak = _stored_peak(leaves, steps, root.N)
    if peak > MAX_ENTRIES:
        raise InvariantError(
            f"contraction needs {peak} stored entries at its largest step, "
            f"over the budget of {MAX_ENTRIES}")
    _assert_q_scalar(root)  # builds N x N matrices: only once the plan fits
    weights, pairs = _weights(root, T, scene.coloring, scene.charge, tets,
                              vs, right)
    _check_faces(pairs, faces)
    arrays = _stored_weights(root.N, weights, right)
    tail = _tail(root.N, max([len(n.axes) for n in leaves]
                             + [dh + dr + dc for dh, dr, _, dc in
                                (step.dims for step in steps)]))
    for step in steps:
        arrays.append(_contract(arrays[step.a], arrays[step.b], step, root.N,
                                tail))
        arrays[step.a] = arrays[step.b] = None
    return complex(arrays[-1][0]) * (1.0 / root.N) ** len(scene.link)


def qtilde_order(root: RootData) -> int:
    """Multiplicative order of the grading scalar ``(-1)^((N-1)/2)
    w^(-(N^2-1)/8)``: N when N = 1 mod 4, else 2N, as ``(N^2-1)/8`` is a
    unit mod N."""
    return root.N if root.N % 4 == 1 else 2 * root.N


def mod_qtilde_residual(z1: complex, z2: complex,
                        root: RootData) -> tuple[float, int]:
    """Distance from ``z1`` to the qtilde-orbit of ``z2``, and the power
    ``k`` of the nearest orbit point ``z2 * qtilde**k``."""
    best, best_k = abs(z1 - z2), 0
    w = z2
    q = qtilde(root)
    for k in range(1, qtilde_order(root)):
        w *= q
        d = abs(z1 - w)
        if d < best:
            best, best_k = d, k
    return best, best_k


def equal_mod_qtilde(z1: complex, z2: complex, root: RootData,
                     tol: float = 1e-7) -> bool:
    """Equality of two invariant values up to a power of the grading scalar:
    the orbit residual within ``tol`` relative to ``|z2|``."""
    a1, a2 = abs(z1), abs(z2)
    if a1 < tol and a2 < tol:
        return True
    if a1 < tol or a2 < tol:
        return False
    if abs(a1 - a2) > tol * max(a1, a2):
        return False
    return mod_qtilde_residual(z1, z2, root)[0] < tol * a2


# Reduced arguments within this fraction of the step from 0 or from the
# step are 0: an invariant on the branch cut, such as the real fixture
# value, then gets one record whichever side rounding puts it on.
ARG_SNAP = 1e-9


def canonical_rep(z: complex, root: RootData) -> tuple[float, float]:
    """Modulus and argument reduced modulo the grading scalar's angle.

    The reduced argument lies in [0, 2 pi / order), snapped to 0 within
    ``ARG_SNAP`` steps of either end; a zero value has no representative.
    """
    z = complex(z)
    if z == 0:
        raise ZeroValue("cannot normalize a vanishing invariant")
    step = 2.0 * math.pi / qtilde_order(root)
    theta = math.atan2(z.imag, z.real) % step
    if min(theta, step - theta) <= ARG_SNAP * step:
        theta = 0.0
    return (abs(z), theta)


def invariant_record(z: complex, root: RootData) -> dict:
    """JSON-ready record of an invariant value."""
    r, theta = canonical_rep(z, root)
    return {
        "value": [z.real, z.imag],
        "modulus": r,
        "reduced_arg": theta,
        "qtilde_order": qtilde_order(root),
        "N": root.N,
    }
