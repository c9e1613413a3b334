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
"""
from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .algebra import GroupElement, RootData, group_close
from .operators import HalfInt, qtilde, q_scalar, assemble_q
from .sixj import LabelSix, Sixj, sixj_stack
from .triangulation import (
    _EDGE_INDEX, _perm_sign, Charge, Scene, TriComplex, color_of,
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


def _corners(T: TriComplex, t: int) -> tuple[list[int], bool, list[int]]:
    """Corners sorted by the global vertex order, the sign of the tensor,
    and the face class of each of its legs."""
    vs = sorted(range(4), key=lambda c: T.vertex_rank[T.vertex_class(t, c)])
    right = T.orientations[t] * _perm_sign(vs) > 0
    opposite = ((vs[1], vs[3], vs[0], vs[2]) if right
                else (vs[2], vs[0], vs[3], vs[1]))
    return vs, right, [T.face_class(t, f) for f in opposite]


def tetra_weights(root: RootData, T: TriComplex,
                  coloring: dict[int, GroupElement], charge: Charge,
                  tets: Sequence[int]) -> list[tuple[Sixj, list[int]]]:
    """The 6j tensors of the given tetrahedra, built in one stacked pass,
    each with the face class of each of its legs.

    Corners are sorted by the global vertex order into (v1, v2, v3, v4);
    the labels are the colors of v1v2, v2v3, v3v4 and their products, the
    charges sit on v1v2 and v2v3.  Leg p of the positive (negative)
    tensor lies on the face opposite v2, v4, v1, v3 (v3, v1, v4, v2).
    """
    labs, rights, a, c, faces = [], [], [], [], []
    for t in tets:
        vs, right, fs = _corners(T, t)
        labs.append(LabelSix.from_generators(
            color_of(T, coloring, t, vs[0], vs[1]),
            color_of(T, coloring, t, vs[1], vs[2]),
            color_of(T, coloring, t, vs[2], vs[3])))
        rights.append(right)
        a.append(HalfInt(charge.doubled[t][_EDGE_INDEX[(vs[0], vs[1])]]))
        c.append(HalfInt(charge.doubled[t][_EDGE_INDEX[(vs[1], vs[2])]]))
        faces.append(fs)
    entries = sixj_stack(root, labs, rights, a, c)
    return [(Sixj(e, lab.pos_legs() if r else lab.neg_legs()), fs)
            for e, lab, r, fs in zip(entries, labs, rights, faces)]


def tetra_weight(root: RootData, T: TriComplex,
                 coloring: dict[int, GroupElement], charge: Charge,
                 t: int) -> tuple[Sixj, list[int]]:
    """The 6j tensor of one tetrahedron and the face class of each leg:
    the one-tetrahedron case of :func:`tetra_weights`."""
    return tetra_weights(root, T, coloring, charge, [t])[0]


# Largest tensor, in complex entries (256 MiB), that a contraction may
# create; a network whose plan needs more is refused before any weight is
# built.
MAX_ENTRIES = 2 ** 24


def _open_legs(faces: list[int]) -> list[int]:
    """Legs left after tracing the faces a tetrahedron glues to itself."""
    return [f for f in faces if faces.count(f) == 1]


def _plan(legs: list[list[int]]) -> tuple[list, int]:
    """Pairwise contraction order over tensors with the given open legs.

    Every face class must be an open leg of exactly two tensors.  Each
    step merges the pair whose result has the fewest legs, over all the
    faces the two share.  Returns the steps as ``(a, b, (axes of a, axes
    of b))``, with ids counting the inputs and then each step's result,
    and the most legs any tensor of the plan carries.
    """
    live = dict(enumerate(legs))
    holders: dict[int, set[int]] = {}
    for i, ls in live.items():
        for f in ls:
            holders.setdefault(f, set()).add(i)
    steps, peak = [], max(map(len, legs))
    while len(live) > 1:
        # pairs sharing a face; scalars of disjoint components merge last
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


def _check_faces(weights: list[tuple[Sixj, list[int]]]) -> None:
    """Every face class has one check leg and one hat leg, of equal labels."""
    ends: dict[int, list] = {}
    for S, faces in weights:
        for (kind, g, h), f in zip(S.legs, faces):
            ends.setdefault(f, []).append((kind, (g, h)))
    for f, legs in ends.items():
        if len(legs) != 2:
            raise TypeMismatch(f"face class {f} has {len(legs)} legs")
        (k1, l1), (k2, l2) = legs
        if {k1, k2} != {"check", "hat"}:
            raise TypeMismatch(f"face class {f} pairs {k1} with {k2}")
        if not all(group_close(a, b, 1e-6) for a, b in zip(l1, l2)):
            raise TypeMismatch(f"face class {f} pairs unequal labels")


def _trace_self_glued(array: np.ndarray, faces: list[int]) -> np.ndarray:
    """Contract the two legs of every face a tetrahedron glues to itself."""
    ids = [faces.index(f) for f in faces]
    return np.einsum(array, ids, [i for i in ids if ids.count(i) == 1])


def state_sum(root: RootData, scene: Scene) -> complex:
    """Contract all tetra weights over the interior faces.

    Requires a coloring and a valid charge on the scene; raises
    :class:`TypeMismatch` if some face fails to pair a check leg with a
    hat leg of equal labels, and :class:`InvariantError` if the
    contraction plan needs a tensor of more than ``MAX_ENTRIES`` entries.
    The coloring fixes the one state of the sum, since each regular edge
    color admits a single cyclic module.
    """
    _assert_q_scalar(root)
    if scene.coloring is None:
        raise InvariantError("the scene carries no coloring")
    if scene.charge is None:
        raise InvariantError("the scene carries no charge")
    T = scene.complex
    validate_charge(T, scene.link, scene.charge)
    faces = [_corners(T, t)[2] for t in range(T.n_tets)]
    steps, peak = _plan([_open_legs(fs) for fs in faces])
    if root.N ** peak > MAX_ENTRIES:
        raise InvariantError(
            f"contraction needs a tensor of {root.N}^{peak} entries, over "
            f"the budget of {MAX_ENTRIES}")
    weights = tetra_weights(root, T, scene.coloring, scene.charge,
                            range(T.n_tets))
    _check_faces(weights)
    arrays = [_trace_self_glued(S.entries, fs) for S, fs in weights]
    for a, b, axes in steps:
        arrays.append(np.tensordot(arrays[a], arrays[b], axes=axes))
        arrays[a] = arrays[b] = None
    return complex(arrays[-1]) * (1.0 / root.N) ** len(scene.link)


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
