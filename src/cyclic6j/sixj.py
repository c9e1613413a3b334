"""Charged 6j-symbol tensors and their defining identities.

A six-tuple of group elements ``(i, j, k, l, m, n)`` with ``k = ij``,
``n = jl``, ``m = kl = in`` determines two rank-4 tensors over the
N-dimensional multiplicity spaces:

* the positive symbol, the restriction of the tetrahedral form ``T``,
  with legs valued in ``Check(k,l), Check(i,j), Hat(j,l), Hat(i,n)``;
* the negative symbol, from the mirror form ``Tbar``, with legs in
  ``Check(i,n), Check(j,l), Hat(i,j), Hat(k,l)``.

Here ``Check(g,h)`` is the multiplicity space of maps out of the simple
module ``V_{gh}`` and ``Hat(g,h)`` its dual; see :mod:`cyclic6j.operators`.
Both forms are evaluated by composing intertwiners into an endomorphism
of a simple module and extracting the proportionality scalar.

Charged symbols twist the tensors by half-integer powers of the block
operators ``L``, ``R`` and the grading scalar ``q``.  The checkers at the
bottom return residuals for the charged pentagon, the two inversion
identities and the three symmetry relations; each residual should sit at
rounding level for valid inputs and order one for violated charges.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import (
    AlgebraError, GroupElement, RootData,
    group_inv, group_mul, in_I, intertwiner_S, pair_admissible,
)
from .operators import (
    HalfInt, NotScalarError, compose, op_A, op_Astar, op_B, op_Bstar,
    op_sfA, op_sfB, pow_L, pow_R, qtilde,
)

__all__ = [
    "BadLabels", "ChargeConstraint", "LabelSix", "Sixj",
    "multiplicity_dim", "t_form", "tbar_form",
    "tform_tensor", "tbar_tensor", "sixj_pos", "sixj_neg",
    "permute_legs", "apply_to_leg",
    "pentagon_labels", "check_charged_pentagon", "check_charged_inversion",
    "check_symmetry_relations", "check_uncharged_symmetries",
]


class BadLabels(AlgebraError):
    """Six-tuple violating the product constraints, or a label outside I."""


class ChargeConstraint(AlgebraError):
    """Half-integer charges violating the linear constraints of an identity."""


def _close(a: GroupElement, b: GroupElement, tol: float = 1e-12) -> bool:
    return abs(a.x - b.x) <= tol * max(1.0, abs(a.x)) \
        and abs(a.y - b.y) <= tol * max(1.0, abs(a.y))


@dataclass(frozen=True)
class LabelSix:
    """Admissible label six-tuple ``(i, j, k, l, m, n)``.

    The products ``k = ij``, ``n = jl``, ``m = kl = in`` must hold and
    all six elements must have nonzero x coordinate.
    """

    i: GroupElement
    j: GroupElement
    k: GroupElement
    l: GroupElement
    m: GroupElement
    n: GroupElement

    def __post_init__(self) -> None:
        for name in ("i", "j", "k", "l", "m", "n"):
            if not in_I(getattr(self, name)):
                raise BadLabels(f"label {name} lies outside the regular part")
        checks = [
            ("k = ij", group_mul(self.i, self.j), self.k),
            ("n = jl", group_mul(self.j, self.l), self.n),
            ("m = kl", group_mul(self.k, self.l), self.m),
            ("m = in", group_mul(self.i, self.n), self.m),
        ]
        for what, got, want in checks:
            if not _close(got, want):
                raise BadLabels(f"product constraint {what} fails: {got} vs {want}")

    @classmethod
    def from_generators(cls, i: GroupElement, j: GroupElement,
                        l: GroupElement) -> "LabelSix":
        k = group_mul(i, j)
        return cls(i, j, k, l, group_mul(k, l), group_mul(j, l))

    def pos_legs(self) -> list[tuple[str, GroupElement, GroupElement]]:
        return [("check", self.k, self.l), ("check", self.i, self.j),
                ("hat", self.j, self.l), ("hat", self.i, self.n)]

    def neg_legs(self) -> list[tuple[str, GroupElement, GroupElement]]:
        return [("check", self.i, self.n), ("check", self.j, self.l),
                ("hat", self.i, self.j), ("hat", self.k, self.l)]


@dataclass(frozen=True)
class Sixj:
    """A charged 6j tensor: entries plus the leg metadata needed to use them."""

    entries: np.ndarray
    sign: int
    labels: LabelSix
    charges: tuple[HalfInt, HalfInt]
    legs: list[tuple[str, GroupElement, GroupElement]]


def multiplicity_dim(root: RootData, f: GroupElement, g: GroupElement,
                     h: GroupElement) -> int:
    """Dimension of the multiplicity space of ``V_h`` in ``V_f (x) V_g``: N or 0."""
    if in_I(f) and in_I(g) and in_I(h) and _close(group_mul(f, g), h, 1e-9):
        return root.N
    return 0


def _graded(root: RootData, g: GroupElement, h: GroupElement) -> np.ndarray:
    """Intertwiner on its support: ``G[x, y, d] = S[(x, y), (x + y, d)]``.

    ``S`` vanishes unless the product index is the sum of the factor
    indices mod N, so these N**3 entries are all of it.
    """
    N = root.N
    x, y = np.ogrid[:N, :N]
    return intertwiner_S(root, g, h).reshape(N, N, N, N)[x, y, (x + y) % N]


def _graded_inv(root: RootData, g: GroupElement, h: GroupElement) -> np.ndarray:
    """Inverse intertwiner on its support: ``H[c, x, d] = S^-1[(c, d), (x, c - x)]``.

    The support makes ``S`` block diagonal over the product index ``c``,
    with blocks ``B_c[x, d] = G[x, c - x, d]``; each is inverted alone.
    """
    N = root.N
    c, x = np.ogrid[:N, :N]
    blocks = _graded(root, g, h)[x, (c - x) % N]
    return np.linalg.inv(blocks).swapaxes(1, 2)


def _composite(P1: np.ndarray, P2: np.ndarray, P3: np.ndarray, P4: np.ndarray,
               tol: float) -> np.ndarray:
    """Contract gathered factors ``[s, a, c, leg]`` of a composite over ``(a, c)``.

    The factors are the four intertwiners of a composite ``V_m -> V_m``
    read along their supports: ``s`` is the ``V_m`` index, equal at both
    ends, and ``(a, c)`` fix every inner index.  Off the diagonal the
    composite vanishes by the support, so it is proportional to the
    identity exactly when its N diagonal entries agree; the worst
    deviation from their mean is checked against ``tol`` times the scale.
    """
    diag = np.einsum("sacz,sacy,sacx,sacw->zyxws", P1, P2, P3, P4,
                     optimize=True)
    tensor = diag.mean(axis=-1)
    worst = float(np.max(np.abs(diag - tensor[..., None])))
    scale = max(1.0, float(np.max(np.abs(tensor))))
    if worst > tol * scale:
        raise NotScalarError(
            f"composite defect {worst:.3e} exceeds {tol:.1e} (x {scale:.1e})")
    return tensor


def tform_tensor(root: RootData, lab: LabelSix, tol: float = 1e-9) -> np.ndarray:
    """Uncharged positive 6j tensor, indexed ``[hat(k,l), hat(i,j), check(j,l), check(i,n)]``.

    The composite ``S^-1_{k,l} (S^-1_{i,j} x id) (id x S_{j,l}) S_{i,n}``
    is an endomorphism of the simple module ``V_m`` at every fixed
    multiplicity index and must be proportional to the identity.  With
    ``V_m`` index ``s`` and ``V_i``, ``V_j`` indices ``a``, ``c``, the
    supports fix ``V_k = a + c``, ``V_l = s - a - c`` and ``V_n = s - a``.
    """
    N = root.N
    s, a, c = np.indices((N, N, N))
    return _composite(
        _graded_inv(root, lab.k, lab.l)[s, (a + c) % N],
        _graded_inv(root, lab.i, lab.j)[(a + c) % N, a],
        _graded(root, lab.j, lab.l)[c, (s - a - c) % N],
        _graded(root, lab.i, lab.n)[a, (s - a) % N], tol)


def tbar_tensor(root: RootData, lab: LabelSix, tol: float = 1e-9) -> np.ndarray:
    """Uncharged negative 6j tensor, indexed ``[hat(i,n), hat(j,l), check(i,j), check(k,l)]``.

    Composite ``S^-1_{i,n} (id x S^-1_{j,l}) (S_{i,j} x id) S_{k,l}``,
    read along the supports as in :func:`tform_tensor`.
    """
    N = root.N
    s, a, c = np.indices((N, N, N))
    return _composite(
        _graded_inv(root, lab.i, lab.n)[s, a],
        _graded_inv(root, lab.j, lab.l)[(s - a) % N, c],
        _graded(root, lab.i, lab.j)[a, c],
        _graded(root, lab.k, lab.l)[(a + c) % N, (s - a - c) % N], tol)


def t_form(root: RootData, lab: LabelSix, alpha: int, beta: int,
           gamma: int, delta: int, tol: float = 1e-9) -> complex:
    """Single positive-form scalar via the explicit morphism pipeline.

    Independent of :func:`tform_tensor`: builds the composite
    ``u (v x id) (id x x) y`` as a chain of matrix products.
    """
    N = root.N
    eyeN = np.eye(N)
    e = np.eye(N, dtype=complex)
    y = intertwiner_S(root, lab.i, lab.n) @ np.kron(eyeN, e[:, [delta]])
    x = intertwiner_S(root, lab.j, lab.l) @ np.kron(eyeN, e[:, [gamma]])
    v = np.kron(eyeN, e[[beta], :]) @ np.linalg.inv(intertwiner_S(root, lab.i, lab.j))
    u = np.kron(eyeN, e[[alpha], :]) @ np.linalg.inv(intertwiner_S(root, lab.k, lab.l))
    comp = u @ np.kron(v, eyeN) @ np.kron(eyeN, x) @ y
    c = np.trace(comp) / N
    if np.linalg.norm(comp - c * eyeN) > tol * max(1.0, abs(c)):
        raise NotScalarError("positive-form composite is not scalar")
    return complex(c)


def tbar_form(root: RootData, lab: LabelSix, alpha: int, beta: int,
              gamma: int, delta: int, tol: float = 1e-9) -> complex:
    """Single negative-form scalar ``u (id x v) (x x id) y`` via matrix products."""
    N = root.N
    eyeN = np.eye(N)
    e = np.eye(N, dtype=complex)
    y = intertwiner_S(root, lab.k, lab.l) @ np.kron(eyeN, e[:, [delta]])
    x = intertwiner_S(root, lab.i, lab.j) @ np.kron(eyeN, e[:, [gamma]])
    v = np.kron(eyeN, e[[beta], :]) @ np.linalg.inv(intertwiner_S(root, lab.j, lab.l))
    u = np.kron(eyeN, e[[alpha], :]) @ np.linalg.inv(intertwiner_S(root, lab.i, lab.n))
    comp = u @ np.kron(eyeN, v) @ np.kron(x, eyeN) @ y
    c = np.trace(comp) / N
    if np.linalg.norm(comp - c * eyeN) > tol * max(1.0, abs(c)):
        raise NotScalarError("negative-form composite is not scalar")
    return complex(c)


def apply_to_leg(tensor: np.ndarray, mat: np.ndarray, leg: int) -> np.ndarray:
    """Contract an operator matrix into one tensor leg: ``T'[..a'..] = M[a',a] T[..a..]``."""
    moved = np.tensordot(mat, tensor, axes=([1], [leg]))
    return np.moveaxis(moved, 0, leg)


def _cycles_to_map(cycles: tuple[tuple[int, ...], ...], n: int) -> list[int]:
    sigma = list(range(1, n + 1))
    for cyc in cycles:
        for p, q in zip(cyc, cyc[1:] + cyc[:1]):
            sigma[p - 1] = q
    return sigma


def permute_legs(tensor: np.ndarray, cycles: tuple[tuple[int, ...], ...]) -> np.ndarray:
    """Apply a leg permutation: the content of leg p moves to leg sigma(p).

    ``cycles`` uses 1-based leg numbers, e.g. ``((4, 3, 2, 1),)`` or
    ``((1, 2, 6, 5), (3, 4))``.
    """
    n = tensor.ndim
    sigma = _cycles_to_map(cycles, n)
    inv = [0] * n
    for p, s in enumerate(sigma):
        inv[s - 1] = p
    return np.transpose(tensor, axes=inv)


def sixj_pos(root: RootData, lab: LabelSix, a: HalfInt, c: HalfInt,
             tol: float = 1e-9) -> Sixj:
    """Charged positive 6j symbol.

    The charge twist acts on the arguments of the form: ``q^{4ac} R^c`` on
    slot 1, ``R^{-a}`` on slot 2, ``L^{-a} R^{-c}`` on slot 3 (slot 4
    untouched).  Argument-side operators enter the component array through
    their transpose.
    """
    out = qtilde(root) ** (a.doubled * c.doubled) * tform_tensor(root, lab, tol)
    out = apply_to_leg(out, pow_R(root, lab.k, lab.l, c).hat_mat.T, 0)
    out = apply_to_leg(out, pow_R(root, lab.i, lab.j, -a).hat_mat.T, 1)
    out = apply_to_leg(out, compose(pow_L(root, lab.j, lab.l, -a),
                                    pow_R(root, lab.j, lab.l, -c)).check_mat.T, 2)
    return Sixj(out, +1, lab, (a, c), lab.pos_legs())


def sixj_neg(root: RootData, lab: LabelSix, a: HalfInt, c: HalfInt,
             tol: float = 1e-9) -> Sixj:
    """Charged negative 6j symbol.

    Twist on the form's arguments: ``q^{-4ac}`` on slot 1, ``L^{-a} R^{-c}``
    on slot 2, ``R^{-a}`` on slot 3 and ``R^{c}`` on slot 4.
    """
    out = qtilde(root) ** (-a.doubled * c.doubled) * tbar_tensor(root, lab, tol)
    out = apply_to_leg(out, compose(pow_L(root, lab.j, lab.l, -a),
                                    pow_R(root, lab.j, lab.l, -c)).hat_mat.T, 1)
    out = apply_to_leg(out, pow_R(root, lab.i, lab.j, -a).check_mat.T, 2)
    out = apply_to_leg(out, pow_R(root, lab.k, lab.l, c).check_mat.T, 3)
    return Sixj(out, -1, lab, (a, c), lab.neg_legs())


def pentagon_labels(j1: GroupElement, j2: GroupElement, j3: GroupElement,
                    j4: GroupElement) -> dict[str, GroupElement]:
    """The nine derived labels of the pentagon from four generators."""
    j5 = group_mul(j1, j2)
    j = group_mul(j2, j3)
    j6 = group_mul(j5, j3)
    j8 = group_mul(j3, j4)
    j7 = group_mul(j2, j8)
    j0 = group_mul(j6, j4)
    return {"j0": j0, "j1": j1, "j2": j2, "j3": j3, "j4": j4,
            "j5": j5, "j6": j6, "j7": j7, "j8": j8, "j": j}


def _pentagon_charges_ok(a: tuple[HalfInt, ...], c: tuple[HalfInt, ...]) -> bool:
    a0, a1, a2, a3, a4 = (x.doubled for x in a)
    c0, c1, c2, c3, c4 = (x.doubled for x in c)
    return (a1 == a0 + a2 and a3 == a2 + a4 and c1 == c0 + a4
            and c3 == a0 + c4 and c2 == c1 + c3)


def check_charged_pentagon(root: RootData, labels: dict[str, GroupElement],
                           a: tuple[HalfInt, ...], c: tuple[HalfInt, ...],
                           skip_constraint_check: bool = False) -> float:
    """Frobenius residual of the charged pentagon identity.

    ``labels`` is the output of :func:`pentagon_labels` (or a dict with the
    same keys); ``a`` and ``c`` are the five charge pairs ``(a_0..a_4)``
    and ``(c_0..c_4)``.  The sum over the middle label collapses to the
    single admissible value ``j = j2 j3``.
    """
    if not skip_constraint_check and not _pentagon_charges_ok(a, c):
        raise ChargeConstraint("pentagon charges violate the five linear relations")
    jd = labels
    S1 = sixj_pos(root, LabelSix.from_generators(jd["j1"], jd["j2"], jd["j3"]),
                  a[0], c[0]).entries
    S2 = sixj_pos(root, LabelSix.from_generators(jd["j1"], jd["j"], jd["j4"]),
                  a[2], c[2]).entries
    S3 = sixj_pos(root, LabelSix.from_generators(jd["j2"], jd["j3"], jd["j4"]),
                  a[4], c[4]).entries
    SA = sixj_pos(root, LabelSix.from_generators(jd["j1"], jd["j2"], jd["j8"]),
                  a[1], c[1]).entries
    SB = sixj_pos(root, LabelSix.from_generators(jd["j5"], jd["j3"], jd["j4"]),
                  a[3], c[3]).entries
    lhs = np.einsum("abqr,crpd,pqef->abcdef", S1, S2, S3, optimize=True)
    pre = np.einsum("sabc,defs->abcdef", SA, SB, optimize=True)
    rhs = permute_legs(pre, ((1, 2, 6, 5), (3, 4)))
    return float(np.linalg.norm(lhs - rhs))


def check_charged_inversion(root: RootData, lab: LabelSix, a: HalfInt,
                            c: HalfInt) -> tuple[float, float]:
    """Residuals of the two inversion identities at charges ``(a, c)``.

    Both identities contract a positive against a negative symbol at the
    opposite charges and must produce the doubled Kronecker pattern
    ``delta[alpha, delta'] delta[beta, gamma]``.
    """
    N = root.N
    pos = sixj_pos(root, lab, a, c).entries
    neg = sixj_neg(root, lab, -a, -c).entries
    target = np.einsum("ad,bg->abgd", np.eye(N), np.eye(N))
    first = np.einsum("abnm,mngd->abgd", pos, neg, optimize=True)
    second = np.einsum("abnm,mngd->abgd", neg, pos, optimize=True)
    return (float(np.linalg.norm(first - target)),
            float(np.linalg.norm(second - target)))


def _sym_targets(root: RootData, lab: LabelSix, a: HalfInt, b: HalfInt,
                 c: HalfInt, charged: bool) -> list[np.ndarray]:
    """Right-hand sides of the three symmetry relations (charged or not)."""
    i, j, k, l, m, n = lab.i, lab.j, lab.k, lab.l, lab.m, lab.n
    ist, jst, lst = group_inv(i), group_inv(j), group_inv(l)
    qt = qtilde(root)
    zero = HalfInt(0)

    lab01 = LabelSix(ist, k, j, l, n, m)
    lab12 = LabelSix(k, jst, i, n, m, l)
    lab23 = LabelSix(i, n, m, lst, k, j)
    if charged:
        neg01 = sixj_neg(root, lab01, a, b).entries
        neg12 = sixj_neg(root, lab12, b, c).entries
        neg23 = sixj_neg(root, lab23, a, b).entries
        # involutions on the stated legs; every q power below is read on
        # the check-valued first leg of the mirror symbol, where q acts
        # as 1/qtilde per unit
        t01 = apply_to_leg(neg01, op_sfA(root, ist, m).check_mat, 0)
        t01 = apply_to_leg(t01, op_sfA(root, ist, k).hat_mat, 2)
        t01 = qt ** (-a.doubled) * t01                  # q^{2a}
        t12 = apply_to_leg(neg12, op_sfA(root, jst, n).check_mat, 1)
        t12 = apply_to_leg(t12, op_sfB(root, k, jst).hat_mat, 2)
        t12 = qt ** c.doubled * t12                     # q^{-2c}
        t23 = apply_to_leg(neg23, op_sfB(root, n, lst).check_mat, 1)
        t23 = apply_to_leg(t23, op_sfB(root, m, lst).hat_mat, 3)
        t23 = qt ** (-a.doubled) * t23                  # q^{2a}
    else:
        neg01 = sixj_neg(root, lab01, zero, zero).entries
        neg12 = sixj_neg(root, lab12, zero, zero).entries
        neg23 = sixj_neg(root, lab23, zero, zero).entries
        t01 = apply_to_leg(neg01, op_A(root, ist, m).check_mat, 0)
        t01 = apply_to_leg(t01, op_Astar(root, ist, k).hat_mat, 2)
        t12 = apply_to_leg(neg12, op_Astar(root, jst, n).check_mat, 1)
        t12 = apply_to_leg(t12, op_Bstar(root, k, jst).hat_mat, 2)
        t23 = apply_to_leg(neg23, op_Bstar(root, n, lst).check_mat, 1)
        t23 = apply_to_leg(t23, op_B(root, m, lst).hat_mat, 3)
    return [permute_legs(t01, ((4, 3, 2, 1),)),
            permute_legs(t12, ((2, 3),)),
            permute_legs(t23, ((1, 2, 3, 4),))]


def check_symmetry_relations(root: RootData, lab: LabelSix, a: HalfInt,
                             b: HalfInt, c: HalfInt) -> tuple[float, float, float]:
    """Residuals of the three charged symmetry relations.

    Requires ``a + b + c = 1/2`` exactly; raises
    :class:`ChargeConstraint` otherwise.
    """
    if a.doubled + b.doubled + c.doubled != 1:
        raise ChargeConstraint("symmetry relations need a + b + c = 1/2")
    pos = sixj_pos(root, lab, a, c).entries
    rhs = _sym_targets(root, lab, a, b, c, charged=True)
    return tuple(float(np.linalg.norm(pos - t)) for t in rhs)


def check_uncharged_symmetries(root: RootData,
                               lab: LabelSix) -> tuple[float, float, float]:
    """Residuals of the three uncharged symmetry relations (plain A/A*/B/B*)."""
    pos = tform_tensor(root, lab)
    rhs = _sym_targets(root, lab, HalfInt(0), HalfInt(0), HalfInt(0), charged=False)
    return tuple(float(np.linalg.norm(pos - t)) for t in rhs)
