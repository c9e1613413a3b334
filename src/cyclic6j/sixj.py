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
operators ``L``, ``R`` and the grading scalar ``q``.  Every charge
argument is a doubled int: ``sixj_pos(root, lab, 1, 0)`` is the positive
symbol at ``a = 1/2``, ``c = 0``.

:func:`sixj_stack` builds the charged tensors of a whole stack of
six-tuples, mixed signs and charges, in one pass: the intertwiners of
every leg from one closed-form graded ``S``
(:func:`~cyclic6j.algebra.graded_S`), the inverse blocks of every check
leg from one ``np.linalg.inv``, the composites as two batched matrix
products of ``N**6`` multiplications per tensor, a slice of at most
``_SLICE_ENTRIES`` entries at a time, and the twist in closed form as one
index gather and one phase multiply.  The composite guard stays per
tensor: each tensor's worst diagonal deviation is compared with
``_COMPOSITE_TOL`` times its own ``max(1, max|tensor|)``, never with a
scale taken across the stack.  :func:`tform_tensor`, :func:`tbar_tensor`,
:func:`sixj_pos` and :func:`sixj_neg` are its one-tensor cases;
:func:`t_form`, :func:`tbar_form` and the operator powers of
:mod:`cyclic6j.operators` stay independent of it, as oracles.  The
checkers at the bottom return residuals for the charged pentagon, the two
inversion identities and the three symmetry relations; each residual
should sit at rounding level for valid inputs and order one for violated
charges.  The pentagon and charged symmetry residuals are relative to
the scale of their sides; the inversion and uncharged ones are absolute.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .algebra import (
    AlgebraError, BadOperands, GroupElement, RootData, _powers, graded_S,
    group_close, group_inv, group_mul, in_I, intertwiner_S, real_roots,
)
from .operators import (
    NotScalarError, _COMPOSITE_TOL, _half_powers, _kron,
    _scalar_part, op_A, op_Astar, op_B, op_Bstar, op_sfA, op_sfB, qtilde,
)

__all__ = [
    "BadLabels", "ChargeConstraint", "LabelSix",
    "multiplicity_dim", "t_form", "tbar_form",
    "tform_tensor", "tbar_tensor", "sixj_stack", "sixj_pos", "sixj_neg",
    "permute_legs", "apply_to_leg",
    "pentagon_labels", "check_charged_pentagon", "check_charged_inversion",
    "check_symmetry_relations", "check_uncharged_symmetries",
]


class BadLabels(AlgebraError):
    """Six-tuple violating the product constraints, or a label outside I."""


class ChargeConstraint(AlgebraError):
    """Half-integer charges violating the linear constraints of an identity."""


# The labels (i, j, k, l, m, n), by index, of the (g, h) pair of each leg
# of a positive (True) and a negative (False) tensor; legs 0 and 1 are
# check legs, 2 and 3 hat legs.
_LEGS = {True: ((2, 3), (0, 1), (1, 3), (0, 5)),
         False: ((0, 5), (1, 3), (0, 1), (2, 3))}


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
        for name, g in zip("ijklmn", self.six):
            if not in_I(g):
                raise BadLabels(f"label {name} lies outside the regular part")
        checks = [
            ("k = ij", group_mul(self.i, self.j), self.k),
            ("n = jl", group_mul(self.j, self.l), self.n),
            ("m = kl", group_mul(self.k, self.l), self.m),
            ("m = in", group_mul(self.i, self.n), self.m),
        ]
        for what, got, want in checks:
            if not group_close(got, want, 1e-12):
                raise BadLabels(f"product constraint {what} fails: {got} vs {want}")

    @classmethod
    def from_generators(cls, i: GroupElement, j: GroupElement,
                        l: GroupElement) -> "LabelSix":
        k = group_mul(i, j)
        return cls(i, j, k, l, group_mul(k, l), group_mul(j, l))

    @property
    def six(self) -> tuple[GroupElement, ...]:
        return (self.i, self.j, self.k, self.l, self.m, self.n)


def multiplicity_dim(root: RootData, f: GroupElement, g: GroupElement,
                     h: GroupElement) -> int:
    """Dimension of the multiplicity space of ``V_h`` in ``V_f (x) V_g``: N or 0."""
    if in_I(f) and in_I(g) and in_I(h) and group_close(group_mul(f, g), h, 1e-9):
        return root.N
    return 0


def _label_stack(i: np.ndarray, j: np.ndarray, l: np.ndarray) -> np.ndarray:
    """The labels ``[tensor, i..n, x or y]`` of stacked generators ``[tensor,
    x or y]``, with the float operations and the checks of
    :meth:`LabelSix.from_generators`; of its products only ``m = kl = in``
    can fail, as ``group_close`` at 1e-12."""
    def mul(g, h):
        return np.stack([g[:, 0] + g[:, 1] * h[:, 0], g[:, 1] * h[:, 1]], 1)
    k = mul(i, j)
    six = np.stack([i, j, k, l, mul(k, l), mul(j, l)], axis=1)
    if not (six[..., 1] > 0).all():
        raise BadOperands("a label leaves the group")
    outside = np.flatnonzero(six[..., 0] == 0)
    if outside.size:
        raise BadLabels(f"label {'ijklmn'[outside[0] % 6]} lies outside the "
                        "regular part")
    got = mul(i, six[:, 5])
    if not (abs(got - six[:, 4]) <= 1e-12 * np.maximum(1, abs(got))).all():
        raise BadLabels("product constraint m = in fails")
    return six


def _leg_pairs(labels: np.ndarray, right: np.ndarray) -> np.ndarray:
    """``(x, y)`` of the label pair of every leg, ``[tensor, leg, g or h, x
    or y]``, from the labels ``[tensor, i..n, x or y]``."""
    legs = np.where(right[:, None, None], _LEGS[True], _LEGS[False])
    return labels[np.arange(len(labels))[:, None, None], legs]


def _one(lab: LabelSix, right: bool) -> tuple[np.ndarray, np.ndarray]:
    """The leg pairs and the sign of one tensor, as a stack of one."""
    right = np.array([right])
    return _leg_pairs(np.array([[(g.x, g.y) for g in lab.six]]), right), right


def _gathers(N: int) -> tuple[list, list]:
    """Where the four factors of a positive and of a negative composite are
    read: index pairs into each factor's support ``[first, second, leg]``
    over the ``V_m`` index ``s``, the outer index ``u`` and the inner index
    ``v`` of :func:`tform_tensor` and :func:`tbar_tensor`.  Factor 0 reads
    no ``v``: its pairs broadcast to ``[s, u, 1]``."""
    s, u, v = np.ogrid[:N, :N, :N]
    pos = [(s, u), (u, v), (u - v, s - u), (v, s - v)]
    neg = [(s, u), (s - u, v), (u, v), (u + v, s - u - v)]
    return ([(i % N, j % N) for i, j in pos], [(i % N, j % N) for i, j in neg])


# Entries per composite slice: each intermediate, such as [t, s, u, v, x,
# w], holds at most this many, or one tensor's N**5 when that is more.
_SLICE_ENTRIES = 2 ** 15


def _composites(root: RootData, pairs: np.ndarray,
                right: np.ndarray) -> np.ndarray:
    """Uncharged 6j tensors of a stack, ``[tensor, leg 1, .., leg 4]``.

    Each tensor is the composite of its four intertwiners, an
    endomorphism of ``V_m`` at every fixed multiplicity index, read along
    the supports of the factors: ``S^-1`` on the two check legs and ``S``
    on the two hat legs.  The check legs' ``S`` is block diagonal over the
    product index ``c``, with blocks ``B_c[x, d] = G[x, c - x, d]``; all
    blocks of the stack are inverted in one call.  With the ``V_m`` index
    ``s`` and the outer and inner indices ``u``, ``v`` of :func:`_gathers`,
    factors 1-3 are summed over ``v`` and then factor 0 over ``u``: two
    batched matrix products of ``N**6`` multiplications per tensor.  Off
    the diagonal the composite vanishes by the support, so it is
    proportional to the identity exactly when its N diagonal entries
    agree.  Each tensor's worst deviation from their mean is checked
    against ``_COMPOSITE_TOL`` times its own scale, ``max(1,
    max|tensor|)``.
    """
    N, T = root.N, len(right)
    G = graded_S(root, pairs[:, :, 0], pairs[:, :, 1])
    c, x = np.ogrid[:N, :N]
    H = np.linalg.inv(G[:, :2, x, (c - x) % N]).swapaxes(-1, -2)
    factors = (H[:, 0], H[:, 1], G[:, 2], G[:, 3])
    sel = right[:, None, None, None]
    index = [(np.where(sel, i, k), np.where(sel, j, l))
             for (i, j), (k, l) in zip(*_gathers(N))]
    out = np.empty((T,) + (N,) * 4, dtype=complex)
    step = max(1, _SLICE_ENTRIES // N ** 5)
    for lo in range(0, T, step):
        t = np.arange(lo, min(lo + step, T))
        f0, f1, f2, f3 = (F[t[:, None, None, None], i[t], j[t]]
                          for F, (i, j) in zip(factors, index))
        n = len(t)
        # [t, s, u, v, x, w] -> [t, s, u, y, (x, w)] -> [t, s, z, y, x, w]
        inner = f1.swapaxes(-1, -2) @ (f2[..., None] * f3[..., None, :]
                                       ).reshape(n, N, N, N, N * N)
        diag = (f0[:, :, :, 0].swapaxes(-1, -2)
                @ inner.reshape(n, N, N, N ** 3)).reshape((n,) + (N,) * 5)
        tensor = diag.mean(axis=1)
        worst = np.abs(diag - tensor[:, None]).max(axis=(1, 2, 3, 4, 5))
        scale = np.maximum(1.0, np.abs(tensor).max(axis=(1, 2, 3, 4)))
        bad = np.flatnonzero(worst > _COMPOSITE_TOL * scale)
        if bad.size:
            b = bad[0]
            raise NotScalarError(
                f"composite defect {worst[b]:.3e} of tensor {lo + b} exceeds "
                f"{_COMPOSITE_TOL:.1e} (x {scale[b]:.1e})")
        out[t] = tensor
    return out


def _twist(root: RootData, pairs: np.ndarray, right: np.ndarray,
           a: np.ndarray, c: np.ndarray, tensors: np.ndarray) -> np.ndarray:
    """Charge twist of a stack of uncharged tensors at doubled charges ``a``, ``c``.

    Positive (negative) tensors get ``q^{4ac}`` (``q^{-4ac}``), ``R^c`` on
    the ``(k, l)`` leg, ``R^{-a}`` on the ``(i, j)`` leg and ``L^{-a}
    R^{-c}`` on the ``(j, l)`` leg, all on the form's arguments.  In closed
    form ``(sqrtR)^n`` is the diagonal ``w^{-i n (N+1)/2}`` and
    ``(sqrtL)^n`` reads a check leg at ``i - n (N+1)/2`` and a hat leg at
    ``i + n (N+1)/2``, each times its half-power scalar to the n.  So the
    twist is one index gather and one phase multiply; the pairs are
    checked as :func:`~cyclic6j.operators.op_sqrtR` and
    :func:`~cyclic6j.operators.op_sqrtL` check them.
    """
    N, half, T = root.N, root.half, len(right)
    # legs of the (k, l), (i, j) and (j, l) pairs
    legs = np.where(right[:, None], [0, 1, 2], [3, 2, 1])
    p = pairs[np.arange(T)[:, None], legs]
    gx, gy, hx = p[..., 0, 0], p[..., 0, 1], p[..., 1, 0]
    x = np.array([gx, hx, gx + gy * hx])
    if not np.all(x):
        raise BadOperands("a twist pair is not admissible")
    vg, vh, vgh = real_roots(root, x)
    sR = _half_powers(root, vg / vgh)
    sL = _half_powers(root, gy[:, 2] ** (1.0 / N) * vh[:, 2] / vgh[:, 2])
    sign = np.where(right, 1, -1)
    scalar = (qtilde(root) ** (sign * a * c) * sR[:, 0] ** c
              * sR[:, 1] ** -a * sL ** -a * sR[:, 2] ** -c)
    expo = np.zeros((T, 4), dtype=int)
    np.put_along_axis(expo, legs, np.stack([-half * c, half * a, half * c],
                                           axis=1), axis=1)
    shift = np.zeros((T, 4), dtype=int)
    np.put_along_axis(shift, legs[:, 2:], (sign * half * a)[:, None], axis=1)

    def per_tensor(v: np.ndarray) -> np.ndarray:
        return v.reshape(T, 1, 1, 1, 1)
    idx = np.ogrid[:N, :N, :N, :N]
    phase = sum(per_tensor(expo[:, q]) * i for q, i in enumerate(idx)) % N
    at = [(i + per_tensor(shift[:, q])) % N for q, i in enumerate(idx)]
    return (per_tensor(scalar) * _powers(root)[phase]
            * tensors[(per_tensor(np.arange(T)), *at)])


def sixj_stack(root: RootData, pairs: np.ndarray, right: Sequence[bool],
               a: Sequence[int], c: Sequence[int]) -> np.ndarray:
    """Charged 6j tensors of a stack of label six-tuples, in one pass.

    Tensor ``t``, of leg pairs ``pairs[t]`` (see :func:`_leg_pairs`), is
    the positive symbol at doubled charges ``(a[t], c[t])`` when
    ``right[t]`` holds and the negative one otherwise; the result is
    indexed ``[t, leg 1, .., leg 4]``.  All intertwiners of the stack are
    built together, the composites are contracted a slice of tensors at a
    time, and each tensor's scalar defect is checked on its own scale.
    """
    right = np.array(right, dtype=bool)
    return _twist(root, pairs, right, np.array(a), np.array(c),
                  _composites(root, pairs, right))


def tform_tensor(root: RootData, lab: LabelSix) -> np.ndarray:
    """Uncharged positive 6j tensor, indexed ``[hat(k,l), hat(i,j), check(j,l), check(i,n)]``.

    The composite ``S^-1_{k,l} (S^-1_{i,j} x id) (id x S_{j,l}) S_{i,n}``
    is an endomorphism of the simple module ``V_m`` at every fixed
    multiplicity index and must be proportional to the identity.  With
    ``V_m`` index ``s``, ``V_k`` index ``u`` and ``V_i`` index ``v``, the
    supports fix ``V_j = u - v``, ``V_l = s - u`` and ``V_n = s - v``.
    Summing ``v`` first, then ``u``, costs ``N**6`` multiplications for
    the ``N**5`` diagonal entries, each of which is checked.
    """
    return _composites(root, *_one(lab, True))[0]


def tbar_tensor(root: RootData, lab: LabelSix) -> np.ndarray:
    """Uncharged negative 6j tensor, indexed ``[hat(i,n), hat(j,l), check(i,j), check(k,l)]``.

    Composite ``S^-1_{i,n} (id x S^-1_{j,l}) (S_{i,j} x id) S_{k,l}``,
    read along the supports as in :func:`tform_tensor`, with ``V_i``
    index ``u`` and ``V_j`` index ``v``.
    """
    return _composites(root, *_one(lab, False))[0]


def _form(root: RootData, lab: LabelSix, mirror: bool, alpha: int,
          beta: int, gamma: int, delta: int) -> complex:
    """One form scalar as a chain of matrix products, independent of
    :func:`sixj_stack`: ``u (v x id) (id x x) y``, mirrored ``u (id x v)
    (x x id) y``, with ``u = e*_alpha S_1^-1``, ``v = e*_beta S_2^-1``,
    ``x = S_3 e_gamma``, ``y = S_4 e_delta`` on the legs' intertwiners."""
    eyeN, e = np.eye(root.N), np.eye(root.N, dtype=complex)
    S = [intertwiner_S(root, lab.six[g], lab.six[h])
         for g, h in _LEGS[not mirror]]
    y = S[3] @ np.kron(eyeN, e[:, [delta]])
    x = S[2] @ np.kron(eyeN, e[:, [gamma]])
    v = np.kron(eyeN, e[[beta], :]) @ np.linalg.inv(S[1])
    u = np.kron(eyeN, e[[alpha], :]) @ np.linalg.inv(S[0])
    return _scalar_part(u @ _kron(v, eyeN, mirror) @ _kron(eyeN, x, mirror) @ y)


def t_form(root: RootData, lab: LabelSix, alpha: int, beta: int,
           gamma: int, delta: int) -> complex:
    """Single positive-form scalar via the explicit morphism pipeline."""
    return _form(root, lab, False, alpha, beta, gamma, delta)


def tbar_form(root: RootData, lab: LabelSix, alpha: int, beta: int,
              gamma: int, delta: int) -> complex:
    """Single negative-form scalar via the explicit morphism pipeline."""
    return _form(root, lab, True, alpha, beta, gamma, delta)


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


def sixj_pos(root: RootData, lab: LabelSix, a: int, c: int) -> np.ndarray:
    """Charged positive 6j symbol at doubled charges, via :func:`sixj_stack`.

    The charge twist acts on the arguments of the form: ``q^{4ac} R^c`` on
    slot 1, ``R^{-a}`` on slot 2, ``L^{-a} R^{-c}`` on slot 3 (slot 4
    untouched).
    """
    return sixj_stack(root, *_one(lab, True), [a], [c])[0]


def sixj_neg(root: RootData, lab: LabelSix, a: int, c: int) -> np.ndarray:
    """Charged negative 6j symbol at doubled charges, via :func:`sixj_stack`.

    Twist on the form's arguments: ``q^{-4ac}`` on slot 1, ``L^{-a} R^{-c}``
    on slot 2, ``R^{-a}`` on slot 3 and ``R^{c}`` on slot 4.
    """
    return sixj_stack(root, *_one(lab, False), [a], [c])[0]


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


def _pentagon_charges_ok(a: tuple[int, ...], c: tuple[int, ...]) -> bool:
    a0, a1, a2, a3, a4 = a
    c0, c1, c2, c3, c4 = c
    return (a1 == a0 + a2 and a3 == a2 + a4 and c1 == c0 + a4
            and c3 == a0 + c4 and c2 == c1 + c3)


def check_charged_pentagon(root: RootData, labels: dict[str, GroupElement],
                           a: tuple[int, ...], c: tuple[int, ...],
                           skip_constraint_check: bool = False) -> float:
    """Relative Frobenius residual of the charged pentagon identity.

    ``labels`` is the output of :func:`pentagon_labels` (or a dict with the
    same keys); ``a`` and ``c`` are the five doubled charge pairs
    ``(a_0..a_4)`` and ``(c_0..c_4)``.  The sum over the middle label
    collapses to the single admissible value ``j = j2 j3``.  The residual
    ``|lhs - rhs|`` is divided by ``|S1||S2||S3| + |SA||SB|``, the scale
    of rounding in the two products: charges scale single factors by
    orders of magnitude, and with them the absolute error.
    """
    if not skip_constraint_check and not _pentagon_charges_ok(a, c):
        raise ChargeConstraint("pentagon charges violate the five linear relations")
    jd = labels
    S1 = sixj_pos(root, LabelSix.from_generators(jd["j1"], jd["j2"], jd["j3"]),
                  a[0], c[0])
    S2 = sixj_pos(root, LabelSix.from_generators(jd["j1"], jd["j"], jd["j4"]),
                  a[2], c[2])
    S3 = sixj_pos(root, LabelSix.from_generators(jd["j2"], jd["j3"], jd["j4"]),
                  a[4], c[4])
    SA = sixj_pos(root, LabelSix.from_generators(jd["j1"], jd["j2"], jd["j8"]),
                  a[1], c[1])
    SB = sixj_pos(root, LabelSix.from_generators(jd["j5"], jd["j3"], jd["j4"]),
                  a[3], c[3])
    lhs = np.einsum("abqr,crpd,pqef->abcdef", S1, S2, S3, optimize=True)
    pre = np.einsum("sabc,defs->abcdef", SA, SB, optimize=True)
    rhs = permute_legs(pre, ((1, 2, 6, 5), (3, 4)))
    norm = np.linalg.norm
    scale = norm(S1) * norm(S2) * norm(S3) + norm(SA) * norm(SB)
    return float(norm(lhs - rhs) / scale)


def check_charged_inversion(root: RootData, lab: LabelSix, a: int,
                            c: int) -> tuple[float, float]:
    """Residuals of the two inversion identities at doubled charges ``(a, c)``.

    Both identities contract a positive against a negative symbol at the
    opposite charges and must produce the doubled Kronecker pattern
    ``delta[alpha, delta'] delta[beta, gamma]``.
    """
    pos = sixj_pos(root, lab, a, c)
    neg = sixj_neg(root, lab, -a, -c)
    return _inversion_defect(pos, neg), _inversion_defect(neg, pos)


def _inversion_defect(first: np.ndarray, second: np.ndarray) -> float:
    """Frobenius distance of ``first . second`` from the inversion target."""
    eye = np.eye(len(first))
    got = np.einsum("abnm,mngd->abgd", first, second, optimize=True)
    return float(np.linalg.norm(got - np.einsum("ad,bg->abgd", eye, eye)))


def _sym_targets(root: RootData, lab: LabelSix, a: int, b: int, c: int,
                 charged: bool) -> list[np.ndarray]:
    """Right-hand sides of the three symmetry relations (charged or not).

    Each is a mirror symbol with a check-part and a hat-part operator on
    the stated legs: the symmetrized involutions and a power of q when
    charged, plain A/A*/B/B* at zero charge otherwise.  Every q power is
    read on the check-valued first leg of the mirror symbol, where q acts
    as 1/qtilde per unit.
    """
    i, j, k, l, m, n = lab.i, lab.j, lab.k, lab.l, lab.m, lab.n
    ist, jst, lst = group_inv(i), group_inv(j), group_inv(l)
    if charged:
        A, As, B, Bs = op_sfA, op_sfA, op_sfB, op_sfB
    else:
        A, As, B, Bs = op_A, op_Astar, op_B, op_Bstar
    qt = qtilde(root)
    relations = [  # q^{2a}, q^{-2c} and q^{2a}
        (LabelSix(ist, k, j, l, n, m), a, b, A(root, ist, m).check_mat, 0,
         As(root, ist, k).hat_mat, 2, -a, ((4, 3, 2, 1),)),
        (LabelSix(k, jst, i, n, m, l), b, c, As(root, jst, n).check_mat, 1,
         Bs(root, k, jst).hat_mat, 2, c, ((2, 3),)),
        (LabelSix(i, n, m, lst, k, j), a, b, Bs(root, n, lst).check_mat, 1,
         B(root, m, lst).hat_mat, 3, -a, ((1, 2, 3, 4),))]
    out = []
    for mirror, x, y, check, leg, hat, leg2, power, cycles in relations:
        t = apply_to_leg(sixj_neg(root, mirror, x, y), check, leg)
        t = apply_to_leg(t, hat, leg2)
        out.append(permute_legs(qt ** power * t if charged else t, cycles))
    return out


def check_symmetry_relations(root: RootData, lab: LabelSix, a: int, b: int,
                             c: int) -> tuple[float, float, float]:
    """Relative residuals of the three charged symmetry relations.

    Each residual ``|pos - t|`` is divided by ``|pos| + |t|``, the scale
    of the two sides: charges scale the symbols, and the rounding of the
    contractions with them, by orders of magnitude.  Requires doubled
    charges with ``a + b + c = 1``; raises :class:`ChargeConstraint` else.
    """
    if a + b + c != 1:
        raise ChargeConstraint("symmetry relations need a + b + c = 1/2")
    pos = sixj_pos(root, lab, a, c)
    rhs = _sym_targets(root, lab, a, b, c, charged=True)
    norm = np.linalg.norm
    return tuple(float(norm(pos - t) / (norm(pos) + norm(t))) for t in rhs)


def check_uncharged_symmetries(root: RootData,
                               lab: LabelSix) -> tuple[float, float, float]:
    """Absolute residuals of the three uncharged symmetry relations (plain
    A/A*/B/B*)."""
    pos = tform_tensor(root, lab)
    rhs = _sym_targets(root, lab, 0, 0, 0, charged=False)
    return tuple(float(np.linalg.norm(pos - t)) for t in rhs)
