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
six-tuples, mixed signs and charges, in one fill and only on their flux
supports (:data:`_SUPPORT`, N**3 of N**4 entries).  Each uncharged tensor
is Kashaev's cyclic 6j symbol (*Quantum dilogarithm as a 6j-symbol*,
hep-th/9411147): on its support, one cyclic dilogarithm of the labels'
real roots times a phase and a scalar.  The charge twist adds a linear
phase, a shift of the dilogarithm's argument and a scalar, from the same
roots, so each stored entry is written once, in the layout the state sum
stores, in ``O(N**3)`` per tensor.  Only the scalar is read off the
intertwiners (:func:`_fit`): from 16 composite entries per tensor, each
at all N diagonal values, with the intertwiners of every leg from one
closed-form graded ``S`` (:func:`~cyclic6j.algebra.graded_S`) and the
inverse blocks of every check leg from one ``np.linalg.inv``.  The guard
stays per tensor and covers every entry formed: each one's N diagonal
values, the 10 entries off the support, which must vanish, and the 6 on
it, which must match the closed form, all within ``_COMPOSITE_TOL`` times
the tensor's own ``max(1, max|tensor|)``, never a scale taken across the
stack.  :func:`sixj_pos` and :func:`sixj_neg` are its one-tensor cases,
expanded by :func:`_dense`.
:func:`tform_tensor` and :func:`tbar_tensor` form every entry of the
composite (:func:`_composites`) and, with :func:`t_form`,
:func:`tbar_form` and the operator powers of :mod:`cyclic6j.operators`,
stay independent of the closed form, as oracles.  The checkers at the bottom
return residuals for the charged pentagon, the two inversion identities
and the three symmetry relations; each residual should sit at rounding
level for valid inputs and order one for violated charges.  The pentagon
and charged symmetry residuals are relative to the scale of their sides;
the inversion and uncharged ones are absolute.
"""
from __future__ import annotations

import functools
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
    "t_form", "tbar_form",
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


# Tensors per batch of a composite or a fit: each intermediate holds at
# most about this many entries, or one tensor's when that is more; a
# composite holds N**5 per tensor, the fit's factor rows 3 N**3.  The
# weights themselves are filled in one pass over the stack.
_SLICE_ENTRIES = 2 ** 15


def _factors(root: RootData, pairs: np.ndarray,
             legs: np.ndarray | None = None) -> np.ndarray:
    """The four factors of every composite of a stack, ``[tensor, factor,
    first, second, leg]``: ``S^-1`` on the two check legs and ``S`` on the
    two hat legs, read along their supports, at the multiplicity indices
    ``legs[tensor, factor]``, all of them by default.  The check legs'
    ``S`` is block diagonal over the product index ``c``, with blocks
    ``B_c[x, d] = G[x, c - x, d]``.  ``G[x, y, d]`` depends on ``y`` and
    ``d`` only through ``y - d``, so ``B_c[x, d] = B_0[x, d - c]`` and
    ``B_c^-1[d, x] = B_0^-1[d - c, x]``: one block per check leg is
    inverted, all of the stack in one call."""
    N = root.N
    G = graded_S(root, pairs[:, :, 0], pairs[:, :, 1])
    i = np.arange(N)
    if legs is None:
        legs = np.broadcast_to(i, (len(pairs), 4, N))
    t, f = np.arange(len(pairs))[:, None, None, None, None], np.arange(2)[
        :, None, None, None]
    d = legs[:, :, None, None]
    # [t, f, c, x, d] from [t, f, d - c, x]
    H = np.linalg.inv(G[:, :2, i[:, None], -i[:, None] % N, i])[
        t, f, (d[:, :2] - i[:, None, None]) % N, i[:, None]]
    return np.concatenate([H, G[t, f + 2, i[:, None, None], i[:, None],
                                d[:, 2:]]], axis=1)


def _refuse(scale: np.ndarray, first: int, **worst: np.ndarray) -> None:
    """Raise :class:`NotScalarError` for the first tensor with a worst
    deviation, of any kind given, that is not within ``_COMPOSITE_TOL``
    times its ``scale``, a NaN included; the tensors are numbered from
    ``first``."""
    dev = np.array(list(worst.values()))
    ok = dev <= _COMPOSITE_TOL * scale
    if not ok.all():
        b = np.flatnonzero(~ok.all(axis=0))[0]
        kind = np.flatnonzero(~ok[:, b])[0]
        raise NotScalarError(
            f"{list(worst)[kind].replace('_', ' ')} {dev[kind, b]:.3e} of "
            f"tensor {first + b} exceeds {_COMPOSITE_TOL:.1e} "
            f"(x {scale[b]:.1e})")


def _composites(root: RootData, pairs: np.ndarray,
                right: np.ndarray) -> np.ndarray:
    """Uncharged 6j tensors of a stack, ``[tensor, leg 1, .., leg 4]``,
    with every entry formed: the oracle of :func:`sixj_stack`, and the
    body of :func:`tform_tensor` and :func:`tbar_tensor`.

    Each tensor is the composite of its four intertwiners (see
    :func:`_factors`), an endomorphism of ``V_m`` at every fixed
    multiplicity index.  With the ``V_m`` index ``s`` and the outer and
    inner indices ``u``, ``v`` of :func:`_gathers`, factors 1-3 are summed
    over ``v`` and then factor 0 over ``u``: two batched matrix products
    of ``N**6`` multiplications per tensor.  Off the diagonal the
    composite vanishes by the support, so it is proportional to the
    identity exactly when its N diagonal entries agree.  Each tensor's
    worst deviation from their mean is checked against ``_COMPOSITE_TOL``
    times its own scale, ``max(1, max|tensor|)``.
    """
    N, T = root.N, len(right)
    factors = _factors(root, pairs).swapaxes(0, 1)
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
        _refuse(np.maximum(1.0, np.abs(tensor).max(axis=(1, 2, 3, 4))), lo,
                composite_defect=np.abs(diag - tensor[:, None]).max(
                    axis=(1, 2, 3, 4, 5)))
        out[t] = tensor
    return out


# The legs 1-4 of the support entry at (p, j, k), as coefficients of p, j
# and k, for a positive and a negative tensor.
_SUPPORT = (((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0)),
            ((1, 1, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0)))
# Coefficient of each leg of a positive (True) and a negative (False)
# tensor in its flux constraint, +1 on a check leg, -1 on a hat leg and 0
# on the (j, l) leg: it vanishes off sum(c * index) = 0 mod N.
_FLUX = {True: (1, 1, 0, -1), False: (1, 0, -1, -1)}
# The support entries ``(p, j, k)`` whose four legs all lie in {0, 1}, the
# same for either sign (see :data:`_SUPPORT`).  Every tensor forms the 16
# composite entries with legs in {0, 1}, these 6 and 10 off the support,
# after a shift of p (see :func:`_fit`).  They move p, j and k,
# reach a phase w^Q != 1 and read the dilogarithm at n - 1, n and n + 1.
_PROBES = ((0, 0, 0), (0, 0, 1), (1, 0, 0), (1, 0, 1), (0, 1, 0), (0, 1, 1))
# The index ``8 a + 4 b + 2 c + d`` of legs ``(a, b, c, d)`` of each entry
# of :data:`_PROBES` and of the others, for a positive and a negative
# tensor.
_ON = (np.array(_SUPPORT) @ np.transpose(_PROBES) * [[8], [4], [2], [1]]
       ).sum(axis=1)
_OFF = np.array([[e for e in range(16) if e not in on] for on in _ON])
# The coefficient of p in each leg of the support, of either sign.
_P_LEGS = np.array(_SUPPORT)[0, :, :1]


@functools.cache
def _slice_tables(N: int) -> tuple[np.ndarray, np.ndarray]:
    """Row 0 for a positive tensor, row 1 for a negative one: the row of
    ``[factor, first, second]`` that each factor of a composite reads,
    factor 0 over ``(s, u)`` and then factors 1-3 over ``(s, u, v)`` (see
    :func:`_gathers`); and the support entry ``(p, j, k)`` of each stored
    entry ``[leg 1, leg 2, leg 3]``, flat, ``[row, p or j or k, N**3]``
    (see :data:`_SUPPORT`).  Built once per N, read-only."""
    grid = np.indices((N,) * 3).reshape(3, -1)
    rows = [np.concatenate([np.broadcast_to((f * N + first) * N + second,
                                            (N, N, N if f else 1)).ravel()
                            for f, (first, second) in enumerate(gathers)])
            for gathers in _gathers(N)]
    stored = [N * N, N, 1] @ (np.array(_SUPPORT)[:, :3] @ grid % N)
    tables = (np.array(rows), grid[:, stored.argsort()].swapaxes(0, 1))
    for table in tables:
        table.flags.writeable = False
    return tables


def _dense(N: int, weights: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Stored weights ``[tensor, N**3]`` as dense tensors ``[tensor, leg 1,
    .., leg 4]``, zero off each one's flux support: leg 3 is ``-c3 (c0 i0
    + c1 i1 + c2 i2)`` mod N over the ``_FLUX`` coefficients c."""
    flux = np.array([_FLUX[r] for r in right])
    i = np.indices((N,) * 3).reshape(3, -1)
    out = np.zeros((len(flux), N ** 3, N), dtype=complex)
    out[np.arange(len(flux))[:, None], np.arange(N ** 3),
        -flux[:, 3:] * (flux[:, :3] @ i) % N] = weights
    return out.reshape((len(flux),) + (N,) * 4)


def _dilog(root: RootData, pairs: np.ndarray,
           right: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The cyclic dilogarithm ``h[tensor, n]``, n = 0..N-1, of each tensor
    of a stack, from the labels of its leg pairs (see :func:`sixj_stack`),
    with the real roots ``v[g or h or gh, tensor, pair]`` of its (k, l),
    (i, j) and (j, l) pairs and ``u_j``, which the charge twist reads too.
    ``r`` is real, so each denominator ``|1 - r w^t|`` is at least
    ``|sin(2 pi t k / N)| >= sin(pi / N)``: unlike the psi recursion's, it
    cannot come near zero."""
    N, T = root.N, len(right)
    p = pairs[np.arange(T)[:, None], np.where(right[:, None], [0, 1, 2],
                                              [3, 2, 1])]
    gx, gy, hx = p[..., 0, 0], p[..., 0, 1], p[..., 1, 0]
    v = real_roots(root, np.array([gx, hx, gx + gy * hx]))
    # g, h and gh of the (k, l), (i, j) and (j, l) pairs
    (vk, vi, _), (vl, vj, _), (vm, _, vn) = v.transpose(0, 2, 1)
    uj = gy[:, 2] ** (1.0 / N)
    den = 1 - (vj * vm / (vk * vn))[:, None] * _powers(root)[
        np.where(right, -1, 1)[:, None] * np.arange(1, N) % N]
    h = np.ones((T, N), dtype=complex)
    h[:, 1:] = np.cumprod((vi * uj * vl / (vk * vn))[:, None] / den, axis=1)
    return h, v, uj


def _fit(root: RootData, pairs: np.ndarray, right: np.ndarray,
         h: np.ndarray) -> np.ndarray:
    """The scalar ``C`` of the closed form of each tensor of a stack (see
    :func:`sixj_stack`), fit to its composite and guarded.

    Each tensor forms 16 composite entries (see :func:`_composites`), each
    at all N values of the ``V_m`` index ``s``: those whose legs, after p
    is shifted so that the probes of :data:`_PROBES` read ``h`` at its
    largest entry, lie in {0, 1}.  So each factor is read at two
    multiplicity indices, and factors 1-3 are summed over ``v``, factor 0
    over ``u``: about ``12 N**3`` multiplications per tensor.  ``C`` is the
    least-squares fit of the closed form to the means of the 6 entries on
    the support, which are then the tensor's largest.  Every formed entry
    is guarded, within ``_COMPOSITE_TOL`` times the tensor's own scale
    ``max(1, max|T|)``: its N diagonal values must agree, the 10 entries
    off the support must vanish (a wrong psi coefficient or leg label
    keeps every composite scalar on the support and shows only off it),
    and the 6 on it must match the closed form.
    """
    N, T = root.N, len(right)
    sign = np.where(right, 0, 1)
    rows = _slice_tables(N)[0]
    # p moves the probes to the largest entry of h, and legs 0 and 3 with it
    shift = np.abs(h).argmax(axis=1) * np.where(right, 1, -1) % N
    factors = _factors(root, pairs, (_P_LEGS * shift[:, None, None] + [0, 1])
                       % N).reshape(-1, 2)
    stack = np.arange(T)[:, None]
    p, j, k = np.transpose(_PROBES)
    d = np.where(right, 1, -1)[:, None] * ((p + shift[:, None]) % N - k)
    probe = _powers(root)[j * d % N] * h[stack, d % N]
    C = np.empty(T, dtype=complex)
    step = max(1, _SLICE_ENTRIES // (3 * N ** 3))
    for lo in range(0, T, step):
        t = np.arange(lo, min(lo + step, T))
        n = len(t)
        R = np.take(factors, 4 * N * N * t[:, None] + rows[sign[t]], axis=0)
        f1, f2, f3 = R[:, N * N:].reshape(n, 3, N, N, N, 2).swapaxes(0, 1)
        # [t, s, u, v, b] [t, s, u, v, (c, d)] -> [t, s, u, (b, c, d)]
        inner = (f1.swapaxes(-1, -2) @ (f2[..., None] * f3[..., None, :]
                                        ).reshape(n, N, N, N, 4))
        entries = (R[:, :N * N].reshape(n, N, N, 2).swapaxes(-1, -2)
                   @ inner.reshape(n, N, N, 8)).reshape(n, N, 16)
        mean = entries.mean(axis=1)
        read = mean[stack[:n], _ON[sign[t]]]
        C[t] = ((probe[t].conj() * read).sum(axis=1)
                / (np.abs(probe[t]) ** 2).sum(axis=1))
        _refuse(np.maximum(1.0, np.abs(C[t]) * np.abs(h[t]).max(axis=1)), lo,
                composite_defect=np.abs(entries - mean[:, None]).max(
                    axis=(1, 2)),
                off_support=np.abs(mean[stack[:n], _OFF[sign[t]]]).max(axis=1),
                closed_form_probe=np.abs(read - C[t, None] * probe[t]).max(
                    axis=1))
    return C


def sixj_stack(root: RootData, pairs: np.ndarray, right: Sequence[bool],
               a: Sequence[int], c: Sequence[int]) -> np.ndarray:
    """Charged 6j tensors of a stack of label six-tuples, in one fill.

    Tensor ``t``, of leg pairs ``pairs[t]`` (see :func:`_leg_pairs`), is
    the positive symbol at doubled charges ``(a[t], c[t])`` when
    ``right[t]`` holds and the negative one otherwise.  The result is
    indexed ``[t, N**3]``, flat over legs 1-3, leg 4 following from them
    by the flux constraint (:data:`_FLUX`): the layout the state sum
    contracts, which :func:`_dense` expands.

    On the flux support a positive tensor is ``T[p, b, c, p + b]`` and a
    negative one ``T[p + c, b, c, p]`` (:data:`_SUPPORT`).  Write ``j`` for
    ``b`` and ``k`` for ``c`` in a positive tensor, the other way round in
    a negative one, and ``e = 1`` for a positive tensor, ``-1`` for a
    negative one.  Uncharged, the tensor is Kashaev's cyclic 6j symbol
    (*Quantum dilogarithm as a 6j-symbol*, hep-th/9411147), one cyclic
    dilogarithm times a phase:

        T[p, j, k] = C w^(e (pj - jk)) h(e (p - k)),
        h(n) = prod_{t=1..n} K / (1 - r w^(-e t)),

    with ``w = _powers(root)[1]``, the real roots ``v`` of the labels'
    x coordinates (:func:`~cyclic6j.algebra.real_roots`), ``u_j =
    y_j**(1/N)``, ``r = v_j v_m / (v_k v_n)`` and ``K = v_i u_j v_l / (v_k
    v_n)``.  The ax+b group gives ``x_i y_j x_l = x_k x_n - x_j x_m``, so
    ``K**N = 1 - r**N`` and ``h`` is N-periodic (:func:`_dilog`).  Only
    the scalar ``C`` is read off the intertwiners (:func:`_fit`).

    The charge twist at doubled charges ``a``, ``c`` puts ``q^{4ac}``
    (``q^{-4ac}`` on a negative tensor), ``R^c`` on the ``(k, l)`` leg,
    ``R^{-a}`` on the ``(i, j)`` leg and ``L^{-a} R^{-c}`` on the ``(j,
    l)`` leg, all on the form's arguments.
    In closed form ``(sqrtR)^n`` is the diagonal ``w^{-i n (N+1)/2}`` and
    ``(sqrtL)^n`` reads a check leg at ``i - n (N+1)/2`` and a hat leg at
    ``i + n (N+1)/2``, each times its half-power scalar to the n.  The
    ``(j, l)`` leg is ``k`` of either sign, so the charged tensor is

        (Q w^((N+1)/2 (aj + c(k - p)))) ((w^(e (pj - jk')) h(e (p - k'))) C)

    at ``k' = k + e a (N+1)/2``, with ``Q`` the power of q times the half
    powers; each stored entry is written once from its ``(p, j, k)``
    (:func:`_slice_tables`), in that order of factors.  The base of each
    half power is checked as :func:`~cyclic6j.operators.op_sqrtR` and
    :func:`~cyclic6j.operators.op_sqrtL` check it.
    """
    right = np.array(right, dtype=bool)
    a, c = np.array(a), np.array(c)
    N, half, T = root.N, root.half, len(right)
    h, (vg, vh, vgh), uj = _dilog(root, pairs, right)
    C = _fit(root, pairs, right, h)
    e = np.where(right, 1, -1)
    sR = _half_powers(root, vg / vgh)
    sL = _half_powers(root, uj * vh[:, 2] / vgh[:, 2])
    scalar = (qtilde(root) ** (e * a * c) * sR[:, 0] ** c
              * sR[:, 1] ** -a * sL ** -a * sR[:, 2] ** -c)
    p, j, k = _slice_tables(N)[1][np.where(right, 0, 1)].swapaxes(0, 1)
    ha, hc = (half * a)[:, None], (half * c)[:, None]
    # e (p - k') = e (p - k) - a (N+1)/2
    d = e[:, None] * (p - k) - ha
    w = _powers(root)
    return ((scalar[:, None] * w[(ha * j + hc * (k - p)) % N])
            * ((w[j * d % N] * h[np.arange(T)[:, None], d % N])
               * C[:, None]))


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
    return _dense(root.N, sixj_stack(root, *_one(lab, True), [a], [c]),
                  [True])[0]


def sixj_neg(root: RootData, lab: LabelSix, a: int, c: int) -> np.ndarray:
    """Charged negative 6j symbol at doubled charges, via :func:`sixj_stack`.

    Twist on the form's arguments: ``q^{-4ac}`` on slot 1, ``L^{-a} R^{-c}``
    on slot 2, ``R^{-a}`` on slot 3 and ``R^{c}`` on slot 4.
    """
    return _dense(root.N, sixj_stack(root, *_one(lab, False), [a], [c]),
                  [False])[0]


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
