"""Block operators on the multiplicity spaces of cyclic-module tensor products.

For an admissible pair ``(g, h)`` the two multiplicity spaces
``H^{g,h}_{gh}`` (the "check" space, with basis ``e_i``) and
``H_{g,h}^{gh}`` (the "hat" space, with dual basis ``e*_i``) are both
N-dimensional.  The exchange operators ``A``, ``A*``, ``B``, ``B*`` map
the spaces of one label pair to those of another while swapping check
and hat types:

    A, A*: (g, h) -> (g*, gh)        B, B*: (g, h) -> (gh, h*)

with ``g* = g^{-1}``.  Both label flows are involutions.  The derived
operators ``L = A*A``, ``R = B*B``, ``C = (AB)^3`` and the square roots
``sqrtL``, ``sqrtR`` preserve the label pair and the check/hat grading.

Each operator is realized as a :class:`BlockOperator` carrying one N x N
matrix per grading together with its source and target label pairs;
:func:`op_word` composes named operators while tracking the label flow.
Closed forms follow the psi/phi/nu calculus of :mod:`cyclic6j.algebra`;
:func:`op_A_oracle` and :func:`op_B_oracle` recompute ``A`` and ``B``
independently from intertwiners and duality morphisms.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import (
    AlgebraError, BadOperands, GroupElement, RootData, _powers, _xy,
    coords, duality_d, group_close, group_inv, group_mul,
    intertwiner_S, nu, pair_admissible, phi, phi_bar, psi_stack,
)

__all__ = [
    "LabelMismatch", "NegativeBase", "NotScalarError",
    "BlockOperator", "compose", "identity_block",
    "op_A", "op_Astar", "op_B", "op_Bstar",
    "op_A_oracle", "op_B_oracle",
    "op_L", "op_R", "op_sqrtL", "op_sqrtR", "op_C",
    "pow_L", "pow_R", "op_sfA", "op_sfB",
    "op_word", "assemble_q", "q_scalar", "qtilde",
]


class LabelMismatch(AlgebraError):
    """Operator composition where target labels do not meet source labels."""


class NegativeBase(AlgebraError):
    """A scalar that must be a positive real (a squared root base) is not."""


class NotScalarError(AlgebraError):
    """A composite expected to be proportional to the identity is not."""


# Largest label drift, relative to max(1, |coordinate|), that operator
# composition accepts; and largest defect, relative to max(1, |c|), of a
# composite that must equal c Id (a matrix here, each tensor of a stack in
# :mod:`cyclic6j.sixj`).
_LABEL_TOL = 1e-9
_COMPOSITE_TOL = 1e-9


@dataclass(frozen=True)
class BlockOperator:
    """A pair-of-matrices operator between the graded multiplicity spaces.

    ``check_mat[j, i]`` is the coefficient of the j-th target basis vector
    in the image of ``e_i`` from the source check space; ``hat_mat`` acts
    on the ``e*_i`` likewise.  When ``swaps_parts`` is true the image of
    the check space lands in the target hat space and vice versa.
    """

    source: tuple[GroupElement, GroupElement]
    target: tuple[GroupElement, GroupElement]
    check_mat: np.ndarray
    hat_mat: np.ndarray
    swaps_parts: bool

    def inverse(self) -> BlockOperator:
        if self.swaps_parts:
            return BlockOperator(self.target, self.source,
                                 np.linalg.inv(self.hat_mat),
                                 np.linalg.inv(self.check_mat), True)
        return BlockOperator(self.target, self.source,
                             np.linalg.inv(self.check_mat),
                             np.linalg.inv(self.hat_mat), False)


def identity_block(root: RootData, g: GroupElement, h: GroupElement) -> BlockOperator:
    eye = np.eye(root.N, dtype=complex)
    return BlockOperator((g, h), (g, h), eye, eye.copy(), False)


def compose(f: BlockOperator, g: BlockOperator) -> BlockOperator:
    """The composite ``f after g``; raises :class:`LabelMismatch` on label drift."""
    if not all(group_close(a, b, _LABEL_TOL) for a, b in zip(f.source, g.target)):
        raise LabelMismatch(
            f"cannot compose: inner labels {g.target} vs {f.source}")
    if g.swaps_parts:
        check = f.hat_mat @ g.check_mat
        hat = f.check_mat @ g.hat_mat
    else:
        check = f.check_mat @ g.check_mat
        hat = f.hat_mat @ g.hat_mat
    return BlockOperator(g.source, f.target, check, hat,
                         f.swaps_parts != g.swaps_parts)


def _flow_A(g: GroupElement, h: GroupElement) -> tuple[GroupElement, GroupElement]:
    return group_inv(g), group_mul(g, h)


def _flow_B(g: GroupElement, h: GroupElement) -> tuple[GroupElement, GroupElement]:
    return group_mul(g, h), group_inv(h)


def _require_admissible(g: GroupElement, h: GroupElement) -> None:
    if not pair_admissible(g, h):
        raise BadOperands(f"pair ({g}, {h}) is not admissible")


def _circulant(root: RootData, g: GroupElement, h: GroupElement,
               star: bool) -> BlockOperator:
    """``A``, or ``A*`` when ``star``: circulant on both parts.

    ``A`` has ``Psi_{g*,gh}(eps w) phi(i - j)`` at ``[j, i]`` of its check
    part and ``phi_bar(j - i) / (N Psi_{g,h}(w / eps))`` of its hat part;
    ``A*`` swaps the two Psi values and negates both index differences.
    With ``eps = -1`` both Psi are taken at ``-w``, that is
    ``sum_m psi_m w**m``: one psi stack of the two pairs against the table.
    """
    _require_admissible(g, h)
    N = root.N
    gs, gh = _flow_A(g, h)
    psi = psi_stack(root, np.array([_xy(gs), _xy(g)]),
                    np.array([_xy(gh), _xy(h)])) @ _powers(root)
    sgn = -1 if star else 1
    d = sgn * (np.arange(N) - np.arange(N)[:, None])  # [j, i] -> +-(i - j)
    psi_check, psi_hat = psi[::sgn]
    check = psi_check * phi(root, d)
    hat = phi_bar(root, -d) / (N * psi_hat)
    return BlockOperator((g, h), (gs, gh), check, hat, True)


def op_A(root: RootData, g: GroupElement, h: GroupElement) -> BlockOperator:
    """Exchange operator ``A`` at the label pair ``(g, h)``."""
    return _circulant(root, g, h, star=False)


def op_Astar(root: RootData, g: GroupElement, h: GroupElement) -> BlockOperator:
    """Exchange operator ``A*`` at the label pair ``(g, h)``."""
    return _circulant(root, g, h, star=True)


def _antidiagonal(root: RootData, g: GroupElement, h: GroupElement,
                  star: bool) -> BlockOperator:
    """``B``, or ``B*`` when ``star``: ``e_i -> (scalar) e*_{-i}``.

    ``B`` has ``phi(i) / nu(v_gh / v_g)`` at ``[-i, i]`` of its check part
    and ``nu(v_g / v_gh) phi_bar(-i)`` of its hat part; ``B*`` swaps the
    two ratios and negates both indices.
    """
    _require_admissible(g, h)
    N = root.N
    gh, hs = _flow_B(g, h)
    vg, vgh = coords(root, g).v, coords(root, gh).v
    sgn = -1 if star else 1
    ratio_c, ratio_h = (vgh / vg, vg / vgh)[::sgn]
    i = np.arange(N)
    check = np.zeros((N, N), dtype=complex)
    hat = np.zeros((N, N), dtype=complex)
    check[-i % N, i] = phi(root, sgn * i) / nu(root, ratio_c)
    hat[-i % N, i] = nu(root, ratio_h) * phi_bar(root, -sgn * i)
    return BlockOperator((g, h), (gh, hs), check, hat, True)


def op_B(root: RootData, g: GroupElement, h: GroupElement) -> BlockOperator:
    """Exchange operator ``B``; anti-diagonal, ``e_i -> (scalar) e*_{-i}``."""
    return _antidiagonal(root, g, h, star=False)


def op_Bstar(root: RootData, g: GroupElement, h: GroupElement) -> BlockOperator:
    """Exchange operator ``B*`` at the label pair ``(g, h)``."""
    return _antidiagonal(root, g, h, star=True)


def _scalar_split(mat: np.ndarray) -> tuple[complex, float]:
    """``c = trace / n`` of a square matrix and its off-scalar norm ``|mat - c Id|``."""
    c = complex(np.trace(mat) / mat.shape[0])
    return c, float(np.linalg.norm(mat - c * np.eye(mat.shape[0])))


def _scalar_part(mat: np.ndarray) -> complex:
    """``c`` of a composite that must equal ``c Id``, within ``_COMPOSITE_TOL``."""
    c, off = _scalar_split(mat)
    if off > _COMPOSITE_TOL * max(1.0, abs(c)):
        raise NotScalarError("composite is not proportional to the identity")
    return c


def _kron(a: np.ndarray, b: np.ndarray, mirror: bool) -> np.ndarray:
    """``a (x) b``, or ``b (x) a`` for the mirror composite."""
    return np.kron(b, a) if mirror else np.kron(a, b)


def _oracle(root: RootData, g: GroupElement, h: GroupElement, flow,
            mirror: bool) -> BlockOperator:
    """``A``, or ``B`` when ``mirror``, from duality and intertwiners.

    ``(d_{g*} x id)(id x S_{g,h}[:, beta::N]) S_{g*,gh}[:, gamma::N]``
    is ``<e_gamma, A e_beta>`` times the identity of ``V_{g*}``; for
    ``B`` the factors are mirrored, with ``d_h`` and ``S_{gh,h*}``.  With
    ``S`` as ``[row module, row module, column module, multiplicity]``
    and ``d`` as ``[module, module]``, all N**2 composites come from two
    contractions in a fixed order: ``d`` with ``S_in`` over one module
    index, then that with ``S_out`` over two.  Every composite of the
    ``[gamma, beta]`` stack must equal ``c Id`` within ``_COMPOSITE_TOL``
    times ``max(1, |c|)``.  The hat part, by involutivity, inverts the
    check part at the target pair.
    """
    N = root.N

    def check(g: GroupElement, h: GroupElement) -> np.ndarray:
        target = flow(g, h)
        S_out = intertwiner_S(root, *target).reshape((N,) * 4)
        S_in = intertwiner_S(root, g, h).reshape((N,) * 4)
        d = duality_d(root, h if mirror else target[0]).reshape(N, N)
        if mirror:  # the mirror composite swaps the two tensor factors
            S_out, S_in, d = S_out.swapaxes(0, 1), S_in.swapaxes(0, 1), d.T
        D = np.tensordot(d, S_in, axes=(1, 0))  # [a, r, b, beta]
        # [r, beta, c, gamma] -> [gamma, beta, r, c]
        M = np.tensordot(D, S_out, axes=((0, 2), (0, 1))).transpose(3, 1, 0, 2)
        c = np.trace(M, axis1=2, axis2=3) / N
        off = np.linalg.norm(M - c[..., None, None] * np.eye(N), axis=(2, 3))
        if np.any(off > _COMPOSITE_TOL * np.maximum(1.0, np.abs(c))):
            raise NotScalarError("composite is not proportional to the identity")
        return c
    target = flow(g, h)
    return BlockOperator((g, h), target, check(g, h),
                         np.linalg.inv(check(*target)), True)


def op_A_oracle(root: RootData, g: GroupElement, h: GroupElement) -> BlockOperator:
    """``A`` recomputed categorically; hat part from the involutivity of A."""
    return _oracle(root, g, h, _flow_A, mirror=False)


def op_B_oracle(root: RootData, g: GroupElement, h: GroupElement) -> BlockOperator:
    """``B`` recomputed categorically; hat part from the involutivity of B."""
    return _oracle(root, g, h, _flow_B, mirror=True)


def _half_powers(root: RootData, ratio):
    """Half powers ``ratio**((N-1)/2)`` of a scalar or an array of them.

    The full powers ``ratio**(N-1)`` must be positive reals; their roots
    are then taken as the literal signed integer powers.
    """
    full = ratio ** (root.N - 1)
    if not np.all(full > 0):
        raise NegativeBase(f"square-root base {float(np.min(full))!r} not positive")
    return ratio ** ((root.N - 1) // 2)


def _positive_part(root: RootData, g: GroupElement, h: GroupElement,
                   base: int, half: bool) -> tuple[float, int]:
    """Scalar and index step of ``L`` (``base`` 0, ``u_g v_h / v_gh``) or
    ``R`` (``base`` 1, ``v_g / v_gh``): the base to the ``N-1`` and step 1,
    or for the root when ``half``, its half power and step ``(N+1)/2``."""
    _require_admissible(g, h)
    cg, cgh = coords(root, g), coords(root, group_mul(g, h))
    ratio = (cg.u * coords(root, h).v / cgh.v, cg.v / cgh.v)[base]
    if half:
        return _half_powers(root, ratio), root.half
    return ratio ** (root.N - 1), 1


def _shift(root: RootData, g: GroupElement, h: GroupElement,
           half: bool) -> BlockOperator:
    """``L``, or ``sqrtL`` when ``half``: a scaled shift, down on the check
    part and up (the transpose) on the hat part."""
    sc, n = _positive_part(root, g, h, 0, half)
    N = root.N
    check = np.zeros((N, N), dtype=complex)
    check[(np.arange(N) - n) % N, np.arange(N)] = sc
    return BlockOperator((g, h), (g, h), check, check.T.copy(), False)


def _diagonal(root: RootData, g: GroupElement, h: GroupElement,
              half: bool) -> BlockOperator:
    """``R``, or ``sqrtR`` when ``half``: the diagonal ``w^{-n i}`` times
    the scalar on both parts."""
    sc, n = _positive_part(root, g, h, 1, half)
    check = np.diag(_powers(root)[-n * np.arange(root.N) % root.N] * sc)
    return BlockOperator((g, h), (g, h), check, check.copy(), False)


def op_L(root: RootData, g: GroupElement, h: GroupElement) -> BlockOperator:
    """Grading-preserving ``L = A*A``: a scaled cyclic shift on both parts."""
    return _shift(root, g, h, half=False)


def op_sqrtL(root: RootData, g: GroupElement, h: GroupElement) -> BlockOperator:
    """The square root of ``L``: shift by ``(N+1)/2`` with the half-power scalar."""
    return _shift(root, g, h, half=True)


def op_R(root: RootData, g: GroupElement, h: GroupElement) -> BlockOperator:
    """Grading-preserving ``R = B*B``: diagonal on both parts."""
    return _diagonal(root, g, h, half=False)


def op_sqrtR(root: RootData, g: GroupElement, h: GroupElement) -> BlockOperator:
    """The square root of ``R``: diagonal with entries ``w^{-i(N+1)/2} (v_g/v_gh)^{(N-1)/2}``."""
    return _diagonal(root, g, h, half=True)


def op_C(root: RootData, g: GroupElement, h: GroupElement) -> BlockOperator:
    """``C = (AB)^3``, assembled from the exchange operators; equals Id here."""
    return op_word(root, g, h, "A B A B A B")


def _int_power(op: BlockOperator, k: int) -> BlockOperator:
    if op.swaps_parts or not all(group_close(a, b, _LABEL_TOL)
                                 for a, b in zip(op.source, op.target)):
        raise LabelMismatch("integer powers need a grading- and label-preserving operator")
    base = op if k >= 0 else op.inverse()
    check = np.linalg.matrix_power(base.check_mat, abs(k))
    hat = np.linalg.matrix_power(base.hat_mat, abs(k))
    return BlockOperator(op.source, op.source, check, hat, False)


def pow_R(root: RootData, g: GroupElement, h: GroupElement, c: int) -> BlockOperator:
    """``R**(c/2)`` for a doubled charge c, through the square root: ``(sqrtR)^c``."""
    return _int_power(op_sqrtR(root, g, h), c)


def pow_L(root: RootData, g: GroupElement, h: GroupElement, a: int) -> BlockOperator:
    """``L**(a/2)`` for a doubled charge a: ``(sqrtL)^a``."""
    return _int_power(op_sqrtL(root, g, h), a)


def op_sfA(root: RootData, g: GroupElement, h: GroupElement) -> BlockOperator:
    """The symmetrized involution ``A (sqrtL)^{-1}``."""
    return op_word(root, g, h, "A sqrtL^-1")


def op_sfB(root: RootData, g: GroupElement, h: GroupElement) -> BlockOperator:
    """The symmetrized involution ``B (sqrtR)^{-1}``."""
    return op_word(root, g, h, "B sqrtR^-1")


# builder of each named operator, by its name in this module: looked up at
# call time, so a rebound module attribute (a wrapper) is the one called
_FACTORIES = {
    "A": "op_A", "A*": "op_Astar", "B": "op_B", "B*": "op_Bstar",
    "L": "op_L", "R": "op_R", "C": "op_C",
    "sqrtL": "op_sqrtL", "sqrtR": "op_sqrtR",
    "sfA": "op_sfA", "sfB": "op_sfB",
    "Id": "identity_block",
}

# label flow of each named operator; grading-preserving names are absent
_FLOWS = {"A": _flow_A, "A*": _flow_A, "B": _flow_B, "B*": _flow_B,
          "sfA": _flow_A, "sfB": _flow_B}


def op_word(root: RootData, g: GroupElement, h: GroupElement, word: str) -> BlockOperator:
    """Compose named operators right-to-left starting from the label pair ``(g, h)``.

    Each whitespace-separated token is a name from ``A A* B B* L R C sqrtL
    sqrtR sfA sfB Id``, optionally with an integer power suffix such as
    ``L^-1`` or ``sqrtR^3``.  Every factor is instantiated at the label
    pair produced by the factors to its right, so expressions like
    ``"A L A"`` or ``"sqrtR B sqrtL B sqrtL^-1"`` assemble on the correct
    blocks automatically; a :class:`LabelMismatch` signals a malformed word.
    """
    acc = identity_block(root, g, h)
    for token in reversed(word.split()):
        name, _, suffix = token.partition("^")
        if name not in _FACTORIES:
            raise BadOperands(f"unknown operator name {name!r}")
        k = int(suffix) if suffix else 1
        build = globals()[_FACTORIES[name]]
        for _ in range(abs(k)):
            cur = acc.target
            if k >= 0:
                factor = build(root, *cur)
            else:
                pre = _FLOWS[name](*cur) if name in _FLOWS else cur
                factor = build(root, *pre).inverse()
            acc = compose(factor, acc)
    return acc


def assemble_q(root: RootData, g: GroupElement, h: GroupElement) -> BlockOperator:
    """The grading scalar ``q`` assembled as ``sqrtR B sqrtL B sqrtL^-1``.

    (The sixth factor, an inverse square root of ``C``, is the identity.)
    """
    return op_word(root, g, h, "sqrtR B sqrtL B sqrtL^-1")


def q_scalar(root: RootData, part: str) -> complex:
    """Value of ``q`` on the named part, ``"hat"`` or ``"check"``.

    ``(-1)^{(N-1)/2} w^{-a}`` on the hat part and ``(-1)^{(N-1)/2} w^{+a}``
    on the check part, with ``a = (N^2 - 1)/8``.
    """
    sign = {"hat": -1, "check": 1}.get(part)
    if sign is None:
        raise BadOperands(f"part must be 'hat' or 'check', got {part!r}")
    return ((-1.0) ** ((root.N - 1) // 2)
            * root.omega_pow(sign * (root.N * root.N - 1) // 8))


def qtilde(root: RootData) -> complex:
    """The preferred root-of-unity scalar: the hat-part value of ``q``."""
    return q_scalar(root, "hat")
