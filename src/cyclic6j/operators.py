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
    AlgebraError, BadOperands, GroupElement, RootData,
    coords, duality_d, eps_sign, group_inv, group_mul, intertwiner_S,
    nu, pair_admissible, phi, phi_bar, psi_scalar,
)

__all__ = [
    "HalfInt", "LabelMismatch", "NegativeBase", "NotScalarError",
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


@dataclass(frozen=True)
class HalfInt:
    """A half-integer stored as its doubled value, keeping arithmetic exact."""

    doubled: int

    @property
    def value(self) -> float:
        return self.doubled / 2

    def __add__(self, other: HalfInt) -> HalfInt:
        return HalfInt(self.doubled + other.doubled)

    def __sub__(self, other: HalfInt) -> HalfInt:
        return HalfInt(self.doubled - other.doubled)

    def __neg__(self) -> HalfInt:
        return HalfInt(-self.doubled)

    def __bool__(self) -> bool:
        return self.doubled != 0


def _labels_close(p: tuple[GroupElement, GroupElement],
                  q: tuple[GroupElement, GroupElement], tol: float = 1e-9) -> bool:
    return all(abs(a.x - b.x) <= tol and abs(a.y - b.y) <= tol
               for a, b in zip(p, q))


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


def compose(f: BlockOperator, g: BlockOperator, tol: float = 1e-9) -> BlockOperator:
    """The composite ``f after g``; raises :class:`LabelMismatch` on label drift."""
    if not _labels_close(f.source, g.target, tol):
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


def op_A(root: RootData, g: GroupElement, h: GroupElement) -> BlockOperator:
    """Exchange operator ``A`` at the label pair ``(g, h)``."""
    _require_admissible(g, h)
    N = root.N
    gs, gh = _flow_A(g, h)
    sc_check = psi_scalar(root, gs, gh, eps_sign(root, g) * root.omega)
    sc_hat = 1.0 / (N * psi_scalar(root, g, h, root.omega / eps_sign(root, g)))
    check = np.empty((N, N), dtype=complex)
    hat = np.empty((N, N), dtype=complex)
    for i in range(N):
        for j in range(N):
            check[j, i] = sc_check * phi(root, gs, i - j)
            hat[j, i] = sc_hat * phi_bar(root, g, j - i)
    return BlockOperator((g, h), (gs, gh), check, hat, True)


def op_Astar(root: RootData, g: GroupElement, h: GroupElement) -> BlockOperator:
    """Exchange operator ``A*`` at the label pair ``(g, h)``."""
    _require_admissible(g, h)
    N = root.N
    gs, gh = _flow_A(g, h)
    sc_check = psi_scalar(root, g, h, root.omega / eps_sign(root, g))
    sc_hat = 1.0 / (N * psi_scalar(root, gs, gh, eps_sign(root, g) * root.omega))
    check = np.empty((N, N), dtype=complex)
    hat = np.empty((N, N), dtype=complex)
    for i in range(N):
        for j in range(N):
            check[j, i] = sc_check * phi(root, g, j - i)
            hat[j, i] = sc_hat * phi_bar(root, gs, i - j)
    return BlockOperator((g, h), (gs, gh), check, hat, True)


def op_B(root: RootData, g: GroupElement, h: GroupElement) -> BlockOperator:
    """Exchange operator ``B``; anti-diagonal, ``e_i -> (scalar) e*_{-i}``."""
    _require_admissible(g, h)
    N = root.N
    gh = group_mul(g, h)
    hs = group_inv(h)
    vg, vgh = coords(root, g).v, coords(root, gh).v
    sc_check = 1.0 / nu(root, vgh / vg)
    sc_hat = nu(root, vg / vgh)
    check = np.zeros((N, N), dtype=complex)
    hat = np.zeros((N, N), dtype=complex)
    for i in range(N):
        check[(-i) % N, i] = sc_check * phi(root, h, i)
        hat[(-i) % N, i] = sc_hat * phi_bar(root, hs, -i)
    return BlockOperator((g, h), (gh, hs), check, hat, True)


def op_Bstar(root: RootData, g: GroupElement, h: GroupElement) -> BlockOperator:
    """Exchange operator ``B*`` at the label pair ``(g, h)``."""
    _require_admissible(g, h)
    N = root.N
    gh = group_mul(g, h)
    hs = group_inv(h)
    vg, vgh = coords(root, g).v, coords(root, gh).v
    sc_check = 1.0 / nu(root, vg / vgh)
    sc_hat = nu(root, vgh / vg)
    check = np.zeros((N, N), dtype=complex)
    hat = np.zeros((N, N), dtype=complex)
    for i in range(N):
        check[(-i) % N, i] = sc_check * phi(root, hs, -i)
        hat[(-i) % N, i] = sc_hat * phi_bar(root, h, i)
    return BlockOperator((g, h), (gh, hs), check, hat, True)


def _scalar_part(mat: np.ndarray, tol: float = 1e-9) -> complex:
    """Extract c from a matrix equal to c * Id, with a proportionality check."""
    n = mat.shape[0]
    c = np.trace(mat) / n
    if np.linalg.norm(mat - c * np.eye(n)) > tol * max(1.0, abs(c)):
        raise NotScalarError("composite is not proportional to the identity")
    return complex(c)


def _a_check_entries(root: RootData, g: GroupElement, h: GroupElement) -> np.ndarray:
    """Matrix of A on the check space via duality and intertwiners.

    Uses the composite (d_{g*} x id)(id x S_{g,h})(S_{g*,gh} x id), which
    sends x (x) e_gamma (x) e_beta to <e_gamma, A e_beta> x.
    """
    N = root.N
    eyeN = np.eye(N)
    gs, gh = _flow_A(g, h)
    S_out = intertwiner_S(root, gs, gh)
    S_in = intertwiner_S(root, g, h)
    d_row = duality_d(root, gs).reshape(1, -1)
    out = np.empty((N, N), dtype=complex)
    for gamma in range(N):
        e_g = np.zeros((N, 1)); e_g[gamma, 0] = 1.0
        m1 = S_out @ np.kron(eyeN, e_g)                    # V_h -> V_g* (x) V_gh
        for beta in range(N):
            e_b = np.zeros((N, 1)); e_b[beta, 0] = 1.0
            m2 = S_in @ np.kron(eyeN, e_b)                 # V_gh -> V_g (x) V_h
            full = np.kron(eyeN, m2) @ m1                  # V_h -> V_g* (x) V_g (x) V_h
            comp = np.kron(d_row, eyeN) @ full             # V_h -> V_h
            out[gamma, beta] = _scalar_part(comp)
    return out


def _b_check_entries(root: RootData, g: GroupElement, h: GroupElement) -> np.ndarray:
    """Matrix of B on the check space via duality and intertwiners.

    Uses (id x d_h)(S_{g,h} P x id)(id x S_{gh,h*}) applied to
    e_beta (x) x (x) e_gamma.
    """
    N = root.N
    eyeN = np.eye(N)
    gh, hs = _flow_B(g, h)
    S_out = intertwiner_S(root, gh, hs)
    S_in = intertwiner_S(root, g, h)
    d_row = duality_d(root, h).reshape(1, -1)
    out = np.empty((N, N), dtype=complex)
    for gamma in range(N):
        e_g = np.zeros((N, 1)); e_g[gamma, 0] = 1.0
        m1 = S_out @ np.kron(eyeN, e_g)                    # V_g -> V_gh (x) V_h*
        for beta in range(N):
            e_b = np.zeros((N, 1)); e_b[beta, 0] = 1.0
            m2 = S_in @ np.kron(eyeN, e_b)                 # V_gh -> V_g (x) V_h
            full = np.kron(m2, eyeN) @ m1                  # V_g -> V_g (x) V_h (x) V_h*
            comp = np.kron(eyeN, d_row) @ full             # V_g -> V_g
            out[gamma, beta] = _scalar_part(comp)
    return out


def op_A_oracle(root: RootData, g: GroupElement, h: GroupElement) -> BlockOperator:
    """``A`` recomputed categorically; hat part from the involutivity of A."""
    gs, gh = _flow_A(g, h)
    check = _a_check_entries(root, g, h)
    hat = np.linalg.inv(_a_check_entries(root, gs, gh))
    return BlockOperator((g, h), (gs, gh), check, hat, True)


def op_B_oracle(root: RootData, g: GroupElement, h: GroupElement) -> BlockOperator:
    """``B`` recomputed categorically; hat part from the involutivity of B."""
    gh, hs = _flow_B(g, h)
    check = _b_check_entries(root, g, h)
    hat = np.linalg.inv(_b_check_entries(root, gh, hs))
    return BlockOperator((g, h), (gh, hs), check, hat, True)


def op_L(root: RootData, g: GroupElement, h: GroupElement) -> BlockOperator:
    """Grading-preserving ``L = A*A``: a scaled cyclic shift on both parts."""
    _require_admissible(g, h)
    N = root.N
    gh = group_mul(g, h)
    sc = (coords(root, g).u * coords(root, h).v / coords(root, gh).v) ** (N - 1)
    check = np.zeros((N, N), dtype=complex)
    hat = np.zeros((N, N), dtype=complex)
    for i in range(N):
        check[(i - 1) % N, i] = sc
        hat[(i + 1) % N, i] = sc
    return BlockOperator((g, h), (g, h), check, hat, False)


def op_R(root: RootData, g: GroupElement, h: GroupElement) -> BlockOperator:
    """Grading-preserving ``R = B*B``: diagonal on both parts."""
    _require_admissible(g, h)
    N = root.N
    gh = group_mul(g, h)
    sc = (coords(root, g).v / coords(root, gh).v) ** (N - 1)
    diag = np.array([root.omega_pow(-i) * sc for i in range(N)])
    check = np.diag(diag)
    return BlockOperator((g, h), (g, h), check, check.copy(), False)


def _half_powers(root: RootData, ratio):
    """Half powers ``ratio**((N-1)/2)`` of a scalar or an array of them.

    The full powers ``ratio**(N-1)`` must be positive reals; their roots
    are then taken as the literal signed integer powers.
    """
    full = ratio ** (root.N - 1)
    if not np.all(full > 0):
        raise NegativeBase(f"square-root base {float(np.min(full))!r} not positive")
    return ratio ** ((root.N - 1) // 2)


def op_sqrtR(root: RootData, g: GroupElement, h: GroupElement) -> BlockOperator:
    """The square root of ``R``: diagonal with entries ``w^{-i(N+1)/2} (v_g/v_gh)^{(N-1)/2}``."""
    _require_admissible(g, h)
    N = root.N
    gh = group_mul(g, h)
    sc = _half_powers(root, coords(root, g).v / coords(root, gh).v)
    s = root.half
    diag = np.array([root.omega_pow(-s * i) * sc for i in range(N)])
    check = np.diag(diag)
    return BlockOperator((g, h), (g, h), check, check.copy(), False)


def op_sqrtL(root: RootData, g: GroupElement, h: GroupElement) -> BlockOperator:
    """The square root of ``L``: shift by ``(N+1)/2`` with the half-power scalar."""
    _require_admissible(g, h)
    N = root.N
    gh = group_mul(g, h)
    sc = _half_powers(
        root, coords(root, g).u * coords(root, h).v / coords(root, gh).v)
    s = root.half
    check = np.zeros((N, N), dtype=complex)
    hat = np.zeros((N, N), dtype=complex)
    for i in range(N):
        check[(i - s) % N, i] = sc
        hat[(i + s) % N, i] = sc
    return BlockOperator((g, h), (g, h), check, hat, False)


def op_C(root: RootData, g: GroupElement, h: GroupElement) -> BlockOperator:
    """``C = (AB)^3``, assembled from the exchange operators; equals Id here."""
    return op_word(root, g, h, "A B A B A B")


def _int_power(op: BlockOperator, k: int, tol: float = 1e-9) -> BlockOperator:
    if not _labels_close(op.source, op.target, tol) or op.swaps_parts:
        raise LabelMismatch("integer powers need a grading- and label-preserving operator")
    base = op if k >= 0 else op.inverse()
    check = np.linalg.matrix_power(base.check_mat, abs(k))
    hat = np.linalg.matrix_power(base.hat_mat, abs(k))
    return BlockOperator(op.source, op.source, check, hat, False)


def pow_R(root: RootData, g: GroupElement, h: GroupElement, c: HalfInt) -> BlockOperator:
    """``R**c`` for a half-integer c, routed through the square root: ``(sqrtR)^{2c}``."""
    return _int_power(op_sqrtR(root, g, h), c.doubled)


def pow_L(root: RootData, g: GroupElement, h: GroupElement, a: HalfInt) -> BlockOperator:
    """``L**a`` for a half-integer a: ``(sqrtL)^{2a}``."""
    return _int_power(op_sqrtL(root, g, h), a.doubled)


def op_sfA(root: RootData, g: GroupElement, h: GroupElement) -> BlockOperator:
    """The symmetrized involution ``A (sqrtL)^{-1}``."""
    return op_word(root, g, h, "A sqrtL^-1")


def op_sfB(root: RootData, g: GroupElement, h: GroupElement) -> BlockOperator:
    """The symmetrized involution ``B (sqrtR)^{-1}``."""
    return op_word(root, g, h, "B sqrtR^-1")


_FACTORIES = {
    "A": op_A, "A*": op_Astar, "B": op_B, "B*": op_Bstar,
    "L": op_L, "R": op_R, "C": op_C,
    "sqrtL": op_sqrtL, "sqrtR": op_sqrtR,
    "sfA": op_sfA, "sfB": op_sfB,
    "Id": identity_block,
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
        for _ in range(abs(k)):
            cur = acc.target
            if k >= 0:
                factor = _FACTORIES[name](root, *cur)
            else:
                pre = _FLOWS[name](*cur) if name in _FLOWS else cur
                factor = _FACTORIES[name](root, *pre).inverse()
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
    a = (root.N * root.N - 1) // 8
    sign = (-1.0) ** ((root.N - 1) // 2)
    if part == "hat":
        return sign * root.omega_pow(-a)
    if part == "check":
        return sign * root.omega_pow(a)
    raise BadOperands(f"part must be 'hat' or 'check', got {part!r}")


def qtilde(root: RootData) -> complex:
    """The preferred root-of-unity scalar: the hat-part value of ``q``."""
    return q_scalar(root, "hat")
