"""Cyclic representations of the quantum Borel algebra at an odd root of unity.

The algebra in question is generated by an invertible element ``a`` and an
element ``b`` with ``ab = w ba`` for a primitive N-th root of unity ``w``
(N odd), with coproduct ``a -> a (x) a`` and ``b -> a (x) b + b (x) 1``.
Its N-dimensional cyclic modules are parametrised by elements of the
``ax+b`` group, i.e. pairs ``(x, y)`` with ``y > 0``, acting through the
clock and shift matrices.  This module provides

* the group arithmetic and the admissibility predicate,
* N-th root coordinates ``(u, v)`` of a group element,
* the ``phi`` phase factors and the ``psi`` coefficient sequence,
* clock/shift matrices, Gauss-sum operators and the tensor-product
  intertwiner ``S`` between ``V_g (x) V_h`` and ``N`` copies of ``V_{gh}``,
* rigid duality pairings and copairings.

Everything is plain numpy; matrices are complex128 throughout.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "AlgebraError", "ZeroX", "Resonance", "NearOne", "BadOperands",
    "RootData", "GroupElement", "Coords",
    "group_mul", "group_inv", "in_I", "pair_admissible",
    "coords", "real_roots", "phi", "phi_bar",
    "psi_stack", "psi_coeffs", "psi_coeffs_product", "psi_scalar", "nu",
    "clock_shift", "gauss_L", "rep_matrices", "graded_S", "intertwiner_S",
    "duality_d", "duality_b",
    "random_element", "random_admissible_pair",
]


class AlgebraError(ValueError):
    """Base class for domain errors raised by this package."""


class ZeroX(AlgebraError):
    """Group element lies outside the regular part (x coordinate is zero)."""


class Resonance(AlgebraError):
    """A psi denominator is too close to zero for a stable evaluation."""


class NearOne(AlgebraError):
    """Argument of ``nu`` is too close to 1 for a stable evaluation."""


class BadOperands(AlgebraError):
    """Operands violate a precondition of a Gauss-sum construction."""


@dataclass(frozen=True)
class RootData:
    """Root-of-unity context: order ``N`` and primitive root ``w = exp(2 pi i k / N)``.

    ``N`` must be odd and at least 3, ``k`` in 1..N-1 and coprime to ``N``.
    The sign ``eps`` entering the root-branch convention and the phi
    factors is fixed at -1; that is the only consistent choice for odd
    ``N`` and is therefore not a parameter.
    """

    N: int
    k: int = 1

    def __post_init__(self) -> None:
        if self.N < 3 or self.N % 2 == 0:
            raise BadOperands(f"N must be odd and >= 3, got {self.N}")
        if not 0 < self.k < self.N or math.gcd(self.k, self.N) != 1:
            raise BadOperands(f"k must lie in 1..N-1 and be coprime to N, "
                              f"got k={self.k}, N={self.N}")

    @property
    def eps(self) -> int:
        return -1

    @property
    def omega(self) -> complex:
        return complex(np.exp(2j * np.pi * self.k / self.N))

    def omega_pow(self, m: int) -> complex:
        """``w**m`` evaluated at the reduced exponent, avoiding drift for large m."""
        return complex(np.exp(2j * np.pi * self.k * (m % self.N) / self.N))

    @property
    def half(self) -> int:
        """The residue (N+1)/2, i.e. the inverse of 2 mod N."""
        return (self.N + 1) // 2


@dataclass(frozen=True)
class GroupElement:
    """Element ``(x, y)`` of the ax+b group, ``y > 0``.

    The product is ``(x, y)(x', y') = (x + y x', y y')`` and the unit is
    ``(0, 1)``.
    """

    x: float
    y: float = 1.0

    def __post_init__(self) -> None:
        if not self.y > 0:
            raise BadOperands(f"group element needs y > 0, got y={self.y}")


UNIT = GroupElement(0.0, 1.0)


def group_mul(g: GroupElement, h: GroupElement) -> GroupElement:
    return GroupElement(g.x + g.y * h.x, g.y * h.y)


def group_inv(g: GroupElement) -> GroupElement:
    return GroupElement(-g.x / g.y, 1.0 / g.y)


def group_close(a: GroupElement, b: GroupElement, tol: float) -> bool:
    """Each coordinate of ``a`` within ``tol`` of ``b``'s, relative to
    ``max(1, |coordinate of a|)``."""
    return abs(a.x - b.x) <= tol * max(1.0, abs(a.x)) \
        and abs(a.y - b.y) <= tol * max(1.0, abs(a.y))


def in_I(g: GroupElement) -> bool:
    """True if ``g`` lies in the regular part (x coordinate nonzero)."""
    return g.x != 0.0


def pair_admissible(g: GroupElement, h: GroupElement) -> bool:
    """True if ``g``, ``h`` and ``gh`` all lie in the regular part."""
    return in_I(g) and in_I(h) and in_I(group_mul(g, h))


@dataclass(frozen=True)
class Coords:
    """N-th root coordinates of a group element.

    ``u = y**(1/N)`` is always positive.  ``v`` is the real N-th root of
    ``x`` on the branch that sends negative ``x`` to a negative root
    (for odd N the real N-th root is unique, and equals
    ``eps * |x|**(1/N)`` for ``x < 0`` with ``eps = -1``).  ``eps_exp``
    records which component of the regular part the element lies in:
    +1 for ``x > 0`` and -1 for ``x < 0``.
    """

    u: float
    v: float
    eps_exp: int


def coords(root: RootData, g: GroupElement) -> Coords:
    if g.x == 0.0:
        raise ZeroX(f"no root coordinates on the singular line, got {g}")
    u = g.y ** (1.0 / root.N)
    if g.x > 0:
        return Coords(u, g.x ** (1.0 / root.N), +1)
    return Coords(u, root.eps * (-g.x) ** (1.0 / root.N), -1)


def eps_sign(root: RootData, g: GroupElement) -> int:
    """The sign ``eps**(+-1)`` attached to ``g`` by its component; -1 for eps=-1."""
    return root.eps ** coords(root, g).eps_exp


def phi(root: RootData, g: GroupElement, m: int) -> complex:
    """Phase factor ``(-eps_g)**m * w**(m(m-1)/2)``, well defined mod N for odd N."""
    s = -eps_sign(root, g)
    expo = (m * (m - 1)) // 2
    return float(s) ** m * root.omega_pow(expo)


def phi_bar(root: RootData, g: GroupElement, m: int) -> complex:
    return 1.0 / phi(root, g, m)


def _powers(root: RootData) -> np.ndarray:
    """``w**m`` for m = 0..N-1, each from its reduced exponent."""
    return np.exp(2j * np.pi * root.k * np.arange(root.N) / root.N)


def real_roots(root: RootData, x: np.ndarray) -> np.ndarray:
    """The coordinate ``v`` of :func:`coords` for an array of x coordinates,
    the real N-th roots; raises :class:`ZeroX` if any ``x`` is zero."""
    if not np.all(x):
        raise ZeroX("no root coordinates on the singular line")
    return np.copysign(np.abs(x) ** (1.0 / root.N), x)


def psi_stack(root: RootData, g: np.ndarray, h: np.ndarray,
              tol: float = 1e-12) -> np.ndarray:
    """Psi sequences of a stack of pairs, ``psi[..., m]`` for m = 0..N-1.

    ``g`` and ``h`` hold ``(x, y)`` in their last axis.  The sequence
    starts at ``psi_0 = 1`` and follows the first-order recursion

        psi_m / psi_{m-1} = u_g v_h / (eps * (v_g - v_{gh} w**m)).

    Raises :class:`Resonance` when a denominator magnitude falls below
    ``tol`` (for admissible pairs exact vanishing would force ``x_h = 0``,
    so this only guards near-degenerate input), and :class:`ZeroX` when
    ``g``, ``h`` or ``gh`` has a zero x coordinate.
    """
    gx, gy, hx = g[..., 0], g[..., 1], h[..., 0]
    vg, vh, vgh = real_roots(root, np.array([gx, hx, gx + gy * hx]))
    den = vg[..., None] - vgh[..., None] * _powers(root)[1:]
    small = np.abs(den) < tol
    if small.any():
        at = tuple(np.argwhere(small)[0])
        raise Resonance(f"psi denominator {abs(den[at]):.3e} below {tol:.1e} "
                        f"at m={at[-1] + 1}")
    out = np.ones(den.shape[:-1] + (root.N,), dtype=complex)
    num = gy ** (1.0 / root.N) * vh / root.eps
    out[..., 1:] = np.cumprod(num[..., None] / den, axis=-1)
    return out


def _xy(g: GroupElement) -> np.ndarray:
    return np.array([g.x, g.y])


def psi_coeffs(root: RootData, g: GroupElement, h: GroupElement,
               tol: float = 1e-12) -> np.ndarray:
    """Coefficient sequence ``psi_0..psi_{N-1}`` of the pair ``(g, h)``:
    the one-pair case of :func:`psi_stack`."""
    return psi_stack(root, _xy(g), _xy(h), tol)


def psi_coeffs_product(root: RootData, g: GroupElement, h: GroupElement) -> np.ndarray:
    """Closed product form of the psi sequence, used as an independent oracle.

    ``psi_m = (y/z)**m / poch(w x / z, m)`` with ``x = v_{gh}``,
    ``y = u_g v_h / eps``, ``z = v_g`` and
    ``poch(t, m) = prod_{j<m} (1 - t w**j)``.
    """
    cg = coords(root, g)
    ch = coords(root, h)
    cgh = coords(root, group_mul(g, h))
    x, y, z = cgh.v, cg.u * ch.v / root.eps, cg.v
    out = np.empty(root.N, dtype=complex)
    ratio = y / z
    t = root.omega * x / z
    poch = 1.0 + 0.0j
    for m in range(root.N):
        out[m] = ratio ** m / poch
        poch *= 1.0 - t * root.omega_pow(m)
    return out


def psi_scalar(root: RootData, g: GroupElement, h: GroupElement, z: complex) -> complex:
    """``Psi_{g,h}`` evaluated at a scalar argument: ``sum_m psi_m (eps z)**m``."""
    psis = psi_coeffs(root, g, h)
    acc = 0.0 + 0.0j
    t = 1.0 + 0.0j
    for m in range(root.N):
        acc += psis[m] * t
        t *= root.eps * z
    return acc


# Closest approach of the argument of ``nu`` to 1, and largest norm of
# ``U**N - Id``, ``V**N - Id`` and ``UV - VU`` that :func:`gauss_L` accepts.
_NU_GUARD = 1e-12
_GAUSS_TOL = 1e-9


def nu(root: RootData, x: complex) -> complex:
    """The averaged geometric sum ``(1 - x**N) / (N (1 - x))``."""
    if abs(1.0 - x) < _NU_GUARD:
        raise NearOne(f"nu argument within {_NU_GUARD:.1e} of 1")
    return (1.0 - x ** root.N) / (root.N * (1.0 - x))


def clock_shift(root: RootData) -> tuple[np.ndarray, np.ndarray]:
    """Clock matrix ``X e_i = w**i e_i`` and shift matrix ``Y e_i = e_{i+1}``."""
    return np.diag(_powers(root)), np.roll(np.eye(root.N, dtype=complex), 1, axis=0)


def gauss_L(root: RootData, U: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Gauss-sum operator ``(1/N) sum_{i,j} w**(ij) U**i V**j``.

    Requires ``U**N = V**N = Id`` and ``UV = VU``; raises
    :class:`BadOperands` otherwise.
    """
    n = U.shape[0]
    eye = np.eye(n)
    if U.shape != V.shape or U.shape[0] != U.shape[1]:
        raise BadOperands("gauss_L needs square operands of equal shape")
    if np.linalg.norm(np.linalg.matrix_power(U, root.N) - eye) > _GAUSS_TOL \
            or np.linalg.norm(np.linalg.matrix_power(V, root.N) - eye) > _GAUSS_TOL:
        raise BadOperands("gauss_L operands must have order dividing N")
    if np.linalg.norm(U @ V - V @ U) > _GAUSS_TOL:
        raise BadOperands("gauss_L operands must commute")
    Ui = [np.linalg.matrix_power(U, i) for i in range(root.N)]
    Vj = [np.linalg.matrix_power(V, j) for j in range(root.N)]
    out = np.zeros_like(U, dtype=complex)
    for i in range(root.N):
        acc = np.zeros_like(U, dtype=complex)
        for j in range(root.N):
            acc += root.omega_pow(i * j) * Vj[j]
        out += Ui[i] @ acc
    return out / root.N


def rep_matrices(root: RootData, g: GroupElement) -> tuple[np.ndarray, np.ndarray]:
    """Action of the generators on ``V_g``: ``a -> u_g X`` and ``b -> v_g Y``."""
    c = coords(root, g)
    X, Y = clock_shift(root)
    return c.u * X, c.v * Y


def graded_S(root: RootData, g: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Intertwiners of a stack of pairs on their support.

    ``G[..., x, y, d] = S[(x, y), (x + y, d)]`` for the pairs whose
    ``(x, y)`` coordinates ``g`` and ``h`` hold in their last axis; see
    :func:`intertwiner_S` for the closed form.  ``S`` vanishes unless the
    product index is the sum of the factor indices mod N, so these N**3
    entries per pair are all of it.
    """
    N = root.N
    x, y, d = np.ogrid[:N, :N, :N]
    m = (y - d) % N
    return (psi_stack(root, g, h)[..., m]
            * _powers(root)[(m * x + m * (m + 1) // 2) % N])


def intertwiner_S(root: RootData, g: GroupElement, h: GroupElement) -> np.ndarray:
    """The ``N**2 x N**2`` intertwiner identifying ``V_{gh} (x) C^N`` with ``V_g (x) V_h``.

    ``S = Psi(E) . L(Y (x) 1, 1 (x) X)`` with ``E = -(Y^-1 X) (x) Y`` and
    ``Psi(E) = sum_m psi_m (eps E)**m``.  Columns are indexed by
    ``(module index of V_{gh}, multiplicity index)`` in row-major order,
    rows by ``(V_g index, V_h index)``.

    Both factors are monomial, so ``S`` is filled entrywise: the Gauss sum
    ``L`` is the permutation ``e_c (x) e_d -> e_{c-d} (x) e_d`` for every
    primitive root, and ``(eps E)**m`` sends ``e_a (x) e_b`` to
    ``w**(m a - m(m-1)/2) e_{a-m} (x) e_{b+m}``.  Hence

        S[(x, y), (x + y, d)] = psi_m w**(m x + m(m+1)/2),  m = y - d,

    and every other entry vanishes: the product index is the sum of the
    factor indices mod N.  This is the one-pair case of :func:`graded_S`.
    """
    N = root.N
    x, y = np.ogrid[:N, :N]
    S = np.zeros((N, N, N, N), dtype=complex)
    S[x, y, (x + y) % N] = graded_S(root, _xy(g), _xy(h))
    return S.reshape(N * N, N * N)


def duality_d(root: RootData, g: GroupElement) -> np.ndarray:
    """Evaluation ``d_g: V_g (x) V_{g^-1} -> C`` as a row vector of length N**2.

    ``d_g(w_i (x) w_j) = phi(g, i)`` when ``i + j = 0 mod N`` and 0 otherwise.
    """
    N = root.N
    row = np.zeros(N * N, dtype=complex)
    for i in range(N):
        row[i * N + ((-i) % N)] = phi(root, g, i)
    return row


def duality_b(root: RootData, g: GroupElement) -> np.ndarray:
    """Coevaluation ``b_g: C -> V_g (x) V_{g^-1}`` as a column vector of length N**2.

    ``b_g(1) = sum_i phi_bar(g^-1, -i) w_i (x) w_{-i}``.
    """
    N = root.N
    gi = group_inv(g)
    col = np.zeros(N * N, dtype=complex)
    for i in range(N):
        col[i * N + ((-i) % N)] = phi_bar(root, gi, -i)
    return col


def random_element(rng: np.random.Generator) -> GroupElement:
    """Draw ``x`` uniform on [-2,-0.1] union [0.1,2] and ``y`` uniform on [0.5,2]."""
    x = rng.uniform(0.1, 2.0) * (1 if rng.random() < 0.5 else -1)
    y = rng.uniform(0.5, 2.0)
    return GroupElement(x, y)


# Rejection sampling of pairs: the smallest product ``|x|`` kept, and the
# number of draws before giving up.
_MIN_PRODUCT_X = 0.05
_MAX_DRAWS = 1000


def random_admissible_pair(root: RootData, rng: np.random.Generator
                           ) -> tuple[GroupElement, GroupElement]:
    """Rejection-sample an admissible pair, avoiding near-singular products.

    Rejects draws whose product has ``|x| < _MIN_PRODUCT_X`` and draws for
    which the psi recursion reports a resonance.
    """
    for _ in range(_MAX_DRAWS):
        g = random_element(rng)
        h = random_element(rng)
        gh = group_mul(g, h)
        if abs(gh.x) < _MIN_PRODUCT_X:
            continue
        try:
            psi_coeffs(root, g, h, tol=1e-6)
        except Resonance:
            continue
        return g, h
    raise AlgebraError("failed to draw an admissible pair within the retry budget")
