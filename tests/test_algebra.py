import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclic6j.algebra import (
    BadOperands, GroupElement, NearOne, Resonance, RootData, UNIT, ZeroX,
    clock_shift, coords, duality_b, duality_d, eps_sign, gauss_L, group_inv,
    group_mul, in_I, intertwiner_S, nu, pair_admissible, phi, phi_bar,
    psi_coeffs, psi_coeffs_product, psi_scalar, random_admissible_pair,
    rep_matrices,
)

group_elements = st.builds(
    GroupElement,
    st.floats(-5.0, 5.0).filter(lambda x: abs(x) > 1e-3),
    st.floats(0.1, 5.0))


def test_root_data_rejects_even_or_small_order():
    with pytest.raises(BadOperands):
        RootData(4)
    with pytest.raises(BadOperands):
        RootData(1)
    with pytest.raises(BadOperands):
        RootData(9, k=3)
    for k in (0, -1, 4, 10 ** 23):  # k past 2**53 rounds inside 2 pi k / N
        with pytest.raises(BadOperands):
            RootData(3, k)


def test_group_law_fixed_values():
    assert group_mul(UNIT, GroupElement(3, 2)) == GroupElement(3, 2)
    assert group_mul(GroupElement(1, 2), GroupElement(3, 1)) == \
        GroupElement(7, 2)
    inv = group_inv(GroupElement(2, 4))
    assert inv.x == pytest.approx(-0.5) and inv.y == pytest.approx(0.25)


@given(group_elements, group_elements, group_elements)
def test_group_law_is_associative(g, h, k):
    left = group_mul(group_mul(g, h), k)
    right = group_mul(g, group_mul(h, k))
    assert left.x == pytest.approx(right.x, abs=1e-9)
    assert left.y == pytest.approx(right.y, rel=1e-12)


@given(group_elements)
def test_inverse_cancels(g):
    e = group_mul(g, group_inv(g))
    assert e.x == pytest.approx(0.0, abs=1e-9)
    assert e.y == pytest.approx(1.0, rel=1e-12)


def test_regularity_predicates():
    assert not in_I(UNIT)
    assert not pair_admissible(GroupElement(1, 1), GroupElement(-1, 1))
    assert pair_admissible(GroupElement(1, 2), GroupElement(3, 1))


def test_coords_takes_real_roots_with_branch_sign(root3):
    c = coords(root3, GroupElement(8, 1))
    assert c.u == pytest.approx(1.0) and c.v == pytest.approx(2.0)
    assert coords(root3, GroupElement(-8, 1)).v == pytest.approx(-2.0)
    with pytest.raises(ZeroX):
        coords(root3, UNIT)


def test_coordinate_identities_on_random_pairs(root3, rng):
    for _ in range(50):
        g, h = random_admissible_pair(root3, rng)
        gh = group_mul(g, h)
        cg, ch, cgh = (coords(root3, e) for e in (g, h, gh))
        assert cgh.u == pytest.approx(cg.u * ch.u, rel=1e-12)
        ci = coords(root3, group_inv(g))
        assert ci.u == pytest.approx(1 / cg.u, rel=1e-12)
        assert ci.v == pytest.approx(eps_sign(root3, g) * cg.v / cg.u,
                                     rel=1e-12)


def test_phi_values_and_reciprocal(root3):
    g = GroupElement(0.7, 1.3)
    assert phi(root3, g, 0) == pytest.approx(1.0)
    assert phi(root3, g, 1) == pytest.approx(-eps_sign(root3, g))
    for m in range(-3, root3.N + 3):
        assert phi(root3, g, m) * phi_bar(root3, g, m) == pytest.approx(1.0)
        # well-defined on residues mod N
        assert phi(root3, g, m) == pytest.approx(phi(root3, g, m + root3.N))


def test_psi_normalization_and_first_step(root3):
    g, h = GroupElement(0.7, 1.3), GroupElement(-1.1, 0.8)
    psis = psi_coeffs(root3, g, h)
    assert psis[0] == pytest.approx(1.0)
    cg = coords(root3, g)
    ch = coords(root3, h)
    cgh = coords(root3, group_mul(g, h))
    step = cg.u * ch.v / (root3.eps * (cg.v - cgh.v * root3.omega))
    assert psis[1] == pytest.approx(step, rel=1e-12)


def test_psi_recursion_matches_product_form(root3, root5, rng):
    for root in (root3, root5):
        for _ in range(25):
            g, h = random_admissible_pair(root, rng)
            got = psi_coeffs(root, g, h)
            want = psi_coeffs_product(root, g, h)
            assert np.max(np.abs(got - want)) < 1e-10


def test_psi_scalar_evaluates_the_polynomial(root3):
    g, h = GroupElement(1.0, 1.0), GroupElement(1.0, 1.0)
    psis = psi_coeffs(root3, g, h)
    z = 0.3 - 0.4j
    want = sum(psis[m] * (root3.eps * z) ** m for m in range(root3.N))
    assert psi_scalar(root3, g, h, z) == pytest.approx(want)


def test_near_degenerate_pair_is_rejected(root3):
    # both v_g and v_gh must shrink for a denominator to vanish
    with pytest.raises(Resonance):
        psi_coeffs(root3, GroupElement(1e-39, 1.0), GroupElement(1e-39, 1.0))


def test_nu_fixed_values_and_guard(root3):
    assert nu(root3, 0.0) == pytest.approx(1.0 / 3.0)
    assert abs(nu(root3, root3.omega)) < 1e-12
    with pytest.raises(NearOne):
        nu(root3, 1.0 + 1e-14)


@given(st.complex_numbers(max_magnitude=3.0).filter(
    lambda z: abs(z - 1.0) > 1e-3))
def test_nu_defining_identity(z):
    root = RootData(3)
    val = nu(root, z)
    assert val * root.N * (1 - z) + z ** root.N - 1 == \
        pytest.approx(0.0, abs=1e-9)


def test_clock_shift_relations(root3, root5):
    for root in (root3, root5):
        X, Y = clock_shift(root)
        eye = np.eye(root.N)
        assert np.allclose(np.linalg.matrix_power(X, root.N), eye)
        assert np.allclose(np.linalg.matrix_power(Y, root.N), eye)
        assert np.allclose(X @ Y, root.omega * (Y @ X))


def test_gauss_sum_of_identities_is_identity(root3):
    eye = np.eye(root3.N, dtype=complex)
    assert np.allclose(gauss_L(root3, eye, eye), eye)


def test_gauss_sum_against_double_loop(root3):
    X, _ = clock_shift(root3)
    N = root3.N
    want = np.zeros((N, N), dtype=complex)
    for i in range(N):
        for j in range(N):
            want += root3.omega_pow(i * j) * \
                np.linalg.matrix_power(X, i) @ np.linalg.matrix_power(X, j)
    want /= N
    assert np.allclose(gauss_L(root3, X, X), want)


def test_gauss_sum_rejects_noncommuting_operands(root3):
    X, Y = clock_shift(root3)
    with pytest.raises(BadOperands):
        gauss_L(root3, X, Y)


def test_representation_relations(root3, rng):
    for _ in range(20):
        g, _ = random_admissible_pair(root3, rng)
        A, B = rep_matrices(root3, g)
        assert np.allclose(A @ B, root3.omega * (B @ A))
        c = coords(root3, g)
        assert np.allclose(np.diag(A),
                           [c.u * root3.omega_pow(i) for i in range(3)])
        assert np.allclose(np.linalg.matrix_power(B, 3), g.x * np.eye(3))


def test_intertwiner_carries_both_generators(root3, rng):
    I_N = np.eye(root3.N)
    for _ in range(20):
        g, h = random_admissible_pair(root3, rng)
        S = intertwiner_S(root3, g, h)
        assert abs(np.linalg.det(S)) > 1e-9
        Ag, Bg = rep_matrices(root3, g)
        Ah, Bh = rep_matrices(root3, h)
        Agh, Bgh = rep_matrices(root3, group_mul(g, h))
        da = np.kron(Ag, Ah)
        db = np.kron(Ag, Bh) + np.kron(Bg, I_N)
        assert np.linalg.norm(da @ S - S @ np.kron(Agh, I_N)) < 1e-9
        assert np.linalg.norm(db @ S - S @ np.kron(Bgh, I_N)) < 1e-9


@pytest.mark.parametrize("N", [3, 5, 7, 9])
def test_intertwiner_matches_dense_gauss_product(N, rng):
    # S = Psi(E) L(Y x 1, 1 x X), built from dense matrix products
    root = RootData(N, 2)
    X, Y = clock_shift(root)
    I_N = np.eye(N)
    E = -np.kron(np.linalg.inv(Y) @ X, Y)
    L = gauss_L(root, np.kron(Y, I_N), np.kron(I_N, X))
    for _ in range(3):
        g, h = random_admissible_pair(root, rng)
        psi_E = sum(c * np.linalg.matrix_power(root.eps * E, m)
                    for m, c in enumerate(psi_coeffs(root, g, h)))
        want = psi_E @ L
        got = intertwiner_S(root, g, h)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_duality_zig_zags(root3, rng):
    I_N = np.eye(root3.N)
    for _ in range(20):
        g, _ = random_admissible_pair(root3, rng)
        gi = group_inv(g)
        d_g = duality_d(root3, g).reshape(1, -1)
        d_gi = duality_d(root3, gi).reshape(1, -1)
        b_g = duality_b(root3, g).reshape(-1, 1)
        b_gi = duality_b(root3, gi).reshape(-1, 1)
        assert np.linalg.norm(
            np.kron(I_N, d_gi) @ np.kron(b_g, I_N) - I_N) < 1e-12
        assert np.linalg.norm(
            np.kron(d_g, I_N) @ np.kron(I_N, b_gi) - I_N) < 1e-12


def test_duality_d_normalized_at_origin(root3):
    g = GroupElement(0.7, 1.3)
    assert duality_d(root3, g)[0] == pytest.approx(1.0)
