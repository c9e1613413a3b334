import numpy as np
import pytest

from cyclic6j.algebra import GroupElement, random_admissible_pair
from cyclic6j.operators import (
    LabelMismatch, assemble_q, compose, identity_block, op_A,
    op_A_oracle, op_Astar, op_B, op_B_oracle, op_Bstar, op_C, op_L, op_R,
    op_sfA, op_sfB, op_sqrtL, op_sqrtR, op_word, pow_L, pow_R, q_scalar,
    qtilde,
)

PAIR = (GroupElement(0.7, 1.3), GroupElement(-1.1, 0.8))


def block_diff(f, g):
    assert f.swaps_parts == g.swaps_parts
    return max(np.linalg.norm(f.check_mat - g.check_mat),
               np.linalg.norm(f.hat_mat - g.hat_mat))


def scalar_part(mat):
    c = np.trace(mat) / mat.shape[0]
    assert np.linalg.norm(mat - c * np.eye(mat.shape[0])) < 1e-9
    return c


def test_compose_checks_labels(root3):
    g, h = PAIR
    f = op_A(root3, g, h)
    with pytest.raises(LabelMismatch):
        compose(f, f)  # target labels of A differ from its source


def test_compose_tracks_part_swaps(root3):
    g, h = PAIR
    a = op_A(root3, g, h)
    assert a.swaps_parts
    ident = op_word(root3, g, h, "A A")
    assert not ident.swaps_parts
    assert block_diff(ident, identity_block(root3, g, h)) < 1e-12


def test_closed_forms_match_oracle(root3, root5, rng):
    for root in (root3, root5):
        for _ in range(10):
            g, h = random_admissible_pair(root, rng)
            assert block_diff(op_A(root, g, h), op_A_oracle(root, g, h)) < 1e-9
            assert block_diff(op_B(root, g, h), op_B_oracle(root, g, h)) < 1e-9


def test_involutions_and_triple_product(root3, rng):
    for _ in range(10):
        g, h = random_admissible_pair(root3, rng)
        ident = identity_block(root3, g, h)
        for word in ("A A", "B B", "A* A*", "B* B*", "A B A B A B"):
            assert block_diff(op_word(root3, g, h, word), ident) < 1e-9
        assert block_diff(op_C(root3, g, h), ident) < 1e-9


def test_positive_parts_and_square_roots(root3, rng):
    for _ in range(10):
        g, h = random_admissible_pair(root3, rng)
        assert block_diff(op_word(root3, g, h, "A* A"),
                          op_L(root3, g, h)) < 1e-9
        assert block_diff(op_word(root3, g, h, "B* B"),
                          op_R(root3, g, h)) < 1e-9
        assert block_diff(op_word(root3, g, h, "sqrtR sqrtR"),
                          op_R(root3, g, h)) < 1e-9
        assert block_diff(op_word(root3, g, h, "sqrtL sqrtL"),
                          op_L(root3, g, h)) < 1e-9
        assert block_diff(op_word(root3, g, h, "B A sqrtR^-1 A B"),
                          op_sqrtL(root3, g, h)) < 1e-9


def test_conjugation_relations(root3, rng):
    for _ in range(10):
        g, h = random_admissible_pair(root3, rng)
        for lhs, rhs in (("A L A", "L^-1"), ("B R B", "R^-1"),
                         ("A R A", "L^-1 R"), ("B L B", "R^-1 L")):
            assert block_diff(op_word(root3, g, h, lhs),
                              op_word(root3, g, h, rhs)) < 1e-9


def test_half_integer_powers(root3, rng):
    g, h = random_admissible_pair(root3, rng)
    assert block_diff(pow_R(root3, g, h, 2), op_R(root3, g, h)) < 1e-12
    assert block_diff(pow_R(root3, g, h, 1), op_sqrtR(root3, g, h)) < 1e-12
    assert block_diff(pow_L(root3, g, h, -2),
                      op_word(root3, g, h, "L^-1")) < 1e-12
    assert block_diff(pow_L(root3, g, h, 0),
                      identity_block(root3, g, h)) < 1e-12


def test_grading_scalar_per_block(root3, root5, rng):
    for root in (root3, root5):
        sign = (-1) ** ((root.N - 1) // 2)
        a = (root.N * root.N - 1) // 8
        assert q_scalar(root, "hat") == pytest.approx(
            sign * root.omega_pow(-a))
        assert q_scalar(root, "check") == pytest.approx(
            sign * root.omega_pow(a))
        for _ in range(5):
            g, h = random_admissible_pair(root, rng)
            Q = assemble_q(root, g, h)
            assert scalar_part(Q.check_mat) == pytest.approx(
                q_scalar(root, "check"), abs=1e-10)
            assert scalar_part(Q.hat_mat) == pytest.approx(
                q_scalar(root, "hat"), abs=1e-10)


def test_qtilde_value_and_order_at_three(root3):
    qt = qtilde(root3)
    assert qt == pytest.approx(0.5 + 0.5j * np.sqrt(3))
    order = next(d for d in range(1, 13) if abs(qt ** d - 1) < 1e-12)
    assert order == 6


def test_observed_scalar_of_charged_triple_product(root3, root5, rng):
    # (sfB sfA)^3 is scalar per part: qtilde^2 on hat, qtilde^-2 on check
    for root in (root3, root5):
        g, h = random_admissible_pair(root, rng)
        W = op_word(root, g, h, "sfB sfA sfB sfA sfB sfA")
        qt = qtilde(root)
        assert scalar_part(W.hat_mat) == pytest.approx(qt ** 2, abs=1e-9)
        assert scalar_part(W.check_mat) == pytest.approx(qt ** -2, abs=1e-9)


def test_observed_commutator_of_positive_parts(root3, rng):
    # L R L^-1 R^-1 is scalar per part: w on hat, w^-1 on check, both q^8
    g, h = random_admissible_pair(root3, rng)
    comm = op_word(root3, g, h, "L R L^-1 R^-1")
    c_hat = scalar_part(comm.hat_mat)
    c_chk = scalar_part(comm.check_mat)
    assert c_hat == pytest.approx(root3.omega, abs=1e-9)
    assert c_chk == pytest.approx(root3.omega_pow(-1), abs=1e-9)
    assert c_hat == pytest.approx(q_scalar(root3, "hat") ** 8, abs=1e-9)
    assert c_chk == pytest.approx(q_scalar(root3, "check") ** 8, abs=1e-9)


def test_charged_involutions(root3, rng):
    for _ in range(5):
        g, h = random_admissible_pair(root3, rng)
        ident = identity_block(root3, g, h)
        assert block_diff(op_word(root3, g, h, "sfA sfA"), ident) < 1e-9
        assert block_diff(op_word(root3, g, h, "sfB sfB"), ident) < 1e-9
        assert block_diff(op_sfA(root3, g, h),
                          op_word(root3, g, h, "A sqrtL^-1"), ) < 1e-12
        assert block_diff(op_sfB(root3, g, h),
                          op_word(root3, g, h, "B sqrtR^-1"), ) < 1e-12


def test_star_operators_swap_parts(root3):
    g, h = PAIR
    assert op_Astar(root3, g, h).swaps_parts
    assert op_Bstar(root3, g, h).swaps_parts
    assert not op_L(root3, g, h).swaps_parts
    assert not op_R(root3, g, h).swaps_parts
