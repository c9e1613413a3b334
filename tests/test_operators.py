import numpy as np
import pytest

from cyclic6j import operators
from cyclic6j.algebra import (
    GroupElement, RootData, duality_d, psi_scalar, random_admissible_pair,
)
from cyclic6j.operators import (
    LabelMismatch, NotScalarError, assemble_q, compose, identity_block, op_A,
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


def _entry_blocks(root, g, h, name):
    """Check and hat parts of ``name`` filled one entry at a time, each
    phase ``(-eps**(+-1))**m w**(m(m-1)/2)`` from its label's component
    and a scalar ``exp``: the reference for the closed forms' index
    arithmetic."""
    N, eps = root.N, root.eps

    def sign(lab):  # eps**(+-1) by the component of the label
        return eps ** (1 if lab.x > 0 else -1)

    def phi(lab, m):
        e = (m * (m - 1)) // 2 % N
        return (-sign(lab)) ** m * np.exp(2j * np.pi * root.k * e / N)

    gh, gs, hs = (operators.group_mul(g, h), operators.group_inv(g),
                  operators.group_inv(h))
    check = np.zeros((N, N), dtype=complex)
    hat = np.zeros((N, N), dtype=complex)
    if name in ("A", "A*"):
        w = np.exp(2j * np.pi * root.k / N)
        parts = [(gs, psi_scalar(root, gs, gh, sign(g) * w), 1),
                 (g, psi_scalar(root, g, h, w / sign(g)), -1)]
        (lc, sc_c, s_c), (lh, psi_h, s_h) = parts[::-1] if name == "A*" \
            else parts
        for j in range(N):
            for i in range(N):
                check[j, i] = sc_c * phi(lc, s_c * (i - j))
                hat[j, i] = 1.0 / (N * psi_h) / phi(lh, s_h * (i - j))
    elif name in ("B", "B*"):
        vg, vgh = (operators.coords(root, e).v for e in (g, gh))
        parts = [(h, vgh / vg, 1), (hs, vg / vgh, -1)]
        (lc, r_c, s_c), (lh, r_h, s_h) = parts[::-1] if name == "B*" \
            else parts
        for i in range(N):
            check[-i % N, i] = phi(lc, s_c * i) / operators.nu(root, r_c)
            hat[-i % N, i] = operators.nu(root, r_h) / phi(lh, s_h * i)
    else:  # R or sqrtR
        sc, n = operators._positive_part(root, g, h, 1, name == "sqrtR")
        for i in range(N):
            check[i, i] = hat[i, i] = sc * np.exp(
                2j * np.pi * root.k * (-n * i % N) / N)
    return check, hat


@pytest.mark.parametrize("N", [3, 5, 9])
@pytest.mark.parametrize("k", [1, 2])
def test_closed_forms_match_entrywise_loops(N, k, rng):
    root = RootData(N, k)
    builders = {"A": op_A, "A*": op_Astar, "B": op_B, "B*": op_Bstar,
                "R": op_R, "sqrtR": op_sqrtR}
    for _ in range(3):
        g, h = random_admissible_pair(root, rng)
        for name, build in builders.items():
            op = build(root, g, h)
            for got, want in zip((op.check_mat, op.hat_mat),
                                 _entry_blocks(root, g, h, name)):
                assert np.max(np.abs(got - want)) \
                    <= 1e-14 * np.max(np.abs(want)), name


def _loop_oracle(root, g, h, mirror):
    """Check and hat parts of ``A``, or ``B`` when ``mirror``, one
    composite ``(d x 1)(1 x S_in[:, beta::N]) S_out[:, gamma::N]`` at a
    time: the reference for the batched oracle."""
    flow = operators._flow_B if mirror else operators._flow_A
    N, eyeN = root.N, np.eye(root.N)

    def check(g, h):
        target = flow(g, h)
        S_out = operators.intertwiner_S(root, *target)
        S_in = operators.intertwiner_S(root, g, h)
        d_row = duality_d(root, h if mirror else target[0]).reshape(1, -1)
        out = np.empty((N, N), dtype=complex)
        for gamma in range(N):
            m1 = S_out @ np.kron(eyeN, eyeN[:, [gamma]])
            for beta in range(N):
                m2 = S_in @ np.kron(eyeN, eyeN[:, [beta]])
                full = operators._kron(eyeN, m2, mirror) @ m1
                out[gamma, beta] = operators._scalar_part(
                    operators._kron(d_row, eyeN, mirror) @ full)
        return out
    return check(g, h), np.linalg.inv(check(*flow(g, h)))


@pytest.mark.parametrize("N", [3, 5, 7, 9])
def test_batched_oracle_matches_loop(N):
    root = RootData(N)
    rng = np.random.default_rng(N)
    for _ in range(5):
        g, h = random_admissible_pair(root, rng)
        for mirror, oracle in ((False, op_A_oracle), (True, op_B_oracle)):
            got = oracle(root, g, h)
            for mat, want in zip((got.check_mat, got.hat_mat),
                                 _loop_oracle(root, g, h, mirror)):
                assert np.linalg.norm(mat - want) \
                    <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("N", [3, 5])
def test_oracles_check_every_composite(N, monkeypatch):
    # one entry of S off by 1e-6 in a column of multiplicity index 2:
    # only the composites at gamma = 2 or beta = 2 see it
    exact = operators.intertwiner_S

    def bent(root, g, h):
        S = exact(root, g, h)
        S[np.flatnonzero(S[:, 2])[0], 2] *= 1 + 1e-6
        return S
    monkeypatch.setattr(operators, "intertwiner_S", bent)
    root = RootData(N)
    g, h = random_admissible_pair(root, np.random.default_rng(N))
    for mirror, oracle in ((False, op_A_oracle), (True, op_B_oracle)):
        with pytest.raises(NotScalarError):
            oracle(root, g, h)
        with pytest.raises(NotScalarError):
            _loop_oracle(root, g, h, mirror)


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
