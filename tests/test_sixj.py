import numpy as np
import pytest

from cyclic6j import sixj
from cyclic6j.algebra import (
    BadOperands, GroupElement, RootData, Resonance, ZeroX, group_mul,
    psi_coeffs, psi_coeffs_product, psi_stack, random_admissible_pair,
)
from cyclic6j.cli import _random_label_six, _random_pentagon, run_suite
from cyclic6j.operators import (
    NegativeBase, NotScalarError, compose, pow_L, pow_R, qtilde,
)
from cyclic6j.sixj import (
    BadLabels, ChargeConstraint, LabelSix, apply_to_leg,
    check_charged_inversion, check_charged_pentagon,
    check_symmetry_relations, check_uncharged_symmetries, multiplicity_dim,
    pentagon_labels, permute_legs, sixj_neg, sixj_pos, sixj_stack, t_form,
    tbar_form, tbar_tensor, tform_tensor,
)

I0 = GroupElement(0.7, 1.3)
J0 = GroupElement(-1.1, 0.8)
L0 = GroupElement(0.5, 1.7)


def _pairs(labs: list, right: list) -> np.ndarray:
    """The stacked leg pairs of the given six-tuples and signs."""
    return sixj._leg_pairs(
        np.array([[(g.x, g.y) for g in lab.six] for lab in labs]),
        np.array(right))


def test_labels_close_under_products():
    lab = LabelSix.from_generators(I0, J0, L0)
    k = group_mul(I0, J0)
    assert lab.k == k
    assert lab.n == group_mul(J0, L0)
    assert lab.m == group_mul(k, L0)


def test_inconsistent_labels_rejected():
    lab = LabelSix.from_generators(I0, J0, L0)
    with pytest.raises(BadLabels):
        LabelSix(lab.i, lab.j, GroupElement(2.0, 1.0), lab.l, lab.m, lab.n)
    with pytest.raises(BadLabels):
        LabelSix(GroupElement(0.0, 1.0), lab.j, lab.k, lab.l, lab.m, lab.n)


def test_multiplicity_spaces_have_full_dimension(root3, root5):
    lab = LabelSix.from_generators(I0, J0, L0)
    assert multiplicity_dim(root3, lab.i, lab.j, lab.k) == 3
    assert multiplicity_dim(root5, lab.i, lab.j, lab.k) == 5


def test_tensor_entries_match_scalar_forms(rng):
    for N in (3, 5):
        root = RootData(N)
        lab = _random_label_six(rng)
        tp = tform_tensor(root, lab)
        tn = tbar_tensor(root, lab)
        for _ in range(8):
            idx = tuple(int(v) for v in rng.integers(0, N, size=4))
            assert tp[idx] == pytest.approx(t_form(root, lab, *idx),
                                           abs=1e-10)
            assert tn[idx] == pytest.approx(tbar_form(root, lab, *idx),
                                           abs=1e-10)


def test_composite_simplicity_is_checked(root3, monkeypatch):
    # rounding alone leaves the diagonal of each composite unequal by more
    # than a tolerance of 1e-30
    monkeypatch.setattr(sixj, "_COMPOSITE_TOL", 1e-30)
    lab = LabelSix.from_generators(I0, J0, L0)
    for tensor in (tform_tensor, tbar_tensor):
        with pytest.raises(NotScalarError):
            tensor(root3, lab)


def _oracle_pos(root, lab, a, c):
    # the charge twist as dense operator matrices applied leg by leg
    out = qtilde(root) ** (a * c) * tform_tensor(root, lab)
    out = apply_to_leg(out, pow_R(root, lab.k, lab.l, c).hat_mat.T, 0)
    out = apply_to_leg(out, pow_R(root, lab.i, lab.j, -a).hat_mat.T, 1)
    return apply_to_leg(out, compose(pow_L(root, lab.j, lab.l, -a),
                                     pow_R(root, lab.j, lab.l, -c)).check_mat.T,
                        2)


def _oracle_neg(root, lab, a, c):
    out = qtilde(root) ** (-a * c) * tbar_tensor(root, lab)
    out = apply_to_leg(out, compose(pow_L(root, lab.j, lab.l, -a),
                                    pow_R(root, lab.j, lab.l, -c)).hat_mat.T, 1)
    out = apply_to_leg(out, pow_R(root, lab.i, lab.j, -a).check_mat.T, 2)
    return apply_to_leg(out, pow_R(root, lab.k, lab.l, c).check_mat.T, 3)


@pytest.mark.parametrize("N, slice_entries", [(3, 2 * 3 ** 5), (3, 2 ** 15),
                                              (5, 2 ** 15), (7, 2 ** 15),
                                              (9, 2 ** 15)])
def test_stacked_kernel_matches_dense_twist(N, slice_entries, rng,
                                            monkeypatch):
    # 2 * 3**5 entries cut the N = 3 stack into slices of two tensors
    monkeypatch.setattr(sixj, "_SLICE_ENTRIES", slice_entries)
    root = RootData(N)
    labs = [_random_label_six(rng) for _ in range(5)]
    right = [True, False, False, True, False]
    a = [int(v) for v in rng.integers(-3, 4, size=5)]
    c = [int(v) for v in rng.integers(-3, 4, size=5)]
    a[0] = c[0] = 0
    got = sixj_stack(root, _pairs(labs, right), right, a, c)
    assert got.shape == (5, N, N, N, N)
    for t in range(5):
        want = (_oracle_pos if right[t] else _oracle_neg)(root, labs[t],
                                                          a[t], c[t])
        assert np.max(np.abs(got[t] - want)) <= 1e-12 * np.max(np.abs(want))
    one = (sixj_pos if right[1] else sixj_neg)(root, labs[1], a[1], c[1])
    assert np.allclose(one, got[1], rtol=1e-13, atol=0)


def _composites_n7(root, pairs, right):
    # the composites as one einsum over the V_m index s and the V_i, V_j
    # indices a, c: N**7 products per tensor
    N = root.N
    G = sixj.graded_S(root, pairs[:, :, 0], pairs[:, :, 1])
    c, x = np.ogrid[:N, :N]
    H = np.linalg.inv(G[:, :2, x, (c - x) % N]).swapaxes(-1, -2)
    s, a, c = np.indices((N, N, N))
    pos = [(s, a + c), (a + c, a), (c, s - a - c), (a, s - a)]
    neg = [(s, a), (s - a, c), (a, c), (a + c, s - a - c)]
    out = []
    for t, r in enumerate(right):
        diag = np.einsum("sacz,sacy,sacx,sacw->zyxws", *(
            F[t, i % N, j % N] for F, (i, j) in
            zip((H[:, 0], H[:, 1], G[:, 2], G[:, 3]), pos if r else neg)),
            optimize=["einsum_path", (0, 1), (0, 1), (0, 1)])
        out.append(diag.mean(axis=-1))
    return np.array(out)


@pytest.mark.parametrize("N", [3, 5, 7, 9, 11])
def test_composites_match_the_n7_einsum(N, rng, monkeypatch):
    # slices of two tensors cut the stack of five after tensors 1 and 3
    monkeypatch.setattr(sixj, "_SLICE_ENTRIES", 2 * N ** 5)
    root = RootData(N)
    labs = [_random_label_six(rng) for _ in range(5)]
    right = np.array([True, False, False, True, False])
    pairs = _pairs(labs, right)
    got = sixj._composites(root, pairs, right)
    want = _composites_n7(root, pairs, right)
    for t in range(5):
        assert np.max(np.abs(got[t] - want[t])) <= 1e-12 * np.max(
            np.abs(want[t]))


@pytest.mark.parametrize("N", [3, 5])
def test_composite_guard_reads_every_diagonal_entry(N, monkeypatch):
    # G[t, 3, x, y] is read only at the V_m index s = x + y, in a positive
    # and in a negative composite alike; a guard that sampled s = 0 alone
    # would miss every corruption below
    lab = LabelSix.from_generators(I0, J0, L0)
    right = [True, False, True, False]
    pairs = _pairs([lab] * 4, right)
    zero = [0] * 4
    graded = sixj.graded_S
    sixj_stack(RootData(N), pairs, right, zero, zero)  # passes uncorrupted
    for t in (1, 2):
        for x in range(N):
            for y in range(N):
                if (x + y) % N == 0:
                    continue

                def corrupt(root, g, h, t=t, x=x, y=y):
                    G = graded(root, g, h).copy()
                    G[t, 3, x, y, :] *= 1 + 1e-5
                    return G
                monkeypatch.setattr(sixj, "graded_S", corrupt)
                with pytest.raises(NotScalarError, match=f"of tensor {t} "):
                    sixj_stack(RootData(N), pairs, right, zero, zero)


def test_label_stack_matches_label_six(rng):
    labs = [_random_label_six(rng) for _ in range(6)]
    i, j, l = (np.array([(getattr(lab, x).x, getattr(lab, x).y)
                         for lab in labs]) for x in "ijl")
    assert np.array_equal(
        sixj._label_stack(i, j, l),
        np.array([[(g.x, g.y) for g in lab.six] for lab in labs]))


@pytest.mark.parametrize("i,j,l,what", [
    ((0.7, 1.3), (0.0, 0.8), (0.5, 1.7), "label j lies outside"),
    ((1.0, 1.0), (-1.0, 0.8), (0.5, 1.7), "label k lies outside"),
    # (ij)l and i(jl) round apart: the 1 of i is lost in ij, not in i(jl)
    ((1.0, 1.0), (1e16, 1.0), (-1e16 + 4, 1.0), "m = in"),
])
def test_label_stack_refuses_what_label_six_refuses(i, j, l, what):
    with pytest.raises(BadLabels, match=what):
        LabelSix.from_generators(*(GroupElement(*g) for g in (i, j, l)))
    with pytest.raises(BadLabels, match=what):
        sixj._label_stack(*(np.array([g]) for g in (i, j, l)))


def test_defect_guard_scale_is_per_tensor(root3, monkeypatch):
    # tensor 0: a hat-leg intertwiner scaled by 1e6 is still an
    # intertwiner, so its composite stays scalar at scale ~1e6; tensor 1:
    # one entry of an intertwiner off by 1e-5, a defect far above 1e-9 on
    # its own scale ~1 but below 1e-9 times tensor 0's scale
    lab = LabelSix.from_generators(I0, J0, L0)
    zero = [0, 0]
    pairs = _pairs([lab, lab], [True, True])
    graded = sixj.graded_S

    def skewed(root, g, h, scale=True, corrupt=True):
        G = graded(root, g, h).copy()
        if scale:
            G[0, 2] *= 1e6
        if corrupt:
            G[1, 3, 0, 0, 0] *= 1 + 1e-5
        return G
    monkeypatch.setattr(sixj, "graded_S",
                        lambda *args: skewed(*args, corrupt=False))
    big = sixj_stack(root3, pairs, [True, True], zero, zero)
    assert np.max(np.abs(big[0])) > 1e5
    monkeypatch.setattr(sixj, "graded_S", skewed)
    with pytest.raises(NotScalarError, match="of tensor 1 "):
        sixj_stack(root3, pairs, [True, True], zero, zero)


def test_twist_checks_exactly_the_operator_pairs(root3):
    # op_sqrtR / op_sqrtL check (k, l), (i, j) and (j, l), also at zero
    # charge; the (i, n) leg carries no twist operator and is not checked
    lab = LabelSix.from_generators(I0, J0, L0)
    right = np.array([True, False])
    pairs = _pairs([lab, lab], right)
    zero = np.zeros(2, dtype=int)
    tensors = np.ones((2,) + (3,) * 4, dtype=complex)

    def twist(t, leg, side, value):
        p = pairs.copy()
        p[t, leg, side, 0] = value
        return sixj._twist(root3, p, right, zero, zero, tensors)
    for t, leg in ((0, 3), (1, 0)):
        assert np.allclose(twist(t, leg, 0, 0.0), tensors)
        assert np.allclose(twist(t, leg, 1, np.nan), tensors)
    for t, leg in ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (1, 3)):
        with pytest.raises(BadOperands):
            twist(t, leg, 0, 0.0)
        with pytest.raises(NegativeBase):
            twist(t, leg, 1, np.nan)


def test_stacked_psi_raises_where_psi_coeffs_does(root5, rng):
    pairs = [random_admissible_pair(root5, rng) for _ in range(6)]
    # both v_g and v_gh must shrink for a denominator to vanish
    near = (GroupElement(1e-70, 1.0), GroupElement(1e-70, 1.0))
    with pytest.raises(Resonance):
        psi_coeffs(root5, *near)
    g, h = (np.array([[e.x, e.y] for e in side]) for side in zip(*pairs))
    got = psi_stack(root5, g, h)
    for row, (gi, hi) in enumerate(pairs):
        assert np.array_equal(got[row], psi_coeffs(root5, gi, hi))
        assert np.max(np.abs(got[row] - psi_coeffs_product(root5, gi, hi))) \
            < 1e-10
    for at in (0, 3, 6):
        stack = pairs[:at] + [near] + pairs[at:]
        g, h = (np.array([[e.x, e.y] for e in side])
                for side in zip(*stack))
        with pytest.raises(Resonance):
            psi_stack(root5, g, h)
    g[2, 0] = 0.0
    with pytest.raises(ZeroX):
        psi_stack(root5, g[:, None], h[:, None])


def test_permute_legs_round_trip(rng):
    x = rng.normal(size=(2, 3, 4, 5))
    moved = permute_legs(permute_legs(x, ((1, 2), (3, 4))), ((1, 2), (3, 4)))
    assert np.array_equal(moved, x)


def test_zero_charge_symbols_reduce_to_bare_tensors(root3, rng):
    lab = _random_label_six(rng)
    assert np.allclose(sixj_pos(root3, lab, 0, 0), tform_tensor(root3, lab))
    assert np.allclose(sixj_neg(root3, lab, 0, 0), tbar_tensor(root3, lab))


def test_charged_inversions(root3, rng):
    lab = _random_label_six(rng)
    for da, dc in ((0, 0), (1, 0), (-2, 3)):
        r1, r2 = check_charged_inversion(root3, lab, da, dc)
        assert r1 < 1e-9 and r2 < 1e-9


def test_inversion_fails_at_mismatched_charges(root3, rng):
    lab = _random_label_six(rng)
    pos = sixj_pos(root3, lab, 1, 0)
    neg = sixj_neg(root3, lab, -1, 1)
    target = np.einsum("ad,bg->abgd", np.eye(3), np.eye(3))
    got = np.einsum("abnm,mngd->abgd", pos, neg, optimize=True)
    assert np.linalg.norm(got - target) > 1e-3


def test_symmetry_relations_charged_and_not(root3, rng):
    lab = _random_label_six(rng)
    assert max(check_uncharged_symmetries(root3, lab)) < 1e-9
    for da, db in ((1, 0), (0, 0), (-2, 1)):
        rs = check_symmetry_relations(root3, lab, da, db, 1 - da - db)
        assert max(rs) < 1e-9


def test_symmetry_charges_must_sum_to_one_half(root3, rng):
    lab = _random_label_six(rng)
    with pytest.raises(ChargeConstraint):
        check_symmetry_relations(root3, lab, 1, 1, 1)


def test_pentagon_labels_compose():
    jd = pentagon_labels(I0, J0, L0, GroupElement(-0.5, 1.4))
    assert jd["j5"] == group_mul(jd["j1"], jd["j2"])
    assert jd["j"] == group_mul(jd["j2"], jd["j3"])
    assert jd["j0"] == group_mul(jd["j6"], jd["j4"])
    assert jd["j7"] == group_mul(jd["j2"], jd["j8"])


def test_charged_pentagon(root3, rng):
    jd = _random_pentagon(rng)
    zero = (0,) * 5
    assert check_charged_pentagon(root3, jd, zero, zero) < 1e-8
    a0, a2, a4, c0, c4 = 1, -1, 2, 0, -2
    a = (a0, a0 + a2, a2, a2 + a4, a4)
    c = (c0, c0 + a4, c0 + a4 + a0 + c4, a0 + c4, c4)
    assert check_charged_pentagon(root3, jd, a, c) < 1e-8


def test_pentagon_residual_is_relative_to_the_factor_scale():
    # seed 28 draws charges of +-2 that scale the products to ~6e7, where
    # the absolute residual of a valid pentagon reads ~1e-8
    rows, ok = run_suite("sixj", 7, 28, 3, 1e-8, 1e-10)
    assert ok, rows
    control = next(r for r in rows if r[0] == "control_pentagon_bad_charge")
    assert control[1] >= 1e-3


@pytest.mark.parametrize("seed", [533, 855, 1691])
def test_charged_symmetry_residuals_are_relative_to_the_scale(seed):
    # these seeds draw symbols of norm up to ~5e8, where the absolute
    # residual of a valid relation reads up to ~8e-6
    rows, ok = run_suite("sixj", 7, seed, 3, 1e-8, 1e-10)
    assert ok, rows


@pytest.mark.parametrize("N", [3, 5, 7])
def test_charged_symmetry_residuals_detect_a_wrong_charge_split(N, rng):
    # the same a + b + c = 1/2, split as (a + 1/2, b - 1/2, c)
    root = RootData(N)
    lab = _random_label_six(rng)
    a, b, c = 1, -2, 2
    pos = sixj_pos(root, lab, a, c)
    norm = np.linalg.norm
    for t in sixj._sym_targets(root, lab, a + 1, b - 1, c, charged=True):
        assert norm(pos - t) / (norm(pos) + norm(t)) >= 1e-3
    assert max(check_symmetry_relations(root, lab, a, b, c)) < 1e-9


def test_pentagon_rejects_or_detects_bad_charges(root3, rng):
    jd = _random_pentagon(rng)
    zero = (0,) * 5
    bad = (1,) + zero[1:]
    with pytest.raises(ChargeConstraint):
        check_charged_pentagon(root3, jd, bad, zero)
    resid = check_charged_pentagon(root3, jd, bad, zero,
                                   skip_constraint_check=True)
    assert resid > 1e-3
