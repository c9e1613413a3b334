import numpy as np
import pytest

from cyclic6j.algebra import GroupElement, RootData, group_mul
from cyclic6j.cli import _random_label_six, _random_pentagon
from cyclic6j.operators import HalfInt, NotScalarError
from cyclic6j.sixj import (
    BadLabels, ChargeConstraint, LabelSix, check_charged_inversion,
    check_charged_pentagon, check_symmetry_relations,
    check_uncharged_symmetries, multiplicity_dim, pentagon_labels,
    permute_legs, sixj_neg, sixj_pos, t_form, tbar_form, tbar_tensor,
    tform_tensor,
)

I0 = GroupElement(0.7, 1.3)
J0 = GroupElement(-1.1, 0.8)
L0 = GroupElement(0.5, 1.7)


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
        lab = _random_label_six(root, rng)
        tp = tform_tensor(root, lab)
        tn = tbar_tensor(root, lab)
        for _ in range(8):
            idx = tuple(int(v) for v in rng.integers(0, N, size=4))
            assert tp[idx] == pytest.approx(t_form(root, lab, *idx),
                                           abs=1e-10)
            assert tn[idx] == pytest.approx(tbar_form(root, lab, *idx),
                                           abs=1e-10)


def test_composite_simplicity_is_checked(root3):
    # rounding alone leaves the diagonal of each composite unequal by more
    # than a tolerance of 1e-30
    lab = LabelSix.from_generators(I0, J0, L0)
    for tensor in (tform_tensor, tbar_tensor):
        with pytest.raises(NotScalarError):
            tensor(root3, lab, tol=1e-30)


def test_permute_legs_round_trip(rng):
    x = rng.normal(size=(2, 3, 4, 5))
    moved = permute_legs(permute_legs(x, ((1, 2), (3, 4))), ((1, 2), (3, 4)))
    assert np.array_equal(moved, x)


def test_zero_charge_symbols_reduce_to_bare_tensors(root3, rng):
    lab = _random_label_six(root3, rng)
    zero = HalfInt(0)
    assert np.allclose(sixj_pos(root3, lab, zero, zero).entries,
                       tform_tensor(root3, lab))
    assert np.allclose(sixj_neg(root3, lab, zero, zero).entries,
                       tbar_tensor(root3, lab))


def test_charged_inversions(root3, rng):
    lab = _random_label_six(root3, rng)
    for da, dc in ((0, 0), (1, 0), (-2, 3)):
        r1, r2 = check_charged_inversion(root3, lab, HalfInt(da), HalfInt(dc))
        assert r1 < 1e-9 and r2 < 1e-9


def test_inversion_fails_at_mismatched_charges(root3, rng):
    lab = _random_label_six(root3, rng)
    pos = sixj_pos(root3, lab, HalfInt(1), HalfInt(0)).entries
    neg = sixj_neg(root3, lab, HalfInt(-1), HalfInt(1)).entries
    target = np.einsum("ad,bg->abgd", np.eye(3), np.eye(3))
    got = np.einsum("abnm,mngd->abgd", pos, neg, optimize=True)
    assert np.linalg.norm(got - target) > 1e-3


def test_symmetry_relations_charged_and_not(root3, rng):
    lab = _random_label_six(root3, rng)
    assert max(check_uncharged_symmetries(root3, lab)) < 1e-9
    for da, db in ((1, 0), (0, 0), (-2, 1)):
        rs = check_symmetry_relations(root3, lab, HalfInt(da), HalfInt(db),
                                      HalfInt(1 - da - db))
        assert max(rs) < 1e-9


def test_symmetry_charges_must_sum_to_one_half(root3, rng):
    lab = _random_label_six(root3, rng)
    with pytest.raises(ChargeConstraint):
        check_symmetry_relations(root3, lab, HalfInt(1), HalfInt(1),
                                 HalfInt(1))


def test_pentagon_labels_compose():
    jd = pentagon_labels(I0, J0, L0, GroupElement(-0.5, 1.4))
    assert jd["j5"] == group_mul(jd["j1"], jd["j2"])
    assert jd["j"] == group_mul(jd["j2"], jd["j3"])
    assert jd["j0"] == group_mul(jd["j6"], jd["j4"])
    assert jd["j7"] == group_mul(jd["j2"], jd["j8"])


def test_charged_pentagon(root3, rng):
    jd = _random_pentagon(root3, rng)
    zero = tuple(HalfInt(0) for _ in range(5))
    assert check_charged_pentagon(root3, jd, zero, zero) < 1e-8
    a0, a2, a4, c0, c4 = 1, -1, 2, 0, -2
    a = tuple(HalfInt(v) for v in (a0, a0 + a2, a2, a2 + a4, a4))
    c = tuple(HalfInt(v) for v in
              (c0, c0 + a4, c0 + a4 + a0 + c4, a0 + c4, c4))
    assert check_charged_pentagon(root3, jd, a, c) < 1e-8


def test_pentagon_rejects_or_detects_bad_charges(root3, rng):
    jd = _random_pentagon(root3, rng)
    zero = tuple(HalfInt(0) for _ in range(5))
    bad = (HalfInt(1),) + zero[1:]
    with pytest.raises(ChargeConstraint):
        check_charged_pentagon(root3, jd, bad, zero)
    resid = check_charged_pentagon(root3, jd, bad, zero,
                                   skip_constraint_check=True)
    assert resid > 1e-3
