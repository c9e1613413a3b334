"""
Charged 6j-symbol tensors and their identities
==============================================

Builds the rank-4 multiplicity tensors of a labeled tetrahedron, charges
them with half-integer powers of sqrtR and sqrtL, and checks the pentagon,
the inversions, and one symmetry relation numerically.
"""
import numpy as np

from cyclic6j.algebra import GroupElement, RootData, group_mul
from cyclic6j.sixj import (
    LabelSix, check_charged_inversion, check_charged_pentagon,
    check_symmetry_relations, pentagon_labels, sixj_pos,
)

root = RootData(N=3)

# six group labels around a tetrahedron, generated by three edges
i = GroupElement(0.7, 1.3)
j = GroupElement(-1.1, 0.8)
l = GroupElement(0.5, 1.7)
lab = LabelSix.from_generators(i, j, l)
print("labels:", lab)

# a positive charged symbol; charges are half-integers, passed doubled,
# so a=1 is the charge 1/2
sym = sixj_pos(root, lab, a=1, c=0)
print(f"symbol tensor shape {sym.shape}, "
      f"norm {np.linalg.norm(sym):.4f}")

# inversion: the negative symbol at opposite charges is a two-sided inverse
r1, r2 = check_charged_inversion(root, lab, 1, 0)
print(f"inversion residuals: {r1:.2e}, {r2:.2e}")

# symmetry relation at doubled charges summing to 1: a + b + c = 1/2
s01, s12, s23 = check_symmetry_relations(root, lab, 1, -2, 2)
print(f"symmetry residuals: {s01:.2e}, {s12:.2e}, {s23:.2e}")

# the charged pentagon over the nine labels generated by four edges
jd = pentagon_labels(GroupElement(0.6, 1.2), GroupElement(-0.9, 0.7),
                     GroupElement(1.3, 1.1), GroupElement(-0.5, 1.4))
a = (1, 1, 0, -1, -1)
c = (0, -1, 1, 2, 1)
resid = check_charged_pentagon(root, jd, a, c)
print(f"charged pentagon residual: {resid:.2e}")

# violating the linear charge constraints breaks the identity by orders
# of magnitude; this is the negative control
bad_c = c[:2] + (c[2] + 1,) + c[3:]
bad = check_charged_pentagon(root, jd, a, bad_c, skip_constraint_check=True)
print(f"control, bumped charge: residual {bad:.2e}")
