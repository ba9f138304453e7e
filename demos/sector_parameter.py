"""
The sector parameter on finite registers
========================================

The sector parameter is the average of single-site projectors onto a
reference family of states: it reads 1 exactly on the reference product
state and drops by (1 - |overlap|^2)/N for every site that deviates.
Two different reference families give sector parameters that almost
commute - their commutator norm shrinks like 1/N - which is the finite-N
shadow of the two observables becoming jointly classical.
"""

import math

import numpy as np

from sectorsim import (
    ElementaryFamily,
    ProductState,
    commutator_norm,
    dense_action,
    dense_product_state,
    dense_sector_operator,
    sector_apply,
    sector_expectation,
)

KET0 = np.array([1.0, 0.0], dtype=np.complex128)
KET1 = np.array([0.0, 1.0], dtype=np.complex128)
PLUS = np.array([1.0, 1.0], dtype=np.complex128) / math.sqrt(2.0)

# %%
# Expectation drops linearly with the modified fraction
# -----------------------------------------------------
# Reference family: five sites, all |0>.  Flip sites to |1> one by one.

family = ElementaryFamily((KET0,) * 5)
for flips in range(6):
    state = ProductState((KET1,) * flips + (KET0,) * (5 - flips))
    value = sector_expectation(family, state)
    print(f"{flips} orthogonal sites of 5: expectation = {value:.4f}")

# %%
# Partial overlap counts fractionally: a |+> site contributes
# |<0|+>|^2 = 1/2 instead of 0.

state = ProductState((PLUS, KET0, KET0, KET0, KET0))
print("\none |+> site of 5:", sector_expectation(family, state))

# %%
# Exact action
# ------------
# Applying the operator to a product state yields one passthrough term
# plus one single-site replacement term per modified site - never an
# entangled mess.  Here the action on a two-site state with one flipped
# site keeps it almost intact.

family2 = ElementaryFamily((KET0, KET0))
state2 = ProductState((KET1, KET0))
action = sector_apply(family2, state2)
print("\naction terms on (|1>, |0>) against reference (|0>, |0>):")
for coef, term in action:
    sites = [np.round(v, 4) for v in term.psi]
    print(f"  coefficient {coef:.4f} on product state {sites}")

# %%
# The exact action agrees with a brute-force dense matrix.

vec = dense_product_state(state2.psi)
dense = dense_sector_operator(family2) @ vec
print("max |exact - dense|:",
      np.max(np.abs(dense_action(action) - dense)))

# %%
# Commutator decay
# ----------------
# Two uniform families, per-site states |0> and |+>.  The dense spectral
# norm of the commutator halves each time N doubles; the analytic path
# reproduces it at a fraction of the cost.

print("\nN   dense norm   analytic    N * norm")
for n in (2, 4, 8):
    family_a = ElementaryFamily((KET0,) * n)
    family_b = ElementaryFamily((PLUS,) * n)
    dense_val = commutator_norm(family_a, family_b, method="dense")
    analytic = commutator_norm(family_a, family_b, method="analytic")
    print(f"{n:<3d} {dense_val:<12.6f} {analytic:<11.6f} {n * dense_val:.6f}")
