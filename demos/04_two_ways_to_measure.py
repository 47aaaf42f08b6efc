"""Weak vs strong measurement of the x-parity observable.

Both procedures reproduce the same outcome statistics, but their effect on
the state is opposite: measuring every qubit separately (weak) shatters a
cat state into a product state, while projecting onto the two parity
eigenspaces (strong) turns a product state INTO a cat state.  The strong
version is implemented with the doubling CNOT ladder that prepares the cat:
it rotates the 2^(n-1)-fold degenerate parity onto qubit 1 at depth
ceil(log2 n).
"""

import numpy as np

from shallownet import (
    DensityState,
    build_parity_conjugator,
    cat_state,
    conjugated_strong_measure_exact,
    estimate_e,
    product_state,
    strong_measure_exact,
    to_density,
    weak_measure_product_exact,
)
from shallownet.linalg import SIGMA_X
from shallownet.measurement import parity_x_decomposition

n = 4
KET0 = np.array([1, 0], dtype=complex)
zeros = to_density(product_state([KET0] * n))
cat = to_density(cat_state(n))

# --- strong measurement CREATES macroscopic superpositions ----------------
print(f"strong x-parity measurement of |0^{n}>:")
for o in strong_measure_exact(zeros, parity_x_decomposition(n)):
    e = estimate_e(o.post_state).e_lower
    print(f"  outcome {o.value:+.0f} with p = {o.probability:.3f}; post-state e = {e:.4f}")

# --- weak measurement DESTROYS them ----------------------------------------
print(f"\nweak x-parity measurement of cat({n}):")
outcomes = weak_measure_product_exact(cat, [SIGMA_X] * n)
total_plus = sum(o.probability for o in outcomes if o.combined_value > 0)
print(f"  combined outcome +1 with total probability {total_plus:.6f}")
ensemble = DensityState(n, 2, sum(o.probability * o.post_state.matrix for o in outcomes))
print(f"  post-measurement ensemble e = {estimate_e(ensemble).e_lower:.4f}"
      f"  (separable ceiling {np.sqrt(2/n):.4f})")

# --- the conjugation trick gives the strong version with a shallow circuit --
print(f"\nstrong measurement via the doubling CNOT ladder "
      f"(depth {build_parity_conjugator(n).depth}):")
for o in conjugated_strong_measure_exact(cat):
    e = estimate_e(o.post_state).e_lower
    print(f"  outcome {o.value:+.0f} with p = {o.probability:.3f}; cat keeps e = {e:.4f}")
