"""Build an 8-qubit cat state with a depth-3 doubling ladder.

The ladder pairs every already-entangled qubit with a fresh one, so the
entangled block doubles each step: after k steps, 2^k qubits share the
superposition (|00...0> + |11...1>)/sqrt(2).  The script also shows the
circuit's text form and how much mean-field quantum uncertainty the final
state carries.
"""

import numpy as np

from shallownet import (
    apply,
    cat_ladder,
    cat_state,
    estimate_e,
    fidelity,
    product_state,
    serialize,
)

KET0 = np.array([1, 0], dtype=complex)

# --- build the network and inspect its text form -------------------------
net = cat_ladder(3, include_prologue=True)
print("circuit file:")
print(serialize(net))

# --- run it on |00000000> -------------------------------------------------
start = product_state([KET0] * 8)
final = apply(net, start)  # a unitary network keeps a state vector a vector
print(f"fidelity to cat(8): {fidelity(final, cat_state(8)):.12f}")

# --- how "macroscopic" is the superposition? ------------------------------
# The uncertainty functional is ~1/sqrt(n) for any product state and 1 for
# the cat state; the ladder needed depth log2(n) to get there.
for label, state in [("input |0^8>", start), ("output cat(8)", final)]:
    report = estimate_e(state.density())
    print(f"e[{label}] = {report.e_lower:.6f}")
print(f"baseline 1/sqrt(8) = {1/np.sqrt(8):.6f}")
