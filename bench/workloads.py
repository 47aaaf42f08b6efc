"""The four benchmark workloads: their inputs, made from the seed, and one round of CLI calls.

A round is the fixed list of ``shallownet`` command lines that a workload
repeats; every round of a run is the same list, so its outputs are the same
bytes every time.
"""

from __future__ import annotations

import json
import os

import numpy as np

from shallownet import cat_ladder, serialize

CAT_K = 3                      # cat_ladder(3): n = 2^3 = 8 qubits, depth 3
CAT_N = 2**CAT_K
CAT_SHOTS = 20                 # seeded shots for each of strong and weak

SWEEP1_TRIALS = 18             # one full (n, k) x {unitary, noisy} cycle
SWEEP1_N = (4, 6, 8)
SWEEP1_K = (0, 1, 2)
SWEEP1_NOISE = 0.05

SWEEP2_TRIALS = 12             # one full (n, k) cycle
SWEEP2_N = (4, 6, 8, 10)
SWEEP2_K = (0, 1, 2)

QUDIT_N = 5                    # 5 qutrits: d = 3^5 = 243
QUDIT_L = 3
QUDIT_RANK = 3
# The restarted ascent's work depends on the state and on its random starts:
# over seeds, its averaging_matrix calls vary by about 12%, more than any run
# length here averages out.  So the state is drawn once, the run seed only
# permutes its sites (which leaves the landscape over site observables
# unchanged), and the estimator's restart seed is fixed.
QUDIT_STATE_SEED = 3
QUDIT_ESTIMATOR_SEED = 0


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


def qudit_state(seed: int) -> np.ndarray:
    """Rank-QUDIT_RANK density matrix on QUDIT_N qutrits, sites permuted by the seed."""
    n, l = QUDIT_N, QUDIT_L
    dim = l**n
    rng = np.random.default_rng(QUDIT_STATE_SEED)
    g = rng.normal(size=(dim, QUDIT_RANK)) + 1j * rng.normal(size=(dim, QUDIT_RANK))
    rho = g @ g.conj().T
    rho = (rho + rho.conj().T) / 2
    rho = rho / np.real(np.trace(rho))
    perm = [int(p) for p in np.random.default_rng(seed).permutation(n)]
    rho = rho.reshape((l,) * (2 * n)).transpose(perm + [n + p for p in perm])
    return rho.reshape(dim, dim)


def state_json(rho: np.ndarray, n: int, l: int) -> str:
    """The program's state wire format, written without the program."""
    data = [[float(z.real), float(z.imag)] for z in rho.reshape(-1)]
    return json.dumps({"n": n, "l": l, "kind": "density", "data": data})


def prepare(workload: str, seed: int) -> list:
    """Write the workload's inputs into the working directory; return one round of argv lists.

    Paths are relative, so reports do not depend on where the run directory
    is; every output of the round goes under ``out/``.
    """
    os.makedirs("out", exist_ok=True)

    def out(name: str) -> str:
        return os.path.join("out", name)

    s = str(seed)
    if workload == "cat-queries":
        circuit = "ladder8.qnet"
        with open(circuit, "w", encoding="utf-8") as fh:
            fh.write(serialize(cat_ladder(CAT_K, include_prologue=True)))
        src = ["--circuit", circuit, "--input", "zeros"]
        return [
            ["simulate", circuit, "--input", "zeros", "--seed", s, "--out", out("simulate.json")],
            ["erho", *src, "--seed", s, "--out", out("erho.json")],
            ["measure", *src, "--mode", "strong", "--shots", str(CAT_SHOTS), "--seed", s,
             "--out", out("strong.jsonl")],
            ["measure", *src, "--mode", "weak", "--shots", str(CAT_SHOTS), "--seed", s,
             "--out", out("weak.jsonl")],
            ["measure", *src, "--mode", "conjugated", "--exact", "--seed", s,
             "--states-dir", out("posts"), "--out", out("conjugated.jsonl")],
        ]
    if workload == "sweep1-prepared":
        return [["verify", "1", "--trials", str(SWEEP1_TRIALS), "--n-list", _csv(SWEEP1_N),
                 "--k-list", _csv(SWEEP1_K), "--noise", str(SWEEP1_NOISE), "--seed", s,
                 "--out", out("sweep1.json")]]
    if workload == "sweep2-projection":
        return [["verify", "2", "--trials", str(SWEEP2_TRIALS), "--n-list", _csv(SWEEP2_N),
                 "--k-list", _csv(SWEEP2_K), "--seed", s, "--out", out("sweep2.json")]]
    if workload == "qudit-erho":
        state = "qudit.json"
        with open(state, "w", encoding="utf-8") as fh:
            fh.write(state_json(qudit_state(seed), QUDIT_N, QUDIT_L))
        return [["erho", state, "--seed", str(QUDIT_ESTIMATOR_SEED), "--out", out("erho.json")]]
    raise ValueError(f"unknown workload {workload!r}")
