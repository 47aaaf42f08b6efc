"""Correctness checks on a run's outputs, computed apart from the program.

The checks have their own small simulator: it contracts each channel's Kraus
operators into a state vector or a density tensor over the channel's axes
only, and builds averaging observables with ``np.kron``.  It shares no code
with ``network.apply*`` or ``linalg.embed``.  Each sweep row's inputs are
rebuilt with the program's seeded generators, and the closed forms below are
computed on the result:

* pure state ``psi``: ``||[A, |psi><psi|]||_1 = 2 sqrt(Var_psi(A))``;
* rank-one projection: ``||[A, |phi><phi|]||_op = sqrt(Var_phi(A))``;
* any state: ``||[A, rho]||_1 <= 2 sqrt(Var_rho(A))``.

Each ``check_*`` function returns a list of failure messages; empty means
the outputs are correct.
"""

from __future__ import annotations

import json
import math
import os
from functools import reduce

import numpy as np
from shallownet import random_shallow
from shallownet.measurement import random_product_projection
from shallownet.states import random_product_input
from shallownet.uncertainty import random_site_observable

import workloads

PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)
TOL = 1e-9


# ---------------------------------------------------------------------------
# The simulator
# ---------------------------------------------------------------------------

def _act(t: np.ndarray, op: np.ndarray, axes, l: int) -> np.ndarray:
    """Apply a local operator to the given tensor axes, leaving the others alone."""
    k = len(axes)
    op = op.reshape((l,) * (2 * k))
    t = np.tensordot(op, t, axes=(list(range(k, 2 * k)), list(axes)))
    return np.moveaxis(t, list(range(k)), list(axes))


def run_density(net, rho: np.ndarray) -> np.ndarray:
    """sum_K K rho K^dag for every channel, in step order."""
    n, l = net.n, net.l
    t = rho.reshape((l,) * (2 * n))
    for step in net.steps:
        for ch in step.channels:
            rows = [s - 1 for s in ch.support]
            cols = [n + s - 1 for s in ch.support]
            t = sum(_act(_act(t, k, rows, l), k.conj(), cols, l) for k in ch.kraus)
    return t.reshape(l**n, l**n)


def run_inverse_pure(net, psi: np.ndarray) -> np.ndarray:
    """U^dag psi for a unitary network: steps reversed, gates daggered."""
    n, l = net.n, net.l
    t = psi.reshape((l,) * n)
    for step in reversed(net.steps):
        for ch in step.channels:
            t = _act(t, ch.kraus[0].conj().T, [s - 1 for s in ch.support], l)
    return t.reshape(-1)


def averaging(c: np.ndarray, n: int) -> np.ndarray:
    """(1/n) sum_i c at site i, as a dense matrix."""
    l = c.shape[0]
    eye = np.eye(l, dtype=complex)
    return sum(reduce(np.kron, [c if j == i else eye for j in range(n)]) for i in range(n)) / n


def variance(a: np.ndarray, rho: np.ndarray) -> float:
    mean = np.real(np.trace(a @ rho))
    return float(np.real(np.trace(a @ a @ rho)) - mean * mean)


def commutator_trace_norm(a: np.ndarray, rho: np.ndarray) -> float:
    return float(np.sum(np.abs(np.linalg.eigvalsh(1j * (a @ rho - rho @ a)))))


def spin_covariance(rho: np.ndarray, n: int) -> tuple:
    """3x3 covariance of the spin averages (sigma_p / 2 averaged over sites)."""
    s = [averaging(p / 2, n) for p in PAULI]
    means = [np.real(np.trace(sp @ rho)) for sp in s]
    m = np.array([[np.real(np.trace((s[p] @ s[q] + s[q] @ s[p]) @ rho)) / 2 - means[p] * means[q]
                   for q in range(3)] for p in range(3)])
    return m, s


def trial_seed(root: int, trial: int) -> int:
    """The documented split: SeedSequence([root, trial]) -> 64-bit sub-seed."""
    hi, lo = np.random.SeedSequence([root, trial]).generate_state(2, dtype=np.uint32)
    return int(hi) << 32 | int(lo)


def read_state(path: str) -> np.ndarray:
    """Density matrix from the state wire format."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    data = np.array([complex(re, im) for re, im in doc["data"]])
    if doc["kind"] == "pure":
        return np.outer(data, data.conj())
    d = doc["l"] ** doc["n"]
    return data.reshape(d, d)


def _load(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _lines(path: str) -> list:
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _close(a: float, b: float, tol: float = TOL) -> bool:
    return abs(a - b) <= tol


# ---------------------------------------------------------------------------
# Per workload
# ---------------------------------------------------------------------------

def check_cat_queries(seed: int) -> list:
    n = workloads.CAT_N
    bad = []
    sim = _load("out/simulate.json")
    erho = _load("out/erho.json")
    if sim["fidelity_to_cat"] < 1 - 1e-10:
        bad.append(f"simulate: fidelity to cat {sim['fidelity_to_cat']}")
    if not _close(sim["purity"], 1.0, 1e-10):
        bad.append(f"simulate: purity {sim['purity']}")
    if (sim["depth"], sim["canonical_depth"]) != (workloads.CAT_K, workloads.CAT_K):
        bad.append(f"simulate: depth {sim['depth']}, canonical depth {sim['canonical_depth']}")
    expected = {"x": 1 / (4 * n), "y": 1 / (4 * n), "z": 1 / 4}
    for axis, value in expected.items():
        if not _close(sim["variance"][axis], value, 1e-10):
            bad.append(f"simulate: variance {axis} = {sim['variance'][axis]}, expected {value}")
    for name, report in (("simulate", sim), ("erho", erho)):
        if not _close(report["e_lower"], 1.0, 1e-6):
            bad.append(f"{name}: e_lower {report['e_lower']}, expected 1")

    for mode, value, probability in (("strong", 1.0, 1.0), ("weak", 1.0, 2.0 ** -(n - 1))):
        records = _lines(f"out/{mode}.jsonl")
        if len(records) != workloads.CAT_SHOTS:
            bad.append(f"{mode}: {len(records)} shots, expected {workloads.CAT_SHOTS}")
        for shot, rec in enumerate(records):
            if (rec["value"] != value or not _close(rec["probability"], probability, 1e-12)
                    or rec["seed"] != trial_seed(seed, shot)):
                bad.append(f"{mode} shot {shot}: {rec}")

    cat = np.zeros(2**n, dtype=complex)
    cat[0] = cat[-1] = 1 / math.sqrt(2)
    records = _lines("out/conjugated.jsonl")
    if len(records) != 1 or records[0]["value"] != 1.0 or not _close(records[0]["probability"], 1.0, 1e-10):
        bad.append(f"conjugated: {records}")
    else:
        post = read_state(records[0]["post_state_ref"])
        fid = float(np.real(cat.conj() @ post @ cat))
        if not _close(fid, 1.0):
            bad.append(f"conjugated: post-state fidelity to cat {fid}")
    return bad


def _sweep_rows(report: dict, seed: int, trials: int, n_values, k_values) -> list:
    bad = []
    rows = report["rows"]
    if len(rows) != trials or not report["all_pass"]:
        bad.append(f"{len(rows)} rows (expected {trials}), all_pass {report['all_pass']}")
    for t, row in enumerate(rows):
        plan = (t, trial_seed(seed, t), n_values[t % len(n_values)],
                k_values[(t // len(n_values)) % len(k_values)])
        if (row["trial"], row["seed"], row["n"], row["k"]) != plan:
            bad.append(f"row {t} is (trial, seed, n, k) = "
                       f"{(row['trial'], row['seed'], row['n'], row['k'])}, planned {plan}")
    return bad


def check_sweep1(seed: int) -> list:
    report = _load("out/sweep1.json")
    bad = _sweep_rows(report, seed, workloads.SWEEP1_TRIALS, workloads.SWEEP1_N, workloads.SWEEP1_K)
    for t, row in enumerate(report["rows"]):
        n, k, lhs = row["n"], row["k"], row["lhs"]
        noise = workloads.SWEEP1_NOISE if t % 2 else 0.0
        bound = math.sqrt(2 / n) * 2**k
        if row["noise"] != noise or not _close(row["bound"], bound, 1e-12) or not lhs <= bound:
            bad.append(f"row {t}: noise {row['noise']}, lhs {lhs}, bound {row['bound']} vs {bound}")
            continue
        rng = np.random.default_rng(row["seed"])
        net = random_shallow(n, k, rng, noise=noise)
        inp = random_product_input(n, 2, rng)
        rho = sum(w * reduce(np.kron, factors) for w, factors in inp.terms)
        rho = run_density(net, rho)
        cov, s = spin_covariance(rho, n)
        eig, vec = np.linalg.eigh(cov)
        top = 2 * math.sqrt(max(eig[-1], 0.0))
        if noise == 0.0 or k == 0:
            if not _close(lhs, top):
                bad.append(f"row {t} (pure): lhs {lhs}, 2 sqrt(lambda_max M) = {top}")
        else:
            v = vec[:, -1]
            f_v = commutator_trace_norm(sum(v[p] * s[p] for p in range(3)), rho)
            if not f_v - TOL <= lhs <= top + TOL:
                bad.append(f"row {t} (noisy): lhs {lhs} outside [f(v_M), 2 sqrt(lambda_max M)]"
                           f" = [{f_v}, {top}]")
    return bad


def check_sweep2(seed: int) -> list:
    report = _load("out/sweep2.json")
    bad = _sweep_rows(report, seed, workloads.SWEEP2_TRIALS, workloads.SWEEP2_N, workloads.SWEEP2_K)
    for t, row in enumerate(report["rows"]):
        n, k, lhs = row["n"], row["k"], row["lhs"]
        bound = 2**k / math.sqrt(2 * n)
        if not _close(row["bound"], bound, 1e-12) or not lhs <= bound:
            bad.append(f"row {t}: lhs {lhs}, bound {row['bound']} vs {bound}")
            continue
        rng = np.random.default_rng(row["seed"])
        net = random_shallow(n, k, rng, noise=0.0)
        projection = random_product_projection(n, 2, rng)
        c = random_site_observable(2, rng).matrix
        # Each factor is |v><v|; its top eigenvector is v up to a phase.
        psi = reduce(np.kron, [np.linalg.eigh(f)[1][:, -1] for f in projection.factors])
        phi = run_inverse_pure(net, psi).reshape((2,) * n)
        a_phi = sum(_act(phi, c, [i], 2) for i in range(n)).reshape(-1) / n
        phi = phi.reshape(-1)
        mean = np.real(np.vdot(phi, a_phi))
        expected = math.sqrt(max(np.real(np.vdot(a_phi, a_phi)) - mean * mean, 0.0))
        if not _close(lhs, expected):
            bad.append(f"row {t}: lhs {lhs}, sqrt(Var_phi(abar)) = {expected}")
    return bad


def check_qudit_erho(seed: int) -> list:
    n, l = workloads.QUDIT_N, workloads.QUDIT_L
    report = _load("out/erho.json")
    bad = []
    if (report["n"], report["l"]) != (n, l):
        bad.append(f"report is for (n, l) = {(report['n'], report['l'])}")
        return bad
    c = np.array([complex(re, im) for re, im in report["maximizer"]]).reshape(l, l)
    eig = np.linalg.eigvalsh((c + c.conj().T) / 2)
    if abs(np.trace(c)) > 1e-10 or np.max(np.abs(c - c.conj().T)) > 1e-10 or eig[-1] - eig[0] > 1 + 1e-10:
        bad.append(f"maximizer is not traceless Hermitian with spread <= 1: {c.tolist()}")
    rho = workloads.qudit_state(seed)
    abar = averaging(c, n)
    value = commutator_trace_norm(abar, rho)
    e = report["e_lower"]
    if not _close(e, value):
        bad.append(f"e_lower {e}, ||[abar, rho]||_1 at the maximizer = {value}")
    ceiling = 2 * math.sqrt(max(variance(abar, rho), 0.0))
    if not e <= ceiling + TOL:
        bad.append(f"e_lower {e} above 2 sqrt(Var(abar)) = {ceiling}")
    return bad


CHECKS = {
    "cat-queries": check_cat_queries,
    "sweep1-prepared": check_sweep1,
    "sweep2-projection": check_sweep2,
    "qudit-erho": check_qudit_erho,
}


def check(workload: str, seed: int, run_dir: str) -> list:
    """Failure messages for the outputs a run left in ``run_dir/out``."""
    here = os.getcwd()
    os.chdir(run_dir)
    try:
        return CHECKS[workload](seed)
    finally:
        os.chdir(here)
