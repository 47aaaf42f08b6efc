"""Complex-matrix kernels shared by the rest of the package.

Everything operates on plain numpy arrays of dtype complex128.  Every local
operator acts through one kernel, ``act_local``, on the axes it touches;
``embed`` and the uncertainty module's ``averaging_matrix`` build the full
l^n x l^n matrices as the dense reference.  Matrices stay small here (at
most a few thousand rows), so norms go through full eigendecompositions
rather than iterative methods: robustness beats speed at desk scale.  All
functions are pure; none mutate their arguments.

Site indices are 1-based throughout the public interfaces, with site 1 being
the first (leftmost) tensor factor in row-major Kronecker ordering.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

HERMITIAN_ATOL = 1e-12

# Single-qubit staples, used by the gate library and all over the tests.
I2 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def as_matrix(a) -> np.ndarray:
    """Coerce input to a 2-d complex ndarray."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got array of shape {m.shape}")
    return m


def require_square(a) -> np.ndarray:
    m = as_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def is_hermitian(a, atol: float = HERMITIAN_ATOL) -> bool:
    m = require_square(a)
    return bool(np.max(np.abs(m - m.conj().T), initial=0.0) <= atol)


def require_hermitian(a, atol: float = HERMITIAN_ATOL) -> np.ndarray:
    """Validate Hermiticity entrywise; rejects instead of symmetrizing."""
    m = require_square(a)
    dev = float(np.max(np.abs(m - m.conj().T), initial=0.0))
    if dev > atol:
        raise ValueError(f"matrix is not Hermitian (max deviation {dev:.3e} > {atol:.0e})")
    return m


def is_unitary(a, atol: float = 1e-10) -> bool:
    m = require_square(a)
    return bool(np.allclose(m.conj().T @ m, np.eye(m.shape[0]), atol=atol, rtol=0.0))


def tensor(*matrices) -> np.ndarray:
    """Kronecker product of one or more matrices, left to right."""
    if not matrices:
        raise ValueError("tensor() needs at least one matrix")
    out = as_matrix(matrices[0])
    for m in matrices[1:]:
        out = np.kron(out, as_matrix(m))
    return out


def embed(op, sites: Sequence[int], n: int, l: int) -> np.ndarray:
    """Embed an operator on the given sites of an n-site, dimension-l system.

    ``op`` must be l^k x l^k with k = len(sites); it acts on the listed sites
    in the listed order (so ``embed(CNOT, [2, 1], ...)`` puts the control on
    site 2) and as identity everywhere else.
    """
    op = require_square(op)
    sites = [int(s) for s in sites]
    k = len(sites)
    if len(set(sites)) != k:
        raise ValueError(f"duplicate site in {sites}")
    for s in sites:
        if not 1 <= s <= n:
            raise ValueError(f"site {s} out of range 1..{n}")
    if op.shape[0] != l**k:
        raise ValueError(f"operator is {op.shape[0]}x{op.shape[0]}, expected {l**k}x{l**k} for {k} site(s)")
    if k == n and sites == list(range(1, n + 1)):
        return op.copy()
    others = [s for s in range(1, n + 1) if s not in sites]
    full = np.kron(op, np.eye(l ** len(others), dtype=complex))
    # Axis j of the kron ordering carries site order[j]; permute to 1..n.
    order = [s - 1 for s in sites] + [s - 1 for s in others]
    perm = [order.index(site) for site in range(n)]
    t = full.reshape((l,) * (2 * n))
    return t.transpose(perm + [n + p for p in perm]).reshape(l**n, l**n)


def act_local(op, axes: Sequence[int], t: np.ndarray, l: int) -> np.ndarray:
    """Contract an l^k x l^k operator into the given 0-based axes of a tensor.

    With ``axes = [s - 1 for s in sites]`` on a vector reshaped to ``(l,)*n``
    this is ``embed(op, sites, n, l) @ v``; on the column axes ``n + s - 1``
    of a matrix reshaped to ``(l,)*2n`` it is ``x @ embed(op, sites, n, l).T``.
    """
    k = len(axes)
    g = np.reshape(op, (l,) * (2 * k))
    out = np.tensordot(g, t, axes=(list(range(k, 2 * k)), list(axes)))
    return np.moveaxis(out, list(range(k)), list(axes))


def operator_norm(a) -> float:
    """Largest singular value, via Hermitian eigendecomposition."""
    m = require_square(a)
    if m.shape[0] == 0:
        return 0.0
    if is_hermitian(m, atol=1e-13):
        return float(np.max(np.abs(np.linalg.eigvalsh(m))))
    sq = np.linalg.eigvalsh(m.conj().T @ m)
    return float(np.sqrt(max(float(sq[-1]), 0.0)))


def trace_norm(a) -> float:
    """Sum of singular values, via Hermitian eigendecomposition."""
    m = require_square(a)
    if is_hermitian(m, atol=1e-13):
        return float(np.sum(np.abs(np.linalg.eigvalsh(m))))
    sq = np.clip(np.linalg.eigvalsh(m.conj().T @ m), 0.0, None)
    return float(np.sum(np.sqrt(sq)))


def commutator(a, b) -> np.ndarray:
    a = require_square(a)
    b = require_square(b)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return a @ b - b @ a


def trace_out_site(a, site: int, n: int, l: int) -> np.ndarray:
    """Partial trace over one site; returns the operator on the remaining n-1."""
    m = require_square(a)
    if m.shape[0] != l**n:
        raise ValueError(f"matrix dimension {m.shape[0]} does not match l^n = {l**n}")
    if not 1 <= site <= n:
        raise ValueError(f"site {site} out of range 1..{n}")
    t = m.reshape((l,) * (2 * n))
    traced = np.trace(t, axis1=site - 1, axis2=n + site - 1)
    d = l ** (n - 1)
    return traced.reshape(d, d)


def reduce_to_site(a, site: int, n: int, l: int) -> np.ndarray:
    """Trace out every site except the given one; returns an l x l matrix."""
    m = require_square(a)
    if m.shape[0] != l**n:
        raise ValueError(f"matrix dimension {m.shape[0]} does not match l^n = {l**n}")
    if not 1 <= site <= n:
        raise ValueError(f"site {site} out of range 1..{n}")
    t = m.reshape((l,) * (2 * n))
    s0 = site - 1
    in_labels = list(range(n)) + [k if k != s0 else n for k in range(n)]
    return np.einsum(t, in_labels, [s0, n])


def acts_trivially_on(a, site: int, n: int, l: int, tol: float = 1e-9) -> bool:
    """Numerically decide whether an operator is identity on one site.

    Compares ``a`` against (tr_site(a)/l) re-embedded with identity at the
    site; deviations above ``tol`` count as acting nontrivially.
    """
    m = require_square(a)
    reduced = trace_out_site(m, site, n, l) / l
    others = [s for s in range(1, n + 1) if s != site]
    if not others:
        rebuilt = np.trace(m) / l * np.eye(l, dtype=complex)
    else:
        rebuilt = embed(reduced, others, n, l)
    return bool(np.max(np.abs(m - rebuilt), initial=0.0) <= tol)
