"""Mean-field observables and the macroscopic quantum-uncertainty functional.

The functional of interest is the maximum, over averaging observables
``abar = (1/n) sum_i embed(c, i)``, of the trace norm ``||[abar, rho]||_tr``.
Values of order 1 mean the state carries quantum uncertainty in a macroscopic
(mean-field) quantity; separable states stay at order ``1/sqrt(n)``, and a
depth-k network can raise the value by at most ``2^k``.

``estimate_e`` reports a certified lower bound: ``e_lower`` is the trace norm
of ``[abar, rho]`` at the reported maximizer on the whole state (the spectrum
of the dense commutator for a density matrix, the 2 x 2 range spectrum of
``commutator_trace_norm`` for a state vector), computed once the search has
ended, so no shortcut of the search enters it.  The search is one ascent for
every local dimension, run on coordinates of the commutator over the state's
range.  With ``rho = F F^dag`` (r columns: ``psi`` itself for a state vector,
one ``eigh`` of a density matrix) and ``lambda_a`` a trace-orthonormal basis
of the traceless Hermitian site matrices, one reduced QR of
``[F, abar(lambda_1) F, ...]`` gives k x k Hermitian ``h_a``,
``k = min(l^2 r, d)``, with ``||[abar(c), rho]||_1 = ||sum_a c_a h_a||_1``.
The bottom-right (k - r)-square block of each ``h_a`` is zero, so an ascent
candidate costs a QR of a (k - r) x r matrix and one spectrum of size 2r
(``_RangeBlocks``; when ``k <= 2r``, full rank included, the block is the
k x k sum itself, with no QR), and its subgradient ``tr(w h_a)`` comes from
the same block.  Qubits start from a deterministic Fibonacci grid of Bloch
directions (plus the two top-variance ones), visited in decreasing order of
the variance ceiling ``2 sqrt(v^T M v)`` (M the 3x3 spin covariance, read
from the same images ``abar(lambda_a) F``), each on its k x k sum, until no
remaining ceiling can beat the best value found.  A best value at
``2 sqrt(lambda_max(M))`` is certified optimal and ends the search with
``iterations = 0``, which is what happens on pure states; otherwise the
ascent refines the best candidate.  Larger local dimensions ascend from
seeded random starts, all in lockstep: one batched spectrum per pass for
every start's candidate.  Low ranks gain the most; on full-rank qubit
states the QR of a d x 4d block can make the search slower than a dense one.

``check_uncertainty_bound`` tests the depth bound on a network's output and
runs the search only when it must.  For qubits the variance ceiling
``e_upper = 2 sqrt(lambda_max(M))`` bounds the functional from above on every
state, pure or mixed, so a row with ``e_upper <= bound + tol`` is certified
to pass from one 3x3 eigenproblem, and its ``e_lower`` is the trace norm at
the top-variance direction.  Only a row the ceiling cannot settle (and every
l > 2 row) goes to ``estimate_e``, whose lower bound can refute the bound but
cannot certify it.  A row with a pure product input and a unitary network
stays a state vector throughout: ``max_variance_qubit`` and
``commutator_trace_norm`` take a ``PureState`` through its d x 1 range, so M
comes from the three images ``abar(lambda_a) psi`` and the trace norm from a
2 x 2 spectrum.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .linalg import SIGMA_X, SIGMA_Y, SIGMA_Z
from .network import Network, apply
from .states import PureState, SeparableInput, density_matrix, mix

SPREAD_ATOL = 1e-10
PURITY_ATOL = 1e-8
DEGENERACY_GAP = 1e-10
# Eigenvalues of rho at or below this fraction of its largest are left out of
# the range factor F of the l > 2 search: far below any weight that moves the
# search, and it drops the slightly negative eigenvalues DensityState admits.
# The reported e_lower is recomputed densely, so the cutoff never enters it.
RANGE_CUTOFF = 1e-13
# Rounding allowance on the variance ceiling of the qubit search: far above
# the error of the 3x3 covariance and of an eigenvalue sum, far below any
# tolerance the reports are read at.
CEILING_SLACK = 1e-12
HALF_PAULIS = np.stack([SIGMA_X, SIGMA_Y, SIGMA_Z]) / 2


@dataclass(frozen=True)
class SiteObservable:
    """Single-site Hermitian observable, stored traceless with spread <= 1.

    The spectral spread (largest minus smallest eigenvalue) is capped at 1,
    which is the same feasible set as "some identity shift has norm <= 1/2":
    identity shifts change neither commutators nor variances.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = linalg.require_hermitian(self.matrix)
        l = m.shape[0]
        m = m - (np.trace(m) / l) * np.eye(l)
        eig = np.linalg.eigvalsh(m)
        spread = float(eig[-1] - eig[0])
        if spread > 1.0 + SPREAD_ATOL:
            raise ValueError(f"spectral spread {spread} exceeds 1")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @classmethod
    def from_bloch(cls, v) -> "SiteObservable":
        """Qubit observable (v . sigma) / 2 for a Bloch vector with |v| <= 1."""
        v = np.asarray(v, dtype=float)
        return cls((v[0] * SIGMA_X + v[1] * SIGMA_Y + v[2] * SIGMA_Z) / 2)

    @property
    def l(self) -> int:
        return self.matrix.shape[0]

    @property
    def spread(self) -> float:
        eig = np.linalg.eigvalsh(self.matrix)
        return float(eig[-1] - eig[0])

    def centered(self) -> np.ndarray:
        """Representative with the spectrum centered at 0, hence norm <= 1/2."""
        eig = np.linalg.eigvalsh(self.matrix)
        shift = (eig[-1] + eig[0]) / 2
        return self.matrix - shift * np.eye(self.l)


@dataclass(frozen=True)
class AveragingObservable:
    """Mean of the same site observable embedded at every site."""

    site: SiteObservable
    n: int

    def matrix(self) -> np.ndarray:
        return averaging_matrix(self.site, self.n)


def averaging_matrix(c, n: int) -> np.ndarray:
    """(1/n) sum over sites of the embedded (spectrum-centered) observable."""
    site = c if isinstance(c, SiteObservable) else SiteObservable(c)
    op = site.centered()
    l = site.l
    out = np.zeros((l**n, l**n), dtype=complex)
    for i in range(1, n + 1):
        out += linalg.embed(op, [i], n, l)
    return out / n


def _abar_times(abar, x: np.ndarray) -> np.ndarray:
    """``abar @ x`` for a d x k block x: site by site for a site (averaged over
    every site of x) or averaging observable, densely for a raw matrix."""
    if isinstance(abar, SiteObservable):
        abar = AveragingObservable(abar, round(math.log(x.shape[0], abar.l)))
    if not isinstance(abar, AveragingObservable):
        a = linalg.require_square(abar)
        if a.shape[1] != x.shape[0]:
            raise ValueError(f"dimension mismatch: {a.shape} vs {x.shape}")
        return a @ x
    l, n = abar.site.l, abar.n
    if l**n != x.shape[0]:
        raise ValueError(f"dimension mismatch: {(l**n, l**n)} vs {x.shape}")
    return _site_average(abar.site.centered(), x, n, l)


def _site_average(op: np.ndarray, x: np.ndarray, n: int, l: int) -> np.ndarray:
    """``(1/n) sum_i op_i @ x`` for an l x l op and a d x k block x, site by site."""
    t = x.reshape((l,) * n + (-1,))
    out = np.zeros_like(t)
    for i in range(n):
        out += linalg.act_local(op, [i], t, l)
    return out.reshape(x.shape) / n


def _commutator(abar, h: np.ndarray) -> np.ndarray:
    """``[abar, h]`` for a Hermitian h; ``h abar = (abar h)^dag`` needs abar
    Hermitian too, so a raw matrix takes the dense commutator."""
    if isinstance(abar, (SiteObservable, AveragingObservable)):
        y = _abar_times(abar, h)
        return y - y.conj().T
    return linalg.commutator(abar, h)


def variance(abar, rho) -> float:
    """tr(abar^2 rho) - tr(abar rho)^2, clamped to be nonnegative.

    A PureState stays a vector: the traces are ``<psi, abar psi>`` and
    ``<psi, abar abar psi>``.
    """
    if isinstance(rho, PureState):
        psi = rho.amplitudes[:, None]
        y = _abar_times(abar, psi)
        mean = float(np.vdot(psi, y).real)
        second = float(np.vdot(psi, _abar_times(abar, y)).real)
    else:
        m = density_matrix(rho)
        y = _abar_times(abar, m)
        mean = float(np.real(np.trace(y)))
        second = float(np.real(np.trace(_abar_times(abar, y))))
    v = second - mean * mean
    if v < -1e-9:
        raise ValueError(f"variance {v} is negative beyond numerical tolerance")
    return max(v, 0.0)


def commutator_trace_norm(abar, rho) -> float:
    """Trace norm of [abar, rho].

    A PureState stays a vector: ``i[abar, psi psi^dag]`` lives in the span of
    ``psi`` and ``abar psi``, so the norm is the spectrum of a 2 x 2 matrix
    (``_commutator_on_range`` on the d x 1 block).
    """
    if isinstance(rho, PureState):
        h, _ = _commutator_on_range(abar, rho.amplitudes[:, None])
        return _hermitian_trace_norm(h)
    return _hermitian_trace_norm(1j * _commutator(abar, density_matrix(rho)))


def commutator_witness(abar, rho):
    """Trace norm of [abar, rho] together with an attaining witness.

    Returns ``(value, b)`` with ``||b|| <= 1`` and ``tr(rho [abar, b])``
    equal to the value: b is ``-i sign(i [abar, rho])``, the polar-sign factor
    of the commutator.
    """
    eig, vec = np.linalg.eigh(1j * _commutator(abar, density_matrix(rho)))
    b = -1j * (vec * np.sign(eig)) @ vec.conj().T
    return float(np.sum(np.abs(eig))), b


@dataclass(frozen=True)
class Hypersurface:
    """Level set of ``tr(rho [abar, b])`` at value r."""

    abar: AveragingObservable
    b: np.ndarray
    r: float

    def __post_init__(self):
        b = linalg.require_square(self.b)
        if linalg.operator_norm(b) > 1.0 + 1e-10:
            raise ValueError("witness operator must have norm at most 1")
        if not -1.0 - 1e-12 <= self.r <= 1.0 + 1e-12:
            raise ValueError(f"level {self.r} outside [-1, 1]")
        b = b.copy()
        b.setflags(write=False)
        object.__setattr__(self, "b", b)


def commutator_expectation(rho, abar, b) -> float:
    """Re tr(rho [abar, b]) for any witness with ||b|| <= 1.

    For Hermitian b the trace is purely imaginary and the value is 0; the
    meaningful witnesses are the polar-sign factors from
    ``commutator_witness`` (or any phase rotation of a Hermitian b).
    """
    b = linalg.require_square(b)
    if linalg.operator_norm(b) > 1.0 + 1e-10:
        raise ValueError("witness operator must have norm at most 1")
    # tr(rho [abar, b]) = -tr([abar, rho] b), a commutator with Hermitian rho
    return -float(np.real(np.einsum("ij,ji->", _commutator(abar, density_matrix(rho)), b)))


def hypersurface_value(rho, surface: Hypersurface) -> float:
    return commutator_expectation(rho, surface.abar, surface.b)


# ---------------------------------------------------------------------------
# Commutator coordinates over the state's range
# ---------------------------------------------------------------------------

def _traceless_basis(l: int) -> np.ndarray:
    """Trace-orthonormal basis ``lambda_a`` of the traceless Hermitian l x l
    matrices: the generalized Gell-Mann matrices over sqrt 2, so qubits get
    ``sigma_x, sigma_y, sigma_z`` over sqrt 2 in that order."""
    mats = []
    for j in range(l):
        for k in range(j + 1, l):
            for upper in (1.0, -1j):
                a = np.zeros((l, l), dtype=complex)
                a[j, k], a[k, j] = upper, np.conj(upper)
                mats.append(a / math.sqrt(2))
    for j in range(1, l):
        diag = np.zeros(l)
        diag[:j], diag[j] = 1.0, -j
        mats.append(np.diag(diag / math.sqrt(j * (j + 1))).astype(complex))
    return np.stack(mats)


def _basis_images(f: np.ndarray, n: int, basis: np.ndarray) -> np.ndarray:
    """The stack ``G_a = abar(lambda_a) F``, each applied site by site."""
    return np.stack([_site_average(lam, f, n, len(lam)) for lam in basis])


def _range_coordinates(f: np.ndarray, gs: np.ndarray):
    """``(h, q)``: Hermitian k x k ``h_a`` with ``i[abar(lambda_a), F F^dag] = q h_a q^dag``.

    With ``G_a = abar(lambda_a) F``, ``i[abar_a, F F^dag] = i(G_a F^dag - F G_a^dag)``.
    One reduced QR ``[F, G_1, ..., G_m] = q R`` puts all of them in the span of
    q, as ``h_a = i(R_{G_a} R_F^dag - R_F R_{G_a}^dag)`` with
    ``k = min((m + 1) r, d)``; ``i[abar(c), rho]`` is then ``sum_a c_a h_a``.
    """
    r = f.shape[1]
    q, rr = np.linalg.qr(np.hstack([f, *gs]))
    rg = rr[:, r:].reshape(rr.shape[0], len(gs), r).transpose(1, 0, 2)
    p = rg @ rr[:, :r].conj().T
    return 1j * (p - p.conj().transpose(0, 2, 1)), q


def _commutator_on_range(abar, f: np.ndarray):
    """``(h, q)`` with ``i[abar, F F^dag] = q h q^dag`` for one observable:
    ``_range_coordinates`` on the single image ``abar F``, so h is
    ``min(2r, d)``-square and its spectrum gives the trace norm."""
    h, q = _range_coordinates(f, _abar_times(abar, f)[None])
    return h[0], q


def _coordinate_covariance(f: np.ndarray, gs: np.ndarray) -> np.ndarray:
    """``C_ab = Re tr(G_a^dag G_b) - tr(F^dag G_a) tr(F^dag G_b)`` on ``rho = F F^dag``,
    so ``Var(abar(c)) = c^T C c`` for the coordinates ``c_a = tr(lambda_a c)``."""
    flat = gs.reshape(len(gs), -1)
    means = np.real(flat @ f.reshape(-1).conj())
    cov = np.real(flat.conj() @ flat.T) - np.outer(means, means)
    return (cov + cov.T) / 2


def _range_factor(m: np.ndarray) -> np.ndarray:
    """``F = V sqrt(Lambda)`` over the eigenvalues above the cutoff: rho ~ F F^dag."""
    eig, vec = np.linalg.eigh(m)
    keep = eig > RANGE_CUTOFF * eig[-1]
    return vec[:, keep] * np.sqrt(eig[keep])


class _RangeBlocks:
    """``f(c) = ||sum_a c_a h_a||_1`` (``c_a = tr(lambda_a c)``) and its
    subgradient on a block of size at most 2r, for a stack of l x l site
    matrices c at once.

    ``R_F`` is zero below its top r rows, so the bottom-right (k - r)-square
    block of every ``h_a`` is zero, and ``sum_a c_a h_a = [[H, B^dag], [B, 0]]``
    with ``H = sum_a c_a h_a[:r, :r]`` and ``B = sum_a c_a h_a[r:, :r]``,
    (k - r) x r.  When ``k - r > r``, a QR ``B = Q L`` turns it into the 2r-square
    ``[[H, L^dag], [L, 0]]``, which has the same nonzero spectrum; otherwise
    (full rank included, where B is empty) the block is ``sum_a c_a h_a``
    itself.  Sums over a are products with flattened stacks.
    """

    def __init__(self, basis: np.ndarray, h: np.ndarray, r: int):
        m, k = h.shape[0], h.shape[1]
        self.l, self.k, self.r = basis.shape[1], k, r
        self.basis = basis.reshape(m, -1)
        self.to_coords = basis.transpose(0, 2, 1).reshape(m, -1).T.copy()
        self.square = k - r <= r
        if self.square:
            self.h = h.reshape(m, -1)
        else:
            self.top = h[:, :r, :r].reshape(m, -1)
            self.low = h[:, r:, :r].reshape(m, -1)

    def coordinates(self, c: np.ndarray) -> np.ndarray:
        """``c_a = Re tr(lambda_a c)`` for a stack of site matrices."""
        return np.real(c.reshape(len(c), -1) @ self.to_coords)

    def build(self, c: np.ndarray):
        """``(blocks, q)`` for a stack of site matrices; q holds the Q factor
        of each ``B`` (an empty stack for a square block)."""
        coords = self.coordinates(c)
        s, k, r = len(c), self.k, self.r
        if self.square:
            blocks = (coords @ self.h).reshape(s, k, k)
            q = np.empty((s, 0))
        else:
            q, low = np.linalg.qr((coords @ self.low).reshape(s, k - r, r))
            blocks = np.zeros((s, 2 * r, 2 * r), dtype=complex)
            blocks[:, :r, :r] = (coords @ self.top).reshape(s, r, r)
            blocks[:, r:, :r] = low
            blocks[:, :r, r:] = low.conj().transpose(0, 2, 1)
        return blocks, q

    def evaluate(self, c: np.ndarray):
        """``(values, blocks, q)``: f at each site matrix, with ``build``'s blocks."""
        blocks, q = self.build(c)
        return np.sum(np.abs(np.linalg.eigvalsh(blocks)), axis=-1), blocks, q

    def gradient(self, blocks: np.ndarray, q: np.ndarray) -> np.ndarray:
        """Subgradient ``sum_a tr(W h_a) lambda_a`` as a stack of site matrices,
        W the sign factor of each block.

        On a 2r block, ``W = P w P^dag`` with ``P = diag(I, Q)``, so
        ``tr(W h_a) = tr(w_11 H_a) + 2 Re tr(w_12 Q^dag h_a[r:, :r])``, and the
        second term is ``2 Re sum(conj(X) h_a[r:, :r])`` with ``X = Q w_21``.
        """
        eig, vec = np.linalg.eigh(blocks)
        w = (vec * _subgradient_sign(eig)[:, None, :]) @ vec.conj().transpose(0, 2, 1)
        s = len(w)
        # tr(w h) = Re sum_ij conj(w_ij) h_ij for Hermitian w and h
        if self.square:
            grad = np.real(w.reshape(s, -1).conj() @ self.h.T)
        else:
            r = self.r
            x = q @ w[:, r:, :r]
            grad = np.real(w[:, :r, :r].reshape(s, -1).conj() @ self.top.T
                           + 2.0 * x.reshape(s, -1).conj() @ self.low.T)
        return (grad @ self.basis).reshape(s, self.l, self.l)


# ---------------------------------------------------------------------------
# Qubit variance
# ---------------------------------------------------------------------------

def _spin_moments(m: np.ndarray, n: int) -> np.ndarray:
    """Covariance M of the three spin averages ``S_p`` on a d x d rho, from its marginals.

    With ``S_p = (1/n) sum_i sigma_p^i / 2``, the site terms ``i = j`` of
    ``Re <S_p S_q>`` are ``delta_pq / 4`` each (the antisymmetric part of
    ``sigma_p sigma_q`` has an imaginary mean), so
    ``M_pq = (n delta_pq + sum_{i != j} <sigma_p^i sigma_q^j>) / (4 n^2) - m_p m_q``
    with ``m_p = (1/n) sum_i <sigma_p^i> / 2``.  The means come from the n
    one-site marginals and the pair terms from the ``n(n-1)/2`` two-site
    marginals of rho reshaped to ``(2,)*2n``; no d x d product forms, and
    Var(v . S) = v^T M v.
    """
    t = m.reshape((2,) * (2 * n))
    ones = np.stack([linalg.reduce_to_site(m, i, n, 2) for i in range(1, n + 1)])
    means = np.real(np.einsum("pab,iba->p", HALF_PAULIS, ones)) / n
    second = np.eye(3) / (4 * n)
    if n > 1:
        pairs = np.stack([_pair_marginal(t, i, j, n) for i, j in itertools.combinations(range(n), 2)])
        # sum_{i < j} <sigma_p^i sigma_q^j> / 4, a pair marginal's axes being (row i, row j, col i, col j)
        upper = np.real(np.einsum("kacbd,pba,qdc->pq", pairs, HALF_PAULIS, HALF_PAULIS))
        second = second + (upper + upper.T) / n**2
    cov = second - np.outer(means, means)
    return (cov + cov.T) / 2


def _pair_marginal(t: np.ndarray, i: int, j: int, n: int) -> np.ndarray:
    """The reduced state of 0-based sites i and j of a qubit rho reshaped to
    ``(2,)*2n``, with axes (row i, row j, column i, column j)."""
    labels = list(range(n)) * 2
    labels[n + i], labels[n + j] = n, n + 1
    return np.einsum(t, labels, [i, j, n, n + 1])


def max_variance_qubit(rho):
    """Maximize Var(abar) over Bloch directions; returns (value, direction).

    The variance is the quadratic form ``v^T M v`` with
    ``M_pq = Re tr({S_p, S_q}/2 rho) - tr(S_p rho) tr(S_q rho)`` over the
    spin-component averages ``S_p``, so the maximum is its top eigenpair.
    A PureState stays a vector: M is ``_coordinate_covariance`` on the d x 1
    range ``psi``, halved because ``S_p = abar(sigma_p / sqrt 2) / sqrt 2``.
    """
    if isinstance(rho, PureState):
        if rho.l != 2:
            raise ValueError("max_variance_qubit requires local dimension 2")
        f = rho.amplitudes[:, None]
        cov = _coordinate_covariance(f, _basis_images(f, rho.n, _traceless_basis(2))) / 2
    else:
        m = density_matrix(rho)
        n = round(math.log2(m.shape[0]))
        if 2**n != m.shape[0]:
            raise ValueError("max_variance_qubit requires local dimension 2")
        cov = _spin_moments(m, n)
    eig, vec = np.linalg.eigh(cov)
    return max(float(eig[-1]), 0.0), vec[:, -1]


def fibonacci_sphere(count: int) -> np.ndarray:
    """Deterministic, roughly uniform unit vectors on the sphere."""
    i = np.arange(count, dtype=float) + 0.5
    phi = math.pi * (3.0 - math.sqrt(5.0)) * i
    z = 1.0 - 2.0 * i / count
    r = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
    return np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)


# ---------------------------------------------------------------------------
# The outer search
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MacroUncertaintyReport:
    """Certified lower bound on the uncertainty functional, plus the evidence."""

    e_lower: float
    maximizer: SiteObservable
    variance_bound: float | None
    restarts_used: int
    iterations: int

    def to_dict(self) -> dict:
        return {
            "e_lower": self.e_lower,
            "maximizer": [[z.real, z.imag] for z in self.maximizer.matrix.reshape(-1)],
            "variance_bound": self.variance_bound,
            "restarts_used": self.restarts_used,
            "iterations": self.iterations,
        }


def _hermitian_trace_norm(h: np.ndarray) -> float:
    return float(np.sum(np.abs(np.linalg.eigvalsh(h))))


def _subgradient_sign(eig: np.ndarray) -> np.ndarray:
    """Minimal-norm subgradient weights: sign of the eigenvalues, 0 on the kernel.

    Eigenvalues within DEGENERACY_GAP of zero get weight 0, which is a valid
    subgradient element; if the resulting direction fails to improve, the
    backtracking loop stops and the best value found so far stands (the grid
    fallback).  The sign factor is ``w = (vec * weights) @ vec^dag``.
    """
    signs = np.sign(eig)
    signs[np.abs(eig) < DEGENERACY_GAP] = 0.0
    return signs


def _normalize_spread(c: np.ndarray) -> np.ndarray:
    """c (one l x l matrix or a stack) divided by its spectral spread, where that is positive."""
    eig = np.linalg.eigvalsh(c)
    spread = eig[..., -1] - eig[..., 0]
    return c / np.where(spread > 0, spread, 1.0)[..., None, None]


def _ascend(c, value, blocks: _RangeBlocks, max_iter, tol):
    """Subgradient ascent of ``f(c) = ||sum_a c_a h_a||_1`` from a stack of l x l
    site matrices, every start in lockstep; ``value`` holds f at each start,
    or is None to take it from the blocks.

    Each start backtracks from step 1, halving while the step is above 1e-7,
    and rescales every candidate to spread 1; a candidate is taken when it
    beats the current value by 1e-15.  A start stops after ``max_iter``
    iterations, when its subgradient's operator norm is below ``tol``, or when
    no step improves.  Each pass takes the subgradient of every start that
    needs one in one batched ``eigh``, then evaluates the next candidate of
    every start still searching in one batched call.  Returns (c, values,
    iterations), one entry per start.
    """
    c = np.array(c, dtype=complex)
    if value is None:
        value, block, q = blocks.evaluate(c)
    else:
        value = np.array(value, dtype=float)
        block, q = blocks.build(c)
    count = len(c)
    iterations = np.zeros(count, dtype=int)
    step = np.ones(count)
    grad = np.zeros_like(c)
    running = np.full(count, max_iter > 0)
    needs_grad = running.copy()
    while True:
        g = np.flatnonzero(needs_grad)
        if g.size:
            iterations[g] += 1
            gr = blocks.gradient(block[g], q[g])
            grad[g] = gr
            running[g] = np.max(np.abs(np.linalg.eigvalsh(gr)), axis=-1) >= tol
            step[g] = 1.0
            needs_grad[g] = False
        s = np.flatnonzero(running)
        if not s.size:
            break
        cand = _normalize_spread(c[s] + step[s, None, None] * grad[s])
        vals, cand_block, cand_q = blocks.evaluate(cand)
        better = vals > value[s] + 1e-15
        up, down = s[better], s[~better]
        if up.size:
            c[up], value[up] = cand[better], vals[better]
            block[up], q[up] = cand_block[better], cand_q[better]
            needs_grad[up] = running[up] = iterations[up] < max_iter
        if down.size:
            step[down] /= 2
            running[down] = step[down] > 1e-7
    return c, value, iterations


def _search(f, n, l, restarts, grid_size, max_iter, tol, seed):
    """Ascend on the range factor f (rho = F F^dag) from the ceiling-ordered
    grid (qubits) or from seeded random starts (l > 2); returns (site,
    iterations, var_value).

    A Bloch direction v has coordinates ``c = v / sqrt 2`` and the ceiling
    ``2 sqrt(c^T C c)`` (``C = 2 M``), so no grid candidate skipped once the
    ceilings fall below the best value could have beaten it, and a best value
    at ``2 sqrt(lambda_max(M))`` is the global maximum: no ascent runs.  The
    grid reads each candidate on the k x k stack; the ascent runs every start
    at once on ``_RangeBlocks``, a spectrum of size at most 2r per candidate.
    The reported start is the first with the largest value, and
    ``iterations`` is the sum over starts.
    """
    basis = _traceless_basis(l)
    gs = _basis_images(f, n, basis)
    h, _ = _range_coordinates(f, gs)
    var_value = None
    if l == 2:
        cov = _coordinate_covariance(f, gs)
        eig, vec = np.linalg.eigh(cov)
        var_value = max(float(eig[-1]), 0.0) / 2
        ceiling_max = 2.0 * math.sqrt(var_value)
        grid = np.vstack([fibonacci_sphere(grid_size), vec[:, -1], -vec[:, -1]]) / math.sqrt(2)
        ceilings = 2.0 * np.sqrt(np.clip(np.einsum("ia,ab,ib->i", grid, cov, grid), 0.0, None))
        best, start = -1.0, None
        for idx in np.argsort(-ceilings, kind="stable"):
            if ceilings[idx] < best - CEILING_SLACK:
                break
            value = _hermitian_trace_norm(np.tensordot(grid[idx], h, axes=1))
            if value > best:
                best, start = value, np.tensordot(grid[idx], basis, axes=1)
            if best >= ceiling_max - CEILING_SLACK:
                return SiteObservable(start), 0, var_value
        starts, values = [start], [best]
    else:
        rng = np.random.default_rng(seed)
        starts, values = [random_site_observable(l, rng).matrix for _ in range(restarts)], None
    blocks = _RangeBlocks(basis, h, f.shape[1])
    c, values, iterations = _ascend(starts, values, blocks, max_iter, tol)
    return SiteObservable(c[int(np.argmax(values))]), int(iterations.sum()), var_value


def estimate_e(
    rho,
    *,
    restarts: int = 8,
    grid_size: int = 144,
    max_iter: int = 20,
    tol: float = 1e-9,
    seed: int = 0,
) -> MacroUncertaintyReport:
    """Search for the maximizing averaging observable; reports what it achieved.

    Deterministic given ``seed``.  For pure qubit states the report also
    carries the exact upper bound ``2 sqrt(max variance)`` (the functional
    equals that bound on pure states, so the qubit search certifies it and
    reports ``iterations = 0``).  A PureState stays a vector: its range
    factor is ``psi`` itself and ``e_lower`` the 2 x 2 range spectrum of
    ``commutator_trace_norm``.  Raises ValueError naming the setting unless
    ``restarts >= 1``, ``grid_size >= 0``, ``max_iter >= 0`` and ``tol >= 0``.
    """
    for name, value, least in (("restarts", restarts, 1), ("grid_size", grid_size, 0),
                               ("max_iter", max_iter, 0), ("tol", tol, 0)):
        if not value >= least:  # also rejects a NaN tol
            raise ValueError(f"{name} must be at least {least}, got {value}")
    f = rho.amplitudes[:, None] if isinstance(rho, PureState) else _range_factor(rho.matrix)
    site, iterations, var_value = _search(
        f, rho.n, rho.l, restarts, grid_size, max_iter, tol, seed
    )
    # The trace norm at the maximizer on the whole state, so no shortcut of
    # the search (the range factor's cutoff included) enters the reported value.
    value = commutator_trace_norm(site, rho)
    variance_bound = None
    if rho.l == 2 and abs(rho.purity() - 1.0) <= PURITY_ATOL:
        variance_bound = 2.0 * math.sqrt(var_value)
        if value > variance_bound + 1e-8:
            raise RuntimeError(
                f"achieved value {value} exceeds the pure-state bound {variance_bound}"
            )
    return MacroUncertaintyReport(
        e_lower=value,
        maximizer=site,
        variance_bound=variance_bound,
        restarts_used=1 if rho.l == 2 else restarts,
        iterations=iterations,
    )


# ---------------------------------------------------------------------------
# Depth-bound verification for prepared states
# ---------------------------------------------------------------------------

def uncertainty_bound(n: int, k: int) -> float:
    """Ceiling sqrt(2/n) * 2^k on the functional after a depth-k network."""
    return math.sqrt(2.0 / n) * 2**k


@dataclass(frozen=True)
class UncertaintyBoundCheck:
    """One row of the depth-bound check.

    ``e_lower`` is a lower bound on the functional at the output state and
    ``e_upper`` (qubits only) the certified ceiling ``2 sqrt(lambda_max(M))``.
    ``report`` is the search's report, or None when the ceiling settled the
    row and no search ran.
    """

    e_lower: float
    bound: float
    passed: bool
    report: MacroUncertaintyReport | None
    e_upper: float | None


def check_uncertainty_bound(
    net: Network,
    separable: SeparableInput,
    tol: float = 1e-8,
) -> UncertaintyBoundCheck:
    """Run a separable input through the network and test the depth bound.

    For qubits the row is first decided by the variance ceiling: every site
    observable with spread <= 1 is ``u . sigma / 2`` with ``|u| <= 1``, and
    every state obeys ``||[A, rho]||_1 <= 2 sqrt(Var_rho(A))``, so
    ``e_upper = 2 sqrt(lambda_max(M))`` bounds the functional from above on
    mixed states as well as pure ones.  When ``e_upper <= bound + tol`` the
    pass is certified, no search runs, and ``e_lower`` is the trace norm at
    the top-variance direction ``v_M``.  Otherwise, and for l > 2,
    ``estimate_e`` searches for a maximizer; its ``e_lower`` is a lower bound,
    so a failure is a genuine counterexample and a pass there only means none
    was found.

    A qubit row whose input is one term of rank-one factors and whose network
    is unitary (every k = 0 network is) never leaves the state vector:
    ``psi = U (x) v_i``, M from the vectors ``S_p psi`` and ``e_lower`` from a
    2 x 2 spectrum, with no d x d matrix.  Every other row runs the network on
    the mixed input's density matrix; a pure row the ceiling cannot settle is
    searched on the vector too.
    """
    psi = separable.pure_product() if separable.l == 2 and net.is_unitary() else None
    state = apply(net, psi if psi is not None else mix(separable))
    bound = uncertainty_bound(net.n, net.depth)
    e_upper = None
    if state.l == 2:
        var_value, v = max_variance_qubit(state)
        e_upper = 2.0 * math.sqrt(var_value)
        if e_upper <= bound + tol:
            e_lower = commutator_trace_norm(SiteObservable.from_bloch(v), state)
            return UncertaintyBoundCheck(e_lower, bound, True, None, e_upper)
    report = estimate_e(state)
    return UncertaintyBoundCheck(
        e_lower=report.e_lower,
        bound=bound,
        passed=report.e_lower <= bound + tol,
        report=report,
        e_upper=e_upper,
    )


def random_site_observable(l: int, rng: np.random.Generator) -> SiteObservable:
    """Random traceless Hermitian site observable, normalized to spread 1."""
    g = rng.normal(size=(l, l)) + 1j * rng.normal(size=(l, l))
    g = (g + g.conj().T) / 2
    c = _normalize_spread(g - (np.trace(g) / l) * np.eye(l))
    return SiteObservable(c)
