"""Mean-field observables and the macroscopic quantum-uncertainty functional.

The functional of interest is the maximum, over averaging observables
``abar = (1/n) sum_i embed(c, i)``, of the trace norm ``||[abar, rho]||_tr``.
Values of order 1 mean the state carries quantum uncertainty in a macroscopic
(mean-field) quantity; separable states stay at order ``1/sqrt(n)``, and a
depth-k network can raise the value by at most ``2^k``.

``estimate_e`` reports a certified lower bound: every reported value is the
trace norm actually achieved at the reported maximizer.  For qubits the
search runs over Bloch directions v, where the functional is
``f(v) = ||v . H||_1`` with ``H_p = i[S_p, rho]`` built once per call.  Every
state obeys the variance ceiling ``f(v) <= 2 sqrt(v^T M v)`` (M the 3x3 spin
covariance, with equality on pure states).  The candidates (a deterministic
Fibonacci grid plus the two top-variance directions) are visited in
decreasing order of ceiling, stopping once no remaining ceiling can beat the
best value found.  A best value at ``2 sqrt(lambda_max(M))`` is certified
optimal and ends the search with ``iterations = 0``, which is what happens on
pure states; otherwise a projected subgradient ascent refines the best
candidate.  For larger local dimensions the search is a projected ascent over
traceless Hermitian site observables with spectral spread 1, restarted from
seeded random starts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .linalg import SIGMA_X, SIGMA_Y, SIGMA_Z
from .network import Network, apply
from .states import DensityState, SeparableInput, density_matrix, mix

SPREAD_ATOL = 1e-10
PURITY_ATOL = 1e-8
DEGENERACY_GAP = 1e-10
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
    """``abar @ x``: site by site for a site (averaged over every site of x) or
    averaging observable, densely for a raw matrix."""
    if isinstance(abar, SiteObservable):
        abar = AveragingObservable(abar, round(math.log(x.shape[0], abar.l)))
    if not isinstance(abar, AveragingObservable):
        a = linalg.require_square(abar)
        if a.shape != x.shape:
            raise ValueError(f"dimension mismatch: {a.shape} vs {x.shape}")
        return a @ x
    l, n = abar.site.l, abar.n
    if (l**n, l**n) != x.shape:
        raise ValueError(f"dimension mismatch: {(l**n, l**n)} vs {x.shape}")
    op, t = abar.site.centered(), x.reshape((l,) * n + (-1,))
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
    """tr(abar^2 rho) - tr(abar rho)^2, clamped to be nonnegative."""
    m = density_matrix(rho)
    y = _abar_times(abar, m)
    mean = float(np.real(np.trace(y)))
    second = float(np.real(np.trace(_abar_times(abar, y))))
    v = second - mean * mean
    if v < -1e-9:
        raise ValueError(f"variance {v} is negative beyond numerical tolerance")
    return max(v, 0.0)


def commutator_trace_norm(abar, rho) -> float:
    """Trace norm of [abar, rho]."""
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
# Qubit inner maximization
# ---------------------------------------------------------------------------

def _spin_moments(m: np.ndarray, n: int):
    """Products ``T_p = S_p rho`` for the three spin averages, and their covariance.

    ``S_p`` (sigma_p/2 averaged over the n qubits) acts site by site.  The
    covariance ``M_pq = Re tr(S_q T_p) - tr(T_p) tr(T_q)`` takes its first
    term from the one-site marginals of T_p, so Var(v . S) = v^T M v.
    """
    prods = np.empty((3,) + m.shape, dtype=complex)
    for p, half in enumerate(HALF_PAULIS):
        prods[p] = _abar_times(SiteObservable(half), m)
    means = np.real(np.trace(prods, axis1=1, axis2=2))
    marginals = np.stack([
        sum(linalg.reduce_to_site(tp, i, n, 2) for i in range(1, n + 1)) for tp in prods
    ])
    second = np.real(np.einsum("qab,pba->pq", HALF_PAULIS, marginals)) / n
    cov = second - np.outer(means, means)
    return prods, (cov + cov.T) / 2


def max_variance_qubit(rho):
    """Maximize Var(abar) over Bloch directions; returns (value, direction).

    The variance is the quadratic form ``v^T M v`` with
    ``M_pq = Re tr({S_p, S_q}/2 rho) - tr(S_p rho) tr(S_q rho)`` over the
    spin-component averages ``S_p``, so the maximum is its top eigenpair.
    """
    m = density_matrix(rho)
    n = round(math.log2(m.shape[0]))
    if 2**n != m.shape[0]:
        raise ValueError("max_variance_qubit requires local dimension 2")
    _, cov = _spin_moments(m, n)
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
    dual_b: np.ndarray
    variance_bound: float | None
    restarts_used: int
    iterations: int

    def to_dict(self) -> dict:
        return {
            "e_lower": self.e_lower,
            "maximizer": [[z.real, z.imag] for z in self.maximizer.matrix.reshape(-1)],
            "dual_b": [[z.real, z.imag] for z in self.dual_b.reshape(-1)],
            "variance_bound": self.variance_bound,
            "restarts_used": self.restarts_used,
            "iterations": self.iterations,
        }


def _hermitian_trace_norm(h: np.ndarray) -> float:
    return float(np.sum(np.abs(np.linalg.eigvalsh(h))))


def _subgradient_sign(eig: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """Minimal-norm subgradient factor: sign of the eigenvalues, 0 on the kernel.

    Eigenvalues within DEGENERACY_GAP of zero get weight 0, which is a valid
    subgradient element; if the resulting direction fails to improve, the
    backtracking loop stops and the best value found so far stands (the grid
    fallback).
    """
    signs = np.sign(eig)
    signs[np.abs(eig) < DEGENERACY_GAP] = 0.0
    return (vec * signs) @ vec.conj().T


def _ascend_bloch(v, best, h, max_iter, tol):
    """Projected subgradient ascent of ``f(v) = ||v . H||_1`` over the Bloch sphere.

    ``best`` is f at the start ``v``; the gradient of f is ``tr(w H_p)``
    with w the sign factor of ``v . H``.
    """
    iterations = 0
    for _ in range(max_iter):
        iterations += 1
        eig, vec = np.linalg.eigh(np.tensordot(v, h, axes=1))
        w = _subgradient_sign(eig, vec)
        grad = np.real(np.einsum("ij,pji->p", w, h))
        grad -= np.dot(grad, v) * v
        if np.linalg.norm(grad) < tol:
            break
        step = 1.0
        improved = False
        while step > 1e-7:
            cand = v + step * grad
            cand /= np.linalg.norm(cand)
            val_c = _hermitian_trace_norm(np.tensordot(cand, h, axes=1))
            if val_c > best + 1e-15:
                v, best = cand, val_c
                improved = True
                break
            step /= 2
        if not improved:
            break
    return v, best, iterations


def _estimate_qubit(m, n, grid_size, max_iter, tol):
    """Bound-ordered grid search, then the ascent unless the grid is certified.

    ``f(v) = ||v . H||_1`` with ``H_p = i[S_p, rho]`` never exceeds the
    variance ceiling ``2 sqrt(v^T M v)``.  Candidates are visited in
    decreasing order of ceiling until the next ceiling falls below the best
    value found; no skipped candidate could have beaten it.  A best value at
    ``2 sqrt(lambda_max(M))`` is the global maximum, so the ascent is skipped.
    """
    prods, cov = _spin_moments(m, n)
    # H_p = i(T_p - T_p^H), written over T so the search holds one 3 x d x d stack.
    h = np.subtract(prods, prods.conj().transpose(0, 2, 1), out=prods)
    h *= 1j
    eig, vec = np.linalg.eigh(cov)
    var_value = max(float(eig[-1]), 0.0)
    ceiling_max = 2.0 * math.sqrt(var_value)
    candidates = np.vstack([fibonacci_sphere(grid_size), vec[:, -1], -vec[:, -1]])
    quad = np.einsum("ip,pq,iq->i", candidates, cov, candidates)
    ceilings = 2.0 * np.sqrt(np.clip(quad, 0.0, None))
    best, v0 = -1.0, None
    for idx in np.argsort(-ceilings, kind="stable"):
        if ceilings[idx] < best - CEILING_SLACK:
            break
        value = _hermitian_trace_norm(np.tensordot(candidates[idx], h, axes=1))
        if value > best:
            best, v0 = value, candidates[idx]
        if best >= ceiling_max - CEILING_SLACK:
            return SiteObservable.from_bloch(v0), best, 0, var_value
    v_best, best, iterations = _ascend_bloch(v0, best, h, max_iter, tol)
    return SiteObservable.from_bloch(v_best), best, iterations, var_value


def _project_traceless(g: np.ndarray) -> np.ndarray:
    l = g.shape[0]
    return g - (np.trace(g) / l) * np.eye(l)


def _normalize_spread(c: np.ndarray) -> np.ndarray:
    eig = np.linalg.eigvalsh(c)
    spread = float(eig[-1] - eig[0])
    if spread <= 0:
        return c
    return c / spread


def _estimate_general(m, n, l, restarts, max_iter, tol, seed):
    rng = np.random.default_rng(seed)
    best_c = None
    best = -1.0
    iterations = 0
    for _ in range(max(restarts, 1)):
        c = random_site_observable(l, rng).matrix
        value = _hermitian_trace_norm(1j * _commutator(SiteObservable(c), m))
        for _ in range(max_iter):
            iterations += 1
            eig, vec = np.linalg.eigh(1j * _commutator(SiteObservable(c), m))
            w = _subgradient_sign(eig, vec)
            lifted = 1j * (m @ w - w @ m)
            grad = np.zeros((l, l), dtype=complex)
            for i in range(1, n + 1):
                grad += linalg.reduce_to_site(lifted, i, n, l)
            grad = _project_traceless((grad + grad.conj().T) / 2) / n
            if linalg.operator_norm(grad) < tol:
                break
            step = 1.0
            improved = False
            while step > 1e-7:
                cand = _normalize_spread(_project_traceless(c + step * grad))
                val_c = _hermitian_trace_norm(1j * _commutator(SiteObservable(cand), m))
                if val_c > value + 1e-15:
                    c, value = cand, val_c
                    improved = True
                    break
                step /= 2
            if not improved:
                break
        if value > best:
            best, best_c = value, c
    return SiteObservable(best_c), best, iterations


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
    reports ``iterations = 0``).
    """
    state = rho if isinstance(rho, DensityState) else rho.density()
    m = state.matrix
    n, l = state.n, state.l
    if l == 2:
        site, value, iterations, var_value = _estimate_qubit(m, n, grid_size, max_iter, tol)
        restarts_used = 1
    else:
        site, value, iterations = _estimate_general(m, n, l, restarts, max_iter, tol, seed)
        restarts_used = max(restarts, 1)
        var_value = None
    variance_bound = None
    if l == 2 and abs(state.purity() - 1.0) <= PURITY_ATOL:
        variance_bound = 2.0 * math.sqrt(max(var_value, 0.0))
        if value > variance_bound + 1e-8:
            raise RuntimeError(
                f"achieved value {value} exceeds the pure-state bound {variance_bound}"
            )
    _, witness = commutator_witness(site, m)
    return MacroUncertaintyReport(
        e_lower=value,
        maximizer=site,
        dual_b=witness,
        variance_bound=variance_bound,
        restarts_used=restarts_used,
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
    e_lower: float
    bound: float
    passed: bool
    report: MacroUncertaintyReport


def check_uncertainty_bound(
    net: Network,
    separable: SeparableInput,
    tol: float = 1e-8,
    **estimate_options,
) -> UncertaintyBoundCheck:
    """Run a separable input through the network and test the depth bound.

    The achieved value is a lower bound on the functional, so a failure here
    is a genuine counterexample, not an optimizer artifact.
    """
    rho_out = apply(net, mix(separable))
    report = estimate_e(rho_out, **estimate_options)
    bound = uncertainty_bound(net.n, net.depth)
    return UncertaintyBoundCheck(
        e_lower=report.e_lower,
        bound=bound,
        passed=report.e_lower <= bound + tol,
        report=report,
    )


def random_site_observable(l: int, rng: np.random.Generator) -> SiteObservable:
    """Random traceless Hermitian site observable, normalized to spread 1."""
    g = rng.normal(size=(l, l)) + 1j * rng.normal(size=(l, l))
    c = _normalize_spread(_project_traceless((g + g.conj().T) / 2))
    return SiteObservable(c)
