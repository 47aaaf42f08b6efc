"""Mean-field observables and the macroscopic quantum-uncertainty functional.

The functional of interest is the maximum, over averaging observables
``abar = (1/n) sum_i embed(c, i)``, of the trace norm ``||[abar, rho]||_tr``.
Values of order 1 mean the state carries quantum uncertainty in a macroscopic
(mean-field) quantity; separable states stay at order ``1/sqrt(n)``, and a
depth-k network can raise the value by at most ``2^k``.

``estimate_e`` reports a certified lower bound: ``e_lower`` is the trace norm
of the dense ``[abar, rho]`` at the reported maximizer, computed once the
search has ended, so no shortcut of the search enters it.  For qubits the
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
seeded random starts.  It runs on a range factor ``rho = F F^dag`` (r columns,
from one ``eigh`` per call): ``[abar, rho]`` lives in the span of
``[F, abar F]``, so its trace norm is the spectrum of a ``min(2r, d)``-square
matrix, and the subgradient reduces from ``F`` and ``w F`` with no d x d
product.  Every rank takes this path; low ranks gain the most.

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
comes from the three vectors ``S_p psi`` and the trace norm from a 2 x 2
spectrum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .linalg import SIGMA_X, SIGMA_Y, SIGMA_Z
from .network import Network, apply, apply_pure
from .states import PureState, SeparableInput, density_matrix, mix, to_density

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


def _pure_spin_covariance(psi: PureState) -> np.ndarray:
    """``M_pq = Re<S_p psi, S_q psi> - <S_p><S_q>`` from the three vectors ``S_p psi``.

    Each ``S_p psi`` is one site-by-site pass over the d x 1 block, so M costs
    O(n d) and no d x d matrix forms.
    """
    amps = psi.amplitudes
    g = np.stack([_abar_times(SiteObservable(half), amps[:, None])[:, 0] for half in HALF_PAULIS])
    means = np.real(g @ amps.conj())
    cov = np.real(g.conj() @ g.T) - np.outer(means, means)
    return (cov + cov.T) / 2


def max_variance_qubit(rho):
    """Maximize Var(abar) over Bloch directions; returns (value, direction).

    The variance is the quadratic form ``v^T M v`` with
    ``M_pq = Re tr({S_p, S_q}/2 rho) - tr(S_p rho) tr(S_q rho)`` over the
    spin-component averages ``S_p``, so the maximum is its top eigenpair.
    A PureState stays a vector (``_pure_spin_covariance``).
    """
    if isinstance(rho, PureState):
        if rho.l != 2:
            raise ValueError("max_variance_qubit requires local dimension 2")
        cov = _pure_spin_covariance(rho)
    else:
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
        """Every field but the d x d ``dual_b``; ``erho --witness-out`` writes that
        to a file of its own."""
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


def _ascend_bloch(v, best, h, max_iter, tol):
    """Projected subgradient ascent of ``f(v) = ||v . H||_1`` over the Bloch sphere.

    ``best`` is f at the start ``v``; the gradient of f is ``tr(w H_p)``
    with w the sign factor of ``v . H``.  Returns the final direction and
    the iteration count.
    """
    iterations = 0
    for _ in range(max_iter):
        iterations += 1
        eig, vec = np.linalg.eigh(np.tensordot(v, h, axes=1))
        w = (vec * _subgradient_sign(eig)) @ vec.conj().T
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
    return v, iterations


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
            return SiteObservable.from_bloch(v0), 0, var_value
    v_best, iterations = _ascend_bloch(v0, best, h, max_iter, tol)
    return SiteObservable.from_bloch(v_best), iterations, var_value


def _project_traceless(g: np.ndarray) -> np.ndarray:
    l = g.shape[0]
    return g - (np.trace(g) / l) * np.eye(l)


def _normalize_spread(c: np.ndarray) -> np.ndarray:
    eig = np.linalg.eigvalsh(c)
    spread = float(eig[-1] - eig[0])
    if spread <= 0:
        return c
    return c / spread


def _range_factor(m: np.ndarray) -> np.ndarray:
    """``F = V sqrt(Lambda)`` over the eigenvalues above the cutoff: rho ~ F F^dag."""
    eig, vec = np.linalg.eigh(m)
    keep = eig > RANGE_CUTOFF * eig[-1]
    return vec[:, keep] * np.sqrt(eig[keep])


def _commutator_on_range(site, f: np.ndarray):
    """``(h, q)``: Hermitian h with ``i[abar, rho] = q h q^dag``.

    With ``G = abar F``, ``i[abar, F F^dag] = i(G F^dag - F G^dag)``.  In the
    span of ``[F, G] = q R`` (reduced QR) it is the k x k matrix
    ``h = i(R_G R_F^dag - R_F R_G^dag)``, ``k = min(2r, d)``, so its trace norm
    is the spectrum of h.
    """
    r = f.shape[1]
    q, rr = np.linalg.qr(np.hstack([f, _abar_times(site, f)]))
    p = rr[:, r:] @ rr[:, :r].conj().T
    return 1j * (p - p.conj().T), q


def _trace_norm_gradient(site, f: np.ndarray, n: int, l: int) -> np.ndarray:
    """``sum_i tr_{not i} i(rho w - w rho)``, w the sign factor of ``i[abar, rho]``.

    With ``Y = w F``, ``rho w - w rho = F Y^dag - Y F^dag``, and each site's
    partial trace of ``F Y^dag`` is one contraction of F and Y over every
    other axis, so no d x d product is formed.
    """
    return _gradient_on_range(*_commutator_on_range(site, f), f, n, l)


def _gradient_on_range(h: np.ndarray, q: np.ndarray, f: np.ndarray, n: int, l: int) -> np.ndarray:
    """``_trace_norm_gradient`` from ``(h, q) = _commutator_on_range(site, f)``."""
    eig, vec = np.linalg.eigh(h)
    vec = q @ vec
    y = (vec * _subgradient_sign(eig)) @ (vec.conj().T @ f)
    ft = f.reshape((l,) * n + (-1,))
    yt = y.conj().reshape((l,) * n + (-1,))
    grad = np.zeros((l, l), dtype=complex)
    for i in range(n):
        others = [a for a in range(n + 1) if a != i]
        p = np.tensordot(ft, yt, axes=(others, others))
        grad += 1j * (p - p.conj().T)
    return grad


def _estimate_general(m, n, l, restarts, max_iter, tol, seed):
    rng = np.random.default_rng(seed)
    f = _range_factor(m)

    def evaluate(c):
        """The trace norm at c and the ``(h, q)`` it came from, kept for the gradient."""
        h, q = _commutator_on_range(SiteObservable(c), f)
        return _hermitian_trace_norm(h), (h, q)

    best_c = None
    best = -1.0
    iterations = 0
    for _ in range(max(restarts, 1)):
        c = random_site_observable(l, rng).matrix
        value, range_pair = evaluate(c)
        for _ in range(max_iter):
            iterations += 1
            grad = _project_traceless(_gradient_on_range(*range_pair, f, n, l)) / n
            if linalg.operator_norm(grad) < tol:
                break
            step = 1.0
            improved = False
            while step > 1e-7:
                cand = _normalize_spread(_project_traceless(c + step * grad))
                val_c, pair_c = evaluate(cand)
                if val_c > value + 1e-15:
                    c, value, range_pair = cand, val_c, pair_c
                    improved = True
                    break
                step /= 2
            if not improved:
                break
        if value > best:
            best, best_c = value, c
    return SiteObservable(best_c), iterations


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
    state = to_density(rho)
    m = state.matrix
    n, l = state.n, state.l
    if l == 2:
        site, iterations, var_value = _estimate_qubit(m, n, grid_size, max_iter, tol)
        restarts_used = 1
    else:
        site, iterations = _estimate_general(m, n, l, restarts, max_iter, tol, seed)
        restarts_used = max(restarts, 1)
        var_value = None
    # The dense trace norm at the maximizer, so no shortcut of the search
    # (the range factor's cutoff included) enters the reported value.
    value, witness = commutator_witness(site, m)
    variance_bound = None
    if l == 2 and abs(state.purity() - 1.0) <= PURITY_ATOL:
        variance_bound = 2.0 * math.sqrt(max(var_value, 0.0))
        if value > variance_bound + 1e-8:
            raise RuntimeError(
                f"achieved value {value} exceeds the pure-state bound {variance_bound}"
            )
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
    e_upper: float | None = None


def check_uncertainty_bound(
    net: Network,
    separable: SeparableInput,
    tol: float = 1e-8,
    **estimate_options,
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
    searched on ``psi psi^dag``, the same state.
    """
    psi = separable.pure_product() if separable.l == 2 and net.is_unitary() else None
    state = apply_pure(net, psi) if psi is not None else apply(net, mix(separable))
    bound = uncertainty_bound(net.n, net.depth)
    e_upper = None
    if state.l == 2:
        var_value, v = max_variance_qubit(state)
        e_upper = 2.0 * math.sqrt(var_value)
        if e_upper <= bound + tol:
            e_lower = commutator_trace_norm(SiteObservable.from_bloch(v), state)
            return UncertaintyBoundCheck(e_lower, bound, True, None, e_upper)
    report = estimate_e(state, **estimate_options)
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
    c = _normalize_spread(_project_traceless((g + g.conj().T) / 2))
    return SiteObservable(c)
