"""Weak and strong (projective) measurement procedures.

Weak measurement of a product observable means measuring every site in its
own eigenbasis and combining the outcomes; it reproduces the observable's
outcome statistics but collapses the state to a product of single-site
eigenstates.  Strong measurement projects onto the observable's (possibly
highly degenerate) spectral eigenspaces, which can leave macroscopic
superpositions intact -- the two procedures pull the post-state in opposite
directions, and the tests pin that contrast down quantitatively.

Every procedure has an exact twin listing each outcome with its probability
and post state.  The strong and conjugated samplers draw from their twin
(``sample_outcome``); the weak sampler walks one branch site by site, since
its twin has up to l^n leaves.  Samplers take an explicit numpy Generator
and are deterministic given it.

The measurement depth bound ``||[abar, A*(P)]|| <= 2^k / sqrt(2n)`` is checked
on the range of the propagated projection, never on a d x d operand: a
product projection of rank r is ``P = Q Q^dag`` with Q a Kronecker product
of per-site isometries, the inverse network's gates act on the d x r block
to give ``W = U^dag Q`` (so ``A*(P) = W W^dag``), and the commutator norm is
the spectrum of a ``min(2r, d)``-square matrix; r = 0 gives 0.  A random
product projection has r = 1, so a sweep-2 row costs one state vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from . import linalg
from .linalg import SIGMA_X
from .network import (
    CNOT, LocalChannel, Network, Step, _apply_unitary_block, _conjugate_by_channels, apply,
    invert_unitary,
)
from .states import DensityState, to_density
from .uncertainty import SiteObservable, _commutator_on_range

PROJECTOR_ATOL = 1e-10
PROBABILITY_FLOOR = 1e-12
CLUSTER_TOL = 1e-8


@dataclass(frozen=True)
class SpectralDecomposition:
    """Distinct eigenvalues with their orthogonal spectral projectors."""

    eigenvalues: tuple
    projectors: tuple

    def __post_init__(self):
        values = tuple(float(v) for v in self.eigenvalues)
        projs = tuple(np.array(p, dtype=complex) for p in self.projectors)
        if len(values) != len(projs) or not values:
            raise ValueError("eigenvalues and projectors must pair up")
        dim = projs[0].shape[0]
        total = np.zeros((dim, dim), dtype=complex)
        for i, p in enumerate(projs):
            if p.shape != (dim, dim):
                raise ValueError("projectors must share one dimension")
            for j, q in enumerate(projs):
                expect = p if i == j else np.zeros_like(p)
                if not np.allclose(p @ q, expect, atol=PROJECTOR_ATOL, rtol=0.0):
                    raise ValueError("projectors are not orthogonal idempotents")
            total += p
            p.setflags(write=False)
        if not np.allclose(total, np.eye(dim), atol=PROJECTOR_ATOL, rtol=0.0):
            raise ValueError("projectors do not resolve the identity")
        object.__setattr__(self, "eigenvalues", values)
        object.__setattr__(self, "projectors", projs)

    @property
    def dim(self) -> int:
        return self.projectors[0].shape[0]

    def operator(self) -> np.ndarray:
        return sum(v * p for v, p in zip(self.eigenvalues, self.projectors))


def spectral_decompose(a: np.ndarray, cluster_tol: float = CLUSTER_TOL) -> SpectralDecomposition:
    """Eigendecomposition with nearby eigenvalues merged into one projector.

    Clustering keeps degenerate eigenspaces whole: consecutive eigenvalues
    within ``cluster_tol`` share a projector.
    """
    m = linalg.require_hermitian(a, atol=1e-10)
    eig, vec = np.linalg.eigh(m)
    values = []
    projectors = []
    start = 0
    for i in range(1, len(eig) + 1):
        if i == len(eig) or eig[i] - eig[i - 1] > cluster_tol:
            block = vec[:, start:i]
            values.append(float(np.mean(eig[start:i])))
            projectors.append(block @ block.conj().T)
            start = i
    return SpectralDecomposition(tuple(values), tuple(projectors))


def parity_x_decomposition(n: int) -> SpectralDecomposition:
    """The two eigenspaces of the n-fold tensor power of sigma_x."""
    parity = linalg.tensor(*([SIGMA_X] * n))
    eye = np.eye(2**n, dtype=complex)
    return SpectralDecomposition((-1.0, 1.0), ((eye - parity) / 2, (eye + parity) / 2))


# ---------------------------------------------------------------------------
# Strong (projective) measurement
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MeasurementOutcome:
    value: float
    probability: float
    post_state: DensityState | None


def _sites_of(dim: int, l: int) -> int:
    n = round(math.log(dim, l))
    if l**n != dim:
        raise ValueError(f"dimension {dim} is not a power of {l}")
    return n


def strong_measure_exact(rho, dec: SpectralDecomposition) -> list:
    """Full outcome distribution with projected post states."""
    state = to_density(rho)
    if state.dim != dec.dim:
        raise ValueError(f"state dimension {state.dim} vs decomposition {dec.dim}")
    outcomes = []
    for value, proj in zip(dec.eigenvalues, dec.projectors):
        p = float(np.vdot(proj, state.matrix).real)
        if p <= PROBABILITY_FLOOR:
            continue
        post = proj @ state.matrix @ proj / p
        outcomes.append(MeasurementOutcome(value, p, DensityState(state.n, state.l, post)))
    if not outcomes:
        raise ValueError("decomposition assigns no probability to this state")
    return outcomes


def sample_outcome(outcomes: list, rng: np.random.Generator):
    """Draw one record of an exact outcome list, weighted by its probability."""
    probs = np.array([o.probability for o in outcomes])
    return outcomes[int(rng.choice(len(outcomes), p=probs / probs.sum()))]


def strong_measure(rho, dec: SpectralDecomposition, rng: np.random.Generator) -> MeasurementOutcome:
    """Sample one projective outcome; deterministic given the generator."""
    return sample_outcome(strong_measure_exact(rho, dec), rng)


# ---------------------------------------------------------------------------
# Weak measurement of product observables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeakOutcome:
    site_outcomes: tuple
    probability: float
    combined_value: float
    post_state: DensityState | None


def _weak_setup(rho, site_observables, post_fn):
    """The state, each site's spectral decomposition, and an outcome-record builder.

    Equal site observables share one decomposition: the CLI passes one Pauli
    for every site.
    """
    state = to_density(rho)
    decs, distinct = [], {}
    for a in site_observables:
        m = linalg.require_hermitian(a)
        key = (m.shape, m.tobytes())
        if key not in distinct:
            distinct[key] = spectral_decompose(m)
        decs.append(distinct[key])
    if len(decs) != state.n:
        raise ValueError(f"need {state.n} site observables, got {len(decs)}")
    combine = post_fn if post_fn is not None else (lambda x: x)

    def record(values: tuple, p: float, post: np.ndarray) -> WeakOutcome:
        combined = float(combine(float(np.prod(values))))
        return WeakOutcome(values, p, combined, DensityState(state.n, state.l, post))

    return state, decs, record


def weak_measure_product_exact(rho, site_observables, post_fn=None) -> list:
    """Joint distribution of per-site eigenbasis measurements.

    The combined value is ``post_fn`` applied to the product of the site
    outcomes (identity by default), matching the spectrum of the product
    observable built from the same site operators.
    """
    state, decs, record = _weak_setup(rho, site_observables, post_fn)
    outcomes: list[WeakOutcome] = []

    def walk(site: int, m: np.ndarray, values: tuple):
        if site == state.n:
            p = float(np.real(np.trace(m)))
            if p > PROBABILITY_FLOOR:
                outcomes.append(record(values, p, m / p))
            return
        for value, q in zip(decs[site].eigenvalues, decs[site].projectors):
            collapse = [((site + 1,), np.kron(q, q.conj()))]
            walk(site + 1, _conjugate_by_channels(m, collapse, state.n, state.l), values + (value,))

    walk(0, state.matrix, ())
    return outcomes


def weak_measure_product(rho, site_observables, post_fn=None, rng: np.random.Generator | None = None) -> WeakOutcome:
    """Sample site-by-site, collapsing as measurements proceed."""
    if rng is None:
        raise ValueError("weak_measure_product needs a random generator")
    state, decs, record = _weak_setup(rho, site_observables, post_fn)
    n, l = state.n, state.l
    current, joint, values = state.matrix, 1.0, ()
    for site, dec in enumerate(decs, start=1):
        marginal = linalg.reduce_to_site(current, site, n, l)
        probs = np.array([max(float(np.real(np.trace(q @ marginal))), 0.0) for q in dec.projectors])
        probs /= probs.sum()
        idx = int(rng.choice(len(probs), p=probs))
        joint *= float(probs[idx])
        values += (dec.eigenvalues[idx],)
        q = dec.projectors[idx]
        current = _conjugate_by_channels(current, [((site,), np.kron(q, q.conj()))], n, l)
        current /= probs[idx]
    return record(values, joint, current)


def combined_value_distribution(outcomes) -> dict:
    """Aggregate weak/strong outcome records into value -> probability."""
    dist: dict[float, float] = {}
    for o in outcomes:
        key = getattr(o, "combined_value", None)
        if key is None:
            key = o.value
        key = round(float(key), 12)
        dist[key] = dist.get(key, 0.0) + o.probability
    return dist


# ---------------------------------------------------------------------------
# Product projections
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProductProjection:
    """Projection that factorizes into one orthogonal projection per site."""

    factors: tuple

    def __post_init__(self):
        factors = tuple(np.array(f, dtype=complex) for f in self.factors)
        if not factors:
            raise ValueError("need at least one factor")
        for i, f in enumerate(factors):
            linalg.require_hermitian(f, atol=PROJECTOR_ATOL)
            if f.shape != factors[0].shape:
                raise ValueError(
                    f"factor {i} is {f.shape[0]}x{f.shape[1]}, "
                    f"but factor 0 is {factors[0].shape[0]}x{factors[0].shape[1]}"
                )
            if not np.allclose(f @ f, f, atol=PROJECTOR_ATOL, rtol=0.0):
                raise ValueError("factor is not idempotent")
            f.setflags(write=False)
        object.__setattr__(self, "factors", factors)

    @property
    def n(self) -> int:
        return len(self.factors)

    @property
    def l(self) -> int:
        return self.factors[0].shape[0]

    def matrix(self) -> np.ndarray:
        return linalg.tensor(*self.factors)


def is_product_projection(p: np.ndarray, l: int, tol: float = 1e-8) -> ProductProjection | None:
    """Recover per-site factors of a projection, or None if it does not factor.

    Each candidate factor comes from the partial trace down to that site; the
    reconstruction is then compared entrywise against the input.
    """
    m = linalg.require_hermitian(p, atol=PROJECTOR_ATOL)
    if not np.allclose(m @ m, m, atol=PROJECTOR_ATOL, rtol=0.0):
        raise ValueError("input is not an orthogonal projection")
    n = _sites_of(m.shape[0], l)
    factors = []
    for site in range(1, n + 1):
        reduced = linalg.reduce_to_site(m, site, n, l)
        eig, vec = np.linalg.eigh(reduced)
        top = float(eig[-1])
        if top <= tol:
            factors.append(np.zeros((l, l), dtype=complex))
            continue
        keep = eig > top / 2
        block = vec[:, keep]
        factors.append(block @ block.conj().T)
    candidate = linalg.tensor(*factors)
    if np.max(np.abs(candidate - m), initial=0.0) <= tol:
        return ProductProjection(tuple(factors))
    return None


def random_product_projection(n: int, l: int, rng: np.random.Generator) -> ProductProjection:
    """Rank-1 projection on every site, from random unit vectors."""
    factors = []
    for _ in range(n):
        v = rng.normal(size=l) + 1j * rng.normal(size=l)
        v /= np.linalg.norm(v)
        factors.append(np.outer(v, v.conj()))
    return ProductProjection(tuple(factors))


# ---------------------------------------------------------------------------
# Strong measurement of the x-parity observable via conjugation
# ---------------------------------------------------------------------------

def build_parity_conjugator(n: int) -> Network:
    """CNOT chain whose Heisenberg conjugation maps n-fold sigma_x parity
    to sigma_x on the last site.

    One gate per step, control descending from site n: the network ``u``
    satisfies ``apply_dual(u, tensor sigma_x) == embed(sigma_x, [n])``.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    steps = tuple(
        Step((LocalChannel((j + 1, j), (CNOT,)),)) for j in range(n - 1, 0, -1)
    )
    return Network(n, 2, steps)


def conjugated_strong_measure_exact(rho, conjugator: Network) -> list:
    """Measure x-parity projectively through the conjugating network.

    Rotates into the frame where the parity is a single-site observable
    (adjoint direction of the conjugator), collapses the last site onto each
    eigenspace of sigma_x, and rotates back; the outcome law equals direct
    strong measurement of the parity observable.
    """
    state = to_density(rho)
    if (state.n, state.l) != (conjugator.n, conjugator.l) or state.l != 2:
        raise ValueError("state and conjugator must be qubit systems of one shape")
    if not conjugator.is_unitary():
        raise ValueError("conjugator network must be unitary")
    n = state.n
    rotated = apply(invert_unitary(conjugator), state).matrix
    outcomes = []
    for value in (-1.0, 1.0):
        q = (np.eye(2) + value * SIGMA_X) / 2
        m = _conjugate_by_channels(rotated, [((n,), np.kron(q, q.conj()))], n, 2)
        p = float(np.real(np.trace(m)))
        if p > PROBABILITY_FLOOR:
            post = apply(conjugator, DensityState(n, 2, m / p))
            outcomes.append(MeasurementOutcome(value, p, post))
    return outcomes


def conjugated_strong_measure(rho, conjugator: Network, rng: np.random.Generator) -> MeasurementOutcome:
    return sample_outcome(conjugated_strong_measure_exact(rho, conjugator), rng)


# ---------------------------------------------------------------------------
# Commutator norms and the measurement depth bound
# ---------------------------------------------------------------------------

def commutator_opnorm(a: np.ndarray, b: np.ndarray) -> float:
    """Operator norm of the commutator ab - ba."""
    return linalg.operator_norm(linalg.commutator(a, b))


def projection_bound(n: int, k: int) -> float:
    """Ceiling 2^k / sqrt(2 n) on commutators of propagated product projections."""
    return 2**k / math.sqrt(2.0 * n)


@dataclass(frozen=True)
class ProjectionBoundCheck:
    lhs: float
    bound: float
    passed: bool


def check_projection_commutator_bound(
    net: Network,
    projection: ProductProjection,
    c: SiteObservable,
    tol: float = 1e-8,
) -> ProjectionBoundCheck:
    """Propagate a product projection through a unitary network and bound its
    commutator with the averaging observable built from ``c``.

    The projection is ``P = Q Q^dag`` with ``Q = tensor Q_i`` (d x r), where
    ``Q_i`` holds the eigenvectors of factor i with eigenvalue above 1/2.  The
    inverse network's gates act on the columns of Q, giving ``W = U^dag Q`` and
    ``A*(P) = W W^dag``.  ``i[abar, W W^dag]`` lives in the span of
    ``[W, abar W]``, so its operator norm is the largest eigenvalue magnitude
    of a ``min(2r, d)``-square matrix (``_commutator_on_range``); r = 0 gives 0.
    """
    if not net.is_unitary():
        raise ValueError("the measurement depth bound applies to unitary networks only")
    if (projection.n, projection.l) != (net.n, net.l):
        raise ValueError("projection and network disagree on system shape")
    blocks = []
    for f in projection.factors:
        eig, vec = np.linalg.eigh(f)
        blocks.append(vec[:, eig > 0.5])
    w = _apply_unitary_block(invert_unitary(net), reduce(np.kron, blocks))
    h, _ = _commutator_on_range(c, w)
    lhs = float(np.max(np.abs(np.linalg.eigvalsh(h)), initial=0.0))
    bound = projection_bound(net.n, net.depth)
    return ProjectionBoundCheck(lhs=lhs, bound=bound, passed=lhs <= bound + tol)
