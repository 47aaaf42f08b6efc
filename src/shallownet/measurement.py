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
and are deterministic given it.  Every procedure takes a PureState or a
DensityState; a PureState stays a vector (projectors act on its amplitudes,
site projectors on one axis of them) and its post states are PureStates.

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
    apply_pure, invert_unitary,
)
from .states import DensityState, PureState
from .uncertainty import SiteObservable, _commutator_on_range

PROJECTOR_ATOL = 1e-10
PROBABILITY_FLOOR = 1e-12
CLUSTER_TOL = 1e-8
FACTOR_TOL = 1e-8  # is_product_projection: zero-factor cutoff and rebuild tolerance


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


def spectral_decompose(a: np.ndarray) -> SpectralDecomposition:
    """Eigendecomposition with nearby eigenvalues merged into one projector.

    Clustering keeps degenerate eigenspaces whole: consecutive eigenvalues
    within ``CLUSTER_TOL`` share a projector.
    """
    m = linalg.require_hermitian(a, atol=1e-10)
    eig, vec = np.linalg.eigh(m)
    values = []
    projectors = []
    start = 0
    for i in range(1, len(eig) + 1):
        if i == len(eig) or eig[i] - eig[i - 1] > CLUSTER_TOL:
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
    post_state: PureState | DensityState | None


def _sites_of(dim: int, l: int) -> int:
    n = round(math.log(dim, l))
    if l**n != dim:
        raise ValueError(f"dimension {dim} is not a power of {l}")
    return n


def _state_array(rho) -> np.ndarray:
    """The amplitudes of a PureState, the matrix of a DensityState.

    The measurement kernels below act on this array: a length-d vector stays
    a vector, and its post states come back as PureStates.
    """
    return rho.amplitudes if isinstance(rho, PureState) else rho.matrix


def _weight(x: np.ndarray) -> float:
    """Probability carried by an unnormalized post state: ||psi||^2 or tr(rho)."""
    return float(np.vdot(x, x).real) if x.ndim == 1 else float(np.real(np.trace(x)))


def _post_state(x: np.ndarray, p: float, n: int, l: int):
    """The unnormalized post state x of weight p, normalized.

    A density post state ``q rho q^dag`` of a projector q is positive by
    construction, so it skips the public constructor's eigensolve.
    """
    if x.ndim == 1:
        return PureState(n, l, x / math.sqrt(p))
    return DensityState._trusted(n, l, x / p)


def _collapse_site(x: np.ndarray, q: np.ndarray, site: int, n: int, l: int) -> np.ndarray:
    """A site projector q applied to a state array: ``q psi`` on one axis of a
    vector, ``q rho q^dag`` on one row and one column axis of a matrix."""
    if x.ndim == 1:
        return linalg.act_local(q, [site - 1], x.reshape((l,) * n), l).reshape(-1)
    return _conjugate_by_channels(x, [((site,), np.kron(q, q.conj()))], n, l)


def strong_measure_exact(rho, dec: SpectralDecomposition) -> list:
    """Full outcome distribution with projected post states (PureStates for a
    PureState input)."""
    x = _state_array(rho)
    if x.shape[0] != dec.dim:
        raise ValueError(f"state dimension {x.shape[0]} vs decomposition {dec.dim}")
    outcomes = []
    for value, proj in zip(dec.eigenvalues, dec.projectors):
        y = proj @ x
        p = _weight(y) if x.ndim == 1 else float(np.vdot(proj, x).real)
        if p <= PROBABILITY_FLOOR:
            continue
        post = y if x.ndim == 1 else y @ proj
        outcomes.append(MeasurementOutcome(value, p, _post_state(post, p, rho.n, rho.l)))
    if not outcomes:
        raise ValueError("decomposition assigns no probability to this state")
    return outcomes


def parity_measure_exact(psi: PureState, pauli: np.ndarray) -> list:
    """Strong measurement of the parity ``P^{(x)n}`` on a state vector, P a
    Hermitian single-site involution (``sigma_x`` or ``sigma_z``).

    The projectors are ``(I -+ P^{(x)n}) / 2``, so ``P^{(x)n} psi`` (n local
    actions) gives both branches ``(psi -+ P^{(x)n} psi) / 2`` with no d x d
    matrix.  Outcomes come in the order of ``strong_measure_exact`` (-1, then +1).
    """
    p_site = linalg.require_hermitian(pauli)
    if not np.allclose(p_site @ p_site, np.eye(p_site.shape[0]), atol=PROJECTOR_ATOL, rtol=0.0):
        raise ValueError("the parity's site operator must square to the identity")
    n, l = psi.n, psi.l
    t = psi.amplitudes.reshape((l,) * n)
    for i in range(n):
        t = linalg.act_local(p_site, [i], t, l)
    flipped = t.reshape(-1)
    outcomes = []
    for value in (-1.0, 1.0):
        y = (psi.amplitudes + value * flipped) / 2
        p = _weight(y)
        if p > PROBABILITY_FLOOR:
            outcomes.append(MeasurementOutcome(value, p, _post_state(y, p, n, l)))
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
    post_state: PureState | DensityState | None


def _weak_setup(rho, site_observables):
    """The state array, each site's spectral decomposition, and an outcome-record builder.

    A site observable is a Hermitian matrix or its ``SpectralDecomposition``;
    a caller that samples many shots (the CLI) passes decompositions, made
    once.  Equal site matrices share one decomposition.
    """
    x = _state_array(rho)
    decs, distinct = [], {}
    for a in site_observables:
        if isinstance(a, SpectralDecomposition):
            decs.append(a)
            continue
        m = linalg.require_hermitian(a)
        key = (m.shape, m.tobytes())
        if key not in distinct:
            distinct[key] = spectral_decompose(m)
        decs.append(distinct[key])
    if len(decs) != rho.n:
        raise ValueError(f"need {rho.n} site observables, got {len(decs)}")

    def record(values: tuple, p: float, post: np.ndarray, weight: float) -> WeakOutcome:
        post_state = _post_state(post, weight, rho.n, rho.l)
        return WeakOutcome(values, p, float(np.prod(values)), post_state)

    return x, decs, record


def _site_marginal(x: np.ndarray, site: int, n: int, l: int) -> np.ndarray:
    """The l x l reduced state of one site of a state array."""
    if x.ndim == 1:
        t = x.reshape(l ** (site - 1), l, -1)
        return np.einsum("aib,ajb->ij", t, t.conj())
    return linalg.reduce_to_site(x, site, n, l)


def weak_measure_product_exact(rho, site_observables) -> list:
    """Joint distribution of per-site eigenbasis measurements.

    The combined value is the product of the site outcomes, matching the
    spectrum of the product observable built from the same site operators,
    each a Hermitian matrix or its ``SpectralDecomposition``.  A PureState
    input walks its amplitudes and gives PureState post states.
    """
    x, decs, record = _weak_setup(rho, site_observables)
    n, l = rho.n, rho.l
    outcomes: list[WeakOutcome] = []

    def walk(site: int, m: np.ndarray, values: tuple):
        if site == n:
            p = _weight(m)
            if p > PROBABILITY_FLOOR:
                outcomes.append(record(values, p, m, p))
            return
        for value, q in zip(decs[site].eigenvalues, decs[site].projectors):
            walk(site + 1, _collapse_site(m, q, site + 1, n, l), values + (value,))

    walk(0, x, ())
    return outcomes


def weak_measure_product(rho, site_observables, rng: np.random.Generator) -> WeakOutcome:
    """Sample one record of ``weak_measure_product_exact`` site by site,
    collapsing as measurements proceed; deterministic given the generator."""
    current, decs, record = _weak_setup(rho, site_observables)
    n, l = rho.n, rho.l
    joint, values = 1.0, ()
    for site, dec in enumerate(decs, start=1):
        marginal = _site_marginal(current, site, n, l)
        probs = np.array([max(float(np.real(np.trace(q @ marginal))), 0.0) for q in dec.projectors])
        probs /= probs.sum()
        idx = int(rng.choice(len(probs), p=probs))
        joint *= float(probs[idx])
        values += (dec.eigenvalues[idx],)
        current = _collapse_site(current, dec.projectors[idx], site, n, l)
        current /= probs[idx] if current.ndim == 2 else math.sqrt(probs[idx])
    return record(values, joint, current, 1.0)


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


def is_product_projection(p: np.ndarray, l: int) -> ProductProjection | None:
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
        if top <= FACTOR_TOL:
            factors.append(np.zeros((l, l), dtype=complex))
            continue
        keep = eig > top / 2
        block = vec[:, keep]
        factors.append(block @ block.conj().T)
    candidate = linalg.tensor(*factors)
    if np.max(np.abs(candidate - m), initial=0.0) <= FACTOR_TOL:
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
    strong measurement of the parity observable.  A PureState stays a vector:
    the inverse gates act on its amplitudes, the collapse on one axis, and
    ``apply_pure`` rotates each post state back.
    """
    if (rho.n, rho.l) != (conjugator.n, conjugator.l) or rho.l != 2:
        raise ValueError("state and conjugator must be qubit systems of one shape")
    if not conjugator.is_unitary():
        raise ValueError("conjugator network must be unitary")
    n = rho.n
    pure = isinstance(rho, PureState)
    inverse = invert_unitary(conjugator)
    if pure:
        rotated = _apply_unitary_block(inverse, rho.amplitudes)
    else:
        rotated = apply(inverse, rho).matrix
    outcomes = []
    for value in (-1.0, 1.0):
        m = _collapse_site(rotated, (np.eye(2) + value * SIGMA_X) / 2, n, n, 2)
        p = _weight(m)
        if p > PROBABILITY_FLOOR:
            post = _post_state(m, p, n, 2)
            post = apply_pure(conjugator, post) if pure else apply(conjugator, post)
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
