"""Weak and strong (projective) measurement procedures.

Weak measurement of a product observable means measuring every site in its
own eigenbasis and combining the outcomes; it reproduces the observable's
outcome statistics but collapses the state to a product of single-site
eigenstates.  Strong measurement projects onto the observable's (possibly
highly degenerate) spectral eigenspaces, which can leave macroscopic
superpositions intact -- the two procedures pull the post-state in opposite
directions, and the tests pin that contrast down quantitatively.

Every procedure lists each outcome with its probability and post state;
``sample_outcome`` draws one record from such a list, and
``weak_measure_shots`` draws many weak records at once.
``strong_measure_exact`` takes any spectral decomposition; the parity
``p^{(x)n}`` has a closed form
(``parity_measure_exact``) from n site flips of a vector, or 3n of a density
matrix, with no d x d operator.  The weak procedures share one outcome tree:
the state is rotated into every site observable's eigenbasis once (one local
action per site on a vector, two on a density matrix), the squared
amplitudes or the diagonal, summed over each projector's eigenvectors, give
the joint law of the site outcomes, and its prefix marginals give each
site's law given the sites before it.  A shot is n draws down the tree, so
many shots cost one pass over the state plus O(n) each; the exact list is
the tree's leaves.  The conjugated measurement projects onto the parity's
eigenspaces through the doubling ladder that prepares the cat
(``build_parity_conjugator``, depth ceil(log2 n)): in its frame the parity
is sigma_x on site 1, so one site is collapsed.
Post states are built only for the records that carry them.  Samplers take
an explicit numpy Generator and are deterministic given it.  Every
procedure takes a PureState or a DensityState; a PureState stays a vector
(projectors act on its amplitudes, site projectors on one axis of them) and
its post states are PureStates.

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
from .network import Network, Step, _apply_unitary_block, apply, cat_ladder, invert_unitary
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
                if not linalg.close(p @ q, p if i == j else 0.0, PROJECTOR_ATOL):
                    raise ValueError("projectors are not orthogonal idempotents")
            total += p
            p.setflags(write=False)
        if not linalg.close(total, np.eye(dim), PROJECTOR_ATOL):
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


def _act_site(op: np.ndarray, k: int, t: np.ndarray, n: int, l: int) -> np.ndarray:
    """A site operator on site k + 1 of a state tensor: ``op`` on axis k of a
    vector's ``(l,)*n`` tensor, and on a matrix's ``(l,)*2n`` tensor also
    ``conj(op)`` on column axis n + k, which is ``op rho op^dag`` on that site.
    ``op`` may be any m x l matrix (``linalg.act_local``)."""
    t = linalg.act_local(op, [k], t, l)
    if t.ndim == 2 * n:
        t = linalg.act_local(op.conj(), [n + k], t, l)
    return t


def _collapse_site(x: np.ndarray, q: np.ndarray, site: int, n: int, l: int) -> np.ndarray:
    """A site projector q applied to a state array: ``q psi`` on a vector,
    ``q rho q^dag`` on a matrix."""
    return _act_site(q, site - 1, x.reshape((l,) * (n * x.ndim)), n, l).reshape(x.shape)


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


def parity_measure_exact(rho, pauli: np.ndarray) -> list:
    """Strong measurement of the parity ``P = p^{(x)n}``, p a Hermitian l x l
    involution (``sigma_x`` or ``sigma_z``), with no d x d operator formed.

    The projectors are ``Q_v = (I + v P) / 2`` for v = -1, +1.  n row flips
    (p on every site's row axis) give ``P x``, so ``Q_v x = (x + v P x) / 2``:
    the branch itself for a vector.  On a density matrix the branch is
    ``Q_v rho Q_v = (y + v y P) / 2`` with ``y = Q_v rho``, and ``y P`` is n
    column flips (``p^T = conj(p)`` on every column axis).  Outcomes come in
    the order of ``strong_measure_exact`` (-1, then +1); post states are
    PureStates for a PureState input.
    """
    p_site = linalg.require_hermitian(pauli)
    n, l = rho.n, rho.l
    if p_site.shape[0] != l:
        raise ValueError(f"the parity's site operator is {p_site.shape[0]}x{p_site.shape[0]}, "
                         f"expected {l}x{l}")
    if not linalg.close(p_site @ p_site, np.eye(l), PROJECTOR_ATOL):
        raise ValueError("the parity's site operator must square to the identity")
    x = _state_array(rho)
    shape = (l,) * (n * x.ndim)

    def flip(t: np.ndarray, op: np.ndarray, first_axis: int) -> np.ndarray:
        t = t.reshape(shape)
        for i in range(n):
            t = linalg.act_local(op, [first_axis + i], t, l)
        return t.reshape(x.shape)

    flipped = flip(x, p_site, 0)
    outcomes = []
    for value in (-1.0, 1.0):
        y = (x + value * flipped) / 2
        if x.ndim == 2:
            y = (y + value * flip(y, p_site.conj(), n)) / 2
        p = _weight(y)
        if p > PROBABILITY_FLOOR:
            outcomes.append(MeasurementOutcome(value, p, _post_state(y, p, n, l)))
    return outcomes


def sample_outcome(outcomes: list, rng: np.random.Generator):
    """Draw one record of an exact outcome list, weighted by its probability."""
    probs = np.array([o.probability for o in outcomes])
    return outcomes[int(rng.choice(len(outcomes), p=probs / probs.sum()))]


# ---------------------------------------------------------------------------
# Weak measurement of product observables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeakOutcome:
    site_outcomes: tuple
    probability: float
    combined_value: float
    post_state: PureState | DensityState | None


def _site_decompositions(site_observables, n: int, l: int) -> list:
    """Each site's spectral decomposition; equal site matrices share one.

    A site observable is a Hermitian matrix or its ``SpectralDecomposition``;
    a caller that measures one observable on every site (the CLI) passes
    one decomposition, made once.
    """
    decs, distinct = [], {}
    for a in site_observables:
        if not isinstance(a, SpectralDecomposition):
            m = linalg.require_hermitian(a)
            key = (m.shape, m.tobytes())
            if key not in distinct:
                distinct[key] = spectral_decompose(m)
            a = distinct[key]
        if a.dim != l:
            raise ValueError(f"site observable is {a.dim}x{a.dim}, expected {l}x{l}")
        decs.append(a)
    if len(decs) != n:
        raise ValueError(f"need {n} site observables, got {len(decs)}")
    return decs


def _eigenbasis(dec: SpectralDecomposition) -> tuple:
    """An orthonormal eigenbasis V of a site observable, its columns grouped by
    projector, and the group bounds: projector i holds columns
    ``bounds[i]:bounds[i + 1]``."""
    blocks = []
    for p in dec.projectors:
        eig, vec = np.linalg.eigh(p)
        blocks.append(vec[:, eig > 0.5])
    return np.hstack(blocks), np.cumsum([0] + [b.shape[1] for b in blocks])


def _pick(w: np.ndarray, u: np.ndarray) -> tuple:
    """One categorical draw per row of the weights w, from one uniform each.

    Each row is normalized to p and searched on its cumulative sum, which is
    the index ``Generator.choice(len(p), p=p)`` picks from the same uniform.
    Returns the normalized rows and the picked indices.
    """
    p = w / w.sum(axis=1, keepdims=True)
    cdf = np.cumsum(p, axis=1)
    cdf /= cdf[:, -1:]
    return p, np.sum(cdf <= u[:, None], axis=1)


class _OutcomeTree:
    """The joint distribution of per-site eigenbasis outcomes, with its
    prefix marginals.

    The state is rotated into every site's eigenbasis (one local action per
    site on a vector, two on a density matrix); the squared amplitudes or the
    diagonal, summed over the eigenvectors of each projector, give the joint
    law ``tree[n]`` of the projector indices, and ``tree[k]`` sums it over
    sites k+1..n.  A shot is n draws down the tree, each conditioned on the
    picks before it.
    """

    def __init__(self, rho, decs):
        n, l = rho.n, rho.l
        self.n, self.l, self.decs = n, l, decs
        bases = {}
        for dec in decs:
            if id(dec) not in bases:
                bases[id(dec)] = _eigenbasis(dec)
        self.bases = [bases[id(dec)] for dec in decs]
        x = _state_array(rho)
        self.pure = x.ndim == 1
        t = x.reshape((l,) * (n * x.ndim))
        for k, (v, _) in enumerate(self.bases):
            t = _act_site(v.conj().T, k, t, n, l)
        self.rotated = t
        if self.pure:
            joint = t.real**2 + t.imag**2
        else:
            joint = np.maximum(np.diagonal(t.reshape(l**n, l**n)).real, 0.0).reshape((l,) * n)
        for k, (_, bounds) in enumerate(self.bases):
            if np.any(np.diff(bounds) != 1):  # a projector of rank other than one
                cols = np.arange(l)
                groups = (bounds[:-1, None] <= cols) & (cols < bounds[1:, None])
                joint = linalg.act_local(groups.astype(float), [k], joint, l)
        tree = [joint]
        for _ in range(n):
            tree.append(tree[-1].sum(axis=-1))
        self.tree = tree[::-1]

    def draw(self, rngs) -> list:
        """The projector indices and the probability of one shot per generator.

        Each shot reads ``rng.random(n)``: its k-th uniform picks site k from
        the tree's conditional law given the earlier picks, and the shot's
        probability is the product of the conditional probabilities it used.
        """
        u = np.array([rng.random(self.n) for rng in rngs]).reshape(len(rngs), self.n)
        rows = np.arange(len(rngs))
        prefix = np.zeros(len(rngs), dtype=np.intp)
        probability = np.ones(len(rngs))
        picks = np.empty((len(rngs), self.n), dtype=np.intp)
        for k in range(self.n):
            m = self.tree[k + 1].shape[-1]
            p, idx = _pick(self.tree[k + 1].reshape(-1, m)[prefix], u[:, k])
            probability *= p[rows, idx]
            picks[:, k] = idx
            prefix = prefix * m + idx
        return list(zip(map(tuple, picks.tolist()), probability.tolist()))

    def leaves(self) -> list:
        """The projector indices and probability of every outcome above
        ``PROBABILITY_FLOOR``, lexicographic (site 1 slowest)."""
        joint = self.tree[-1]
        return [(tuple(i), float(joint[tuple(i)]))
                for i in np.argwhere(joint > PROBABILITY_FLOOR).tolist()]

    def outcome(self, picks: tuple, probability: float, with_post: bool) -> WeakOutcome:
        values = tuple(dec.eigenvalues[i] for dec, i in zip(self.decs, picks))
        post = self.post_state(picks) if with_post else None
        return WeakOutcome(values, probability, float(np.prod(values)), post)

    def post_state(self, picks: tuple):
        """The normalized post state of one outcome: the rotated state kept on
        the outcome's eigenvectors and rotated back by them.  With rank-one
        site projectors this is the product of the site eigenvectors times
        the phase of the one amplitude kept."""
        n, l = self.n, self.l
        index = tuple(slice(b[i], b[i + 1]) for (_, b), i in zip(self.bases, picks))
        t = self.rotated[index if self.pure else index * 2]
        for k, ((v, b), i) in enumerate(zip(self.bases, picks)):
            t = _act_site(v[:, b[i]:b[i + 1]], k, t, n, l)
        x = t.reshape(-1) if self.pure else t.reshape(l**n, l**n)
        return _post_state(x, _weight(x), n, l)


def _outcome_tree(rho, site_observables) -> _OutcomeTree:
    return _OutcomeTree(rho, _site_decompositions(site_observables, rho.n, rho.l))


def weak_measure_product_exact(rho, site_observables, post_states: bool = True) -> list:
    """Joint distribution of per-site eigenbasis measurements.

    The combined value is the product of the site outcomes, matching the
    spectrum of the product observable built from the same site operators,
    each a Hermitian matrix or its ``SpectralDecomposition``.  Outcomes are
    the leaves of the outcome tree, up to l^n of them, so post states (each
    of the state's size; PureStates for a PureState input) are built only
    when asked for.
    """
    tree = _outcome_tree(rho, site_observables)
    return [tree.outcome(picks, p, post_states) for picks, p in tree.leaves()]


def weak_measure_shots(rho, site_observables, rngs, post_states: bool = True) -> list:
    """One sampled record of ``weak_measure_product_exact`` per generator.

    The outcome tree is built once; each shot is then n draws down it, so
    many shots cost one pass over the state plus O(n) each.  Post states are
    built only when asked for.  Deterministic given the generators.
    """
    tree = _outcome_tree(rho, site_observables)
    return [tree.outcome(picks, p, post_states) for picks, p in tree.draw(rngs)]


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
            if not linalg.close(f @ f, f, PROJECTOR_ATOL):
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
    if not linalg.close(m @ m, m, PROJECTOR_ATOL):
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
    """The doubling CNOT ladder of ``cat_ladder``, cut to n qubits: the
    network that prepares the cat also maps the n-fold sigma_x parity to
    sigma_x on site 1, ``apply_dual(u, tensor sigma_x) == embed(sigma_x, [1])``.

    Its steps are those of ``cat_ladder(ceil(log2 n))`` with every channel
    that reaches past site n dropped, so the depth is ceil(log2 n); n = 1
    gives the empty network.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    k = (n - 1).bit_length()
    steps = cat_ladder(k).steps if k else ()
    return Network(n, 2, tuple(
        Step(tuple(ch for ch in step.channels if max(ch.support) <= n)) for step in steps
    ))


def conjugated_strong_measure_exact(rho) -> list:
    """Measure x-parity projectively through ``build_parity_conjugator``.

    Rotates into the frame where the parity is sigma_x on site 1 (adjoint
    direction of the ladder), collapses site 1 onto each eigenspace of
    sigma_x, and rotates back; the outcome law equals direct strong
    measurement of the parity observable.  A PureState stays a vector
    throughout (``network.apply``), and its post states are PureStates.
    """
    if rho.l != 2:
        raise ValueError(f"conjugated measurement needs qubits, got local dimension {rho.l}")
    n = rho.n
    ladder = build_parity_conjugator(n)
    rotated = _state_array(apply(invert_unitary(ladder), rho))
    outcomes = []
    for value in (-1.0, 1.0):
        m = _collapse_site(rotated, (np.eye(2) + value * SIGMA_X) / 2, 1, n, 2)
        p = _weight(m)
        if p > PROBABILITY_FLOOR:
            outcomes.append(MeasurementOutcome(value, p, apply(ladder, _post_state(m, p, n, 2))))
    return outcomes


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
