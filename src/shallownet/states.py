"""Pure states, density matrices, and separable inputs for n-site systems.

All state objects are immutable after construction (arrays are copied and made
read-only).  States that arrive from outside the program are validated in
full at the boundary: the public ``PureState``, ``DensityState`` and
``SeparableInput`` constructors and ``state_from_dict`` check every defining
invariant, positivity included (one Cholesky factorization of the density
matrix shifted by the eigenvalue floor; an eigensolve runs only when that
fails, to decide within rounding and to name the minimum eigenvalue).

States the program derives from states it already holds skip only that
check: ``mix`` (a convex sum of products of validated single-site
factors), ``network.apply`` (a trace-preserving Kraus map, validated when its
channels were built, applied to a state), ``measurement``'s post states
(``q rho q^dag / p`` for a projector q) and ``PureState.density``
(``psi psi^dag``) are positive by construction.  They go through
``DensityState._trusted``, which still checks the shape, Hermiticity and
trace, all O(d^2).

States serialize to a JSON document ``{n, l, kind, data}`` where ``kind`` is
``"pure"`` or ``"density"`` and ``data`` is a flat list of ``[re, im]`` pairs,
row-major for matrices.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import reduce

import numpy as np

from . import linalg

NORM_ATOL = 1e-10
TRACE_ATOL = 1e-10
EIGENVALUE_FLOOR = -1e-10
WEIGHT_ATOL = 1e-12
# Far above the rounding of an outer product v v^dag (about 1e-17), far below
# any weight that would move a functional read at 1e-12.
RANK_ONE_ATOL = 1e-14


def _frozen_array(obj, name: str, value) -> None:
    arr = np.array(value, dtype=complex)
    arr.setflags(write=False)
    object.__setattr__(obj, name, arr)


@dataclass(frozen=True)
class PureState:
    """State vector of n sites with local dimension l."""

    n: int
    l: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        dim = self.l**self.n
        if amps.shape[0] != dim:
            raise ValueError(f"amplitude vector has length {amps.shape[0]}, expected {dim}")
        norm = float(np.linalg.norm(amps))
        if not abs(norm - 1.0) <= NORM_ATOL:  # a NaN norm fails too
            raise ValueError(f"state vector norm {norm} deviates from 1 by more than {NORM_ATOL}")
        _frozen_array(self, "amplitudes", amps)

    @property
    def dim(self) -> int:
        return self.l**self.n

    def purity(self) -> float:
        """tr(rho^2) of rho = psi psi^dag, as ||psi||^4."""
        return float(np.vdot(self.amplitudes, self.amplitudes).real) ** 2

    def density(self) -> "DensityState":
        return DensityState._trusted(self.n, self.l, np.outer(self.amplitudes, self.amplitudes.conj()))


def _hermitian_unit_trace(matrix, dim: int) -> np.ndarray:
    """The matrix, checked to be a dim x dim Hermitian matrix of trace 1."""
    m = linalg.require_hermitian(matrix)
    if m.shape[0] != dim:
        raise ValueError(f"matrix dimension {m.shape[0]}, expected {dim}")
    tr = complex(np.trace(m))
    if abs(tr - 1.0) > TRACE_ATOL:
        raise ValueError(f"trace {tr} deviates from 1 by more than {TRACE_ATOL}")
    return m


def _require_positive(m: np.ndarray) -> None:
    """Refuse a Hermitian m whose smallest eigenvalue is below EIGENVALUE_FLOOR.

    A Cholesky factorization of ``m - EIGENVALUE_FLOOR * I`` succeeds exactly
    when every eigenvalue is above the floor, up to rounding; only when it
    fails does ``eigvalsh`` run, to decide and to name the minimum eigenvalue.
    """
    shifted = m.copy()
    shifted.reshape(-1)[:: m.shape[0] + 1] -= EIGENVALUE_FLOOR
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        lo = float(np.linalg.eigvalsh(m)[0])
        if lo < EIGENVALUE_FLOOR:
            raise ValueError(f"minimum eigenvalue {lo} below {EIGENVALUE_FLOOR}") from None


@dataclass(frozen=True)
class DensityState:
    """Density matrix of n sites: Hermitian, unit trace, positive up to tolerance.

    Positivity is one Cholesky factorization of the matrix shifted by the
    eigenvalue floor; ``eigvalsh`` runs only on a refusal, to decide within
    rounding and name the minimum eigenvalue in the message.
    """

    n: int
    l: int
    matrix: np.ndarray

    def __post_init__(self):
        m = _hermitian_unit_trace(self.matrix, self.l**self.n)
        _require_positive(m)
        _frozen_array(self, "matrix", m)

    @classmethod
    def _trusted(cls, n: int, l: int, matrix) -> "DensityState":
        """A state the program derived from states it holds, positive by
        construction: every check of the public constructor but positivity."""
        state = object.__new__(cls)
        object.__setattr__(state, "n", n)
        object.__setattr__(state, "l", l)
        _frozen_array(state, "matrix", _hermitian_unit_trace(matrix, l**n))
        return state

    @property
    def dim(self) -> int:
        return self.l**self.n

    def purity(self) -> float:
        """tr(rho^2), as the sum of |m_ij|^2 since the matrix is Hermitian."""
        return float(np.vdot(self.matrix, self.matrix).real)


@dataclass(frozen=True)
class SeparableInput:
    """Convex combination of product states, kept in factored form.

    Each term is (weight, factors) with one single-site density matrix per
    site.  Construction certifies separability: anything built here mixes to a
    separable density matrix by definition.
    """

    terms: tuple

    def __post_init__(self):
        if not self.terms:
            raise ValueError("separable input needs at least one term")
        frozen = []
        n = None
        l = None
        total = 0.0
        for weight, factors in self.terms:
            w = float(weight)
            if not w >= -WEIGHT_ATOL:  # a NaN weight fails too
                raise ValueError(f"weight {w} is negative or not a number")
            total += w
            factors = tuple(linalg.require_hermitian(f) for f in factors)
            if n is None:
                n = len(factors)
                l = factors[0].shape[0]
            if len(factors) != n:
                raise ValueError("terms disagree on site count")
            for f in factors:
                if f.shape[0] != l:
                    raise ValueError("factors disagree on local dimension")
                # validates trace / positivity of the single-site factor
                DensityState(1, l, f)
            frozen.append((w, factors))
        if not abs(total - 1.0) <= WEIGHT_ATOL:
            raise ValueError(f"weights sum to {total}, expected 1")
        object.__setattr__(self, "terms", tuple(frozen))

    @property
    def n(self) -> int:
        return len(self.terms[0][1])

    @property
    def l(self) -> int:
        return self.terms[0][1][0].shape[0]

    def pure_product(self) -> PureState | None:
        """The input as a state vector when it is one term of rank-one factors, else None.

        A factor counts as rank one when every eigenvalue but its largest is
        within RANK_ONE_ATOL of zero; its vector is the top eigenvector.
        """
        if len(self.terms) != 1:
            return None
        vecs = []
        for f in self.terms[0][1]:
            eig, vec = np.linalg.eigh(f)
            if np.max(np.abs(eig[:-1]), initial=0.0) > RANK_ONE_ATOL:
                return None
            vecs.append(vec[:, -1])
        return product_state(vecs)


def product_state(factors) -> PureState:
    """Tensor product of normalized single-site vectors."""
    if not factors:
        raise ValueError("need at least one factor")
    vecs = [np.asarray(f, dtype=complex).reshape(-1) for f in factors]
    l = vecs[0].shape[0]
    for v in vecs:
        if v.shape[0] != l:
            raise ValueError("factors disagree on local dimension")
        if abs(np.linalg.norm(v) - 1.0) > NORM_ATOL:
            raise ValueError("factor vector is not normalized")
    amps = reduce(np.kron, vecs)
    return PureState(len(vecs), l, amps / np.linalg.norm(amps))


def cat_state(n: int) -> PureState:
    """Equal superposition of all-zeros and all-ones on n qubits."""
    if n < 1:
        raise ValueError("n must be at least 1")
    amps = np.zeros(2**n, dtype=complex)
    amps[0] = amps[-1] = 1 / np.sqrt(2)
    return PureState(n, 2, amps)


def basis_state(n: int, l: int, index: int = 0) -> PureState:
    amps = np.zeros(l**n, dtype=complex)
    amps[index] = 1.0
    return PureState(n, l, amps)


def mix(sep: SeparableInput) -> DensityState:
    """Materialize a separable input as a full density matrix."""
    out = None
    for weight, factors in sep.terms:
        term = weight * linalg.tensor(*factors)
        out = term if out is None else out + term
    return DensityState._trusted(sep.n, sep.l, out)


def to_density(state) -> DensityState:
    if isinstance(state, DensityState):
        return state
    return state.density()


def density_matrix(state) -> np.ndarray:
    """The density matrix of a PureState (``psi psi^dag``) or a DensityState."""
    if isinstance(state, PureState):
        return state.density().matrix
    return state.matrix


def fidelity(a, b) -> float:
    """|<a|b>|^2 for two pure states, or <b|a|b> when ``a`` is a density state."""
    if isinstance(a, PureState) and isinstance(b, PureState):
        if (a.n, a.l) != (b.n, b.l):
            raise ValueError("dimension mismatch")
        return float(abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)
    if isinstance(b, PureState):
        rho = density_matrix(a)
        if rho.shape[0] != b.dim:
            raise ValueError("dimension mismatch")
        return float(np.real(np.vdot(b.amplitudes, rho @ b.amplitudes)))
    raise TypeError("fidelity expects (PureState, PureState) or (DensityState, PureState)")


# ---------------------------------------------------------------------------
# JSON wire format
# ---------------------------------------------------------------------------

def state_to_dict(state) -> dict:
    if isinstance(state, PureState):
        data = [[float(z.real), float(z.imag)] for z in state.amplitudes]
        return {"n": state.n, "l": state.l, "kind": "pure", "data": data}
    if isinstance(state, DensityState):
        data = [[float(z.real), float(z.imag)] for z in state.matrix.reshape(-1)]
        return {"n": state.n, "l": state.l, "kind": "density", "data": data}
    raise TypeError(f"cannot serialize {type(state).__name__}")


def _state_fields(doc: dict) -> tuple:
    """``(n, l, kind, values)`` read from a state document; a missing or
    malformed field raises a ValueError that names it."""
    if not isinstance(doc, dict):
        raise ValueError(f"state JSON must be an object, got {type(doc).__name__}")
    for key in ("n", "l", "kind", "data"):
        if key not in doc:
            raise ValueError(f"state JSON is missing field {key!r}")
    for key in ("n", "l"):
        if type(doc[key]) is not int or doc[key] < 1:  # a bool is not a count
            raise ValueError(f"state field {key!r} must be a positive integer, got {doc[key]!r}")
    n, l, kind, data = doc["n"], doc["l"], doc["kind"], doc["data"]
    try:
        values = np.array([complex(re, im) for re, im in data], dtype=complex)
        # complex() takes a bool, but a bool is not a number here; only a pair
        # that reads 0 or 1 can hold one, so only those pairs are looked at
        re, im = values.real, values.imag
        suspects = np.flatnonzero((re == 0) | (re == 1) | (im == 0) | (im == 1))
        if any(type(x) is bool for i in suspects for x in data[i]):
            values = None
    except (TypeError, ValueError):
        values = None
    if not isinstance(data, list) or values is None or not np.isfinite(values).all():
        raise ValueError("state field 'data' must be a list of finite [re, im] number pairs")
    return n, l, kind, values


def _state_from_fields(n: int, l: int, kind, values: np.ndarray):
    if kind == "pure":
        return PureState(n, l, values)
    if kind == "density":
        dim = l**n
        if values.size != dim * dim:
            raise ValueError(f"state field 'data' has {values.size} entries, expected {dim * dim}")
        return DensityState(n, l, values.reshape(dim, dim))
    raise ValueError(f"state field 'kind' must be 'pure' or 'density', got {kind!r}")


def state_from_dict(doc: dict):
    """Inverse of ``state_to_dict``; a missing or malformed field raises a
    ValueError that names it.  The document is left as it is."""
    return _state_from_fields(*_state_fields(doc))


def state_to_json(state) -> str:
    return json.dumps(state_to_dict(state))


def state_from_json(text: str):
    """``state_from_dict`` on the parsed text.  Its references to the text and
    to the parsed document are dropped once each has been read, so a caller
    that passes the text on (as the CLI does) holds neither while the state
    is validated."""
    doc = json.loads(text)
    del text
    fields = _state_fields(doc)
    del doc
    return _state_from_fields(*fields)


# ---------------------------------------------------------------------------
# Seeded generators for sweeps and tests
# ---------------------------------------------------------------------------

def random_pure_state(n: int, l: int, rng: np.random.Generator) -> PureState:
    amps = rng.normal(size=l**n) + 1j * rng.normal(size=l**n)
    return PureState(n, l, amps / np.linalg.norm(amps))


def random_density_state(n: int, l: int, rng: np.random.Generator, rank: int | None = None) -> DensityState:
    dim = l**n
    rank = dim if rank is None else rank
    g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    m = g @ g.conj().T
    return DensityState(n, l, m / np.trace(m))


def random_product_input(n: int, l: int, rng: np.random.Generator) -> SeparableInput:
    """A random pure product state, packaged as a certified separable input."""
    factors = []
    for _ in range(n):
        v = rng.normal(size=l) + 1j * rng.normal(size=l)
        v /= np.linalg.norm(v)
        factors.append(np.outer(v, v.conj()))
    return SeparableInput(((1.0, tuple(factors)),))


def random_separable_input(n: int, l: int, rng: np.random.Generator, terms: int = 3) -> SeparableInput:
    """A random convex mixture of product states."""
    weights = rng.dirichlet(np.ones(terms))
    built = []
    for w in weights:
        factors = tuple(random_density_state(1, l, rng).matrix for _ in range(n))
        built.append((float(w), factors))
    return SeparableInput(tuple(built))
