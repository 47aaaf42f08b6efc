"""The computation model: local/bilocal channels, disjoint steps, depth-k networks.

A channel is stored uniformly as a Kraus family on one or two sites; unitaries
are the single-Kraus special case.  A step is a set of channels with pairwise
disjoint supports; a network is an ordered sequence of steps.  Networks act on
density matrices in step order (Schrodinger picture) and on observables in
reverse step order (Heisenberg picture, ``apply_dual``), so that
``tr(apply_dual(net, a) @ rho) == tr(a @ apply(net, rho).matrix)``.

On a density matrix every channel, whatever its Kraus count, acts as one
superoperator ``S = sum_K K (x) conj(K)`` (``S^dag`` for ``apply_dual``),
contracted by ``linalg.act_local`` into the row and column axes of the sites
it touches.  ``S`` is built on first use and cached on the channel, so
parsing, ``apply_pure`` and the projection sweep never build it.  A unitary
network on a state vector applies its gates directly (``apply_pure``).

Depth is reported two ways: the raw step count (``net.depth``) and
``canonical_depth``, which first contracts steps made purely of single-site
channels into an adjacent step.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .linalg import I2, SIGMA_X, SIGMA_Y, SIGMA_Z
from .states import DensityState, PureState

KRAUS_ATOL = 1e-10

# ---------------------------------------------------------------------------
# Gate library
# ---------------------------------------------------------------------------

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
S_GATE = np.diag([1, 1j]).astype(complex)
T_GATE = np.diag([1, np.exp(1j * np.pi / 4)]).astype(complex)
# Two-site gates act on (first listed site, second listed site); for CNOT the
# first site is the control.
CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
CZ = np.diag([1, 1, 1, -1]).astype(complex)
SWAP = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)

ONE_SITE_GATES = {
    "H": HADAMARD,
    "X": SIGMA_X,
    "Y": SIGMA_Y,
    "Z": SIGMA_Z,
    "S": S_GATE,
    "T": T_GATE,
}
TWO_SITE_GATES = {
    "CNOT": CNOT,
    "CZ": CZ,
    "SWAP": SWAP,
}


def weyl_unitaries(d: int) -> list[np.ndarray]:
    """The d^2 clock-and-shift unitaries X^a Z^b (Paulis up to phase for d=2)."""
    shift = np.zeros((d, d), dtype=complex)
    for j in range(d):
        shift[(j + 1) % d, j] = 1.0
    clock = np.diag(np.exp(2j * np.pi * np.arange(d) / d))
    out = []
    for a in range(d):
        for b in range(d):
            out.append(np.linalg.matrix_power(shift, a) @ np.linalg.matrix_power(clock, b))
    return out


def depolarizing_kraus(p: float, dim: int) -> list[np.ndarray]:
    """Kraus family of rho -> (1-p) rho + p I/dim on a dim-dimensional factor."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"depolarizing strength {p} outside [0, 1]")
    d2 = dim * dim
    ws = weyl_unitaries(dim)
    ops = [np.sqrt(1 - p + p / d2) * np.eye(dim, dtype=complex)]
    ops.extend(np.sqrt(p) / dim * w for w in ws[1:])
    return ops


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


# ---------------------------------------------------------------------------
# Channels, steps, networks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LocalChannel:
    """CPTP map on one or two sites, in Kraus form."""

    support: tuple
    kraus: tuple
    unitary_flag: bool = field(init=False)
    _superoperator: np.ndarray | None = field(init=False, default=None, repr=False, compare=False)

    def __post_init__(self):
        support = tuple(int(s) for s in self.support)
        if len(support) not in (1, 2):
            raise ValueError(f"support must list 1 or 2 sites, got {support}")
        if len(set(support)) != len(support):
            raise ValueError(f"support sites must be distinct, got {support}")
        ops = tuple(np.array(k, dtype=complex) for k in self.kraus)
        if not ops:
            raise ValueError("channel needs at least one Kraus operator")
        dim = ops[0].shape[0]
        for k in ops:
            if k.shape != (dim, dim):
                raise ValueError("Kraus operators must be square and equal-sized")
            k.setflags(write=False)
        total = sum(k.conj().T @ k for k in ops)
        if not linalg.close(total, np.eye(dim), KRAUS_ATOL):
            raise ValueError("Kraus family is not trace preserving (sum K^dag K != I)")
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "kraus", ops)
        object.__setattr__(self, "unitary_flag", len(ops) == 1 and linalg.is_unitary(ops[0]))

    @property
    def dim(self) -> int:
        return self.kraus[0].shape[0]

    def superoperator(self) -> np.ndarray:
        """``S = sum_K K (x) conj(K)``, built on first use and cached (read-only).

        One einsum over the stacked Kraus family forms every entry
        ``S[(a, b), (c, d)] = sum_K K[a, c] conj(K[b, d])``.  On a density
        matrix reshaped to ``(l,)*2n``, ``S`` contracted into the support's
        row and column axes at once is ``rho -> sum_K K rho K^dag``.
        """
        if self._superoperator is None:
            ks = np.stack(self.kraus)
            d = self.dim
            s = np.einsum("kac,kbd->abcd", ks, ks.conj()).reshape(d * d, d * d)
            s.setflags(write=False)
            object.__setattr__(self, "_superoperator", s)
        return self._superoperator


@dataclass(frozen=True)
class Step:
    """Channels with pairwise disjoint supports; order within a step is irrelevant."""

    channels: tuple

    def __post_init__(self):
        channels = tuple(self.channels)
        seen: set[int] = set()
        for ch in channels:
            overlap = seen.intersection(ch.support)
            if overlap:
                raise ValueError(f"overlapping supports within a step at site(s) {sorted(overlap)}")
            seen.update(ch.support)
        object.__setattr__(self, "channels", channels)

    def has_bilocal(self) -> bool:
        return any(len(ch.support) == 2 for ch in self.channels)


@dataclass(frozen=True)
class Network:
    """Depth-k sequence of steps on n sites of local dimension l."""

    n: int
    l: int
    steps: tuple

    def __post_init__(self):
        steps = tuple(self.steps)
        for step in steps:
            for ch in step.channels:
                for s in ch.support:
                    if not 1 <= s <= self.n:
                        raise ValueError(f"channel support {ch.support} outside 1..{self.n}")
                if ch.dim != self.l ** len(ch.support):
                    raise ValueError(
                        f"channel on {ch.support} has dimension {ch.dim}, "
                        f"expected {self.l ** len(ch.support)}"
                    )
        object.__setattr__(self, "steps", steps)

    @property
    def depth(self) -> int:
        return len(self.steps)

    def is_unitary(self) -> bool:
        return all(ch.unitary_flag for step in self.steps for ch in step.channels)


def identity_network(n: int, l: int = 2) -> Network:
    return Network(n, l, ())


# ---------------------------------------------------------------------------
# Application
# ---------------------------------------------------------------------------

def _conjugate_by_channels(m: np.ndarray, superoperators, n: int, l: int) -> np.ndarray:
    """m -> S(m) for each (support, superoperator S) in turn.

    ``S = sum_K A_K (x) conj(B_K)`` maps m to ``sum_K A_K m B_K^dag`` on the
    support: one contraction into its row and column axes.
    """
    t = m.reshape((l,) * (2 * n))
    for support, s in superoperators:
        rows = [site - 1 for site in support]
        t = linalg.act_local(s, rows + [n + r for r in rows], t, l)
    return t.reshape(m.shape)


def apply(net: Network, rho: DensityState) -> DensityState:
    """Run the network on a density state, channels in step order.

    The output of a trace-preserving Kraus map on a state is a state, so it
    skips the public constructor's eigensolve (``DensityState._trusted``).
    """
    if (rho.n, rho.l) != (net.n, net.l):
        raise ValueError(f"state is ({rho.n}, {rho.l}) but network is ({net.n}, {net.l})")
    superoperators = ((ch.support, ch.superoperator())
                      for step in net.steps for ch in step.channels)
    out = _conjugate_by_channels(rho.matrix, superoperators, net.n, net.l)
    return DensityState._trusted(net.n, net.l, out)


def _apply_unitary_block(net: Network, x: np.ndarray) -> np.ndarray:
    """``U x`` for a unitary network U and a length-d vector or d x r block x.

    The gates act on the first n axes of x reshaped to ``(l,)*n`` plus its
    trailing axes, so every column moves at once and no d x d matrix forms.
    """
    t = x.reshape((net.l,) * net.n + x.shape[1:])
    for step in net.steps:
        for ch in step.channels:
            t = linalg.act_local(ch.kraus[0], [s - 1 for s in ch.support], t, net.l)
    return t.reshape(x.shape)


def apply_pure(net: Network, psi: PureState) -> PureState:
    """Fast path for unitary networks acting on a pure state."""
    if not net.is_unitary():
        raise ValueError("pure-state application requires a unitary network")
    if (psi.n, psi.l) != (net.n, net.l):
        raise ValueError(f"state is ({psi.n}, {psi.l}) but network is ({net.n}, {net.l})")
    return PureState(net.n, net.l, _apply_unitary_block(net, psi.amplitudes))


def apply_dual(net: Network, a: np.ndarray) -> np.ndarray:
    """Heisenberg propagation: steps in reverse order, a -> sum K^dag a K.

    Each channel acts as ``S^dag = sum_K K^dag (x) K^T``.
    """
    m = linalg.require_square(a)
    dim = net.l**net.n
    if m.shape[0] != dim:
        raise ValueError(f"observable dimension {m.shape[0]}, expected {dim}")
    superoperators = ((ch.support, ch.superoperator().conj().T)
                      for step in reversed(net.steps) for ch in step.channels)
    return _conjugate_by_channels(m.copy(), superoperators, net.n, net.l)


def invert_unitary(net: Network) -> Network:
    """Inverse of a unitary network: reversed steps, daggered gates."""
    if not net.is_unitary():
        raise ValueError("only unitary networks can be inverted")
    steps = tuple(
        Step(tuple(LocalChannel(ch.support, (ch.kraus[0].conj().T,)) for ch in step.channels))
        for step in reversed(net.steps)
    )
    return Network(net.n, net.l, steps)


# ---------------------------------------------------------------------------
# Constructions
# ---------------------------------------------------------------------------

def cat_ladder(k: int, include_prologue: bool = False) -> Network:
    """Doubling CNOT ladder on n = 2^k qubits.

    Step r pairs control j with target 2^(r-1) + j for j = 1..2^(r-1), so the
    all-zeros input reaches the n-qubit cat state in k steps once the first
    qubit starts in ``(|0> + |1>)/sqrt(2)``.  With ``include_prologue`` that
    Hadamard is folded into step 1's first CNOT (depth stays k).
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    n = 2**k
    steps = []
    for r in range(1, k + 1):
        half = 2 ** (r - 1)
        channels = []
        for j in range(1, half + 1):
            gate = CNOT
            if include_prologue and r == 1 and j == 1:
                gate = CNOT @ np.kron(HADAMARD, I2)
            channels.append(LocalChannel((j, half + j), (gate,)))
        steps.append(Step(tuple(channels)))
    return Network(n, 2, tuple(steps))


def random_shallow(
    n: int,
    k: int,
    seed,
    gate_pool=("haar",),
    noise: float = 0.0,
    l: int = 2,
) -> Network:
    """Seeded random depth-k network: each step is a random maximal pairing.

    Pool entries are either ``"haar"`` (Haar-random two-site unitary) or a
    named two-site library gate.  With ``noise > 0`` every gate is followed by
    two-site depolarizing of that strength, folded into the channel's Kraus
    family so the step structure is unchanged.
    """
    if not gate_pool:
        raise ValueError("gate pool must not be empty")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    dim = l * l
    noise_kraus = depolarizing_kraus(noise, dim) if noise > 0.0 else None
    steps = []
    for _ in range(k):
        order = rng.permutation(n) + 1
        channels = []
        for i in range(0, n - 1, 2):
            pair = (int(order[i]), int(order[i + 1]))
            name = gate_pool[int(rng.integers(len(gate_pool)))]
            if name == "haar":
                gate = haar_unitary(dim, rng)
            elif name in TWO_SITE_GATES:
                if l != 2:
                    raise ValueError(f"gate {name} requires l = 2")
                gate = TWO_SITE_GATES[name]
            else:
                raise ValueError(f"unknown pool entry {name!r}")
            if noise_kraus is not None:
                kraus = tuple(d @ gate for d in noise_kraus)
            else:
                kraus = (gate,)
            channels.append(LocalChannel(pair, kraus))
        steps.append(Step(tuple(channels)))
    return Network(n, l, tuple(steps))


# ---------------------------------------------------------------------------
# Depth contraction
# ---------------------------------------------------------------------------

def _embed_in_support(op: np.ndarray, site: int, support: tuple, l: int) -> np.ndarray:
    """Lift a single-site operator to the channel's (1- or 2-site) support."""
    if len(support) == 1:
        return op
    if support[0] == site:
        return np.kron(op, np.eye(l, dtype=complex))
    return np.kron(np.eye(l, dtype=complex), op)


def _merge_local_into_step(step: Step, local: LocalChannel, l: int, before: bool) -> Step:
    """Compose a single-site channel into a step (before or after its channels)."""
    site = local.support[0]
    channels = list(step.channels)
    for idx, ch in enumerate(channels):
        if site in ch.support:
            combined = []
            for lk in local.kraus:
                lifted = _embed_in_support(lk, site, ch.support, l)
                for kk in ch.kraus:
                    combined.append(kk @ lifted if before else lifted @ kk)
            channels[idx] = LocalChannel(ch.support, tuple(combined))
            return Step(tuple(channels))
    channels.append(local)
    return Step(tuple(channels))


def contract_local_steps(net: Network) -> Network:
    """Merge steps made purely of single-site channels into an adjacent step.

    Local-only steps merge backward into the preceding contracted step when
    one exists, otherwise forward into the next anchored step; the returned
    network acts identically on every state.
    """
    merged: list[Step] = []
    for step in net.steps:
        if step.has_bilocal() or not step.channels:
            if merged and not merged[-1].has_bilocal() and len(merged) == 1:
                # local-only prologue folds forward into the first anchored step
                pending = merged.pop()
                for ch in pending.channels:
                    step = _merge_local_into_step(step, ch, net.l, before=True)
            merged.append(step)
        elif merged:
            for ch in step.channels:
                merged[-1] = _merge_local_into_step(merged[-1], ch, net.l, before=False)
        else:
            merged.append(step)
    return Network(net.n, net.l, tuple(merged))


def canonical_depth(net: Network) -> int:
    """Depth after contracting local-only steps; never exceeds the raw count."""
    return contract_local_steps(net).depth
