"""Combinatorial support propagation under Heisenberg evolution.

The propagation is purely set-valued (no matrices): walking the steps in
reverse, a channel whose support touches the running set unions its support
in.  The result over-approximates the exact support of the propagated
observable, which is what the counting bounds (at most doubling per step)
are about; the numeric exactness check lives in the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg, uncertainty
from .network import Network
from .states import DensityState


def dual_support(net: Network, seed) -> frozenset:
    """Superset of the support of the propagated observable, given its seed support."""
    current = frozenset(int(s) for s in seed)
    if not current:
        raise ValueError("seed support must be nonempty")
    for s in current:
        if not 1 <= s <= net.n:
            raise ValueError(f"seed site {s} out of range 1..{net.n}")
    for step in reversed(net.steps):
        grown = set(current)
        for ch in step.channels:
            if current.intersection(ch.support):
                grown.update(ch.support)
        current = frozenset(grown)
    return current


@dataclass(frozen=True)
class LightconeReport:
    """Per-site propagated supports and the counting statistics over them."""

    n: int
    depth: int
    supports: tuple
    max_support_size: int
    site_multiplicity: tuple
    intersecting_pairs: int

    @property
    def support_bound(self) -> int:
        return 2**self.depth

    @property
    def multiplicity_bound(self) -> int:
        return 2**self.depth

    @property
    def pairs_per_observable_bound(self) -> int:
        return 4**self.depth

    def within_bounds(self) -> bool:
        return (
            self.max_support_size <= self.support_bound
            and max(self.site_multiplicity) <= self.multiplicity_bound
            and self.intersecting_pairs <= self.n * self.pairs_per_observable_bound
        )

    def to_dict(self) -> dict:
        return {
            "supports": [sorted(s) for s in self.supports],
            "max_support_size": self.max_support_size,
            "site_multiplicity": list(self.site_multiplicity),
            "intersecting_pairs": self.intersecting_pairs,
            "bounds": {
                "support": self.support_bound,
                "multiplicity": self.multiplicity_bound,
                "pairs_per_obs": self.pairs_per_observable_bound,
            },
        }


def lightcone_report(net: Network) -> LightconeReport:
    """Propagate every single-site seed and tally the intersection counts."""
    supports = tuple(dual_support(net, {i}) for i in range(1, net.n + 1))
    multiplicity = tuple(
        sum(1 for x in supports if y in x) for y in range(1, net.n + 1)
    )
    pairs = sum(
        1 for xi in supports for xj in supports if xi.intersection(xj)
    )
    return LightconeReport(
        n=net.n,
        depth=net.depth,
        supports=supports,
        max_support_size=max(len(s) for s in supports),
        site_multiplicity=multiplicity,
        intersecting_pairs=pairs,
    )


def exact_support(a: np.ndarray, n: int, l: int, tol: float = 1e-9) -> frozenset:
    """Sites on which an operator acts nontrivially, detected numerically."""
    m = linalg.require_square(a)
    return frozenset(
        s for s in range(1, n + 1) if not linalg.acts_trivially_on(m, s, n, l, tol=tol)
    )


def depth_lower_bound(n: int, r: float) -> float:
    """Minimum depth needed to move a separable state across level r.

    Returns ``(ln r - ln sqrt(2/n)) / ln 2``; may be negative, in which case
    there is no constraint (callers clamp and round up as needed).
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if not 0 < r < math.inf:  # NaN fails too
        raise ValueError(f"r must be positive and finite, got {r}")
    return (math.log(r) - math.log(math.sqrt(2.0 / n))) / math.log(2.0)


def crossing_requires_depth(
    rho_in: DensityState,
    rho_out: DensityState,
    abar,
    b: np.ndarray,
    r: float,
) -> float | None:
    """Depth bound implied when the two states sit on opposite sides of a level set.

    ``rho_in`` must be separable (build it through ``SeparableInput``/``mix``
    to certify that).  Returns ``depth_lower_bound(n, r)`` when the values
    ``tr(rho [abar, b])`` straddle ``r``, else None.
    """
    v_in = uncertainty.commutator_expectation(rho_in, abar, b)
    v_out = uncertainty.commutator_expectation(rho_out, abar, b)
    if (v_in - r) * (v_out - r) < 0:
        return depth_lower_bound(rho_in.n, r)
    return None
