"""Seeded verification sweeps over random shallow networks.

Each trial owns a sub-seed derived from the root seed and the trial index
through ``numpy.random.SeedSequence([root_seed, trial_index])``, so any trial
can be re-run in isolation from its report row.  Trials cycle through the
configured (n, k) grid; when a noise strength is configured, odd trial
indices use the depolarizing variant and even ones stay unitary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .measurement import check_projection_commutator_bound, random_product_projection
from .network import random_shallow
from .states import random_product_input
from .uncertainty import check_uncertainty_bound, random_site_observable


@dataclass(frozen=True)
class RunConfig:
    """Sweep parameters; identical configs produce identical reports.

    A malformed grid, trial count, noise strength or tolerance raises a
    ValueError naming the field.
    """

    seed: int = 0
    trials: int = 200
    n_values: tuple = (4, 6, 8)
    k_values: tuple = (0, 1, 2)
    noise: float = 0.05
    tol: float = 1e-8

    def __post_init__(self):
        if not self.n_values or min(self.n_values) < 1:
            raise ValueError(f"n_values must be non-empty with every n >= 1, got {list(self.n_values)}")
        if not self.k_values or min(self.k_values) < 0:
            raise ValueError(f"k_values must be non-empty with every k >= 0, got {list(self.k_values)}")
        if self.trials < 0:
            raise ValueError(f"trials must be at least 0, got {self.trials}")
        # written so that NaN fails too
        if not 0.0 <= self.noise <= 1.0:
            raise ValueError(f"noise must lie in [0, 1], got {self.noise}")
        if not self.tol >= 0.0:
            raise ValueError(f"tol must be at least 0, got {self.tol}")

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "trials": self.trials,
            "n_values": list(self.n_values),
            "k_values": list(self.k_values),
            "noise": self.noise,
            "tol": self.tol,
        }


def trial_seed(root_seed: int, trial: int) -> int:
    """Documented split scheme: SeedSequence([root, trial]) -> 64-bit sub-seed."""
    words = np.random.SeedSequence([int(root_seed), int(trial)]).generate_state(2, dtype=np.uint32)
    return int(words[0]) << 32 | int(words[1])


def _trial_grid(config: RunConfig):
    for trial in range(config.trials):
        n = config.n_values[trial % len(config.n_values)]
        k = config.k_values[(trial // len(config.n_values)) % len(config.k_values)]
        yield trial, int(n), int(k)


def uncertainty_bound_sweep(config: RunConfig) -> list:
    """Depth-bound rows for prepared states: the functional vs sqrt(2/n) 2^k.

    Each row carries ``lhs``, a lower bound on the functional at the output
    state, ``e_upper``, the variance ceiling above it, and ``slack``, which
    is ``bound - e_upper`` (negative when the ceiling cannot certify).  A row with
    ``e_upper <= bound + tol`` passes with a certificate and ``lhs`` is the
    value at the top-variance direction; any other row passes only if the
    search's ``lhs`` stays within the bound, which means no counterexample
    was found.  See ``uncertainty.check_uncertainty_bound``.
    """
    rows = []
    for trial, n, k in _trial_grid(config):
        sub = trial_seed(config.seed, trial)
        rng = np.random.default_rng(sub)
        noise = config.noise if (config.noise > 0 and trial % 2 == 1) else 0.0
        net = random_shallow(n, k, rng, noise=noise)
        inp = random_product_input(n, 2, rng)
        check = check_uncertainty_bound(net, inp, tol=config.tol)
        rows.append(
            {
                "trial": trial,
                "seed": sub,
                "n": n,
                "k": k,
                "noise": noise,
                "lhs": check.e_lower,
                "e_upper": check.e_upper,
                "slack": check.bound - check.e_upper,
                "bound": check.bound,
                "pass": bool(check.passed),
            }
        )
    return rows


def projection_bound_sweep(config: RunConfig) -> list:
    """Depth-bound rows for measured projections: ||[abar, A*(P)]|| vs 2^k/sqrt(2n)."""
    rows = []
    for trial, n, k in _trial_grid(config):
        sub = trial_seed(config.seed, trial)
        rng = np.random.default_rng(sub)
        net = random_shallow(n, k, rng, noise=0.0)
        projection = random_product_projection(n, 2, rng)
        c = random_site_observable(2, rng)
        check = check_projection_commutator_bound(net, projection, c, tol=config.tol)
        rows.append(
            {
                "trial": trial,
                "seed": sub,
                "n": n,
                "k": k,
                "noise": 0.0,
                "lhs": check.lhs,
                "bound": check.bound,
                "pass": bool(check.passed),
            }
        )
    return rows


def run_sweep(which: int, config: RunConfig) -> list:
    if which == 1:
        return uncertainty_bound_sweep(config)
    if which == 2:
        return projection_bound_sweep(config)
    raise ValueError(f"unknown sweep selector {which}; expected 1 or 2")
