import numpy as np
import pytest

from shallownet import sweeps, uncertainty
from shallownet.measurement import weak_measure_shots
from shallownet.linalg import SIGMA_X, SIGMA_Y, SIGMA_Z
from shallownet.network import apply, random_shallow
from shallownet.states import PureState, cat_state, mix, random_product_input
from shallownet.sweeps import (
    RunConfig,
    projection_bound_sweep,
    run_sweep,
    trial_seed,
    uncertainty_bound_sweep,
)
from shallownet.uncertainty import averaging_matrix


class TestTrialSeed:
    def test_deterministic(self):
        assert trial_seed(42, 7) == trial_seed(42, 7)

    def test_distinct_across_trials_and_roots(self):
        seeds = {trial_seed(root, trial) for root in range(3) for trial in range(20)}
        assert len(seeds) == 60

    def test_shot_reproducibility(self):
        # a report row's seed re-runs that trial's randomness in isolation
        sub = trial_seed(3, 5)
        a = weak_measure_shots(cat_state(3), [SIGMA_X] * 3, [np.random.default_rng(sub)])[0]
        b = weak_measure_shots(cat_state(3), [SIGMA_X] * 3, [np.random.default_rng(sub)])[0]
        assert a.site_outcomes == b.site_outcomes


class TestSweeps:
    def test_grid_coverage_and_noise_alternation(self):
        config = RunConfig(seed=1, trials=18, n_values=(4, 6), k_values=(0, 1), noise=0.1)
        rows = uncertainty_bound_sweep(config)
        assert {(r["n"], r["k"]) for r in rows} == {(4, 0), (6, 0), (4, 1), (6, 1)}
        assert all(r["noise"] == (0.1 if r["trial"] % 2 else 0.0) for r in rows)

    def test_rows_pass_and_reproduce(self):
        config = RunConfig(seed=2, trials=4, n_values=(4,), k_values=(1,), noise=0.0)
        rows_a = projection_bound_sweep(config)
        rows_b = projection_bound_sweep(config)
        assert rows_a == rows_b
        assert all(r["pass"] for r in rows_a)

    def test_selector_validation(self):
        with pytest.raises(ValueError):
            run_sweep(3, RunConfig(trials=0))

    def test_zero_trials(self):
        assert run_sweep(1, RunConfig(trials=0)) == []


HALF_PAULIS = [SIGMA_X / 2, SIGMA_Y / 2, SIGMA_Z / 2]
CEILING_CONFIGS = [
    RunConfig(seed=1, trials=18, n_values=(4, 6, 8), k_values=(0, 1, 2), noise=0.05),
    RunConfig(seed=41, trials=18, n_values=(4, 6, 8), k_values=(0, 1, 2), noise=0.05),
    RunConfig(seed=7, trials=36, n_values=(4, 6, 8), k_values=(0, 1, 2), noise=0.3),
]


def _row_state(row):
    """The row's output state, from its seed and the draws the sweep makes."""
    rng = np.random.default_rng(row["seed"])
    net = random_shallow(row["n"], row["k"], rng, noise=row["noise"])
    return apply(net, mix(random_product_input(row["n"], 2, rng)))


def _dense_ceiling(rho, n):
    """2 sqrt(lambda_max(M)) with M the covariance of the dense spin averages."""
    ops = [averaging_matrix(half, n) for half in HALF_PAULIS]
    m = rho.matrix
    means = [np.trace(a @ m).real for a in ops]
    cov = np.array([[np.trace((a @ b + b @ a) @ m).real / 2 - ma * mb
                     for b, mb in zip(ops, means)] for a, ma in zip(ops, means)])
    return 2 * np.sqrt(max(np.linalg.eigvalsh(cov)[-1], 0.0))


@pytest.fixture(scope="module")
def ceiling_rows():
    """Sweep-1 rows of three configs, run with the search disabled."""

    def no_search(*args, **kwargs):
        raise AssertionError("estimate_e ran on a row the ceiling should settle")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(uncertainty, "estimate_e", no_search)
        rows = [row for config in CEILING_CONFIGS for row in uncertainty_bound_sweep(config)]
    return [(row, _row_state(row)) for row in rows]


class TestCeilingCertificate:
    def test_every_row_settled_without_search(self, ceiling_rows):
        assert len(ceiling_rows) == 72
        assert all(row["pass"] and row["e_upper"] <= row["bound"] for row, _ in ceiling_rows)

    def test_e_upper_is_the_dense_ceiling(self, ceiling_rows):
        for row, rho in ceiling_rows:
            assert row["e_upper"] == pytest.approx(_dense_ceiling(rho, row["n"]), abs=1e-12)

    def test_lhs_below_search_below_ceiling(self, ceiling_rows):
        for row, rho in ceiling_rows:
            searched = uncertainty.estimate_e(rho).e_lower
            assert row["lhs"] <= searched + 1e-12
            assert searched <= row["e_upper"] + 1e-12

    def test_pure_rows_lhs_is_the_ceiling(self, ceiling_rows):
        pure = [row for row, _ in ceiling_rows if row["noise"] == 0.0 or row["k"] == 0]
        assert len(pure) == 48
        for row in pure:
            assert row["lhs"] == pytest.approx(row["e_upper"], abs=1e-12)


BENCH_CONFIG = {"trials": 18, "n_values": (4, 6, 8), "k_values": (0, 1, 2), "noise": 0.05}


def _is_pure_row(row):
    return row["noise"] == 0.0 or row["k"] == 0


class TestPureRowsOnTheStateVector:
    """Unitary and k = 0 rows with a pure product input never form a d x d matrix."""

    @pytest.mark.parametrize("seed", [1, 41])
    def test_bench_config_without_density_path_on_pure_rows(self, monkeypatch, seed):
        mixed = []

        def apply_noisy_only(net, rho):
            assert isinstance(rho, PureState) or not net.is_unitary(), "a unitary row ran the density path"
            return apply(net, rho)

        def counted_mix(sep):
            mixed.append(sep)
            return mix(sep)

        monkeypatch.setattr(uncertainty, "apply", apply_noisy_only)
        monkeypatch.setattr(uncertainty, "mix", counted_mix)
        rows = uncertainty_bound_sweep(RunConfig(seed=seed, **BENCH_CONFIG))
        assert all(row["pass"] for row in rows)
        assert len(mixed) == sum(1 for row in rows if not _is_pure_row(row)) == 6

    @pytest.mark.parametrize("seed", [1, 41])
    def test_one_dense_eigensolve_per_noisy_row(self, monkeypatch, seed):
        """A noisy k >= 1 row makes one eigvalsh call above 2 x 2 (the lhs trace
        norm at v_M); its mixed input and channel output are not re-checked."""
        eigvalsh, big = np.linalg.eigvalsh, []

        def counted_eigvalsh(a, *args, **kwargs):
            if a.shape[-1] > 2:
                big.append(a.shape)
            return eigvalsh(a, *args, **kwargs)

        per_row = []

        def counted_check(*args, **kwargs):
            before = len(big)
            check = uncertainty.check_uncertainty_bound(*args, **kwargs)
            per_row.append(len(big) - before)
            return check

        monkeypatch.setattr(np.linalg, "eigvalsh", counted_eigvalsh)
        monkeypatch.setattr(sweeps, "check_uncertainty_bound", counted_check)
        rows = uncertainty_bound_sweep(RunConfig(seed=seed, **BENCH_CONFIG))
        assert per_row == [0 if _is_pure_row(row) else 1 for row in rows]
        assert len(big) == 6

    @pytest.mark.parametrize("seed", [1, 41])
    def test_rows_match_the_density_path(self, seed):
        rows = uncertainty_bound_sweep(RunConfig(seed=seed, **{**BENCH_CONFIG, "trials": 36}))
        assert sum(1 for row in rows if _is_pure_row(row)) == 24
        for row in rows:
            rho = _row_state(row)
            var_value, v = uncertainty.max_variance_qubit(rho)
            lhs = uncertainty.commutator_trace_norm(uncertainty.SiteObservable.from_bloch(v), rho)
            assert row["e_upper"] == pytest.approx(2 * np.sqrt(var_value), abs=1e-12)
            assert row["lhs"] == pytest.approx(lhs, abs=1e-12)
            assert row["slack"] == row["bound"] - row["e_upper"] > 0
