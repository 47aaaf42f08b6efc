import importlib.util
from pathlib import Path

import numpy as np
import pytest

from shallownet import states, uncertainty
from shallownet.linalg import SIGMA_X, SIGMA_Y, SIGMA_Z, operator_norm, reduce_to_site
from shallownet.network import apply, cat_ladder, identity_network, random_shallow
from shallownet.states import (
    SeparableInput,
    cat_state,
    mix,
    product_state,
    random_density_state,
    random_product_input,
    random_pure_state,
    to_density,
)
from shallownet.uncertainty import (
    AveragingObservable,
    Hypersurface,
    SiteObservable,
    averaging_matrix,
    check_uncertainty_bound,
    commutator_expectation,
    commutator_trace_norm,
    commutator_witness,
    estimate_e,
    fibonacci_sphere,
    hypersurface_value,
    max_variance_qubit,
    random_site_observable,
    uncertainty_bound,
    variance,
)

KET0 = np.array([1, 0], dtype=complex)
Z_HALF = SiteObservable(np.diag([0.5, -0.5]).astype(complex))
X_HALF = SiteObservable(SIGMA_X / 2)


def zeros_state(n):
    return to_density(product_state([KET0] * n))


def maximally_mixed(n):
    return states.DensityState(n, 2, np.eye(2**n, dtype=complex) / 2**n)


def bench_qudit_state(seed):
    """The benchmark's rank-3 5-qutrit state, from ``bench/workloads.py``."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return states.DensityState(workloads.QUDIT_N, workloads.QUDIT_L, workloads.qudit_state(seed))


# The search as it ran one start at a time on the k x k stack: the reference
# for the lockstep ascent on 2r blocks.

def _on_range(c, basis, h):
    """``sum_a c_a h_a`` with ``c_a = tr(lambda_a c)``: i[abar(c), rho] in range coordinates."""
    return np.tensordot(np.real(np.einsum("aij,ji->a", basis, c)), h, axes=1)


def _coordinate_gradient(c, basis, h):
    """Subgradient coordinates ``tr(w h_a)`` of ``f(c) = ||sum_a c_a h_a||_1``,
    w the sign factor of ``sum_a c_a h_a``."""
    eig, vec = np.linalg.eigh(_on_range(c, basis, h))
    w = (vec * uncertainty._subgradient_sign(eig)) @ vec.conj().T
    return np.real(np.einsum("ij,aji->a", w, h))


def _sequential_ascend(c, value, h, basis, max_iter, tol):
    iterations = 0
    for _ in range(max_iter):
        iterations += 1
        grad = np.tensordot(_coordinate_gradient(c, basis, h), basis, axes=1)
        if operator_norm(grad) < tol:
            break
        step = 1.0
        improved = False
        while step > 1e-7:
            cand = uncertainty._normalize_spread(c + step * grad)
            val_c = uncertainty._hermitian_trace_norm(_on_range(cand, basis, h))
            if val_c > value + 1e-15:
                c, value = cand, val_c
                improved = True
                break
            step /= 2
        if not improved:
            break
    return c, value, iterations


def _sequential_search(rho, restarts=8, max_iter=20, tol=1e-9, seed=0):
    """(site, iterations): each start ascended in turn; qubits start from the
    grid's best point, which ``estimate_e`` with ``max_iter = 0`` reports, and
    ascend only when it is below the variance ceiling."""
    f = uncertainty._range_factor(rho.matrix)
    basis = uncertainty._traceless_basis(rho.l)
    h, _ = uncertainty._range_coordinates(f, uncertainty._basis_images(f, rho.n, basis))
    if rho.l == 2:
        starts = [estimate_e(rho, max_iter=0).maximizer.matrix]
        ceiling = 2 * np.sqrt(max_variance_qubit(rho)[0])
        if commutator_trace_norm(SiteObservable(starts[0]), rho) >= ceiling - uncertainty.CEILING_SLACK:
            return SiteObservable(starts[0]), 0  # certified: no ascent
    else:
        rng = np.random.default_rng(seed)
        starts = [random_site_observable(rho.l, rng).matrix for _ in range(restarts)]
    best, best_c, iterations = -1.0, None, 0
    for c in starts:
        value = uncertainty._hermitian_trace_norm(_on_range(c, basis, h))
        c, value, steps = _sequential_ascend(c, value, h, basis, max_iter, tol)
        iterations += steps
        if value > best:
            best, best_c = value, c
    return SiteObservable(best_c), iterations


def _block_value_and_gradient(site, basis, stack, r):
    """Value and subgradient coordinates of ``_RangeBlocks`` at one site
    matrix, with the block's size."""
    blocks = uncertainty._RangeBlocks(basis, stack, r)
    values, block, q = blocks.evaluate(site.matrix[None])
    grad = blocks.coordinates(blocks.gradient(block, q))[0]
    return values[0], grad, block.shape[-1]


class TestSiteObservable:
    def test_stored_traceless(self):
        c = SiteObservable(np.diag([1.0, 0.0]).astype(complex))
        assert np.trace(c.matrix) == pytest.approx(0.0, abs=1e-14)
        assert c.spread == pytest.approx(1.0)

    def test_spread_limit_enforced(self):
        with pytest.raises(ValueError):
            SiteObservable(SIGMA_Z)  # spread 2

    def test_centered_norm_half_for_qutrit(self):
        # traceless is not spectrum-centered once l > 2
        c = SiteObservable(np.diag([2 / 3, -1 / 3, -1 / 3]).astype(complex))
        assert operator_norm(c.matrix) > 0.5
        assert operator_norm(c.centered()) == pytest.approx(0.5, abs=1e-12)

    def test_from_bloch(self):
        c = SiteObservable.from_bloch([0, 0, 1])
        assert np.allclose(c.matrix, np.diag([0.5, -0.5]))


class TestAveragingMatrix:
    def test_single_site(self):
        assert np.allclose(averaging_matrix(Z_HALF, 1), np.diag([0.5, -0.5]))

    def test_two_sites(self):
        got = averaging_matrix(Z_HALF, 2)
        expect = (np.kron(SIGMA_Z, np.eye(2)) + np.kron(np.eye(2), SIGMA_Z)) / 4
        assert np.allclose(got, expect)

    def test_norm_is_half(self):
        for n in (1, 2, 4, 8):
            assert operator_norm(averaging_matrix(Z_HALF, n)) == pytest.approx(0.5, abs=1e-10)

    def test_materialized_through_dataclass(self):
        abar = AveragingObservable(Z_HALF, 3)
        assert np.allclose(abar.matrix(), averaging_matrix(Z_HALF, 3))


class TestVariance:
    def test_cat_z(self):
        for n in (2, 4, 8):
            assert variance(averaging_matrix(Z_HALF, n), to_density(cat_state(n))) == pytest.approx(
                0.25, abs=1e-10
            )

    def test_zeros_z_eigenstate(self):
        assert variance(averaging_matrix(Z_HALF, 4), zeros_state(4)) == pytest.approx(0.0, abs=1e-12)

    def test_zeros_x_scaling(self):
        for n in (1, 2, 4, 8):
            got = variance(averaging_matrix(X_HALF, n), zeros_state(n))
            assert got == pytest.approx(1 / (4 * n), abs=1e-10)


    def test_pure_state_vector_matches_density(self):
        rng = np.random.default_rng(26)
        for n, l in ((3, 2), (2, 3)):
            psi = random_pure_state(n, l, rng)
            c = random_site_observable(l, rng)
            for abar in (c, AveragingObservable(c, n), averaging_matrix(c, n)):
                assert abs(variance(abar, psi) - variance(abar, to_density(psi))) <= 1e-12


class TestSiteBySitePath:
    def test_matches_dense_averaging_matrix(self):
        rng = np.random.default_rng(30)
        for l, n in ((2, 3), (3, 2)):
            rho = random_density_state(n, l, rng)
            c = uncertainty.random_site_observable(l, rng)
            dense = averaging_matrix(c, n)
            value, b = commutator_witness(dense, rho)
            for abar in (c, AveragingObservable(c, n)):
                assert variance(abar, rho) == pytest.approx(variance(dense, rho), abs=1e-12)
                assert commutator_trace_norm(abar, rho) == pytest.approx(value, abs=1e-12)
                assert commutator_witness(abar, rho)[0] == pytest.approx(value, abs=1e-12)
                assert commutator_expectation(rho, abar, b) == pytest.approx(
                    commutator_expectation(rho, dense, b), abs=1e-12
                )

    def test_dimension_mismatch_names_both_shapes(self):
        qutrit = SiteObservable(np.diag([0.5, 0.0, -0.5]))
        for fn in (variance, commutator_trace_norm):
            with pytest.raises(ValueError, match=r"\(9, 9\) vs \(8, 8\)"):
                fn(qutrit, zeros_state(3))


class TestRangeFactor:
    """The l > 2 search evaluates i[abar, rho] on the span of [F, abar F]."""

    @pytest.mark.parametrize("n, l, rank", [
        (3, 2, 1), (3, 2, 2), (3, 2, 4), (2, 3, 1), (2, 3, 2), (2, 3, 5),
    ])
    def test_factored_matches_dense(self, n, l, rank):
        rng = np.random.default_rng(40 + 10 * l + rank)
        m = random_density_state(n, l, rng, rank=rank).matrix
        site = uncertainty.random_site_observable(l, rng)
        f = uncertainty._range_factor(m)
        assert f.shape == (l**n, rank)
        a = averaging_matrix(site, n)
        h, q = uncertainty._commutator_on_range(site, f)
        assert h.shape == (min(2 * rank, l**n),) * 2
        dense = 1j * (a @ m - m @ a)
        assert np.max(np.abs(q @ h @ q.conj().T - dense)) <= 1e-12
        eig, vec = np.linalg.eigh(dense)
        assert np.sum(np.abs(np.linalg.eigvalsh(h))) == pytest.approx(
            np.sum(np.abs(eig)), abs=1e-12
        )
        w = (vec * uncertainty._subgradient_sign(eig)) @ vec.conj().T
        lifted = 1j * (m @ w - w @ m)
        dense_grad = sum(reduce_to_site(lifted, i, n, l) for i in range(1, n + 1))
        basis = uncertainty._traceless_basis(l)
        stack, _ = uncertainty._range_coordinates(f, uncertainty._basis_images(f, n, basis))
        grad = _coordinate_gradient(site.matrix, basis, stack)
        dense_coords = np.real(np.einsum("aij,ji->a", basis, dense_grad)) / n
        assert np.max(np.abs(grad - dense_coords)) <= 1e-12
        # the (r + t)-square block, t = min(k - r, r): t = r on the low ranks,
        # 0 < t < r at rank 5 on 2 qutrits
        value, block_grad, size = _block_value_and_gradient(site, basis, stack, rank)
        assert size == rank + min(stack.shape[1] - rank, rank)
        assert value == pytest.approx(np.sum(np.abs(eig)), abs=1e-12)
        assert np.max(np.abs(block_grad - dense_coords)) <= 1e-12

    @pytest.mark.parametrize("n, l", [(3, 2), (2, 3)])
    @pytest.mark.parametrize("rank", [1, 2, None])
    def test_coordinates_match_dense(self, n, l, rank):
        # One QR gives every basis direction: value, subgradient and covariance
        # of any site observable are read from the stack h_a.
        rng = np.random.default_rng(60 + 10 * l + (rank or 0))
        rho = random_density_state(n, l, rng, rank=rank)
        m = rho.matrix
        f = uncertainty._range_factor(m)
        basis = uncertainty._traceless_basis(l)
        assert np.allclose(np.einsum("aij,bji->ab", basis, basis), np.eye(l * l - 1), atol=1e-15)
        gs = uncertainty._basis_images(f, n, basis)
        stack, _ = uncertainty._range_coordinates(f, gs)
        k = min(l * l * f.shape[1], l**n)
        assert stack.shape == (l * l - 1, k, k)
        cov = uncertainty._coordinate_covariance(f, gs)
        for _ in range(3):
            site = random_site_observable(l, rng)
            coords = np.real(np.einsum("aij,ji->a", basis, site.matrix))
            a = averaging_matrix(site, n)
            eig, vec = np.linalg.eigh(1j * (a @ m - m @ a))
            value = np.sum(np.abs(np.linalg.eigvalsh(np.tensordot(coords, stack, axes=1))))
            assert value == pytest.approx(np.sum(np.abs(eig)), abs=1e-12)
            w = (vec * uncertainty._subgradient_sign(eig)) @ vec.conj().T
            dense_grad = sum(reduce_to_site(1j * (m @ w - w @ m), i, n, l) for i in range(1, n + 1))
            grad = _coordinate_gradient(site.matrix, basis, stack)
            expect = np.real(np.einsum("aij,ji->a", basis, dense_grad)) / n
            assert np.max(np.abs(grad - expect)) <= 1e-12
            assert coords @ cov @ coords == pytest.approx(variance(a, rho), abs=1e-12)
            # t = r at ranks 1 and 2, t = 0 (the stack itself) at full rank
            r = f.shape[1]
            block_value, block_grad, size = _block_value_and_gradient(site, basis, stack, r)
            assert size == min(2 * r, k)
            assert block_value == pytest.approx(np.sum(np.abs(eig)), abs=1e-12)
            assert np.max(np.abs(block_grad - expect)) <= 1e-12

    def test_one_qr_per_call(self, monkeypatch):
        # One QR with d rows per call; the ascent's QRs reduce the (k - r) x r
        # part of a candidate, so none of them has more than k - r rows.
        shapes = []
        qr = np.linalg.qr

        def counting_qr(a, *args, **kwargs):
            shapes.append(a.shape)
            return qr(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "qr", counting_qr)
        rng = np.random.default_rng(49)
        for rho in (random_density_state(3, 2, rng), random_density_state(2, 3, rng, rank=2),
                    random_density_state(3, 2, rng, rank=2)):
            shapes.clear()
            report = estimate_e(rho, restarts=3)
            assert report.iterations > 0
            r = np.linalg.matrix_rank(rho.matrix)
            k = min(rho.l**2 * r, rho.dim)
            assert [s[-2] for s in shapes].count(rho.dim) == 1
            assert all(s[-2] <= k - r for s in shapes[1:])

    def test_cutoff_drops_small_negative_eigenvalue(self):
        rng = np.random.default_rng(47)
        n, l = 2, 3
        base = random_density_state(n, l, rng, rank=2).matrix
        kernel = np.linalg.eigh(base)[1][:, 0]
        rho = states.DensityState(n, l, base - 1e-11 * np.outer(kernel, kernel.conj()))
        assert np.linalg.eigvalsh(rho.matrix)[0] < -5e-12
        f = uncertainty._range_factor(rho.matrix)
        assert f.shape[1] == 2
        report = estimate_e(rho, restarts=2, seed=3)
        dense = commutator_trace_norm(averaging_matrix(report.maximizer, n), rho)
        assert report.e_lower == pytest.approx(dense, abs=1e-12)
        h, _ = uncertainty._commutator_on_range(report.maximizer, f)
        assert np.sum(np.abs(np.linalg.eigvalsh(h))) == pytest.approx(dense, abs=1e-10)


class TestCommutatorTraceNorm:
    def test_maximally_mixed_commutes(self):
        for n in (1, 3):
            assert commutator_trace_norm(averaging_matrix(Z_HALF, n), maximally_mixed(n)) == pytest.approx(
                0.0, abs=1e-12
            )

    def test_cat_reaches_one(self):
        for n in (2, 4, 8):
            got = commutator_trace_norm(averaging_matrix(Z_HALF, n), to_density(cat_state(n)))
            assert got == pytest.approx(1.0, abs=1e-10)

    def test_single_qubit_closed_form(self):
        # For |0><0| and c = (v . sigma)/2 the norm is sqrt(vx^2 + vy^2).
        rho = zeros_state(1)
        for v in ([1, 0, 0], [0, 1, 0], [0.6, 0.8, 0.0], [0.6, 0.0, 0.8]):
            c = SiteObservable.from_bloch(v)
            expect = np.hypot(v[0], v[1])
            assert commutator_trace_norm(c.matrix, rho) == pytest.approx(expect, abs=1e-10)

    def test_witness_attains_value(self):
        rng = np.random.default_rng(19)
        for _ in range(5):
            rho = random_density_state(3, 2, rng)
            abar = averaging_matrix(Z_HALF, 3)
            value, b = commutator_witness(abar, rho)
            assert operator_norm(b) <= 1 + 1e-10
            assert commutator_expectation(rho, abar, b) == pytest.approx(value, abs=1e-8)


class TestMaxVarianceQubit:
    def test_cat_direction_z(self):
        value, direction = max_variance_qubit(to_density(cat_state(6)))
        assert value == pytest.approx(0.25, abs=1e-10)
        assert abs(direction[2]) == pytest.approx(1.0, abs=1e-8)

    def test_zeros_direction_in_xy_plane(self):
        value, direction = max_variance_qubit(zeros_state(4))
        assert value == pytest.approx(1 / 16, abs=1e-10)
        assert abs(direction[2]) <= 1e-8

    def test_maximally_mixed_is_classical_noise_floor(self):
        # Uncorrelated coin flips: Var = 1/(4n) in every direction, even though
        # the commutator trace norm (the quantum part) is exactly 0.
        value, _ = max_variance_qubit(maximally_mixed(3))
        assert value == pytest.approx(1 / 12, abs=1e-12)
        assert commutator_trace_norm(
            averaging_matrix(Z_HALF, 3), maximally_mixed(3)
        ) == pytest.approx(0.0, abs=1e-12)

    def test_grid_search_oracle(self):
        rng = np.random.default_rng(20)
        rho = random_density_state(2, 2, rng)
        value, _ = max_variance_qubit(rho)
        grid_best = max(
            variance(averaging_matrix(SiteObservable.from_bloch(v), 2), rho)
            for v in fibonacci_sphere(1000)
        )
        assert value >= grid_best - 1e-9
        assert value == pytest.approx(grid_best, abs=1e-3)

    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_pure_state_vector_matches_density(self, n):
        rng = np.random.default_rng(30 + n)
        for psi in (random_pure_state(n, 2, rng), cat_state(n), product_state([KET0] * n)):
            value, direction = max_variance_qubit(psi)
            dense_value, _ = max_variance_qubit(psi.density())
            assert value == pytest.approx(dense_value, abs=1e-14)
            for c in (SiteObservable.from_bloch(direction), random_site_observable(2, rng)):
                for abar in (c, averaging_matrix(c, n)):
                    assert commutator_trace_norm(abar, psi) == pytest.approx(
                        commutator_trace_norm(abar, psi.density()), abs=1e-13)
            # a pure state attains its variance ceiling in the top direction
            f_v = commutator_trace_norm(SiteObservable.from_bloch(direction), psi)
            assert f_v == pytest.approx(2 * np.sqrt(value), abs=1e-12)

    def test_pure_state_requires_qubits(self):
        with pytest.raises(ValueError, match="local dimension 2"):
            max_variance_qubit(random_pure_state(2, 3, np.random.default_rng(0)))


class TestSpinMoments:
    """M from one- and two-site marginals equals the covariance of the dense spin averages."""

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_matches_dense_covariance(self, n):
        rng = np.random.default_rng(70 + n)
        ops = [averaging_matrix(half, n) for half in uncertainty.HALF_PAULIS]
        product = random_product_input(n, 2, rng).pure_product()
        for rho in (random_density_state(n, 2, rng), to_density(product), to_density(cat_state(n))):
            m = rho.matrix
            means = [np.trace(a @ m).real for a in ops]
            dense = np.array([[np.trace((a @ b + b @ a) @ m).real / 2 - ma * mb
                               for b, mb in zip(ops, means)] for a, ma in zip(ops, means)])
            assert np.max(np.abs(uncertainty._spin_moments(m, n) - dense)) <= 1e-14


class TestEstimate:
    def test_cat8(self):
        report = estimate_e(to_density(cat_state(8)))
        assert report.e_lower == pytest.approx(1.0, abs=1e-6)
        assert report.variance_bound == pytest.approx(1.0, abs=1e-6)

    def test_maximally_mixed(self):
        assert estimate_e(maximally_mixed(3)).e_lower <= 1e-10

    def test_zeros_closed_form(self):
        for n in (2, 4, 8):
            report = estimate_e(zeros_state(n))
            assert report.e_lower == pytest.approx(1 / np.sqrt(n), abs=1e-4)

    def test_matches_dense_grid(self):
        rng = np.random.default_rng(21)
        for n in (2, 3, 4):
            rho = random_density_state(n, 2, rng, rank=2)
            report = estimate_e(rho)
            grid_best = max(
                commutator_trace_norm(
                    averaging_matrix(SiteObservable.from_bloch(v), n), rho
                )
                for v in fibonacci_sphere(10_000)
            )
            assert abs(report.e_lower - grid_best) <= 1e-3

    def test_pruned_search_reaches_every_candidate(self):
        # The ceiling-ordered search may skip candidates, but never one that
        # would have beaten the value it reports.
        rng = np.random.default_rng(30)
        for n in (2, 3, 4):
            for rank in (2, None):
                rho = random_density_state(n, 2, rng, rank=rank)
                _, v_m = max_variance_qubit(rho)
                candidates = list(fibonacci_sphere(144)) + [v_m, -v_m]
                exhaustive = max(
                    commutator_trace_norm(averaging_matrix(SiteObservable.from_bloch(v), n), rho)
                    for v in candidates
                )
                assert estimate_e(rho).e_lower >= exhaustive - 1e-12

    def test_pure_state_certified_without_ascent(self):
        rng = np.random.default_rng(31)
        net = random_shallow(8, 2, rng)
        rho = to_density(apply(net, product_state([KET0] * 8)))
        report = estimate_e(rho)
        value, _ = max_variance_qubit(rho)
        assert report.e_lower == pytest.approx(2 * np.sqrt(value), abs=1e-10)
        assert report.iterations == 0

    @pytest.mark.parametrize("l", [2, 3])
    def test_pure_state_stays_a_vector(self, monkeypatch, l):
        psi = random_pure_state(3, l, np.random.default_rng(27))
        rho = to_density(psi)
        dense = estimate_e(rho, restarts=2, seed=1)

        def forbidden(self):
            raise AssertionError("PureState.density called")

        monkeypatch.setattr(states.PureState, "density", forbidden)
        report = estimate_e(psi, restarts=2, seed=1)
        abar = averaging_matrix(report.maximizer, 3)
        assert commutator_trace_norm(abar, rho) == pytest.approx(report.e_lower, abs=1e-12)
        if l == 2:
            assert report.e_lower == pytest.approx(dense.e_lower, abs=1e-12)
            assert report.variance_bound == pytest.approx(dense.variance_bound, abs=1e-12)
            assert report.iterations == 0
        else:
            assert report.variance_bound is None

    def test_deterministic(self):
        rng = np.random.default_rng(22)
        rho = random_density_state(3, 2, rng)
        a = estimate_e(rho, seed=5)
        b = estimate_e(rho, seed=5)
        assert a.e_lower == b.e_lower
        assert np.array_equal(a.maximizer.matrix, b.maximizer.matrix)

    def test_achieved_value_is_certified(self):
        # Full-rank qubits, full-rank qutrits (2r > d on the range factor) and
        # rank 3 on 4 qutrits (2r < d).
        rng = np.random.default_rng(23)
        for n, l, rank in ((3, 2, None), (2, 3, None), (4, 3, 3)):
            rho = random_density_state(n, l, rng, rank=rank)
            report = estimate_e(rho)
            abar = averaging_matrix(report.maximizer, n)
            assert commutator_trace_norm(abar, rho) == pytest.approx(report.e_lower, abs=1e-12)
            assert report.e_lower <= 2 * np.sqrt(variance(abar, rho)) + 1e-12

    def test_qutrit_path(self):
        rng = np.random.default_rng(24)
        sep = states.random_product_input(2, 3, rng)
        report = estimate_e(mix(sep), restarts=4, seed=1)
        assert report.variance_bound is None
        assert 0 < report.e_lower <= uncertainty_bound(2, 0) + 1e-8

    def test_permutation_invariance(self):
        rng = np.random.default_rng(25)
        rho = random_density_state(3, 2, rng)
        # relabel sites by a cyclic permutation
        perm = np.zeros((8, 8))
        for idx in range(8):
            bits = [(idx >> (2 - s)) & 1 for s in range(3)]
            rolled = bits[1:] + bits[:1]
            jdx = rolled[0] * 4 + rolled[1] * 2 + rolled[2]
            perm[jdx, idx] = 1
        permuted = states.DensityState(3, 2, perm @ rho.matrix @ perm.T)
        a = estimate_e(rho).e_lower
        b = estimate_e(permuted).e_lower
        assert a == pytest.approx(b, abs=1e-6)


class TestLockstepAscent:
    """The lockstep ascent on 2r blocks takes the steps the sequential ascent
    on the k x k stack takes, start by start."""

    @pytest.mark.parametrize("n, l, rank", [
        (4, 2, 1), (4, 2, 3), (4, 2, None), (3, 3, 1), (3, 3, 3), (2, 3, None), (5, 3, "bench"),
        (3, 2, 5), (3, 2, 7), (4, 2, 9), (2, 3, 6), (2, 3, 8), (3, 3, 15),
    ])
    def test_matches_the_sequential_search(self, n, l, rank):
        if rank == "bench":
            rho = bench_qudit_state(1)
        else:
            rho = random_density_state(n, l, np.random.default_rng(80 + 10 * l + (rank or 0)), rank=rank)
        report = estimate_e(rho)
        site, iterations = _sequential_search(rho)
        assert report.iterations == iterations
        if rank != 1 or l > 2:  # a rank-1 qubit state is certified by the grid
            assert iterations > 0
        assert np.max(np.abs(report.maximizer.matrix - site.matrix)) <= 1e-12
        assert report.e_lower == pytest.approx(commutator_trace_norm(site, rho), abs=1e-12)

    class LineBlocks:
        """Stands in for ``_RangeBlocks`` on the site matrices
        ``[[a, a u], [a u, -a]]``, a > 0: the subgradient is ``a sigma_x``, so
        a step t moves u to u + t, and f is a chosen function of u.  Records
        the u of every site matrix it evaluates."""

        def __init__(self, f):
            self.f, self.tried = f, []

        def evaluate(self, c):
            u = c[:, 0, 1].real / c[:, 0, 0].real
            self.tried.extend(u)
            return np.array([self.f(x) for x in u]), c.copy(), np.empty((len(c), 0))

        def gradient(self, block, q):
            return block[:, 0, 0].real[:, None, None] * SIGMA_X

    def ascend_line(self, f, max_iter):
        blocks = self.LineBlocks(f)
        c, values, iterations = uncertainty._ascend(Z_HALF.matrix[None], blocks, max_iter, 0.0)
        return c[0, 0, 1].real / c[0, 0, 0].real, values[0], iterations[0], blocks.tried

    def test_each_iteration_backtracks_from_step_one(self):
        # Step 1 overshoots into the dip and step 1/2 is taken; the next
        # iteration starts again from step 1, which clears the dip.
        u, value, iterations, tried = self.ascend_line(lambda u: -1.0 if 0.7 <= u <= 1.2 else u, 2)
        assert tried == pytest.approx([0.0, 1.0, 0.5, 1.5], abs=1e-12)
        assert u == pytest.approx(1.5, abs=1e-12)
        assert value == tried[-1] and iterations == 2

    @pytest.mark.parametrize("slope, taken", [(0.0, False), (5e-16, False), (2e-15, True)])
    def test_a_candidate_must_gain_the_margin(self, slope, taken):
        # f = slope * u, so step 1 gains the slope; a gain of at most 1e-15
        # is refused, the step halves away and the start stays where it was.
        u, value, iterations, tried = self.ascend_line(lambda u: slope * u, 1)
        assert iterations == 1
        assert tried[1] == pytest.approx(1.0, abs=1e-12)
        if taken:
            assert u == pytest.approx(1.0, abs=1e-12)
            assert value == slope * tried[1] and len(tried) == 2
        else:
            assert u == 0.0 and value == 0.0
            assert len(tried) == 1 + 24  # steps 1, 1/2, ..., 2^-23: every step above 1e-7

    @pytest.mark.parametrize("n, l, rank", [(3, 2, 2), (2, 3, None), (3, 3, 2)])
    def test_no_iterations_at_max_iter_zero(self, n, l, rank):
        rho = random_density_state(n, l, np.random.default_rng(90 + l), rank=rank)
        report = estimate_e(rho, max_iter=0, restarts=3)
        assert report.iterations == 0
        if l > 2:
            rng = np.random.default_rng(0)
            starts = [random_site_observable(l, rng) for _ in range(3)]
            values = [commutator_trace_norm(c, rho) for c in starts]
            assert np.array_equal(report.maximizer.matrix, starts[int(np.argmax(values))].matrix)


class TestHypersurface:
    def test_identity_witness_gives_zero(self):
        rho = to_density(cat_state(3))
        h = Hypersurface(AveragingObservable(Z_HALF, 3), np.eye(8, dtype=complex), 0.0)
        assert hypersurface_value(rho, h) == pytest.approx(0.0, abs=1e-12)

    def test_duality_attainment_on_cat(self):
        rho = to_density(cat_state(5))
        abar = AveragingObservable(Z_HALF, 5)
        value, b = commutator_witness(abar, rho)
        h = Hypersurface(abar, b, 1.0)
        assert hypersurface_value(rho, h) == pytest.approx(value, abs=1e-8)
        assert value == pytest.approx(1.0, abs=1e-8)

    def test_separable_states_stay_below_baseline(self):
        rng = np.random.default_rng(26)
        n = 6
        for _ in range(10):
            rho = mix(random_product_input(n, 2, rng))
            abar = AveragingObservable(Z_HALF, n)
            _, b = commutator_witness(abar, rho)
            assert abs(commutator_expectation(rho, abar, b)) <= np.sqrt(2 / n) + 1e-8

    def test_norm_validation(self):
        with pytest.raises(ValueError):
            Hypersurface(AveragingObservable(Z_HALF, 2), 3.0 * np.eye(4, dtype=complex), 0.0)


class TestIdentities:
    def test_pure_state_identity(self):
        rng = np.random.default_rng(27)
        for _ in range(20):
            n = int(rng.integers(1, 4))
            psi = random_pure_state(n, 2, rng)
            c = uncertainty.random_site_observable(2, rng)
            abar = averaging_matrix(c, n)
            rho = to_density(psi)
            lhs = commutator_trace_norm(abar, rho)
            rhs = 2 * np.sqrt(variance(abar, rho))
            assert lhs == pytest.approx(rhs, abs=1e-8)

    def test_mixed_state_inequality(self):
        rng = np.random.default_rng(28)
        for _ in range(20):
            n = int(rng.integers(1, 4))
            rho = random_density_state(n, 2, rng)
            c = uncertainty.random_site_observable(2, rng)
            abar = averaging_matrix(c, n)
            assert commutator_trace_norm(abar, rho) <= 2 * np.sqrt(variance(abar, rho)) + 1e-8

    def test_convexity_triangle(self):
        rng = np.random.default_rng(29)
        parts = [random_density_state(2, 2, rng) for _ in range(3)]
        weights = [0.5, 0.3, 0.2]
        mixture = states.DensityState(
            2, 2, sum(w * p.matrix for w, p in zip(weights, parts))
        )
        abar = averaging_matrix(estimate_e(mixture).maximizer, 2)
        lhs = commutator_trace_norm(abar, mixture)
        rhs = sum(w * commutator_trace_norm(abar, p) for w, p in zip(weights, parts))
        assert lhs <= rhs + 1e-10


class TestBoundCheck:
    def test_identity_network_baseline(self):
        sep = SeparableInput(((1.0, (np.outer(KET0, KET0),) * 8),))
        check = check_uncertainty_bound(identity_network(8), sep)
        assert check.e_lower == pytest.approx(1 / np.sqrt(8), abs=1e-4)
        assert check.bound == pytest.approx(0.5)
        assert check.passed

    def test_ladder_with_prologue(self):
        sep = SeparableInput(((1.0, (np.outer(KET0, KET0),) * 8),))
        check = check_uncertainty_bound(cat_ladder(3, include_prologue=True), sep)
        assert check.e_lower == pytest.approx(1.0, abs=1e-6)
        assert check.bound == pytest.approx(np.sqrt(2 / 8) * 8)
        assert check.passed


class TestCeilingFallThrough:
    """Rows the variance ceiling cannot settle go to the search."""

    @pytest.fixture()
    def search_calls(self, monkeypatch):
        calls = []

        def spy(rho, **options):
            calls.append(rho)
            return estimate_e(rho, **options)

        monkeypatch.setattr(uncertainty, "estimate_e", spy)
        return calls

    def test_unsettled_row_runs_the_search(self, monkeypatch, search_calls):
        monkeypatch.setattr(uncertainty, "uncertainty_bound", lambda n, k: 0.0)
        rng = np.random.default_rng(17)
        net = random_shallow(4, 2, rng, noise=0.3)
        check = check_uncertainty_bound(net, random_product_input(4, 2, rng))
        assert len(search_calls) == 1
        assert check.report is not None
        assert check.e_lower == check.report.e_lower > 0
        assert check.e_upper >= check.e_lower
        assert not check.passed

    def test_settled_row_skips_the_search(self, search_calls):
        rng = np.random.default_rng(17)
        net = random_shallow(4, 2, rng, noise=0.3)
        check = check_uncertainty_bound(net, random_product_input(4, 2, rng))
        assert search_calls == []
        assert check.report is None
        assert check.passed and check.e_lower <= check.e_upper <= check.bound

    def test_qutrits_take_the_search(self, search_calls):
        rng = np.random.default_rng(19)
        net = random_shallow(3, 1, rng, l=3)
        check = check_uncertainty_bound(net, random_product_input(3, 3, rng))
        assert len(search_calls) == 1
        assert check.report is not None
        assert check.e_upper is None
        assert check.passed
