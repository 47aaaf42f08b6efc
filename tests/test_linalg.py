import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shallownet import linalg
from shallownet.linalg import (
    I2,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    commutator,
    embed,
    operator_norm,
    tensor,
    trace_norm,
)


def random_matrix(rng, dim):
    return rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))


def random_hermitian(rng, dim):
    g = random_matrix(rng, dim)
    return (g + g.conj().T) / 2


def random_unitary(rng, dim):
    q, r = np.linalg.qr(random_matrix(rng, dim))
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestTensor:
    def test_sigma_x_on_first_factor(self):
        expect = np.zeros((4, 4), dtype=complex)
        expect[0, 2] = expect[1, 3] = expect[2, 0] = expect[3, 1] = 1
        assert np.array_equal(tensor(SIGMA_X, I2), expect)

    def test_identity_case(self):
        assert np.array_equal(tensor(I2, I2), np.eye(4))

    def test_diagonal_case(self):
        got = tensor(np.diag([1, 2]).astype(complex), np.diag([3, 4]).astype(complex))
        assert np.array_equal(got, np.diag([3, 4, 6, 8]).astype(complex))

    def test_associative(self):
        rng = np.random.default_rng(0)
        a, b, c = (random_matrix(rng, 2) for _ in range(3))
        left = tensor(tensor(a, b), c)
        right = tensor(a, tensor(b, c))
        # entries multiply in different orders, so agreement is up to one ulp
        assert np.allclose(left, right, rtol=1e-15, atol=0.0)


class TestEmbed:
    def test_single_site(self):
        assert np.allclose(embed(SIGMA_X, [1], 2, 2), tensor(SIGMA_X, I2))
        assert np.allclose(embed(SIGMA_X, [2], 2, 2), tensor(I2, SIGMA_X))

    def test_cnot_reversed_sites_matches_permutation_oracle(self):
        # Oracle: basis-index bookkeeping, independent of the embed code path.
        cnot = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
        expect = np.zeros((4, 4), dtype=complex)
        for s1 in range(2):
            for s2 in range(2):
                t1 = s1 ^ s2  # control on site 2 flips site 1
                expect[t1 * 2 + s2, s1 * 2 + s2] = 1
        assert np.allclose(embed(cnot, [2, 1], 2, 2), expect)

    def test_disjoint_embeds_commute(self):
        rng = np.random.default_rng(1)
        a = embed(random_matrix(rng, 2), [1], 3, 2)
        b = embed(random_matrix(rng, 2), [3], 3, 2)
        assert np.allclose(commutator(a, b), 0)

    def test_errors(self):
        with pytest.raises(ValueError):
            embed(SIGMA_X, [0], 2, 2)
        with pytest.raises(ValueError):
            embed(SIGMA_X, [3], 2, 2)
        with pytest.raises(ValueError):
            embed(np.eye(4), [1, 1], 2, 2)
        with pytest.raises(ValueError):
            embed(np.eye(3), [1], 2, 2)


class TestActLocal:
    @pytest.mark.parametrize("l", [2, 3])
    @pytest.mark.parametrize("sites", [[2], [1, 3], [3, 1]], ids=["one", "two", "two-reversed"])
    def test_matches_embed_oracle(self, l, sites):
        rng = np.random.default_rng(7)
        n, d = 3, l**3
        op = random_matrix(rng, l ** len(sites))
        dense = embed(op, sites, n, l)
        axes = [s - 1 for s in sites]
        v = rng.normal(size=d) + 1j * rng.normal(size=d)
        got = linalg.act_local(op, axes, v.reshape((l,) * n), l)
        assert np.allclose(got.reshape(d), dense @ v, atol=1e-12)
        # on the column axes of a matrix the operator acts transposed from the right
        x = random_matrix(rng, d)
        got = linalg.act_local(op, [n + a for a in axes], x.reshape((l,) * (2 * n)), l)
        assert np.allclose(got.reshape(d, d), x @ dense.T, atol=1e-12)


class TestOperatorNorm:
    def test_pauli(self):
        assert operator_norm(SIGMA_X) == pytest.approx(1.0)

    def test_diagonal(self):
        assert operator_norm(np.diag([3.0, -4.0])) == pytest.approx(4.0)

    def test_matches_power_iteration(self):
        rng = np.random.default_rng(2)
        a = random_hermitian(rng, 8)
        # Power-iteration oracle on a^2 (eigenvalues of a can be signed).
        v = rng.normal(size=8) + 1j * rng.normal(size=8)
        sq = a @ a
        for _ in range(3000):
            v = sq @ v
            v /= np.linalg.norm(v)
        estimate = np.sqrt(np.real(np.vdot(v, sq @ v)))
        assert operator_norm(a) == pytest.approx(estimate, abs=1e-8)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            operator_norm(np.ones((2, 3)))


class TestTraceNorm:
    def test_diagonal(self):
        assert trace_norm(np.diag([3.0, -4.0])) == pytest.approx(7.0)

    def test_rank_two_antisymmetric(self):
        a = np.zeros((2, 2), dtype=complex)
        a[0, 1], a[1, 0] = 1, -1
        assert trace_norm(a) == pytest.approx(2.0)

    def test_duality_oracle(self):
        rng = np.random.default_rng(3)
        a = random_matrix(rng, 8)
        tn = trace_norm(a)
        # Every unitary gives a lower bound |tr(a u)| <= ||a||_tr ...
        sampled = max(abs(np.trace(a @ random_unitary(rng, 8))) for _ in range(200))
        assert sampled <= tn + 1e-9
        # ... and the polar unitary (via an independent SVD) attains it.
        w, s, vh = np.linalg.svd(a)
        u_opt = (w @ vh).conj().T
        assert abs(np.trace(a @ u_opt)) == pytest.approx(tn, abs=1e-6)
        assert tn == pytest.approx(np.sum(s), abs=1e-10)


class TestCommutator:
    def test_self_commutation(self):
        assert np.allclose(commutator(SIGMA_X, SIGMA_X), 0)

    def test_pauli_algebra(self):
        assert np.allclose(commutator(SIGMA_Z, SIGMA_X), 2j * SIGMA_Y)

    def test_identity_commutes(self):
        rng = np.random.default_rng(4)
        a = random_hermitian(rng, 8)
        assert np.allclose(commutator(a, np.eye(8)), 0)

    def test_anti_hermitian_for_hermitian_inputs(self):
        rng = np.random.default_rng(5)
        a, b = random_hermitian(rng, 6), random_hermitian(rng, 6)
        c = commutator(a, b)
        assert np.max(np.abs(c + c.conj().T)) <= 1e-12 * max(1.0, np.max(np.abs(c)))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            commutator(np.eye(2), np.eye(4))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_trace_norm_dominates_operator_norm(seed):
    rng = np.random.default_rng(seed)
    a = random_matrix(rng, 6)
    assert trace_norm(a) >= operator_norm(a) - 1e-10


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_trace_norm_unitary_invariance(seed):
    rng = np.random.default_rng(seed)
    a = random_matrix(rng, 6)
    u, v = random_unitary(rng, 6), random_unitary(rng, 6)
    assert trace_norm(u @ a @ v) == pytest.approx(trace_norm(a), abs=1e-9)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_operator_norm_multiplicative_under_tensor(seed):
    rng = np.random.default_rng(seed)
    a, b = random_matrix(rng, 3), random_matrix(rng, 4)
    assert operator_norm(tensor(a, b)) == pytest.approx(
        operator_norm(a) * operator_norm(b), abs=1e-9
    )


def test_hermiticity_is_rejected_not_repaired():
    bad = np.array([[0.0, 1e-6], [0.0, 0.0]])
    with pytest.raises(ValueError):
        linalg.require_hermitian(bad)


def test_reduce_to_site_and_partial_trace():
    rng = np.random.default_rng(6)
    single = random_hermitian(rng, 2)
    full = embed(single, [2], 3, 2)
    reduced = linalg.reduce_to_site(full, 2, 3, 2)
    assert np.allclose(reduced, single * 4)  # identity factors trace to 2 each
    assert linalg.acts_trivially_on(full, 1, 3, 2)
    assert linalg.acts_trivially_on(full, 3, 3, 2)
    assert not linalg.acts_trivially_on(full, 2, 3, 2)
