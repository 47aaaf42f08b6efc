import copy

import numpy as np
import pytest

from shallownet import linalg, measurement, network, states
from shallownet.states import (
    DensityState,
    PureState,
    SeparableInput,
    cat_state,
    fidelity,
    mix,
    product_state,
    state_from_json,
    state_to_json,
    to_density,
)

KET0 = np.array([1, 0], dtype=complex)
KET1 = np.array([0, 1], dtype=complex)
PLUS = np.array([1, 1], dtype=complex) / np.sqrt(2)


def spectrum_matrix(lowest: float) -> np.ndarray:
    """Hermitian, unit-trace 4 x 4 matrix with eigenvalues (0.5 - lowest, 0.3, 0.2, lowest)."""
    rng = np.random.default_rng(21)
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    m = q @ np.diag([0.5 - lowest, 0.3, 0.2, lowest]) @ q.conj().T
    return (m + m.conj().T) / 2


class TestProductState:
    def test_all_zeros(self):
        psi = product_state([KET0] * 4)
        assert psi.amplitudes[0] == 1
        assert np.count_nonzero(psi.amplitudes) == 1

    def test_plus_zero_expansion(self):
        psi = product_state([PLUS, KET0])
        assert np.allclose(psi.amplitudes, [1 / np.sqrt(2), 0, 1 / np.sqrt(2), 0])

    def test_purity_one(self):
        psi = product_state([PLUS, KET1, KET0])
        assert to_density(psi).purity() == pytest.approx(1.0, abs=1e-10)

    def test_rejects_unnormalized_factor(self):
        with pytest.raises(ValueError):
            product_state([np.array([1, 1], dtype=complex)])


class TestCatState:
    def test_two_qubits(self):
        psi = cat_state(2)
        assert np.allclose(psi.amplitudes, [1 / np.sqrt(2), 0, 0, 1 / np.sqrt(2)])

    def test_degenerate_single_qubit(self):
        assert np.allclose(cat_state(1).amplitudes, PLUS)

    def test_overlap_with_zeros(self):
        for n in (1, 3, 6):
            zeros = product_state([KET0] * n)
            assert abs(np.vdot(cat_state(n).amplitudes, zeros.amplitudes)) == pytest.approx(
                1 / np.sqrt(2)
            )

    def test_rejects_zero_sites(self):
        with pytest.raises(ValueError):
            cat_state(0)


class TestMix:
    def test_single_product_term(self):
        proj0 = np.outer(KET0, KET0.conj())
        rho = mix(SeparableInput(((1.0, (proj0, proj0, proj0)),)))
        expect = to_density(product_state([KET0] * 3)).matrix
        assert np.allclose(rho.matrix, expect)

    def test_macroscopic_mixture(self):
        proj0 = np.outer(KET0, KET0.conj())
        proj1 = np.outer(KET1, KET1.conj())
        n = 3
        rho = mix(SeparableInput(((0.5, (proj0,) * n), (0.5, (proj1,) * n))))
        expect = np.zeros((8, 8), dtype=complex)
        expect[0, 0] = expect[7, 7] = 0.5
        assert np.allclose(rho.matrix, expect)

    def test_single_site_coin_is_maximally_mixed(self):
        proj0 = np.outer(KET0, KET0.conj())
        proj1 = np.outer(KET1, KET1.conj())
        rho = mix(SeparableInput(((0.5, (proj0,)), (0.5, (proj1,)))))
        assert np.allclose(rho.matrix, np.eye(2) / 2)

    def test_output_invariants(self):
        rng = np.random.default_rng(7)
        sep = states.random_separable_input(3, 2, rng, terms=4)
        rho = mix(sep)
        assert np.trace(rho.matrix) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.eigvalsh(rho.matrix)[0] >= -1e-10


class TestTrustedProducers:
    """States the program derives skip only the positivity check; the
    public constructor re-validates every one of them in full."""

    def test_outputs_pass_the_public_constructor(self):
        rng = np.random.default_rng(17)
        rho = mix(states.random_separable_input(3, 2, rng, terms=3))
        out = network.apply(network.random_shallow(3, 2, rng, noise=0.2), rho)
        [post, *_] = measurement.strong_measure_exact(out, measurement.spectral_decompose(
            linalg.tensor(*([linalg.SIGMA_X] * 3))))
        weak = measurement.weak_measure_product(out, [linalg.SIGMA_Z] * 3, rng)
        psi = states.random_pure_state(3, 2, rng)
        for state in (rho, out, post.post_state, weak.post_state, psi.density()):
            assert isinstance(state, DensityState)
            again = DensityState(state.n, state.l, state.matrix)
            assert np.array_equal(again.matrix, state.matrix)

    def test_no_eigensolve_on_the_trusted_path(self, monkeypatch):
        rng = np.random.default_rng(18)
        sep = states.random_separable_input(2, 2, rng)
        net = network.random_shallow(2, 1, rng, noise=0.1)

        def forbidden(*args, **kwargs):
            raise AssertionError("a trusted state ran eigvalsh")

        monkeypatch.setattr(np.linalg, "eigvalsh", forbidden)
        network.apply(net, mix(sep))
        states.random_pure_state(2, 2, rng).density()

    @pytest.mark.parametrize("matrix, message", [
        (np.diag([0.6, 0.6]), "trace"),
        (np.array([[0.5, 0.1], [0.0, 0.5]]), "not Hermitian"),
        (np.eye(4) / 4, "matrix dimension 4, expected 2"),
    ])
    def test_trusted_path_keeps_the_cheap_checks(self, matrix, message):
        with pytest.raises(ValueError, match=message):
            DensityState._trusted(1, 2, matrix)


class TestPureProduct:
    def test_rank_one_factors_give_the_product_vector(self):
        rng = np.random.default_rng(8)
        sep = states.random_product_input(4, 3, rng)
        psi = sep.pure_product()
        assert (psi.n, psi.l) == (4, 3)
        assert np.allclose(psi.density().matrix, mix(sep).matrix, atol=1e-14)

    def test_mixtures_and_mixed_factors_give_none(self):
        proj0 = np.outer(KET0, KET0.conj())
        proj1 = np.outer(KET1, KET1.conj())
        assert SeparableInput(((0.5, (proj0, proj0)), (0.5, (proj1, proj1)))).pure_product() is None
        assert SeparableInput(((1.0, (proj0, np.eye(2) / 2)),)).pure_product() is None


class TestFidelity:
    def test_self(self):
        assert fidelity(cat_state(4), cat_state(4)) == pytest.approx(1.0)

    def test_cat_vs_zeros(self):
        assert fidelity(cat_state(4), product_state([KET0] * 4)) == pytest.approx(0.5)

    def test_global_phase_invariance(self):
        psi = cat_state(3)
        rotated = PureState(3, 2, np.exp(0.7j) * psi.amplitudes)
        assert fidelity(psi, rotated) == pytest.approx(1.0)

    def test_density_vs_pure(self):
        rho = to_density(product_state([KET0] * 2))
        assert fidelity(rho, cat_state(2)) == pytest.approx(0.5)


class TestValidation:
    def test_bad_norm_rejected(self):
        with pytest.raises(ValueError):
            PureState(1, 2, np.array([1.0, 1.0]))

    def test_bad_trace_rejected(self):
        with pytest.raises(ValueError):
            DensityState(1, 2, np.eye(2))

    def test_non_hermitian_rejected(self):
        m = np.array([[0.5, 1e-3], [0, 0.5]])
        with pytest.raises(ValueError):
            DensityState(1, 2, m)

    def test_negative_weight_rejected(self):
        proj0 = np.outer(KET0, KET0.conj())
        with pytest.raises(ValueError):
            SeparableInput(((-0.5, (proj0,)), (1.5, (proj0,))))

    def test_weights_must_sum_to_one(self):
        proj0 = np.outer(KET0, KET0.conj())
        with pytest.raises(ValueError):
            SeparableInput(((0.6, (proj0,)), (0.6, (proj0,))))

    def test_nan_norm_rejected(self):
        with pytest.raises(ValueError, match="norm nan"):
            PureState(1, 2, np.array([np.nan, 1.0]))

    @pytest.mark.parametrize("weight, message", [(np.nan, "weight nan"), (np.inf, "weights sum to inf")])
    def test_non_finite_weight_rejected(self, weight, message):
        proj0 = np.outer(KET0, KET0.conj())
        with pytest.raises(ValueError, match=message):
            SeparableInput(((weight, (proj0,)),))

    def test_eigenvalue_below_floor_rejected(self):
        with pytest.raises(ValueError, match="minimum eigenvalue") as err:
            DensityState(2, 2, spectrum_matrix(-1e-9))
        assert float(str(err.value).split()[2]) == pytest.approx(-1e-9, rel=1e-5)

    def test_eigenvalue_within_floor_accepted(self):
        rho = DensityState(2, 2, spectrum_matrix(-1e-11))
        assert np.linalg.eigvalsh(rho.matrix)[0] == pytest.approx(-1e-11, rel=1e-3)

    def test_accepting_path_runs_no_eigensolve(self, monkeypatch):
        rng = np.random.default_rng(57)
        cases = [(n, l, states.random_density_state(n, l, rng, rank=rank).matrix)
                 for n, l, rank in ((1, 2, None), (3, 2, 2), (2, 3, None), (4, 3, 3))]
        cases.append((2, 2, spectrum_matrix(0.0)))  # singular, on the positive side

        def forbidden(*args, **kwargs):
            raise AssertionError("an accepted state ran an eigensolve")

        monkeypatch.setattr(np.linalg, "eigvalsh", forbidden)
        monkeypatch.setattr(np.linalg, "eigh", forbidden)
        for n, l, m in cases:
            assert np.array_equal(DensityState(n, l, m).matrix, m)

    def test_floor_decided_as_eigvalsh_decides(self):
        # The smallest eigenvalue is planted on either side of the floor, on
        # random states of random rank; Cholesky must agree with eigvalsh.
        rng = np.random.default_rng(58)
        floor = states.EIGENVALUE_FLOOR
        for n, l in ((1, 2), (2, 2), (3, 2), (4, 2), (1, 3), (2, 3), (3, 3), (4, 3)):
            dim = l**n
            for factor in (0.5, 0.9, 1.1, 2.0):
                rank = int(rng.integers(1, dim))
                g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
                vec = np.linalg.qr(g)[0]
                eig = np.zeros(dim)
                eig[0] = factor * floor
                eig[1:rank + 1] = rng.dirichlet(np.ones(rank)) * (1.0 - eig[0])
                m = (vec * eig) @ vec.conj().T
                m = (m + m.conj().T) / 2
                lo = np.linalg.eigvalsh(m)[0]
                if lo >= floor:
                    assert np.array_equal(DensityState(n, l, m).matrix, m)
                else:
                    with pytest.raises(ValueError, match=f"minimum eigenvalue {lo} below {floor}"):
                        DensityState(n, l, m)
                assert (lo >= floor) == (factor < 1)

    def test_separable_input_refuses_a_non_positive_factor(self):
        factor = np.array([[1.05, 0.2j], [-0.2j, -0.05]])
        lo = np.linalg.eigvalsh(factor)[0]
        with pytest.raises(ValueError) as err:
            SeparableInput(((1.0, (np.outer(KET0, KET0.conj()), factor)),))
        assert str(err.value) == f"minimum eigenvalue {lo} below {states.EIGENVALUE_FLOOR}"

    def test_states_are_immutable(self):
        psi = cat_state(2)
        with pytest.raises(ValueError):
            psi.amplitudes[0] = 0


class TestJson:
    def test_pure_round_trip(self):
        rng = np.random.default_rng(8)
        psi = states.random_pure_state(3, 2, rng)
        back = state_from_json(state_to_json(psi))
        assert isinstance(back, PureState)
        assert np.array_equal(back.amplitudes, psi.amplitudes)

    def test_density_round_trip(self):
        rng = np.random.default_rng(9)
        rho = states.random_density_state(2, 3, rng)
        back = state_from_json(state_to_json(rho))
        assert isinstance(back, DensityState)
        assert (back.n, back.l) == (2, 3)
        assert np.array_equal(back.matrix, rho.matrix)

    @pytest.mark.parametrize("key", ["n", "l"])
    def test_bool_count_rejected(self, key):
        doc = {"n": 1, "l": 2, "kind": "pure", "data": [[1, 0], [0, 0]], key: True}
        with pytest.raises(ValueError, match=f"field '{key}'"):
            states.state_from_dict(doc)

    @pytest.mark.parametrize("entry", [[np.nan, 0.0], [0.0, np.inf]])
    def test_non_finite_data_rejected(self, entry):
        doc = {"n": 1, "l": 2, "kind": "pure", "data": [[1.0, 0.0], entry]}
        with pytest.raises(ValueError, match="field 'data'"):
            states.state_from_dict(doc)

    @pytest.mark.parametrize("kind, data", [
        ("pure", [[True, False], [False, False]]),
        ("density", [[1.0, 0.0], [0, 0], [0, 0], [0.0, False]]),
    ])
    def test_bool_data_rejected(self, kind, data):
        with pytest.raises(ValueError, match="field 'data'"):
            states.state_from_dict({"n": 1, "l": 2, "kind": kind, "data": data})

    def test_state_from_dict_leaves_the_document(self):
        rho = states.random_density_state(2, 2, np.random.default_rng(10))
        doc = states.state_to_dict(rho)
        before = copy.deepcopy(doc)
        back = states.state_from_dict(doc)
        assert doc == before
        assert np.array_equal(back.matrix, rho.matrix)
        assert np.array_equal(state_from_json(state_to_json(rho)).matrix, rho.matrix)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            states.state_from_dict({"n": 1, "l": 2, "kind": "wibble", "data": [[1, 0], [0, 0]]})
