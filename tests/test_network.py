import numpy as np
import pytest

from shallownet import linalg, network, states
from shallownet.linalg import I2, SIGMA_X, SIGMA_Z, embed, tensor
from shallownet.network import (
    CNOT,
    HADAMARD,
    LocalChannel,
    Network,
    Step,
    apply,
    apply_dual,
    apply_pure,
    canonical_depth,
    cat_ladder,
    contract_local_steps,
    depolarizing_kraus,
    identity_network,
    invert_unitary,
    random_shallow,
)
from shallownet.states import DensityState, cat_state, fidelity, product_state, to_density

KET0 = np.array([1, 0], dtype=complex)


def zeros_density(n):
    return to_density(product_state([KET0] * n))


class TestChannelValidation:
    def test_non_trace_preserving_rejected(self):
        with pytest.raises(ValueError):
            LocalChannel((1,), (0.5 * SIGMA_X,))

    def test_unitary_flag(self):
        assert LocalChannel((1,), (HADAMARD,)).unitary_flag
        assert not LocalChannel((1,), tuple(depolarizing_kraus(0.3, 2))).unitary_flag

    def test_support_arity(self):
        with pytest.raises(ValueError):
            LocalChannel((1, 2, 3), (np.eye(8),))
        with pytest.raises(ValueError):
            LocalChannel((1, 1), (np.eye(4),))

    def test_step_disjointness(self):
        a = LocalChannel((1, 2), (CNOT,))
        b = LocalChannel((2, 3), (CNOT,))
        with pytest.raises(ValueError):
            Step((a, b))

    def test_network_range_check(self):
        ch = LocalChannel((1, 5), (CNOT,))
        with pytest.raises(ValueError):
            Network(4, 2, (Step((ch,)),))


class TestApply:
    def test_empty_network_is_identity(self):
        rho = zeros_density(3)
        out = apply(identity_network(3), rho)
        assert np.array_equal(out.matrix, rho.matrix)

    def test_ladder_prepares_cat(self):
        net = cat_ladder(3, include_prologue=True)
        out = apply(net, zeros_density(8))
        assert fidelity(out, cat_state(8)) == pytest.approx(1.0, abs=1e-10)

    def test_full_depolarizing_step_gives_maximally_mixed(self):
        n = 3
        step = Step(tuple(
            LocalChannel((i,), tuple(depolarizing_kraus(1.0, 2))) for i in range(1, n + 1)
        ))
        out = apply(Network(n, 2, (step,)), zeros_density(n))
        assert np.allclose(out.matrix, np.eye(2**n) / 2**n, atol=1e-12)

    def test_trace_preserved_on_random_networks(self):
        rng = np.random.default_rng(10)
        for seed in range(5):
            net = random_shallow(4, 2, seed, noise=0.1)
            rho = states.random_density_state(4, 2, rng)
            out = apply(net, rho)
            assert np.trace(out.matrix) == pytest.approx(1.0, abs=1e-10)

    def test_channel_order_within_step_is_irrelevant(self):
        rng = np.random.default_rng(11)
        net = random_shallow(6, 1, 3, noise=0.2)
        step = net.steps[0]
        shuffled = Network(6, 2, (Step(tuple(reversed(step.channels))),))
        rho = states.random_density_state(6, 2, rng, rank=2)
        a = apply(net, rho).matrix
        b = apply(shuffled, rho).matrix
        assert np.allclose(a, b, atol=1e-12)

    def test_pure_fast_path_matches_density_path(self):
        rng = np.random.default_rng(12)
        for seed in range(3):
            net = random_shallow(4, 2, seed)
            psi = states.random_pure_state(4, 2, rng)
            via_pure = apply_pure(net, psi).density()
            via_density = apply(net, psi.density())
            assert np.allclose(via_pure.matrix, via_density.matrix, atol=1e-10)

    def test_noisy_qutrit_network_matches_dense_kraus_sum(self):
        rng = np.random.default_rng(18)
        n, l = 4, 3
        net = random_shallow(n, 2, 5, noise=0.2, l=l)
        rho = states.random_density_state(n, l, rng)
        expect = rho.matrix
        for step in net.steps:
            for ch in step.channels:
                full = [embed(k, ch.support, n, l) for k in ch.kraus]
                expect = sum(kf @ expect @ kf.conj().T for kf in full)
        assert np.allclose(apply(net, rho).matrix, expect, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            apply(identity_network(3), zeros_density(2))


class TestSuperoperator:
    def test_cached_superoperator_is_the_kraus_sum(self):
        ch = random_shallow(2, 1, 4, noise=0.2).steps[0].channels[0]
        assert ch._superoperator is None
        s = ch.superoperator()
        assert np.allclose(s, sum(np.kron(k, k.conj()) for k in ch.kraus), atol=1e-15)
        assert ch.superoperator() is s
        assert not s.flags.writeable

    def test_noisy_network_builds_one_kraus_family(self, monkeypatch):
        calls = []

        def counted(p, dim):
            calls.append((p, dim))
            return depolarizing_kraus(p, dim)

        monkeypatch.setattr(network, "depolarizing_kraus", counted)
        net = random_shallow(6, 3, 2, noise=0.1)
        assert calls == [(0.1, 4)]
        assert sum(len(step.channels) for step in net.steps) == 9

    def test_pure_path_builds_no_superoperator(self):
        net = random_shallow(4, 2, 6)
        apply_pure(net, product_state([KET0] * 4))
        assert all(ch._superoperator is None for step in net.steps for ch in step.channels)

    @pytest.mark.parametrize("l", [2, 3])
    def test_noisy_channels_match_dense_kraus_sum(self, l):
        rng = np.random.default_rng(20 + l)
        n = 3
        one_site = LocalChannel((2,), tuple(k @ network.haar_unitary(l, rng)
                                            for k in depolarizing_kraus(0.3, l)))
        two_site = LocalChannel((3, 1), tuple(k @ network.haar_unitary(l * l, rng)
                                              for k in depolarizing_kraus(0.2, l * l)))
        net = Network(n, l, (Step((one_site,)), Step((two_site,)), Step((one_site,))))
        rho = states.random_density_state(n, l, rng)
        d = l**n
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        expect_rho, expect_a = rho.matrix, a
        for step in net.steps:
            for ch in step.channels:
                full = [embed(k, ch.support, n, l) for k in ch.kraus]
                expect_rho = sum(kf @ expect_rho @ kf.conj().T for kf in full)
        for step in reversed(net.steps):
            for ch in step.channels:
                full = [embed(k, ch.support, n, l) for k in ch.kraus]
                expect_a = sum(kf.conj().T @ expect_a @ kf for kf in full)
        assert np.max(np.abs(apply(net, rho).matrix - expect_rho)) <= 1e-12
        assert np.max(np.abs(apply_dual(net, a) - expect_a)) <= 1e-12


class TestApplyDual:
    def test_identity_network(self):
        a = embed(SIGMA_Z, [1], 3, 2)
        assert np.array_equal(apply_dual(identity_network(3), a), a)

    def test_duality_identity_random_triples(self):
        rng = np.random.default_rng(13)
        for l, trials in ((2, 100), (3, 10)):
            for trial in range(trials):
                n = int(rng.integers(2, 5))
                net = random_shallow(n, int(rng.integers(0, 3)), int(rng.integers(1 << 16)),
                                     noise=float(rng.choice([0.0, 0.15])), l=l)
                d = l**n
                a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
                rho = states.random_density_state(n, l, rng)
                lhs = np.trace(apply_dual(net, a) @ rho.matrix)
                rhs = np.trace(a @ apply(net, rho).matrix)
                assert abs(lhs - rhs) <= 1e-9

    def test_cnot_dual_of_z_on_target(self):
        # Oracle: direct 4x4 conjugation of the explicitly written CNOT.
        net = Network(2, 2, (Step((LocalChannel((1, 2), (CNOT,)),)),))
        got = apply_dual(net, embed(SIGMA_Z, [2], 2, 2))
        expect = CNOT.conj().T @ tensor(I2, SIGMA_Z) @ CNOT
        assert np.allclose(got, expect, atol=1e-12)
        assert np.allclose(got, tensor(SIGMA_Z, SIGMA_Z), atol=1e-12)

    def test_unital(self):
        for seed in range(5):
            net = random_shallow(4, 2, seed, noise=0.1)
            out = apply_dual(net, np.eye(16, dtype=complex))
            assert np.allclose(out, np.eye(16), atol=1e-10)

    def test_norm_decreasing(self):
        rng = np.random.default_rng(14)
        for seed in range(5):
            net = random_shallow(4, 2, seed, noise=0.1)
            a = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
            assert linalg.operator_norm(apply_dual(net, a)) <= linalg.operator_norm(a) + 1e-10


class TestCatLadder:
    def test_k1_single_cnot(self):
        net = cat_ladder(1)
        assert net.depth == 1
        assert len(net.steps[0].channels) == 1
        ch = net.steps[0].channels[0]
        assert ch.support == (1, 2)
        assert np.array_equal(ch.kraus[0], CNOT)

    def test_k3_from_plus_state(self):
        plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
        psi = product_state([plus] + [KET0] * 7)
        out = apply_pure(cat_ladder(3), psi)
        assert fidelity(out, cat_state(8)) == pytest.approx(1.0, abs=1e-10)

    def test_depth_equals_k(self):
        for k in (1, 2, 3, 4):
            assert cat_ladder(k).depth == k

    def test_step_supports_disjoint(self):
        net = cat_ladder(4)
        for step in net.steps:
            sites = [s for ch in step.channels for s in ch.support]
            assert len(sites) == len(set(sites))


class TestRandomShallow:
    def test_deterministic(self):
        a = random_shallow(6, 3, 123, noise=0.1)
        b = random_shallow(6, 3, 123, noise=0.1)
        for sa, sb in zip(a.steps, b.steps):
            for ca, cb in zip(sa.channels, sb.channels):
                assert ca.support == cb.support
                for ka, kb in zip(ca.kraus, cb.kraus):
                    assert np.array_equal(ka, kb)

    def test_unitary_pool_yields_unitary_channels(self):
        net = random_shallow(6, 2, 5, gate_pool=("haar", "CNOT"))
        assert net.is_unitary()

    def test_maximal_pairing_bound(self):
        net = random_shallow(6, 2, 9)
        for step in net.steps:
            assert len(step.channels) <= 3
            assert all(len(ch.support) == 2 for ch in step.channels)

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError):
            random_shallow(4, 1, 0, gate_pool=())


class TestCanonicalDepth:
    def test_bilocal_network_unchanged(self):
        assert canonical_depth(cat_ladder(3)) == 3

    def test_trailing_local_step_merges(self):
        bilocal = Step((LocalChannel((1, 2), (CNOT,)),))
        local = Step((
            LocalChannel((1,), (HADAMARD,)),
            LocalChannel((2,), (SIGMA_X,)),
        ))
        net = Network(2, 2, (bilocal, local))
        assert canonical_depth(net) == 1

    def test_local_only_network_contracts_to_one(self):
        rng = np.random.default_rng(15)
        steps = []
        for _ in range(4):
            site = int(rng.integers(1, 4))
            steps.append(Step((LocalChannel((site,), (network.haar_unitary(2, rng),)),)))
        net = Network(3, 2, tuple(steps))
        assert canonical_depth(net) == 1
        contracted = contract_local_steps(net)
        rho = states.random_density_state(3, 2, rng)
        assert np.allclose(apply(net, rho).matrix, apply(contracted, rho).matrix, atol=1e-9)

    def test_contraction_preserves_action_with_noise(self):
        rng = np.random.default_rng(16)
        steps = (
            Step((LocalChannel((1,), tuple(depolarizing_kraus(0.3, 2))),)),
            Step((LocalChannel((1, 2), (CNOT,)), LocalChannel((3,), (HADAMARD,)))),
            Step((LocalChannel((2,), tuple(depolarizing_kraus(0.5, 2))),
                  LocalChannel((3,), (SIGMA_X,)))),
        )
        net = Network(3, 2, steps)
        contracted = contract_local_steps(net)
        assert contracted.depth == 1
        rho = states.random_density_state(3, 2, rng)
        assert np.allclose(apply(net, rho).matrix, apply(contracted, rho).matrix, atol=1e-9)

    def test_never_exceeds_raw_depth(self):
        for seed in range(5):
            net = random_shallow(5, 3, seed)
            assert canonical_depth(net) <= net.depth


class TestInvert:
    def test_round_trip(self):
        rng = np.random.default_rng(17)
        net = random_shallow(4, 3, 21)
        rho = states.random_density_state(4, 2, rng)
        back = apply(invert_unitary(net), apply(net, rho))
        assert np.allclose(back.matrix, rho.matrix, atol=1e-10)

    def test_rejects_noisy_network(self):
        with pytest.raises(ValueError):
            invert_unitary(random_shallow(4, 1, 0, noise=0.2))
