import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from shallownet import linalg, measurement, network, states, uncertainty
from shallownet.linalg import SIGMA_X, SIGMA_Z, embed, tensor
from shallownet.measurement import (
    MeasurementOutcome,
    ProductProjection,
    build_parity_conjugator,
    check_projection_commutator_bound,
    combined_value_distribution,
    commutator_opnorm,
    conjugated_strong_measure,
    conjugated_strong_measure_exact,
    is_product_projection,
    parity_measure_exact,
    parity_x_decomposition,
    projection_bound,
    random_product_projection,
    spectral_decompose,
    strong_measure,
    strong_measure_exact,
    weak_measure_product,
    weak_measure_product_exact,
    weak_measure_shots,
)
from shallownet.network import apply_dual, identity_network, random_shallow
from shallownet.states import (
    DensityState,
    PureState,
    cat_state,
    fidelity,
    mix,
    product_state,
    to_density,
)
from shallownet.sweeps import RunConfig, projection_bound_sweep
from shallownet.uncertainty import SiteObservable, averaging_matrix, estimate_e

KET0 = np.array([1, 0], dtype=complex)
KET1 = np.array([0, 1], dtype=complex)
PLUS = np.array([1, 1], dtype=complex) / np.sqrt(2)


def zeros(n):
    return product_state([KET0] * n)


def cat_pm(n, sign):
    amps = np.zeros(2**n, dtype=complex)
    amps[0] = 1 / np.sqrt(2)
    amps[-1] = sign / np.sqrt(2)
    return PureState(n, 2, amps)


class TestSpectralDecompose:
    def test_sigma_z(self):
        dec = spectral_decompose(SIGMA_Z)
        assert dec.eigenvalues == (-1.0, 1.0)
        assert np.allclose(dec.projectors[1], np.outer(KET0, KET0))
        assert np.allclose(dec.projectors[0], np.outer(KET1, KET1))

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_x_parity_two_eigenspaces(self, n):
        parity = tensor(*([SIGMA_X] * n))
        dec = spectral_decompose(parity)
        assert dec.eigenvalues == (-1.0, 1.0)
        for p, sign in zip(dec.projectors, (-1, 1)):
            assert np.trace(p).real == pytest.approx(2 ** (n - 1), abs=1e-8)
            assert np.allclose(p, (np.eye(2**n) + sign * parity) / 2, atol=1e-8)

    def test_identity(self):
        dec = spectral_decompose(np.eye(4, dtype=complex))
        assert dec.eigenvalues == (1.0,)
        assert np.allclose(dec.projectors[0], np.eye(4))

    def test_reconstruction(self):
        rng = np.random.default_rng(30)
        g = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        a = (g + g.conj().T) / 2
        dec = spectral_decompose(a)
        assert np.allclose(dec.operator(), a, atol=1e-8)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            spectral_decompose(np.array([[0, 1], [0, 0]], dtype=complex))


class TestStrongMeasure:
    def test_zeros_under_x_parity(self):
        outs = strong_measure_exact(zeros(4), parity_x_decomposition(4))
        assert [o.value for o in outs] == [-1.0, 1.0]
        for o in outs:
            assert o.probability == pytest.approx(0.5, abs=1e-10)
        assert fidelity(outs[1].post_state, cat_pm(4, +1)) == pytest.approx(1.0, abs=1e-9)
        assert fidelity(outs[0].post_state, cat_pm(4, -1)) == pytest.approx(1.0, abs=1e-9)

    def test_eigenstate_unchanged(self):
        outs = strong_measure_exact(cat_state(4), parity_x_decomposition(4))
        assert len(outs) == 1
        assert outs[0].value == 1.0
        assert outs[0].probability == pytest.approx(1.0, abs=1e-10)
        assert fidelity(outs[0].post_state, cat_state(4)) == pytest.approx(1.0, abs=1e-9)

    def test_post_state_lives_in_eigenspace(self):
        rng = np.random.default_rng(31)
        rho = states.random_density_state(3, 2, rng)
        dec = parity_x_decomposition(3)
        for o in strong_measure_exact(rho, dec):
            proj = dec.projectors[dec.eigenvalues.index(o.value)]
            assert np.allclose(proj @ o.post_state.matrix, o.post_state.matrix, atol=1e-9)

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(32)
        rho = states.random_density_state(3, 2, rng)
        outs = strong_measure_exact(rho, parity_x_decomposition(3))
        assert sum(o.probability for o in outs) == pytest.approx(1.0, abs=1e-10)

    def test_repeatability(self):
        rng = np.random.default_rng(33)
        rho = states.random_density_state(3, 2, rng)
        dec = parity_x_decomposition(3)
        for o in strong_measure_exact(rho, dec):
            again = strong_measure_exact(o.post_state, dec)
            assert len(again) == 1
            assert again[0].value == o.value
            assert again[0].probability == pytest.approx(1.0, abs=1e-10)

    def test_sampling_deterministic(self):
        a = strong_measure(zeros(3), parity_x_decomposition(3), np.random.default_rng(4))
        b = strong_measure(zeros(3), parity_x_decomposition(3), np.random.default_rng(4))
        assert a.value == b.value


class TestWeakMeasure:
    def test_cat_gives_plus_one_surely(self):
        outs = weak_measure_product_exact(cat_state(4), [SIGMA_X] * 4)
        dist = combined_value_distribution(outs)
        assert dist == pytest.approx({1.0: 1.0}, abs=1e-10)
        # the -1 eigenprojector annihilates the cat state
        p_minus = (np.eye(16) - tensor(*([SIGMA_X] * 4))) / 2
        assert np.max(np.abs(p_minus @ cat_state(4).amplitudes)) <= 1e-12

    def test_mixture_gives_fair_coin(self):
        proj0 = np.outer(KET0, KET0)
        proj1 = np.outer(KET1, KET1)
        n = 3
        rho = mix(states.SeparableInput(((0.5, (proj0,) * n), (0.5, (proj1,) * n))))
        dist = combined_value_distribution(weak_measure_product_exact(rho, [SIGMA_X] * n))
        assert dist == pytest.approx({1.0: 0.5, -1.0: 0.5}, abs=1e-10)

    def test_post_states_are_products_of_site_eigenstates(self):
        outs = weak_measure_product_exact(cat_state(3), [SIGMA_X] * 3)
        for o in outs:
            assert o.post_state.purity() == pytest.approx(1.0, abs=1e-9)
            kets = [KET0 + s * KET1 for s in o.site_outcomes]
            expect = to_density(product_state([k / np.linalg.norm(k) for k in kets]))
            assert np.allclose(states.density_matrix(o.post_state), expect.matrix, atol=1e-9)

    def test_statistics_match_strong(self):
        rng = np.random.default_rng(34)
        rho = states.random_density_state(3, 2, rng)
        weak_dist = combined_value_distribution(weak_measure_product_exact(rho, [SIGMA_X] * 3))
        strong_dist = combined_value_distribution(
            strong_measure_exact(rho, parity_x_decomposition(3))
        )
        for key in set(weak_dist) | set(strong_dist):
            assert weak_dist.get(key, 0.0) == pytest.approx(strong_dist.get(key, 0.0), abs=1e-10)

    def test_sampled_record_consistent(self):
        out = weak_measure_product(cat_state(3), [SIGMA_X] * 3, rng=np.random.default_rng(9))
        assert out.combined_value == pytest.approx(1.0)
        assert np.prod(out.site_outcomes) == pytest.approx(out.combined_value)

    def test_sampled_record_matches_exact_twin(self):
        rng = np.random.default_rng(39)
        rho = states.random_density_state(3, 2, rng, rank=2)
        g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        site_observables = [SIGMA_X, SIGMA_Z, (g + g.conj().T) / 2]
        exact = {o.site_outcomes: o for o in weak_measure_product_exact(rho, site_observables)}
        for seed in range(6):
            out = weak_measure_product(rho, site_observables, rng=np.random.default_rng(seed))
            twin = exact[out.site_outcomes]
            assert abs(out.probability - twin.probability) <= 1e-10
            assert np.allclose(out.post_state.matrix, twin.post_state.matrix, atol=1e-10, rtol=0.0)

    def test_each_distinct_observable_decomposed_once(self, monkeypatch):
        calls = []

        def spy(a, *args):
            calls.append(a)
            return spectral_decompose(a, *args)

        monkeypatch.setattr(measurement, "spectral_decompose", spy)
        rho = states.random_density_state(4, 2, np.random.default_rng(40))
        weak_measure_product(rho, [SIGMA_X] * 4, rng=np.random.default_rng(1))
        assert len(calls) == 1
        outs = weak_measure_product_exact(rho, [SIGMA_X, SIGMA_Z, SIGMA_X.copy(), SIGMA_Z])
        assert len(calls) == 3
        assert sum(o.probability for o in outs) == pytest.approx(1.0, abs=1e-12)

    def test_destroys_and_prepares_are_complementary(self):
        n = 4
        outs = weak_measure_product_exact(cat_state(n), [SIGMA_X] * n)
        ensemble = DensityState(
            n, 2, sum(o.probability * states.density_matrix(o.post_state) for o in outs)
        )
        assert estimate_e(ensemble).e_lower <= np.sqrt(2 / n) + 1e-6
        strong_post = strong_measure_exact(zeros(n), parity_x_decomposition(n))[1].post_state
        assert estimate_e(strong_post).e_lower == pytest.approx(1.0, abs=1e-6)


def assert_same_outcomes(pure, dense):
    """Records of a PureState input against those of its density matrix."""
    def key(o):
        return o.site_outcomes if isinstance(o, measurement.WeakOutcome) else o.value

    assert [key(o) for o in pure] == [key(d) for d in dense]
    for o, d in zip(pure, dense):
        assert isinstance(o.post_state, PureState)
        assert isinstance(d.post_state, DensityState)
        assert abs(o.probability - d.probability) <= 1e-12
        assert np.allclose(states.density_matrix(o.post_state), d.post_state.matrix,
                           atol=1e-10, rtol=0.0)


def random_site_observables(n, rng):
    out = []
    for _ in range(n):
        g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        out.append((g + g.conj().T) / 2)
    return out


class TestPureMatchesDensity:
    """A PureState walks its amplitudes; its density matrix takes the dense path."""

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
    def test_weak_exact(self, n, seed):
        rng = np.random.default_rng(seed)
        psi = states.random_pure_state(n, 2, rng)
        obs = random_site_observables(n, rng)
        assert_same_outcomes(weak_measure_product_exact(psi, obs),
                             weak_measure_product_exact(psi.density(), obs))

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
    def test_weak_sampled(self, n, seed):
        rng = np.random.default_rng(seed)
        psi = states.random_pure_state(n, 2, rng)
        obs = random_site_observables(n, rng)
        for shot in range(3):
            o = weak_measure_product(psi, obs, rng=np.random.default_rng([seed, shot]))
            d = weak_measure_product(psi.density(), obs, rng=np.random.default_rng([seed, shot]))
            assert o.combined_value == d.combined_value
            assert_same_outcomes([o], [d])

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
    def test_strong_exact(self, n, seed):
        """The parity's closed form against the dense decomposition, on a
        vector and on a density matrix of random rank."""
        rng = np.random.default_rng(seed)
        psi = states.random_pure_state(n, 2, rng)
        rho = states.random_density_state(n, 2, rng, rank=int(rng.integers(1, 2**n + 1)))
        for pauli in (SIGMA_X, SIGMA_Z):
            dec = spectral_decompose(tensor(*([pauli] * n)))
            dense = strong_measure_exact(psi.density(), dec)
            assert_same_outcomes(strong_measure_exact(psi, dec), dense)
            assert_same_outcomes(parity_measure_exact(psi, pauli), dense)
            closed, reference = parity_measure_exact(rho, pauli), strong_measure_exact(rho, dec)
            assert [o.value for o in closed] == [o.value for o in reference]
            for o, d in zip(closed, reference):
                assert isinstance(o.post_state, DensityState)
                assert abs(o.probability - d.probability) <= 1e-12
                assert np.allclose(o.post_state.matrix, d.post_state.matrix, atol=1e-10, rtol=0.0)

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
    def test_conjugated_exact(self, n, seed):
        psi = states.random_pure_state(n, 2, np.random.default_rng(seed))
        conjugator = build_parity_conjugator(n)
        assert_same_outcomes(conjugated_strong_measure_exact(psi, conjugator),
                             conjugated_strong_measure_exact(psi.density(), conjugator))

    def test_parity_rejects_non_involution(self):
        with pytest.raises(ValueError, match="square to the identity"):
            parity_measure_exact(zeros(2), SIGMA_X / 2)

    @pytest.mark.parametrize("state", [zeros(2), zeros(2).density()], ids=["pure", "density"])
    def test_parity_rejects_site_operator_of_another_size(self, state):
        with pytest.raises(ValueError, match="is 3x3, expected 2x2"):
            parity_measure_exact(state, np.eye(3))


def reference_decompositions(site_observables):
    return [a if isinstance(a, measurement.SpectralDecomposition) else spectral_decompose(a)
            for a in site_observables]


def reference_weak_exact(rho, site_observables) -> list:
    """Reference for the exact weak list: the recursive collapse walk over
    every branch, one site projector after another on the whole state."""
    decs = reference_decompositions(site_observables)
    n, l = rho.n, rho.l
    outcomes = []

    def walk(site, m, values):
        if site == n:
            p = measurement._weight(m)
            if p > measurement.PROBABILITY_FLOOR:
                outcomes.append(measurement.WeakOutcome(
                    values, p, float(np.prod(values)), measurement._post_state(m, p, n, l)))
            return
        for value, q in zip(decs[site].eigenvalues, decs[site].projectors):
            walk(site + 1, measurement._collapse_site(m, q, site + 1, n, l), values + (value,))

    walk(0, measurement._state_array(rho), ())
    return outcomes


def reference_weak_sample(rho, site_observables, rng):
    """Reference for one weak shot: each site's outcome drawn from the
    reduced state of the state collapsed so far."""
    decs = reference_decompositions(site_observables)
    n, l = rho.n, rho.l
    current = measurement._state_array(rho)
    joint, values = 1.0, ()
    for site, dec in enumerate(decs, start=1):
        if current.ndim == 1:
            t = current.reshape(l ** (site - 1), l, -1)
            marginal = np.einsum("aib,ajb->ij", t, t.conj())
        else:
            marginal = linalg.reduce_to_site(current, site, n, l)
        probs = np.array([max(float(np.real(np.trace(q @ marginal))), 0.0) for q in dec.projectors])
        probs /= probs.sum()
        idx = int(rng.choice(len(probs), p=probs))
        joint *= float(probs[idx])
        values += (dec.eigenvalues[idx],)
        current = measurement._collapse_site(current, dec.projectors[idx], site, n, l)
        current /= probs[idx] if current.ndim == 2 else math.sqrt(probs[idx])
    return measurement.WeakOutcome(values, joint, float(np.prod(values)),
                                   measurement._post_state(current, 1.0, n, l))


def assert_same_records(got, want):
    assert [o.site_outcomes for o in got] == [w.site_outcomes for w in want]
    for o, w in zip(got, want):
        assert o.combined_value == w.combined_value
        assert abs(o.probability - w.probability) <= 1e-12
        assert type(o.post_state) is type(w.post_state)
        a, b = measurement._state_array(o.post_state), measurement._state_array(w.post_state)
        assert np.max(np.abs(a - b)) <= 1e-10


def site_observable(l, degenerate, rng):
    """A random Hermitian l x l matrix; with ``degenerate``, its first two
    eigenvalues coincide (for l = 2, a multiple of the identity)."""
    q, _ = np.linalg.qr(rng.normal(size=(l, l)) + 1j * rng.normal(size=(l, l)))
    eig = rng.normal(size=l)
    if degenerate:
        eig[1] = eig[0]
    return (q * eig) @ q.conj().T


class TestOutcomeTreeMatchesWalk:
    """The outcome tree against the site-by-site collapse walk."""

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(1, 5), l=st.sampled_from([2, 3]), pure=st.booleans(),
           degenerate=st.lists(st.booleans(), min_size=5, max_size=5),
           seed=st.integers(0, 2**32 - 1))
    def test_shots_and_leaves(self, n, l, pure, degenerate, seed):
        rng = np.random.default_rng(seed)
        if pure:
            rho = states.random_pure_state(n, l, rng)
        else:
            rho = states.random_density_state(n, l, rng, rank=int(rng.integers(1, 4)))
        obs = [site_observable(l, degenerate[i], rng) for i in range(n)]
        for shot in range(4):
            got = weak_measure_product(rho, obs, np.random.default_rng([seed, shot]))
            want = reference_weak_sample(rho, obs, np.random.default_rng([seed, shot]))
            assert_same_records([got], [want])
        assert_same_records(weak_measure_product_exact(rho, obs), reference_weak_exact(rho, obs))

    def test_shots_equal_one_shot_calls(self):
        rng = np.random.default_rng(17)
        rho = states.random_density_state(4, 2, rng, rank=2)
        obs = [site_observable(2, False, rng) for _ in range(4)]
        seeds = range(30)
        shots = weak_measure_shots(rho, obs, [np.random.default_rng(s) for s in seeds])
        for s, o in zip(seeds, shots):
            one = weak_measure_product(rho, obs, np.random.default_rng(s))
            assert (o.site_outcomes, o.probability) == (one.site_outcomes, one.probability)
            assert np.array_equal(o.post_state.matrix, one.post_state.matrix)
        bare = weak_measure_shots(rho, obs, [np.random.default_rng(s) for s in seeds],
                                  post_states=False)
        assert [(o.site_outcomes, o.probability) for o in bare] == \
            [(o.site_outcomes, o.probability) for o in shots]
        assert all(o.post_state is None for o in bare)

    @settings(max_examples=200, deadline=None)
    @given(weights=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6),
           seed=st.integers(0, 2**32 - 1))
    def test_pick_is_generator_choice(self, weights, seed):
        p = np.array(weights)
        assume(p.sum() > 1e-3)
        p /= p.sum()
        _, (idx,) = measurement._pick(p[None, :], np.array([np.random.default_rng(seed).random()]))
        assert idx == np.random.default_rng(seed).choice(len(p), p=p)

    def test_zero_projector_is_never_drawn(self):
        rng = np.random.default_rng(23)
        x = spectral_decompose(SIGMA_X)
        padded = measurement.SpectralDecomposition(
            (-1.0, 0.0, 1.0), (x.projectors[0], np.zeros((2, 2)), x.projectors[1]))
        obs = [padded, SIGMA_Z, padded]
        for rho in (states.random_pure_state(3, 2, rng), states.random_density_state(3, 2, rng)):
            exact = weak_measure_product_exact(rho, obs)
            assert_same_records(exact, reference_weak_exact(rho, obs))
            assert all(0.0 not in o.site_outcomes[::2] for o in exact)
            for seed in range(8):
                assert_same_records([weak_measure_product(rho, obs, np.random.default_rng(seed))],
                                    [reference_weak_sample(rho, obs, np.random.default_rng(seed))])

    def test_site_observable_of_wrong_dimension_refused(self):
        with pytest.raises(ValueError, match="expected 2x2"):
            weak_measure_product_exact(zeros(2), [SIGMA_X, np.eye(3)])


class TestProductProjection:
    def test_recovers_built_product(self):
        p = ProductProjection((np.outer(PLUS, PLUS.conj()), np.outer(KET0, KET0)))
        got = is_product_projection(p.matrix(), 2)
        assert got is not None
        for a, b in zip(got.factors, p.factors):
            assert np.allclose(a, b, atol=1e-10)

    def test_parity_projector_is_not_a_product(self):
        p_plus = (np.eye(4) + tensor(SIGMA_X, SIGMA_X)) / 2
        assert is_product_projection(p_plus, 2) is None

    def test_identity_factors(self):
        got = is_product_projection(np.eye(8, dtype=complex), 2)
        assert got is not None
        for f in got.factors:
            assert np.allclose(f, np.eye(2))

    def test_rejects_non_projection(self):
        with pytest.raises(ValueError):
            is_product_projection(0.5 * np.eye(4), 2)

    def test_rejects_mixed_factor_sizes(self):
        with pytest.raises(ValueError, match="factor 1 is 3x3, but factor 0 is 2x2"):
            ProductProjection((np.eye(2), np.eye(3)))


class TestParityConjugator:
    def test_single_site_is_empty(self):
        assert build_parity_conjugator(1).depth == 0

    def test_two_sites_direct_check(self):
        net = build_parity_conjugator(2)
        assert net.depth == 1
        u = embed(net.steps[0].channels[0].kraus[0], net.steps[0].channels[0].support, 2, 2)
        got = u.conj().T @ tensor(SIGMA_X, SIGMA_X) @ u
        assert np.allclose(got, tensor(np.eye(2), SIGMA_X), atol=1e-12)

    @pytest.mark.parametrize("n", [3, 5])
    def test_conjugation_identity(self, n):
        net = build_parity_conjugator(n)
        assert net.depth == n - 1
        got = apply_dual(net, tensor(*([SIGMA_X] * n)))
        assert np.max(np.abs(got - embed(SIGMA_X, [n], n, 2))) <= 1e-9


class TestConjugatedMeasurement:
    @pytest.mark.parametrize("rho", [
        *(states.random_density_state(n, 2, np.random.default_rng(35)) for n in (1, 2, 4)),
        product_state([PLUS, KET0, PLUS]),
    ], ids=["1", "2", "4", "plus-zero-plus"])
    def test_same_law_as_direct_strong(self, rho):
        direct = strong_measure_exact(rho, parity_x_decomposition(rho.n))
        via = conjugated_strong_measure_exact(rho, build_parity_conjugator(rho.n))
        assert len(direct) == len(via)
        for d, v in zip(direct, via):
            assert d.value == v.value
            assert d.probability == pytest.approx(v.probability, abs=1e-9)
            assert np.allclose(states.density_matrix(d.post_state),
                               states.density_matrix(v.post_state), atol=1e-9)

    def test_cat_unchanged(self):
        outs = conjugated_strong_measure_exact(cat_state(4), build_parity_conjugator(4))
        assert len(outs) == 1
        assert outs[0].value == 1.0
        assert outs[0].probability == pytest.approx(1.0, abs=1e-9)
        assert fidelity(outs[0].post_state, cat_state(4)) == pytest.approx(1.0, abs=1e-9)

    def test_single_site_plain_x_measurement(self):
        outs = conjugated_strong_measure_exact(zeros(1), build_parity_conjugator(1))
        dist = combined_value_distribution(outs)
        assert dist == pytest.approx({1.0: 0.5, -1.0: 0.5}, abs=1e-12)

    def test_sampled(self):
        out = conjugated_strong_measure(zeros(3), build_parity_conjugator(3),
                                        np.random.default_rng(1))
        assert out.value in (-1.0, 1.0)

    def test_rejects_noisy_conjugator(self):
        noisy = random_shallow(3, 1, 0, noise=0.3)
        with pytest.raises(ValueError):
            conjugated_strong_measure_exact(zeros(3), noisy)


class TestCommutatorOpnorm:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_mean_spin_vs_x_parity_constant(self, n):
        z_half = SiteObservable(np.diag([0.5, -0.5]).astype(complex))
        normalized_total_z = 2 * averaging_matrix(z_half, n)
        assert commutator_opnorm(normalized_total_z, tensor(*([SIGMA_X] * n))) == pytest.approx(
            2.0, abs=1e-9
        )

    def test_commuting_pair(self):
        assert commutator_opnorm(np.eye(4), tensor(SIGMA_X, SIGMA_X)) == pytest.approx(0.0)

    def test_pauli_pair(self):
        assert commutator_opnorm(SIGMA_Z, SIGMA_X) == pytest.approx(2.0)


class TestProjectionBoundCheck:
    def test_hand_checked_instance(self):
        plus_proj = np.outer(PLUS, PLUS.conj())
        check = check_projection_commutator_bound(
            identity_network(2),
            ProductProjection((plus_proj, plus_proj)),
            SiteObservable(np.diag([0.5, -0.5]).astype(complex)),
        )
        assert check.lhs == pytest.approx(np.sqrt(2) / 4, abs=1e-12)
        assert check.lhs == pytest.approx(0.35355, abs=1e-5)
        assert check.bound == pytest.approx(0.5)
        assert check.passed

    def test_identity_projection_commutes(self):
        eye = np.eye(2, dtype=complex)
        check = check_projection_commutator_bound(
            identity_network(3),
            ProductProjection((eye, eye, eye)),
            SiteObservable(np.diag([0.5, -0.5]).astype(complex)),
        )
        assert check.lhs == pytest.approx(0.0, abs=1e-12)

    def test_rejects_noisy_network(self):
        rng = np.random.default_rng(36)
        with pytest.raises(ValueError):
            check_projection_commutator_bound(
                random_shallow(4, 1, 0, noise=0.2),
                random_product_projection(4, 2, rng),
                SiteObservable(np.diag([0.5, -0.5]).astype(complex)),
            )

    @staticmethod
    def dense_lhs(net, projection, c):
        """The reference: ||i[abar, A*(P)]|| from dense l^n x l^n matrices."""
        propagated = apply_dual(net, projection.matrix())
        return linalg.operator_norm(1j * linalg.commutator(averaging_matrix(c, net.n), propagated))

    def test_sweep_rows_match_dense(self):
        config = RunConfig(seed=38, trials=36, n_values=(4, 6, 8), k_values=(0, 1, 2))
        rows = projection_bound_sweep(config)
        assert len(rows) == 36
        for row in rows:
            # the draws of projection_bound_sweep, in its order
            rng = np.random.default_rng(row["seed"])
            net = random_shallow(row["n"], row["k"], rng, noise=0.0)
            projection = random_product_projection(row["n"], 2, rng)
            c = uncertainty.random_site_observable(2, rng)
            assert abs(row["lhs"] - self.dense_lhs(net, projection, c)) <= 1e-12

    @pytest.mark.parametrize("n, k, l, ranks", [
        (4, 2, 2, (0, 0, 0, 0)),
        (4, 2, 2, (0, 1, 2, 1)),
        (5, 1, 2, (2, 1, 2, 2, 1)),
        (6, 2, 2, (1, 2, 1, 1, 2, 2)),
        (4, 1, 2, (2, 2, 2, 2)),
        (3, 2, 3, (1, 2, 3)),
    ])
    def test_mixed_rank_factors_match_dense(self, n, k, l, ranks):
        rng = np.random.default_rng(39)
        factors = []
        for rank in ranks:
            basis = np.linalg.qr(rng.normal(size=(l, l)) + 1j * rng.normal(size=(l, l)))[0]
            factors.append(basis[:, :rank] @ basis[:, :rank].conj().T)
        projection = ProductProjection(tuple(factors))
        net = random_shallow(n, k, rng, l=l)
        c = uncertainty.random_site_observable(l, rng)
        check = check_projection_commutator_bound(net, projection, c)
        assert abs(check.lhs - self.dense_lhs(net, projection, c)) <= 1e-12
        if 0 in ranks:
            assert check.lhs == 0.0

    def test_no_dense_operand(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("dense path called")

        monkeypatch.setattr(network, "apply_dual", forbidden)
        monkeypatch.setattr(measurement, "apply_dual", forbidden, raising=False)
        monkeypatch.setattr(ProductProjection, "matrix", forbidden)
        rows = projection_bound_sweep(RunConfig(seed=41, trials=12, n_values=(4, 6, 8, 10),
                                                k_values=(0, 1, 2)))
        assert all(row["pass"] for row in rows)

    def test_random_sweep_sample(self):
        rng = np.random.default_rng(37)
        for _ in range(10):
            n = int(rng.integers(3, 6))
            k = int(rng.integers(0, 3))
            net = random_shallow(n, k, int(rng.integers(1 << 16)))
            check = check_projection_commutator_bound(
                net,
                random_product_projection(n, 2, rng),
                uncertainty.random_site_observable(2, rng),
            )
            assert check.passed
            assert check.bound == pytest.approx(projection_bound(n, k))
