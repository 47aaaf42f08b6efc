import numpy as np
import pytest

from shallownet import lightcone, states, uncertainty
from shallownet.lightcone import (
    crossing_requires_depth,
    depth_lower_bound,
    dual_support,
    exact_support,
    lightcone_report,
)
from shallownet.linalg import SIGMA_X, SIGMA_Z, embed
from shallownet.network import (
    CNOT,
    LocalChannel,
    Network,
    Step,
    apply_dual,
    cat_ladder,
    identity_network,
    random_shallow,
)

KET0 = np.array([1, 0], dtype=complex)


class TestDualSupport:
    def test_identity_network(self):
        assert dual_support(identity_network(5), {3}) == frozenset({3})

    def test_ladder_seed_one(self):
        got = dual_support(cat_ladder(3), {1})
        assert len(got) <= 8
        # Exact oracle: propagate sigma_x on site 1 numerically and detect
        # the sites it touches; x spreads through every CNOT control it meets.
        a = apply_dual(cat_ladder(3), embed(SIGMA_X, [1], 8, 2))
        assert exact_support(a, 8, 2) == got == frozenset({1, 2, 3, 5})

    def test_size_bound(self):
        for seed in range(10):
            k = seed % 4
            net = random_shallow(10, k, seed)
            assert len(dual_support(net, {4})) <= 2**k

    def test_monotone_in_depth(self):
        net = random_shallow(8, 4, 33)
        previous = frozenset({2})
        for depth in range(len(net.steps) + 1):
            trimmed = Network(net.n, net.l, net.steps[-depth:] if depth else ())
            current = dual_support(trimmed, {2})
            assert previous <= current
            previous = current

    def test_empty_seed_rejected(self):
        with pytest.raises(ValueError):
            dual_support(identity_network(3), set())


class TestExactSupportSoundness:
    def test_exact_contained_in_combinatorial(self):
        rng = np.random.default_rng(18)
        for trial in range(20):
            n = int(rng.integers(3, 7))
            k = int(rng.integers(0, 3))
            net = random_shallow(n, k, int(rng.integers(1 << 16)))
            site = int(rng.integers(1, n + 1))
            seed_op = SIGMA_X if trial % 2 else SIGMA_Z
            a = apply_dual(net, embed(seed_op, [site], n, 2))
            assert exact_support(a, n, 2, tol=1e-9) <= dual_support(net, {site})


class TestLightconeReport:
    def test_depth_zero(self):
        rep = lightcone_report(identity_network(5))
        assert rep.max_support_size == 1
        assert rep.site_multiplicity == (1,) * 5
        assert rep.intersecting_pairs == 5
        assert rep.within_bounds()

    def test_one_full_matching_step(self):
        n = 6
        channels = tuple(LocalChannel((i, i + 1), (CNOT,)) for i in (1, 3, 5))
        net = Network(n, 2, (Step(channels),))
        rep = lightcone_report(net)
        assert rep.max_support_size == 2
        assert rep.site_multiplicity == (2,) * n
        # Enumeration oracle: pairs (i, j) share support iff j is i or its partner.
        partner = {1: 2, 2: 1, 3: 4, 4: 3, 5: 6, 6: 5}
        expected = sum(
            1
            for i in range(1, n + 1)
            for j in range(1, n + 1)
            if {i, partner[i]} & {j, partner[j]}
        )
        assert rep.intersecting_pairs == expected == 2 * n

    def test_random_networks_within_bounds(self):
        for seed in range(15):
            rep = lightcone_report(random_shallow(16, seed % 4, seed))
            assert rep.within_bounds()

    def test_json_shape(self):
        doc = lightcone_report(cat_ladder(2)).to_dict()
        assert set(doc) == {"supports", "max_support_size", "site_multiplicity",
                            "intersecting_pairs", "bounds"}
        assert doc["bounds"] == {"support": 4, "multiplicity": 4, "pairs_per_obs": 16}


class TestDepthLowerBound:
    def test_reference_values(self):
        assert depth_lower_bound(8, 1.0) == pytest.approx(1.0)
        assert depth_lower_bound(2, 1.0) == pytest.approx(0.0)
        assert depth_lower_bound(2**20, 1.0) == pytest.approx(9.5)

    def test_negative_allowed(self):
        assert depth_lower_bound(8, 0.1) < 0

    def test_rejects_nonpositive_level(self):
        with pytest.raises(ValueError):
            depth_lower_bound(8, 0.0)
        with pytest.raises(ValueError):
            depth_lower_bound(8, -1.0)

    @pytest.mark.parametrize("r", [float("nan"), float("inf")])
    def test_rejects_non_finite_level(self, r):
        with pytest.raises(ValueError, match=f"r must be positive and finite, got {r}"):
            depth_lower_bound(8, r)


class TestCrossing:
    @pytest.fixture()
    def cat8_setup(self):
        rho_in = states.to_density(states.product_state([KET0] * 8))
        rho_out = states.to_density(states.cat_state(8))
        site = uncertainty.SiteObservable(np.diag([0.5, -0.5]).astype(complex))
        abar = uncertainty.AveragingObservable(site, 8)
        _, witness = uncertainty.commutator_witness(abar, rho_out)
        return rho_in, rho_out, abar, witness

    def test_cat_crossing_value(self, cat8_setup):
        rho_in, rho_out, abar, witness = cat8_setup
        got = crossing_requires_depth(rho_in, rho_out, abar, witness, 0.9)
        assert got == pytest.approx((np.log(0.9) - np.log(0.5)) / np.log(2), abs=1e-9)
        assert got == pytest.approx(0.848, abs=1e-3)

    def test_same_state_no_crossing(self, cat8_setup):
        rho_in, _, abar, witness = cat8_setup
        assert crossing_requires_depth(rho_in, rho_in, abar, witness, 0.9) is None

    def test_level_above_both_sides(self, cat8_setup):
        rho_in, rho_out, abar, witness = cat8_setup
        # both values fall below a level of 1 + eps, handled via level just under 1
        assert crossing_requires_depth(rho_in, rho_out, abar, 0.1 * witness, 0.9) is None
