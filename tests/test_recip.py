"""Closed-form reciprocal solvers against grid oracles and their own structure."""

import numpy as np
import pytest

from twobeam.errors import DimensionMismatchError, DomainError, ReciprocityError
from twobeam.model import (
    Beamformer,
    ChannelSet,
    IndividualPower,
    SumPower,
    SystemParams,
    map_u_inverse,
    rate_pair,
    snr_pair,
)
from twobeam.oracle import (
    best_wsis_grid,
    hull_bruteforce,
    random_beamformer_cloud,
    weighted_sum_rate_search,
    wsis_objective,
)
from twobeam.recip import (
    broadcast_params_indiv,
    broadcast_params_sum,
    individual_power_beamformer,
    local_weight_indiv,
    local_weight_sum,
    matched_phases,
    sum_power_beamformer,
    wsismin_individual,
    wsismin_sum_power,
)

from helpers import draw_nonreciprocal, draw_reciprocal, pareto_chain_contains, unit_params


def sigma_varied_instance(rng, k):
    ch = draw_reciprocal(rng, k)
    sig = rng.uniform(0.5, 2.0, k)
    sp = SystemParams(
        p_s1=float(rng.uniform(0.5, 2.0)),
        p_s2=float(rng.uniform(0.5, 2.0)),
        sigma_relay=sig,
        sigma_s1_sq=float(rng.uniform(0.5, 2.0)),
        sigma_s2_sq=float(rng.uniform(0.5, 2.0)),
    )
    return ch, sp


class TestMatchedPhases:
    def test_real_positive_channels(self):
        ch = ChannelSet.from_reciprocal(np.ones(3, dtype=complex), np.ones(3, dtype=complex))
        np.testing.assert_array_equal(matched_phases(ch), np.zeros(3))

    def test_imaginary_channels_wrap_to_minus_pi(self):
        ch = ChannelSet.from_reciprocal(np.array([1j]), np.array([1j]))
        assert matched_phases(ch)[0] == pytest.approx(-np.pi, abs=1e-15)

    def test_beats_random_phases_at_same_magnitudes(self):
        rng = np.random.default_rng(21)
        ch = draw_reciprocal(rng, 4)
        sp = unit_params(4)
        mags = rng.uniform(0.2, 1.0, 4)
        best = rate_pair(ch, sp, Beamformer(mags * np.exp(1j * matched_phases(ch))))
        for _ in range(100):
            w = Beamformer(mags * np.exp(1j * rng.uniform(-np.pi, np.pi, 4)))
            r = rate_pair(ch, sp, w)
            assert r.r1 <= best.r1 + 1e-12
            assert r.r2 <= best.r2 + 1e-12

    def test_rejects_nonreciprocal(self):
        rng = np.random.default_rng(22)
        with pytest.raises(ReciprocityError):
            matched_phases(draw_nonreciprocal(rng, 2))


class TestSumPower:
    def test_single_relay_uses_whole_budget(self):
        ch = ChannelSet.from_reciprocal(np.ones(1, dtype=complex), np.ones(1, dtype=complex))
        sol = wsismin_sum_power(ch, unit_params(1), 10.0, 0.7)
        assert sol.x[0] == pytest.approx(np.sqrt(10.0 / 3.0), rel=1e-12)

    def test_two_relay_instance_matches_million_point_grid(self):
        # h1=[1,2], h2=[1,1], unit parameters, direction-1 weight only:
        # the optimum is 1/(10/13 + 40/46) = 299/490.
        ch = ChannelSet.from_reciprocal(
            np.array([1.0 + 0j, 2.0 + 0j]), np.array([1.0 + 0j, 1.0 + 0j])
        )
        sp = unit_params(2)
        sol = wsismin_sum_power(ch, sp, 10.0, 1.0)
        obj = wsis_objective(ch, sp, 1.0, sol.x)
        assert obj == pytest.approx(299.0 / 490.0, rel=1e-12)
        grid_obj, _ = best_wsis_grid(ch, sp, SumPower(p_r=10.0), 1.0, 1_000_001)
        assert obj <= grid_obj + 1e-12

    @pytest.mark.parametrize("mu", [0.0, 0.3, 1.0])
    def test_budget_spent_exactly(self, mu):
        rng = np.random.default_rng(31)
        ch, sp = sigma_varied_instance(rng, 5)
        sol = wsismin_sum_power(ch, sp, 7.5, mu)
        d = (
            np.abs(ch.h1) ** 2 * sp.p_s1
            + np.abs(ch.h2) ** 2 * sp.p_s2
            + sp.sigma_relay
        )
        assert float(sol.x**2 @ d) == pytest.approx(7.5, rel=1e-9)

    def test_beats_grid_on_random_instances(self):
        rng = np.random.default_rng(32)
        for _ in range(5):
            ch, sp = sigma_varied_instance(rng, 3)
            mu = float(rng.uniform(0.0, 1.0))
            sol = wsismin_sum_power(ch, sp, 10.0, mu)
            obj = wsis_objective(ch, sp, mu, sol.x)
            grid_obj, _, gap = best_wsis_grid(
                ch, sp, SumPower(p_r=10.0), mu, 101, return_gap=True
            )
            assert obj <= grid_obj + 1e-12
            assert grid_obj - obj <= gap

    def test_endpoint_matches_one_way_search(self):
        rng = np.random.default_rng(33)
        ch = draw_reciprocal(rng, 3)
        sp = unit_params(3)
        sol = wsismin_sum_power(ch, sp, 10.0, 1.0)
        r = rate_pair(ch, sp, sum_power_beamformer(ch, sol))
        searched, _ = weighted_sum_rate_search(ch, sp, SumPower(p_r=10.0), 1.0, n_restarts=6, seed=0)
        assert r.r1 == pytest.approx(searched, abs=1e-6)

    def test_reassembly_is_exact(self):
        rng = np.random.default_rng(34)
        for _ in range(50):
            k = int(rng.integers(1, 7))
            ch, sp = sigma_varied_instance(rng, k)
            mu = float(rng.choice([0.0, 1.0, rng.uniform(0.0, 1.0)]))
            p_r = float(rng.uniform(1.0, 20.0))
            sol = wsismin_sum_power(ch, sp, p_r, mu)
            central = sum_power_beamformer(ch, sol).w
            mu_b, scalar = broadcast_params_sum(sol)
            local = np.array(
                [
                    local_weight_sum(
                        ch.h1[i], ch.h2[i], sp, p_r, mu_b, scalar,
                        sigma_i_sq=float(sp.sigma_relay[i]),
                    )
                    for i in range(k)
                ]
            )
            assert np.max(np.abs(local - central)) <= 1e-12

    def test_uniform_noise_needs_no_explicit_sigma(self):
        rng = np.random.default_rng(35)
        ch = draw_reciprocal(rng, 2)
        sp = unit_params(2)
        sol = wsismin_sum_power(ch, sp, 4.0, 0.5)
        _, scalar = broadcast_params_sum(sol)
        w0 = local_weight_sum(ch.h1[0], ch.h2[0], sp, 4.0, 0.5, scalar)
        assert w0 == sum_power_beamformer(ch, sol).w[0]

    def test_varied_noise_requires_explicit_sigma(self):
        rng = np.random.default_rng(36)
        ch, _ = sigma_varied_instance(rng, 3)
        sp = SystemParams(
            p_s1=1.0, p_s2=1.0, sigma_relay=np.array([1.0, 2.0, 1.0]),
            sigma_s1_sq=1.0, sigma_s2_sq=1.0,
        )
        with pytest.raises(DomainError):
            local_weight_sum(ch.h1[0], ch.h2[0], sp, 4.0, 0.5, 1.0)

    def test_validation_errors(self):
        rng = np.random.default_rng(37)
        ch = draw_reciprocal(rng, 2)
        sp = unit_params(2)
        with pytest.raises(DomainError):
            wsismin_sum_power(ch, sp, -1.0, 0.5)
        with pytest.raises(DomainError):
            wsismin_sum_power(ch, sp, 1.0, 1.5)
        with pytest.raises(ReciprocityError):
            wsismin_sum_power(draw_nonreciprocal(rng, 2), sp, 1.0, 0.5)

    def test_infinite_budget_rejected(self):
        ch = draw_reciprocal(np.random.default_rng(38), 2)
        with pytest.raises(DomainError, match="^p_r must be finite and strictly positive$"):
            wsismin_sum_power(ch, unit_params(2), np.inf, 0.5)


class TestIndividualPower:
    def test_single_relay_full_power(self):
        rng = np.random.default_rng(41)
        ch = draw_reciprocal(rng, 1)
        sol = wsismin_individual(ch, unit_params(1), np.array([2.0]), 0.4)
        np.testing.assert_array_equal(sol.alpha, [1.0])
        assert sol.k_star == 1

    def test_matches_001_grid_within_gap(self):
        rng = np.random.default_rng(42)
        for _ in range(3):
            ch, sp = sigma_varied_instance(rng, 3)
            mu = float(rng.uniform(0.05, 0.95))
            p = rng.uniform(0.5, 4.0, 3)
            sol = wsismin_individual(ch, sp, p, mu)
            d = (
                np.abs(ch.h1) ** 2 * sp.p_s1
                + np.abs(ch.h2) ** 2 * sp.p_s2
                + sp.sigma_relay
            )
            obj = wsis_objective(ch, sp, mu, sol.alpha * np.sqrt(p / d))
            grid_obj, _, gap = best_wsis_grid(
                ch, sp, IndividualPower(p=p), mu, 100, return_gap=True
            )
            assert obj <= grid_obj + 1e-12
            assert grid_obj - obj <= gap

    def test_structural_split(self):
        rng = np.random.default_rng(43)
        ch, sp = sigma_varied_instance(rng, 6)
        p = rng.uniform(0.5, 4.0, 6)
        sol = wsismin_individual(ch, sp, p, 0.6)
        full = sol.tau[: sol.k_star]
        partial = sol.tau[sol.k_star :]
        assert np.all(sol.alpha[full] == 1.0)
        if partial.size:
            assert np.all(sol.alpha[partial] < 1.0)
            assert np.all(sol.alpha[partial] > 0.0)

    def test_transmit_power_follows_rule(self):
        rng = np.random.default_rng(44)
        ch, sp = sigma_varied_instance(rng, 5)
        p = rng.uniform(0.5, 4.0, 5)
        sol = wsismin_individual(ch, sp, p, 0.3)
        w = individual_power_beamformer(ch, sp, p, sol)
        from twobeam.model import relay_powers

        powers = relay_powers(ch, sp, w)
        np.testing.assert_allclose(powers, sol.alpha**2 * p, rtol=1e-12)
        assert np.all(powers <= p * (1.0 + 1e-12))

    def test_tie_case_objective_optimal(self):
        # Identical relays tie in the sort; the objective must still match the grid.
        ch = ChannelSet.from_reciprocal(
            np.array([1.0 + 1j, 1.0 + 1j]), np.array([2.0 - 1j, 2.0 - 1j])
        )
        sp = unit_params(2)
        p = np.array([1.0, 1.0])
        sol = wsismin_individual(ch, sp, p, 0.5)
        d = np.abs(ch.h1) ** 2 + np.abs(ch.h2) ** 2 + 1.0
        obj = wsis_objective(ch, sp, 0.5, sol.alpha * np.sqrt(p / d))
        grid_obj, _ = best_wsis_grid(ch, sp, IndividualPower(p=p), 0.5, 400)
        assert obj <= grid_obj + 1e-12

    def test_noiseless_signal_path_gets_full_power(self):
        # A zero first-hop channel with mu=1 contributes no leakage noise in the
        # weighted direction, so that relay ranks first at full power.
        ch = ChannelSet.from_reciprocal(
            np.array([0.0 + 0j, 1.0 + 0j]), np.array([1.0 + 0j, 1.0 + 0j])
        )
        sol = wsismin_individual(ch, unit_params(2), np.array([1.0, 1.0]), 1.0)
        assert sol.alpha[0] == 1.0

    def test_dead_network_falls_back_with_warning(self):
        ch = ChannelSet.from_reciprocal(
            np.array([0.0 + 0j, 0.0 + 0j]), np.array([1.0 + 0j, 1.0 + 0j])
        )
        with pytest.warns(RuntimeWarning):
            sol = wsismin_individual(ch, unit_params(2), np.array([1.0, 1.0]), 0.5)
        np.testing.assert_array_equal(sol.alpha, [1.0, 1.0])

    def test_reassembly_is_exact(self):
        rng = np.random.default_rng(45)
        for _ in range(50):
            k = int(rng.integers(1, 7))
            ch, sp = sigma_varied_instance(rng, k)
            mu = float(rng.uniform(0.0, 1.0))
            p = rng.uniform(0.5, 4.0, k)
            sol = wsismin_individual(ch, sp, p, mu)
            central = individual_power_beamformer(ch, sp, p, sol).w
            mu_b, lam = broadcast_params_indiv(sol)
            local = np.array(
                [
                    local_weight_indiv(
                        ch.h1[i], ch.h2[i], sp, float(p[i]), mu_b, lam,
                        sigma_i_sq=float(sp.sigma_relay[i]),
                    )
                    for i in range(k)
                ]
            )
            assert np.max(np.abs(local - central)) <= 1e-12

    def test_validation_errors(self):
        rng = np.random.default_rng(46)
        ch = draw_reciprocal(rng, 2)
        sp = unit_params(2)
        with pytest.raises(DimensionMismatchError):
            wsismin_individual(ch, sp, np.array([1.0]), 0.5)
        with pytest.raises(DomainError):
            wsismin_individual(ch, sp, np.array([1.0, 0.0]), 0.5)

    @pytest.mark.parametrize("cap", [0.0, -1.0])
    def test_beamformer_checks_caps(self, cap):
        rng = np.random.default_rng(47)
        ch = draw_reciprocal(rng, 2)
        sp = unit_params(2)
        sol = wsismin_individual(ch, sp, np.ones(2), 0.5)
        with pytest.raises(DomainError, match="^p entries must be finite and strictly positive$"):
            individual_power_beamformer(ch, sp, np.array([1.0, cap]), sol)


class TestLocalRuleScalars:
    """Each local rule rejects the scalars its centralized solver rejects."""

    @staticmethod
    def call(rule, *, budget=2.0, sigma_i_sq=None):
        ch = draw_reciprocal(np.random.default_rng(48), 2)
        sp = unit_params(2)
        local = local_weight_sum if rule == "sum" else local_weight_indiv
        return local(ch.h1[0], ch.h2[0], sp, budget, 0.5, 1.0, sigma_i_sq)

    @pytest.mark.parametrize("sigma_i_sq", [np.nan, np.inf])
    @pytest.mark.parametrize("rule", ["sum", "indiv"])
    def test_nonfinite_sigma_rejected(self, rule, sigma_i_sq):
        with pytest.raises(DomainError, match="^sigma_i_sq must be finite and strictly positive$"):
            self.call(rule, sigma_i_sq=sigma_i_sq)

    @pytest.mark.parametrize("budget", [0.0, -1.0, np.nan, np.inf])
    @pytest.mark.parametrize("rule, name", [("sum", "p_r"), ("indiv", "p_i")])
    def test_bad_budget_rejected(self, rule, name, budget):
        with pytest.raises(DomainError, match=f"^{name} must be finite and strictly positive$"):
            self.call(rule, budget=budget)


class TestSweepGeometry:
    def _sweep_rates(self, ch, sp, p_r, mus):
        pts = []
        for mu in mus:
            sol = wsismin_sum_power(ch, sp, p_r, float(mu))
            r = rate_pair(ch, sp, sum_power_beamformer(ch, sol))
            pts.append([r.r1, r.r2])
        return np.array(pts)

    def test_sweep_hull_contains_matched_phase_cloud(self):
        rng = np.random.default_rng(51)
        ch = draw_reciprocal(rng, 4)
        sp = unit_params(4)
        pts = self._sweep_rates(ch, sp, 10.0, np.linspace(0.0, 1.0, 51))
        anchors = np.array([[0.0, pts[:, 1].max()], [pts[:, 0].max(), 0.0]])
        chain = hull_bruteforce(np.vstack([pts, anchors]))
        for _, r in random_beamformer_cloud(
            ch, sp, SumPower(p_r=10.0), 2000, seed=5, matched_phases=True
        ):
            assert pareto_chain_contains(chain, r.r1, r.r2, 1e-6)

    def test_individual_sweep_hull_contains_random_alpha_cloud(self):
        rng = np.random.default_rng(52)
        ch = draw_reciprocal(rng, 3)
        sp = unit_params(3)
        p = np.array([2.0, 1.0, 3.0])
        pts = []
        for mu in np.linspace(0.0, 1.0, 51):
            sol = wsismin_individual(ch, sp, p, float(mu))
            r = rate_pair(ch, sp, individual_power_beamformer(ch, sp, p, sol))
            pts.append([r.r1, r.r2])
        pts = np.array(pts)
        anchors = np.array([[0.0, pts[:, 1].max()], [pts[:, 0].max(), 0.0]])
        chain = hull_bruteforce(np.vstack([pts, anchors]))
        for _, r in random_beamformer_cloud(
            ch, sp, IndividualPower(p=p), 2000, seed=6, matched_phases=True
        ):
            assert pareto_chain_contains(chain, r.r1, r.r2, 1e-6)

    def test_swept_points_never_dominated(self):
        rng = np.random.default_rng(53)
        ch = draw_reciprocal(rng, 3)
        sp = unit_params(3)
        cloud = random_beamformer_cloud(
            ch, sp, SumPower(p_r=10.0), 3000, seed=7, matched_phases=True
        )
        for mu in np.linspace(0.1, 0.9, 9):
            sol = wsismin_sum_power(ch, sp, 10.0, float(mu))
            r = rate_pair(ch, sp, sum_power_beamformer(ch, sol))
            for _, s in cloud:
                assert not (s.r1 >= r.r1 + 1e-9 and s.r2 >= r.r2 + 1e-9)

    def test_supporting_line_never_undercut(self):
        rng = np.random.default_rng(54)
        ch = draw_reciprocal(rng, 3)
        sp = unit_params(3)
        cloud = random_beamformer_cloud(
            ch, sp, SumPower(p_r=10.0), 2000, seed=8, matched_phases=True
        )
        ts = []
        for _, r in cloud:
            if r.r1 > 1e-9 and r.r2 > 1e-9:
                ts.append(map_u_inverse(r.r1, r.r2))
        ts = np.array(ts)
        for mu in np.linspace(0.0, 1.0, 11):
            mu = float(mu)
            sol = wsismin_sum_power(ch, sp, 10.0, mu)
            value = wsis_objective(ch, sp, mu, sol.x)
            line = mu * ts[:, 0] + (1.0 - mu) * ts[:, 1]
            assert np.all(line >= value - 1e-8)

    def test_objective_continuous_in_mu(self):
        rng = np.random.default_rng(55)
        ch = draw_reciprocal(rng, 4)
        sp = unit_params(4)
        mus = np.linspace(0.0, 1.0, 101)
        objs, spreads = [], []
        for mu in mus:
            sol = wsismin_sum_power(ch, sp, 10.0, float(mu))
            objs.append(wsis_objective(ch, sp, float(mu), sol.x))
            t1 = wsis_objective(ch, sp, 1.0, sol.x)
            t2 = wsis_objective(ch, sp, 0.0, sol.x)
            spreads.append(abs(t1 - t2))
        objs = np.array(objs)
        bound = 10.0 * 0.01 * max(1.0, float(np.max(spreads)))
        assert np.max(np.abs(np.diff(objs))) <= bound

    def test_snr_monotone_in_budget(self):
        rng = np.random.default_rng(56)
        ch = draw_reciprocal(rng, 3)
        sp = unit_params(3)
        prev = None
        for p_r in [1.0, 2.0, 5.0, 10.0, 20.0]:
            sol = wsismin_sum_power(ch, sp, p_r, 0.5)
            s = snr_pair(ch, sp, sum_power_beamformer(ch, sol))
            if prev is not None:
                assert s.snr1 >= prev.snr1 - 1e-12
                assert s.snr2 >= prev.snr2 - 1e-12
            prev = s

    def test_individual_snr_monotone_in_caps(self):
        rng = np.random.default_rng(57)
        ch = draw_reciprocal(rng, 3)
        sp = unit_params(3)
        base = np.array([1.0, 2.0, 0.5])
        prev = None
        for scale in [0.5, 1.0, 2.0, 4.0]:
            sol = wsismin_individual(ch, sp, base * scale, 0.5)
            s = snr_pair(ch, sp, individual_power_beamformer(ch, sp, base * scale, sol))
            if prev is not None:
                assert s.snr1 >= prev.snr1 - 1e-12
                assert s.snr2 >= prev.snr2 - 1e-12
            prev = s
