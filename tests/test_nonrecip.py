"""Rate-profile pipeline: bisection drivers, rank-one recovery, SNR targets."""

import inspect
from dataclasses import replace
from functools import cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import optimize

from twobeam import nonrecip
from twobeam.cli import load_scenario, main
from twobeam.errors import DomainError, SolverError
from twobeam.model import (
    Beamformer,
    ChannelSet,
    IndividualPower,
    RatePair,
    SumPower,
    SystemParams,
    noise_matrices,
    rate_pair,
    relay_powers,
    snr_pair,
)
from twobeam.nonrecip import (
    ExactReduction,
    Randomization,
    algorithm1_sum_power,
    algorithm2_individual,
    min_power_sdp,
    profile_rate,
    r_max_bound,
    rank_one_reduce,
    randomize_rank_one,
    snr_constraint_rows,
    snr_targets,
)
from twobeam.recip import (
    individual_power_beamformer,
    sum_power_beamformer,
    wsismin_individual,
    wsismin_sum_power,
)
from twobeam.region import sample_channels
from twobeam.sdp import SdpSolution, SdpStatus

from helpers import draw_nonreciprocal, draw_reciprocal, unit_params

SHIPPED_SUM = Path(__file__).resolve().parents[1] / "scenarios" / "nonreciprocal-sum.json"


class TestKappaSplit:
    def test_range_validation(self):
        rates = RatePair(1.0, 1.0)
        for kappa in (-0.1, 1.1, float("nan")):
            with pytest.raises(DomainError):
                snr_targets(kappa, 1.0)
            with pytest.raises(DomainError):
                profile_rate(rates, kappa)

    @given(kappa=st.floats(0.0, 1.0))
    @settings(max_examples=50, deadline=None)
    def test_split_sums_to_one(self, kappa):
        gamma1, gamma2 = snr_targets(kappa, 1.0)
        assert np.log2(1.0 + gamma1) + np.log2(1.0 + gamma2) == pytest.approx(2.0)


class TestBisectionGap:
    """The bisection gap epsilon, the one stopping control a caller sets."""

    def test_validation(self):
        ch = draw_nonreciprocal(np.random.default_rng(37), 2)
        sp = unit_params(2)
        for epsilon in (0.0, -1e-4, np.inf):
            with pytest.raises(DomainError):
                algorithm1_sum_power(ch, sp, 10.0, 0.5, epsilon)
            with pytest.raises(DomainError):
                algorithm2_individual(ch, sp, np.full(2, 2.0), 0.5, epsilon)

    def test_defaults(self):
        for driver in (algorithm1_sum_power, algorithm2_individual):
            assert inspect.signature(driver).parameters["epsilon"].default == 1e-4


class TestSnrTargets:
    def test_zero_rate(self):
        assert snr_targets(0.5, 0.0) == (0.0, 0.0)

    def test_one_sided_profile(self):
        gamma1, gamma2 = snr_targets(1.0, 2.0)
        assert gamma1 == pytest.approx(2.0**4 - 1.0, rel=1e-15)
        assert gamma2 == 0.0

    def test_overflow_guard(self):
        gamma1, gamma2 = snr_targets(0.9, 300.0)
        assert gamma1 == np.inf
        assert np.isfinite(gamma2)

    def test_negative_rate_rejected(self):
        with pytest.raises(DomainError):
            snr_targets(0.5, -1.0)


class TestProfileRate:
    def test_interior_profile(self):
        from twobeam.model import RatePair

        rates = RatePair(r1=0.6, r2=0.3)
        assert profile_rate(rates, 0.5) == pytest.approx(0.6, rel=1e-12)
        assert profile_rate(rates, 0.75) == pytest.approx(0.8, rel=1e-12)

    def test_one_sided(self):
        from twobeam.model import RatePair

        rates = RatePair(r1=0.6, r2=0.0)
        assert profile_rate(rates, 1.0) == pytest.approx(0.6, rel=1e-12)


class TestRMaxBound:
    def test_unit_scalar_instance(self):
        ch = ChannelSet.from_reciprocal([1.0 + 0j], [1.0 + 0j])
        sp = unit_params(1)
        expected = 2.0 * 0.5 * np.log2(1.0 + 10.0 / 13.0)
        assert r_max_bound(ch, sp, SumPower(10.0)) == pytest.approx(expected, rel=1e-12)

    def test_zero_direction_contributes_nothing(self):
        ch = ChannelSet(h1=[1.0 + 0j], h2=[0.0j], h1r=[1.0 + 0j], h2r=[1.0 + 0j])
        sp = unit_params(1)
        # f2 = h2 * h1r = 0: direction 1 carries no rate, the bound comes from
        # direction 2 alone.
        nm = noise_matrices(ch, sp)
        snr2 = sp.p_s1 * abs(ch.f1[0]) ** 2 / (sp.sigma_s2_sq * nm.d[0] / 10.0 + nm.a2[0])
        assert r_max_bound(ch, sp, SumPower(10.0)) == pytest.approx(
            np.log2(1.0 + snr2), rel=1e-12
        )

    def test_individual_budget_relaxes_to_sum(self):
        rng = np.random.default_rng(4)
        ch = draw_nonreciprocal(rng, 4)
        sp = unit_params(4)
        p = rng.uniform(0.5, 3.0, size=4)
        assert r_max_bound(ch, sp, IndividualPower(p)) == pytest.approx(
            r_max_bound(ch, sp, SumPower(float(np.sum(p)))), rel=1e-12
        )

    def test_bound_dominates_solved_rates(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            ch = draw_nonreciprocal(rng, 3)
            sp = unit_params(3)
            bound = r_max_bound(ch, sp, SumPower(10.0))
            r_sum, _ = algorithm1_sum_power(ch, sp, 10.0, 0.5)
            assert r_sum <= bound + 1e-12


class TestMinPowerSdp:
    def test_zero_rate_needs_zero_power(self):
        rng = np.random.default_rng(12)
        ch = draw_nonreciprocal(rng, 3)
        sol = min_power_sdp(ch, unit_params(3), 0.5, 0.0)
        assert sol.status is SdpStatus.OPTIMAL
        assert sol.objective == 0.0
        assert np.all(sol.x == 0.0)

    def test_scalar_one_way_closed_form(self):
        # kappa = 1 leaves only direction 1; at K = 1 the minimum power is
        # p = gamma sigma_S1^2 D / (P_S2 |f2|^2 - gamma A1) when positive.
        ch = ChannelSet(
            h1=[0.8 + 0.3j], h2=[1.1 - 0.4j], h1r=[0.9 + 0.1j], h2r=[0.6 + 0.7j]
        )
        sp = unit_params(1)
        r = 0.3
        gamma1, _ = snr_targets(1.0, r)
        nm = noise_matrices(ch, sp)
        denom = sp.p_s2 * abs(ch.f2[0]) ** 2 - gamma1 * nm.a1[0]
        assert denom > 0.0
        expected = gamma1 * sp.sigma_s1_sq * nm.d[0] / denom
        sol = min_power_sdp(ch, sp, 1.0, r)
        assert sol.status is SdpStatus.OPTIMAL
        assert sol.objective == pytest.approx(expected, rel=1e-6)

    def test_unreachable_target_infeasible(self):
        ch = ChannelSet(
            h1=[0.8 + 0.3j], h2=[1.1 - 0.4j], h1r=[0.9 + 0.1j], h2r=[0.6 + 0.7j]
        )
        sp = unit_params(1)
        # gamma grows without bound while the usable signal-to-amplified-noise
        # ratio saturates, so a large enough rate is infeasible at any power.
        sol = min_power_sdp(ch, sp, 1.0, 20.0)
        assert sol.status is SdpStatus.INFEASIBLE

    def test_overflow_guard_reports_infeasible(self):
        rng = np.random.default_rng(1)
        ch = draw_nonreciprocal(rng, 2)
        sol = min_power_sdp(ch, unit_params(2), 0.9, 300.0)
        assert sol.status is SdpStatus.INFEASIBLE
        assert sol.objective == np.inf

    def test_reciprocal_cross_check(self):
        # The closed-form reciprocal solver and the SDP must agree: convert a
        # solved rate pair to (kappa, r) and the minimum power is the budget.
        rng = np.random.default_rng(21)
        ch = draw_reciprocal(rng, 2)
        sp = unit_params(2)
        sol = wsismin_sum_power(ch, sp, 10.0, 0.5)
        rates = rate_pair(ch, sp, sum_power_beamformer(ch, sol))
        r = rates.r1 + rates.r2
        kappa = rates.r1 / r
        power = min_power_sdp(ch, sp, kappa, r)
        assert power.status is SdpStatus.OPTIMAL
        assert power.objective == pytest.approx(10.0, rel=1e-4)


class TestAlgorithm1:
    def test_tiny_budget_gives_no_rate(self):
        rng = np.random.default_rng(31)
        ch = draw_nonreciprocal(rng, 3)
        r_sum, x_opt = algorithm1_sum_power(ch, unit_params(3), 1e-9, 0.5)
        assert r_sum < 2e-4
        assert np.all(x_opt == 0.0) or np.trace(x_opt).real < 1e-6

    def test_monotone_in_budget(self):
        rng = np.random.default_rng(32)
        ch = draw_nonreciprocal(rng, 3)
        sp = unit_params(3)
        r_small, _ = algorithm1_sum_power(ch, sp, 1.0, 0.5)
        r_big, _ = algorithm1_sum_power(ch, sp, 10.0, 0.5)
        assert r_big >= r_small

    def test_bisection_brackets_the_optimum(self):
        rng = np.random.default_rng(33)
        ch = draw_nonreciprocal(rng, 3)
        sp = unit_params(3)
        epsilon = 1e-4
        r_sum, _ = algorithm1_sum_power(ch, sp, 10.0, 0.4, epsilon)
        at_low = min_power_sdp(ch, sp, 0.4, r_sum)
        assert at_low.status is SdpStatus.OPTIMAL
        assert at_low.objective <= 10.0 * (1.0 + 1e-9)
        probe = min_power_sdp(ch, sp, 0.4, r_sum + 2.0 * epsilon)
        assert probe.status is not SdpStatus.OPTIMAL or probe.objective > 10.0

    def test_shipped_scenario_solves_within_budget_without_min_power(self, monkeypatch, capsys):
        # Each step asks one feasibility SDP; the min-trace solver is only a
        # reference and must not run on the solve path.
        def forbidden(problem):
            raise AssertionError("pooled bisection called solve_min_trace")

        monkeypatch.setattr("twobeam.nonrecip.solve_min_trace", forbidden)
        sc = load_scenario(str(SHIPPED_SUM))
        for seed in (1, 2, 3):
            ch = sample_channels(sc, seed)
            d = noise_matrices(ch, sc.params).d
            for kappa in (0.2, 0.5, 1.0):
                r_sum, x_best = algorithm1_sum_power(ch, sc.params, sc.budget.p_r, kappa)
                assert r_sum > 0.0
                # Only rounding of the final rescale may remain above the budget.
                assert d @ np.real(np.diag(x_best)) <= sc.budget.p_r * (1.0 + 1e-12)
        assert main(["solve", str(SHIPPED_SUM), "--kappa", "0.5"]) == 0
        assert "budget check (sum <= 10.0 W): ok" in capsys.readouterr().out

    def test_exhausted_iterations_raise(self, monkeypatch):
        rng = np.random.default_rng(34)
        ch = draw_nonreciprocal(rng, 2)
        monkeypatch.setattr(nonrecip, "_MAX_STEPS", 3)
        with pytest.raises(SolverError):
            algorithm1_sum_power(ch, unit_params(2), 10.0, 0.5, 1e-12)

    @pytest.mark.parametrize("budget", ["pooled", "caps"])
    def test_unresolved_verdict_raises(self, monkeypatch, budget):
        # MAX_ITER certifies neither side of the bracket, so the driver must
        # fail the sample rather than read it as infeasible.
        def stalled(problem):
            k = problem.dimension
            return SdpSolution(
                x=np.zeros((k, k), dtype=complex),
                status=SdpStatus.MAX_ITER,
                objective=0.0,
                max_violation=0.0,
                duality_gap=1.0,
            )

        monkeypatch.setattr("twobeam.nonrecip.solve_feasibility", stalled)
        rng = np.random.default_rng(36)
        ch = draw_nonreciprocal(rng, 3)
        sp = unit_params(3)
        with pytest.raises(SolverError):
            if budget == "pooled":
                algorithm1_sum_power(ch, sp, 10.0, 0.5)
            else:
                algorithm2_individual(ch, sp, np.full(3, 2.0), 0.5)

    def test_reciprocal_symmetric_point(self):
        # On a reciprocal channel the kappa = 1/2 profile pins r1 = r2; the
        # closed-form sweep must find the same balanced point.
        rng = np.random.default_rng(35)
        ch = draw_reciprocal(rng, 3)
        sp = unit_params(3)

        def rate_gap(mu: float) -> float:
            rates = rate_pair(ch, sp, sum_power_beamformer(ch, wsismin_sum_power(ch, sp, 10.0, mu)))
            return rates.r1 - rates.r2

        mu_star = optimize.brentq(rate_gap, 0.0, 1.0, xtol=1e-12)
        balanced = rate_pair(
            ch, sp, sum_power_beamformer(ch, wsismin_sum_power(ch, sp, 10.0, mu_star))
        )
        r_sum, _ = algorithm1_sum_power(ch, sp, 10.0, 0.5)
        assert r_sum == pytest.approx(balanced.r1 + balanced.r2, abs=1e-3)


class TestRankOneReduce:
    def test_rank_one_input_round_trips(self):
        rng = np.random.default_rng(41)
        ch = draw_nonreciprocal(rng, 3)
        sp = unit_params(3)
        w0 = rng.normal(size=3) + 1j * rng.normal(size=3)
        x = np.outer(w0, w0.conj())
        res = rank_one_reduce(x, ch, sp, 1.0, 1.0)
        assert isinstance(res.source, ExactReduction)
        assert not res.source.fallback
        ref = rate_pair(ch, sp, Beamformer(w0))
        assert res.rates.r1 == pytest.approx(ref.r1, rel=1e-9)
        assert res.rates.r2 == pytest.approx(ref.r2, rel=1e-9)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_witness_rejected(self, bad):
        rng = np.random.default_rng(44)
        ch = draw_nonreciprocal(rng, 2)
        x = np.eye(2, dtype=complex)
        x[1, 1] = bad
        with pytest.raises(DomainError, match="^x_opt must contain only finite entries$"):
            rank_one_reduce(x, ch, unit_params(2), 1.0, 1.0)

    def test_zero_matrix_reduces_to_silence(self):
        rng = np.random.default_rng(42)
        ch = draw_nonreciprocal(rng, 2)
        res = rank_one_reduce(np.zeros((2, 2), dtype=complex), ch, unit_params(2), 1.0, 1.0)
        assert np.all(res.w.w == 0.0)

    def test_constructed_rank_two_preserves_traces(self):
        rng = np.random.default_rng(43)
        ch = draw_nonreciprocal(rng, 3)
        sp = unit_params(3)
        w1 = rng.normal(size=3) + 1j * rng.normal(size=3)
        w2 = rng.normal(size=3) + 1j * rng.normal(size=3)
        x = np.outer(w1, w1.conj()) + np.outer(w2, w2.conj())
        gamma1, gamma2 = 0.8, 1.3
        res = rank_one_reduce(x, ch, sp, gamma1, gamma2)
        assert not res.source.fallback
        mats = list(snr_constraint_rows(ch, sp, gamma1, gamma2))
        d_mat = np.diag(noise_matrices(ch, sp).d).astype(complex)
        mats.append((d_mat, 0.0))
        w = res.w.w
        for mat, _ in mats:
            before = float(np.real(np.sum(mat.conj() * x)))
            after = float(np.real(w.conj() @ mat @ w))
            assert after == pytest.approx(before, abs=1e-8 * max(1.0, abs(before)))

    @pytest.mark.parametrize("gamma1, gamma2", [(0.05, 0.02), (0.2, 0.2)])
    def test_degenerate_step_falls_back_to_dominant_eigenvector(
        self, monkeypatch, gamma1, gamma2
    ):
        rng = np.random.default_rng(43)
        ch = draw_nonreciprocal(rng, 3)
        sp = unit_params(3)
        w1 = rng.normal(size=3) + 1j * rng.normal(size=3)
        w2 = rng.normal(size=3) + 1j * rng.normal(size=3)
        x = np.outer(w1, w1.conj()) + np.outer(w2, w2.conj())
        monkeypatch.setattr(
            nonrecip, "_trace_preserving_direction", lambda mats: np.zeros_like(mats[0])
        )
        res = rank_one_reduce(x, ch, sp, gamma1, gamma2)
        assert res.source.fallback
        vals, vecs = np.linalg.eigh(x)
        top = vecs[:, -1]
        w = res.w.w
        assert abs(top.conj() @ w) == pytest.approx(np.linalg.norm(w), rel=1e-12)
        # The fallback spends exactly what X spends, never more.
        d = noise_matrices(ch, sp).d
        assert d @ np.abs(w) ** 2 == pytest.approx(d @ np.real(np.diag(x)), rel=1e-12)
        # X's power is at least its top eigen-part's, so both rates can only rise.
        floor = rate_pair(ch, sp, Beamformer(np.sqrt(vals[-1]) * top))
        assert res.rates.r1 >= floor.r1
        assert res.rates.r2 >= floor.r2

    @pytest.mark.parametrize("k", [4, 20])
    def test_full_rank_input_preserves_traces(self, monkeypatch, k):
        rng = np.random.default_rng(45)
        ch = draw_nonreciprocal(rng, k)
        sp = unit_params(k)
        factor = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
        x = factor @ factor.conj().T
        passes = []
        step = nonrecip._trace_preserving_direction
        monkeypatch.setattr(
            nonrecip, "_trace_preserving_direction", lambda m: passes.append(m) or step(m)
        )
        gamma1, gamma2 = 0.8, 1.3
        res = rank_one_reduce(x, ch, sp, gamma1, gamma2)
        assert not res.source.fallback
        assert len(passes) == k - 1
        mats = [mat for mat, _ in snr_constraint_rows(ch, sp, gamma1, gamma2)]
        mats.append(np.diag(noise_matrices(ch, sp).d))
        w = res.w.w
        for mat in mats:
            before = float(np.real(np.sum(mat.conj() * x)))
            after = float(np.real(w.conj() @ mat @ w))
            assert after == pytest.approx(before, rel=1e-8)

    def test_solved_instances_meet_profile_targets(self):
        rng = np.random.default_rng(44)
        sp = unit_params(3)
        for trial in range(6):
            ch = draw_nonreciprocal(rng, 3)
            kappa = float(rng.uniform(0.2, 0.8))
            r_sum, x_opt = algorithm1_sum_power(ch, sp, 10.0, kappa)
            gamma1, gamma2 = snr_targets(kappa, r_sum)
            res = rank_one_reduce(x_opt, ch, sp, gamma1, gamma2)
            assert not res.source.fallback
            assert res.rates.r1 >= kappa * r_sum - 1e-4
            assert res.rates.r2 >= (1.0 - kappa) * r_sum - 1e-4
            assert profile_rate(res.rates, kappa) <= r_sum + 1e-4
            power = float(np.sum(relay_powers(ch, sp, res.w)))
            assert power <= float(np.real(np.trace(np.diag(noise_matrices(ch, sp).d) @ x_opt))) * (
                1.0 + 1e-8
            )


class TestAlgorithm2:
    def test_tiny_caps_give_no_rate(self):
        rng = np.random.default_rng(51)
        ch = draw_nonreciprocal(rng, 3)
        r_sum, _ = algorithm2_individual(ch, unit_params(3), np.full(3, 1e-9), 0.5)
        assert r_sum < 2e-4

    def test_relaxation_ordering_against_sum_budget(self):
        rng = np.random.default_rng(52)
        ch = draw_nonreciprocal(rng, 3)
        sp = unit_params(3)
        p = np.array([2.5, 3.0, 4.5])
        r_ind, x_ind = algorithm2_individual(ch, sp, p, 0.5)
        r_sum, _ = algorithm1_sum_power(ch, sp, float(np.sum(p)), 0.5)
        assert r_ind <= r_sum + 2e-4
        caps = p / noise_matrices(ch, sp).d
        assert np.all(np.real(np.diag(x_ind)) <= caps * (1.0 + 1e-6) + 1e-12)

    def test_symmetric_channel_equal_caps_match_sum_budget(self):
        # Identical relays make equal power splitting optimal, so per-relay
        # caps of P_R/K cost nothing against the pooled budget.
        ch = ChannelSet(
            h1=np.full(3, 0.9 + 0.4j),
            h2=np.full(3, 0.7 - 0.6j),
            h1r=np.full(3, 1.1 + 0.2j),
            h2r=np.full(3, 0.5 + 0.8j),
        )
        sp = unit_params(3)
        r_sum, _ = algorithm1_sum_power(ch, sp, 9.0, 0.5)
        r_ind, _ = algorithm2_individual(ch, sp, np.full(3, 3.0), 0.5)
        assert r_ind == pytest.approx(r_sum, abs=2.1e-4)


class TestRandomizeRankOne:
    def test_deterministic_for_fixed_seed(self):
        rng = np.random.default_rng(61)
        ch = draw_nonreciprocal(rng, 3)
        sp = unit_params(3)
        x = np.diag(rng.uniform(0.5, 2.0, size=3)).astype(complex)
        a = randomize_rank_one(x, ch, sp, 1.0, 1.0, num_candidates=64, seed=9)
        b = randomize_rank_one(x, ch, sp, 1.0, 1.0, num_candidates=64, seed=9)
        assert np.array_equal(a.w.w, b.w.w)
        assert a.source == b.source

    def test_per_relay_power_copies_diagonal(self):
        rng = np.random.default_rng(62)
        ch = draw_nonreciprocal(rng, 4)
        sp = unit_params(4)
        diag = rng.uniform(0.2, 3.0, size=4)
        x = np.diag(diag).astype(complex)
        res = randomize_rank_one(x, ch, sp, 0.7, 1.4, num_candidates=32, seed=5)
        assert np.abs(res.w.w) ** 2 == pytest.approx(diag, rel=1e-14)

    def test_scalar_violation_closed_form(self):
        ch = ChannelSet(
            h1=[0.8 + 0.3j], h2=[1.1 - 0.4j], h1r=[0.9 + 0.1j], h2r=[0.6 + 0.7j]
        )
        sp = unit_params(1)
        x = np.array([[2.0]], dtype=complex)
        gamma1, gamma2 = 0.9, 1.8
        res = randomize_rank_one(x, ch, sp, gamma1, gamma2, num_candidates=8, seed=0)
        nm = noise_matrices(ch, sp)
        v1 = 1.0 - (sp.p_s2 * 2.0 * abs(ch.f2[0]) ** 2 - gamma1 * 2.0 * nm.a1[0]) / (
            gamma1 * sp.sigma_s1_sq
        )
        v2 = 1.0 - (sp.p_s1 * 2.0 * abs(ch.f1[0]) ** 2 - gamma2 * 2.0 * nm.a2[0]) / (
            gamma2 * sp.sigma_s2_sq
        )
        assert isinstance(res.source, Randomization)
        assert res.source.best_violation == pytest.approx(max(v1, v2), rel=1e-12)
        assert res.source.num_candidates == 8

    def test_rank_one_input_nearly_recovered(self):
        # With the targets set to the SDR solution's own SNRs, minimizing the
        # violation steers the phase draw toward the principal eigenvector.
        rng = np.random.default_rng(63)
        sp = unit_params(3)
        for trial in range(3):
            ch = draw_nonreciprocal(rng, 3)
            w0 = rng.normal(size=3) + 1j * rng.normal(size=3)
            x = np.outer(w0, w0.conj())
            snrs = snr_pair(ch, sp, Beamformer(w0))
            res = randomize_rank_one(
                x, ch, sp, snrs.snr1, snrs.snr2, num_candidates=2000, seed=trial
            )
            ref = rate_pair(ch, sp, Beamformer(w0))
            assert res.rates.r1 >= 0.95 * ref.r1 - 1e-9
            assert res.rates.r2 >= 0.95 * ref.r2 - 1e-9

    def test_candidate_count_validated(self):
        rng = np.random.default_rng(64)
        ch = draw_nonreciprocal(rng, 2)
        with pytest.raises(DomainError):
            randomize_rank_one(
                np.eye(2, dtype=complex), ch, unit_params(2), 1.0, 1.0, num_candidates=0, seed=1
            )

    @pytest.mark.parametrize("count", [2.5, "3", True])
    def test_candidate_count_must_be_an_integer(self, count):
        ch = draw_nonreciprocal(np.random.default_rng(65), 2)
        with pytest.raises(DomainError, match="^num_candidates must be an integer$"):
            randomize_rank_one(
                np.eye(2, dtype=complex), ch, unit_params(2), 1.0, 1.0,
                num_candidates=count, seed=1,
            )

    @pytest.mark.parametrize("row, col, bad", [(0, 0, np.nan), (0, 1, np.inf)])
    def test_nonfinite_witness_rejected(self, row, col, bad):
        ch = draw_nonreciprocal(np.random.default_rng(66), 2)
        x = np.eye(2, dtype=complex)
        x[row, col] = bad
        with pytest.raises(DomainError, match="^x_opt must contain only finite entries$"):
            randomize_rank_one(x, ch, unit_params(2), 1.0, 1.0, num_candidates=10, seed=1)


EDGE_CASES = ["k1", "dead_relay", "h1_zero", "p_s_1e-6", "p_s_1e6"]
EDGE_KAPPAS = [0.0, 0.5, 1.0]
EDGE_EPS = 1e-4


def edge_instance(case: str) -> tuple[ChannelSet, SystemParams]:
    """K = 1; a relay with h1 = h2r = 0; h1 = 0 everywhere; or P_S of 1e-6 or 1e6 W."""
    k = 1 if case == "k1" else 3
    ch = draw_nonreciprocal(np.random.default_rng(90), k)
    sp = unit_params(k)
    if case == "dead_relay":
        h1, h2r = ch.h1.copy(), ch.h2r.copy()
        h1[0] = h2r[0] = 0.0
        ch = ChannelSet(h1=h1, h2=ch.h2, h1r=ch.h1r, h2r=h2r)
    elif case == "h1_zero":
        ch = ChannelSet(h1=np.zeros(k, dtype=complex), h2=ch.h2, h1r=ch.h1r, h2r=ch.h2r)
    elif case.startswith("p_s_"):
        p_s = float(case[4:])
        sp = replace(sp, p_s1=p_s, p_s2=p_s)
    return ch, sp


@cache
def edge_caps_run(case: str, kappa: float):
    ch, sp = edge_instance(case)
    p = np.full(ch.k, 2.0)
    r, x = algorithm2_individual(ch, sp, p, kappa)
    res = randomize_rank_one(x, ch, sp, *snr_targets(kappa, r), num_candidates=100, seed=0)
    return ch, sp, p, r, res


class TestEdgeInputs:
    """Both pipelines with their extraction on edge inputs, at kappa 0, 0.5, 1."""

    @pytest.mark.parametrize("kappa", EDGE_KAPPAS)
    @pytest.mark.parametrize("case", EDGE_CASES)
    def test_pooled_budget_reduces_exactly(self, case, kappa):
        ch, sp = edge_instance(case)
        r, x = algorithm1_sum_power(ch, sp, 10.0, kappa)
        res = rank_one_reduce(x, ch, sp, *snr_targets(kappa, r))
        assert r >= 0.0
        assert float(np.sum(relay_powers(ch, sp, res.w))) <= 10.0 * (1.0 + 1e-9)
        assert not res.source.fallback
        assert profile_rate(res.rates, kappa) == pytest.approx(r, abs=EDGE_EPS)

    @pytest.mark.parametrize("kappa", EDGE_KAPPAS)
    @pytest.mark.parametrize("case", EDGE_CASES)
    def test_caps_randomized_rate_stays_below_relaxed(self, case, kappa):
        _, _, _, r, res = edge_caps_run(case, kappa)
        assert r >= 0.0
        assert profile_rate(res.rates, kappa) <= r + EDGE_EPS

    @pytest.mark.parametrize("kappa", EDGE_KAPPAS)
    @pytest.mark.parametrize("case", EDGE_CASES)
    def test_caps_met(self, case, kappa):
        ch, sp, p, _, res = edge_caps_run(case, kappa)
        assert np.all(relay_powers(ch, sp, res.w) <= p * (1.0 + 1e-9))


SCALING_PARAMS = SystemParams(
    p_s1=2.0, p_s2=0.5, sigma_relay=np.array([0.3, 1.5, 0.8]), sigma_s1_sq=0.7, sigma_s2_sq=1.9
)
SCALING_CAPS = np.array([2.0, 3.0, 1.0])


def jointly_scaled(c: float) -> SystemParams:
    sp = SCALING_PARAMS
    return SystemParams(
        p_s1=c * sp.p_s1,
        p_s2=c * sp.p_s2,
        sigma_relay=c * sp.sigma_relay,
        sigma_s1_sq=c * sp.sigma_s1_sq,
        sigma_s2_sq=c * sp.sigma_s2_sq,
    )


@cache
def scaled_profile_rate(budget: str, c: float) -> float:
    ch = draw_nonreciprocal(np.random.default_rng(71), 3)
    if budget == "pooled":
        return algorithm1_sum_power(ch, jointly_scaled(c), c * 10.0, 0.5)[0]
    return algorithm2_individual(ch, jointly_scaled(c), c * SCALING_CAPS, 0.5)[0]


class TestJointScaling:
    """Scaling every power and noise variance together by c leaves each rate
    unchanged: every SNR is a ratio of terms that all scale with c."""

    @pytest.mark.parametrize(
        "budget, c",
        [
            ("pooled", 1e-6),
            ("pooled", 1e6),
            ("caps", 1e-6),
            ("caps", 1e6),
        ],
    )
    def test_nonreciprocal_rate_invariant(self, budget, c):
        base = scaled_profile_rate(budget, 1.0)
        assert base > 0.0
        assert abs(scaled_profile_rate(budget, c) - base) <= 1e-4

    def test_reciprocal_closed_forms_invariant(self):
        ch = draw_reciprocal(np.random.default_rng(72), 3)

        def rates(c):
            sp = jointly_scaled(c)
            w_sum = sum_power_beamformer(ch, wsismin_sum_power(ch, sp, c * 10.0, 0.5))
            caps = c * SCALING_CAPS
            w_ind = individual_power_beamformer(ch, sp, caps, wsismin_individual(ch, sp, caps, 0.5))
            pairs = [rate_pair(ch, sp, w) for w in (w_sum, w_ind)]
            return np.array([(r.r1, r.r2) for r in pairs])

        base = rates(1.0)
        assert np.all(base > 0.0)
        for c in (1e-6, 1e6):
            np.testing.assert_allclose(rates(c), base, rtol=1e-12)


class TestLargeBudget:
    @pytest.mark.xfail(
        raises=SolverError,
        strict=True,
        reason="near rate 0.9597 one pooled feasibility step stops at mu <= 1e-14 with"
        " primal residual 1.6e-8 and relative gap 1.06e-8, just past the 1e-8 allowance",
    )
    def test_pooled_rate_reaches_caps_rate(self):
        # Five caps of 2e5 W sum to the pooled 1e6 W, so the pooled rate is at
        # least the caps rate; both saturate toward the relay-noise limit.
        ch = draw_nonreciprocal(np.random.default_rng(0), 5)
        sp = unit_params(5)
        capped = algorithm2_individual(ch, sp, np.full(5, 2e5), 0.0)[0]
        assert capped == pytest.approx(0.95959, abs=1e-5)
        assert algorithm1_sum_power(ch, sp, 1e6, 0.0)[0] >= capped - 1e-4
