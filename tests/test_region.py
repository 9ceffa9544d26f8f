"""Region pipeline: sampling, hulls, Monte Carlo builds, containment."""

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq

from twobeam.cli import load_scenario
from twobeam.errors import DimensionMismatchError, DomainError, SolverError
from twobeam.model import IndividualPower, RatePair, SumPower, SystemParams, rate_pair
from twobeam.nonrecip import (
    algorithm1_sum_power,
    algorithm2_individual,
    profile_rate,
    randomize_rank_one,
    snr_targets,
)
from twobeam.oracle import hull_bruteforce
from twobeam.recip import (
    individual_power_beamformer,
    sum_power_beamformer,
    wsismin_individual,
    wsismin_sum_power,
)
from twobeam.region import (
    ContainmentReport,
    RegionResult,
    Scenario,
    build_region,
    closed_hull,
    convex_hull,
    default_grid,
    draw_channels,
    points_expansion,
    region_contains,
    region_csv_text,
    region_json_text,
    sample_channels,
    scenario_to_dict,
)
from twobeam.sdp import SdpSolution, SdpStatus

from helpers import unit_params

SHIPPED_CAPS = Path(__file__).resolve().parents[1] / "scenarios" / "nonreciprocal-individual.json"


def unit_scenario(k, budget, *, reciprocal=True, grid=None, realizations=1, seed=0, **kw):
    if grid is None:
        grid = default_grid(0.1)
    return Scenario(
        k=k,
        params=unit_params(k),
        budget=budget,
        reciprocal=reciprocal,
        grid=grid,
        realizations=realizations,
        seed=seed,
        **kw,
    )


NONRECIP_BUDGETS = [SumPower(6.0), IndividualPower(np.array([2.0, 1.0]))]

def chain_region(hull):
    # Minimal RegionResult wrapper when only the hull matters.
    top = hull[np.argmax(hull[:, 0] + hull[:, 1])]
    return RegionResult(
        solver="test",
        grid=np.array([0.5]),
        means=np.array([top]),
        n_success=np.array([1]),
        hull=hull,
    )


class TestDefaultGrid:
    def test_tenth_step_gives_eleven_points(self):
        grid = default_grid(0.1)
        assert grid.size == 11
        assert grid[0] == 0.0 and grid[-1] == 1.0

    def test_default_step_is_finer(self):
        assert default_grid().size == 21

    def test_step_must_divide_one(self):
        with pytest.raises(DomainError):
            default_grid(0.3)
        with pytest.raises(DomainError):
            default_grid(-0.1)


class TestScenarioValidation:
    def test_grid_outside_unit_interval_rejected(self):
        with pytest.raises(DomainError):
            unit_scenario(2, SumPower(10.0), grid=np.array([0.0, 1.5]))

    def test_param_relay_count_must_match(self):
        with pytest.raises(DimensionMismatchError):
            Scenario(
                k=3,
                params=unit_params(2),
                budget=SumPower(10.0),
                reciprocal=True,
                grid=default_grid(0.5),
                realizations=1,
                seed=0,
            )

    def test_budget_relay_count_must_match(self):
        with pytest.raises(DimensionMismatchError):
            unit_scenario(2, IndividualPower(np.array([1.0, 2.0, 3.0])))

    def test_counts_and_scalars_validated(self):
        with pytest.raises(DomainError):
            unit_scenario(2, SumPower(10.0), realizations=0)
        with pytest.raises(DomainError):
            unit_scenario(2, SumPower(10.0), seed=-1)
        with pytest.raises(DomainError):
            unit_scenario(2, SumPower(10.0), channel_variance=0.0)
        with pytest.raises(DomainError):
            unit_scenario(2, SumPower(10.0), epsilon_bits=0.0)
        with pytest.raises(DomainError):
            unit_scenario(2, SumPower(10.0), rand_candidates=0)

    @pytest.mark.parametrize("value", [2.7, 0.5, "3", True])
    @pytest.mark.parametrize("field", ["k", "realizations", "seed", "rand_candidates"])
    def test_counts_must_be_integers(self, field, value):
        counts = {"k": 2, "realizations": 1, "seed": 0, "rand_candidates": 10}
        with pytest.raises(DomainError, match=f"^{field} must be an integer$"):
            Scenario(
                params=unit_params(2), budget=SumPower(10.0), reciprocal=True,
                grid=default_grid(0.5), **{**counts, field: value},
            )

    def test_numpy_integer_counts_accepted(self):
        sc = unit_scenario(
            np.int64(2), SumPower(10.0), realizations=np.int32(3), seed=np.uint64(4),
            rand_candidates=np.int16(5),
        )
        assert (sc.k, sc.realizations, sc.seed, sc.rand_candidates) == (2, 3, 4, 5)
        assert all(type(v) is int for v in (sc.k, sc.realizations, sc.seed, sc.rand_candidates))


class TestSampleChannels:
    @pytest.mark.parametrize(
        "k, variance, message",
        [(2.5, 1.0, "k must be an integer"), (0, 1.0, "k must be at least 1"),
         (2, -1.0, "variance must be finite and strictly positive"),
         (2, np.inf, "variance must be finite and strictly positive")],
    )
    def test_draw_checks_count_and_variance(self, k, variance, message):
        with pytest.raises(DomainError, match=f"^{message}$"):
            draw_channels(np.random.default_rng(0), k, True, variance)

    def test_same_seed_same_draw(self):
        sc = unit_scenario(4, SumPower(10.0), reciprocal=False)
        a = sample_channels(sc, 7)
        b = sample_channels(sc, 7)
        np.testing.assert_array_equal(a.h1, b.h1)
        np.testing.assert_array_equal(a.h2r, b.h2r)

    def test_reciprocal_mode_copies_forward_channels(self):
        sc = unit_scenario(3, SumPower(10.0))
        ch = sample_channels(sc, 11)
        np.testing.assert_array_equal(ch.h1, ch.h1r)
        np.testing.assert_array_equal(ch.h2, ch.h2r)
        assert ch.reciprocal()

    def test_empirical_variance_close_to_nominal(self):
        sc = unit_scenario(5, SumPower(10.0), reciprocal=False)
        kids = np.random.SeedSequence(123).spawn(5000)
        acc = 0.0
        count = 0
        for kid in kids:
            ch = sample_channels(sc, kid)
            for vec in (ch.h1, ch.h2, ch.h1r, ch.h2r):
                acc += float(np.sum(np.abs(vec) ** 2))
                count += vec.size
        assert count == 100_000
        assert acc / count == pytest.approx(1.0, rel=0.02)

    def test_variance_parameter_scales_entries(self):
        sc = unit_scenario(5, SumPower(10.0), reciprocal=False, channel_variance=4.0)
        kids = np.random.SeedSequence(5).spawn(500)
        entries = np.concatenate(
            [
                np.abs(vec) ** 2
                for kid in kids
                for vec in ((lambda c: (c.h1, c.h2, c.h1r, c.h2r))(sample_channels(sc, kid)))
            ]
        )
        assert entries.mean() == pytest.approx(4.0, rel=0.05)


class TestConvexHull:
    def test_collinear_points_reduce_to_endpoints(self):
        pts = np.array([[0.0, 1.0], [0.25, 0.75], [0.5, 0.5], [1.0, 0.0]])
        hull = convex_hull(pts)
        np.testing.assert_array_equal(hull, np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_single_point_passes_through(self):
        hull = convex_hull(np.array([[0.3, 0.4]]))
        np.testing.assert_array_equal(hull, np.array([[0.3, 0.4]]))

    def test_dominated_points_eliminated(self):
        pts = np.array([[0.5, 0.5], [0.4, 0.4], [0.2, 0.8], [0.8, 0.2]])
        hull = convex_hull(pts)
        assert not any(np.array_equal(v, [0.4, 0.4]) for v in hull)

    def test_matches_bruteforce_on_random_cloud(self):
        rng = np.random.default_rng(90)
        pts = rng.uniform(0.0, 1.0, size=(1000, 2))
        fast = convex_hull(pts)
        slow = hull_bruteforce(pts)
        np.testing.assert_array_equal(fast, slow)

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40))
    @settings(max_examples=60, deadline=None)
    def test_hull_is_idempotent(self, seed, n):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(0.0, 1.0, size=(n, 2))
        hull = convex_hull(pts)
        np.testing.assert_array_equal(convex_hull(hull), hull)

    def test_input_validation(self):
        with pytest.raises(DimensionMismatchError):
            convex_hull(np.empty((0, 2)))
        with pytest.raises(DomainError):
            convex_hull(np.array([[np.nan, 0.0]]))

    @pytest.mark.parametrize(
        "hull, error",
        [
            (np.zeros((0, 2)), DimensionMismatchError),
            (np.zeros(2), DimensionMismatchError),
            (np.array([[np.nan, 1.0], [1.0, 0.0]]), DomainError),
            (np.array([[0.0, 1.0], [0.0, 1.0]]), DomainError),
            (np.array([[1.0, 0.0], [0.0, 1.0]]), DomainError),
            (np.array([[0.0, 1.0], [1.0, 2.0]]), DomainError),
            (np.array([[0.0, 1.0], [0.2, 0.3], [1.0, 0.0]]), DomainError),
        ],
        ids=["empty", "1-d", "nan", "repeated-vertex", "reversed", "rising", "non-convex"],
    )
    def test_points_expansion_checks_hull(self, hull, error):
        with pytest.raises(error, match="^hull must"):
            points_expansion(hull, np.array([[0.5, 0.5]]))

    @pytest.mark.parametrize("points", [np.zeros((0, 2)), np.zeros(2)], ids=["empty", "1-d"])
    def test_closed_hull_checks_points(self, points):
        with pytest.raises(DimensionMismatchError, match="^points must be a non-empty"):
            closed_hull(points)

    def test_points_expansion_rejects_nonfinite_points(self):
        with pytest.raises(DomainError, match="^points must be finite$"):
            points_expansion(np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([[np.nan, 0.5]]))


class TestBuildRegionReciprocal:
    def test_single_realization_matches_direct_sweep(self):
        sc = unit_scenario(1, SumPower(10.0), grid=default_grid(0.1), seed=21)
        res = build_region(sc)
        child = np.random.SeedSequence(sc.seed).spawn(1)[0]
        ch = sample_channels(sc, child.spawn(2)[0])
        pts = []
        for mu in sc.grid:
            sol = wsismin_sum_power(ch, sc.params, 10.0, float(mu))
            r = rate_pair(ch, sc.params, sum_power_beamformer(ch, sol))
            pts.append([r.r1, r.r2])
        np.testing.assert_array_equal(res.means, np.array(pts))
        np.testing.assert_array_equal(res.hull, closed_hull(np.array(pts)))
        assert res.solver == "recip-closed-form"
        assert res.randomized is None

    def test_two_point_grid_hull_is_endpoint_triangle(self):
        sc = unit_scenario(2, SumPower(10.0), grid=np.array([0.0, 1.0]), seed=33)
        res = build_region(sc)
        child = np.random.SeedSequence(sc.seed).spawn(1)[0]
        ch = sample_channels(sc, child.spawn(2)[0])
        ends = []
        for mu in (0.0, 1.0):
            sol = wsismin_sum_power(ch, sc.params, 10.0, mu)
            r = rate_pair(ch, sc.params, sum_power_beamformer(ch, sol))
            ends.append([r.r1, r.r2])
        ends = np.array(ends)
        expected = closed_hull(ends)
        np.testing.assert_array_equal(res.hull, expected)
        # Both one-way endpoints survive as hull vertices.
        for e in ends:
            assert any(np.array_equal(e, v) for v in res.hull)

    def test_averaging_and_samples_bookkeeping(self):
        sc = unit_scenario(
            2, SumPower(10.0), grid=np.array([0.5]), realizations=3, seed=4, keep_samples=True
        )
        res = build_region(sc)
        assert res.samples.shape == (3, 1, 2)
        assert np.all(np.isfinite(res.samples))
        np.testing.assert_allclose(res.samples.mean(axis=0), res.means, rtol=1e-15)
        np.testing.assert_array_equal(res.n_success, [3])
        lean = build_region(
            unit_scenario(2, SumPower(10.0), grid=np.array([0.5]), realizations=3, seed=4)
        )
        assert lean.samples is None
        np.testing.assert_array_equal(lean.means, res.means)

    def test_symmetric_scenario_region_symmetric(self):
        sc = unit_scenario(
            2, SumPower(10.0), grid=default_grid(0.05), realizations=100, seed=13
        )
        res = build_region(sc)
        mirrored = RegionResult(
            solver=res.solver,
            grid=res.grid,
            means=res.means[:, ::-1],
            n_success=res.n_success,
            hull=res.hull[::-1, ::-1],
        )
        tol = 0.05 * float(res.hull.max())
        assert region_contains(res, mirrored, tol).contains
        assert region_contains(mirrored, res, tol).contains


class TestFailureHandling:
    def test_failed_point_dropped_with_warning(self, monkeypatch):
        import twobeam.region as region_mod

        def failing(ch, sp, p_r, mu):
            if mu == 0.5:
                raise SolverError("forced failure")
            return wsismin_sum_power(ch, sp, p_r, mu)

        monkeypatch.setattr(region_mod, "wsismin_sum_power", failing)
        sc = unit_scenario(2, SumPower(10.0), grid=np.array([0.0, 0.5, 1.0]), seed=6)
        with pytest.warns(RuntimeWarning, match="dropping grid points"):
            res = build_region(sc)
        np.testing.assert_array_equal(res.grid, [0.0, 1.0])
        np.testing.assert_array_equal(res.n_success, [1, 1])

    def test_all_points_failing_aborts(self, monkeypatch):
        import twobeam.region as region_mod

        def always_failing(ch, sp, p_r, mu):
            raise SolverError("forced failure")

        monkeypatch.setattr(region_mod, "wsismin_sum_power", always_failing)
        sc = unit_scenario(2, SumPower(10.0), grid=np.array([0.25, 0.75]), seed=6)
        with pytest.raises(SolverError):
            build_region(sc)

    def test_partial_failures_average_over_successes(self, monkeypatch):
        import twobeam.region as region_mod

        calls = {"n": 0}
        real = wsismin_sum_power

        def flaky(ch, sp, p_r, mu):
            calls["n"] += 1
            if calls["n"] == 1:
                raise SolverError("forced failure")
            return real(ch, sp, p_r, mu)

        monkeypatch.setattr(region_mod, "wsismin_sum_power", flaky)
        sc = unit_scenario(
            2, SumPower(10.0), grid=np.array([0.5]), realizations=3, seed=4, keep_samples=True
        )
        res = build_region(sc)
        np.testing.assert_array_equal(res.n_success, [2])
        assert np.isnan(res.samples[0, 0, 0])
        finite = res.samples[np.isfinite(res.samples[:, 0, 0]), 0, :]
        np.testing.assert_allclose(finite.mean(axis=0), res.means[0], rtol=1e-15)

    @pytest.mark.parametrize("budget", NONRECIP_BUDGETS, ids=["pooled", "caps"])
    def test_nonreciprocal_failure_stays_at_its_kappa(self, monkeypatch, budget):
        # One realization's search serves every kappa; an undecided step at
        # one kappa must still drop only that kappa's samples.
        import twobeam.nonrecip as nonrecip_mod

        searching = {}
        real_targets, real_feasibility = nonrecip_mod.snr_targets, nonrecip_mod.solve_feasibility

        def recording(kappa, r):
            searching["kappa"] = kappa
            return real_targets(kappa, r)

        def stalled_at_half(problem):
            if searching["kappa"] != 0.5:
                return real_feasibility(problem)
            k = problem.dimension
            return SdpSolution(
                x=np.zeros((k, k), dtype=complex),
                status=SdpStatus.MAX_ITER,
                objective=0.0,
                max_violation=0.0,
                duality_gap=1.0,
            )

        monkeypatch.setattr(nonrecip_mod, "snr_targets", recording)
        monkeypatch.setattr(nonrecip_mod, "solve_feasibility", stalled_at_half)
        sc = unit_scenario(
            2,
            budget,
            reciprocal=False,
            grid=np.array([0.25, 0.5, 0.75]),
            realizations=2,
            seed=8,
            epsilon_bits=1e-3,
            rand_candidates=200,
        )
        with pytest.warns(RuntimeWarning, match="dropping grid points"):
            res = build_region(sc)
        np.testing.assert_array_equal(res.grid, [0.25, 0.75])
        np.testing.assert_array_equal(res.n_success, [2, 2])
        if isinstance(budget, IndividualPower):
            np.testing.assert_array_equal(res.randomized.grid, res.grid)


class TestBuildRegionNonReciprocal:
    def test_sum_budget_points_follow_profile_split(self):
        sc = unit_scenario(
            2,
            SumPower(6.0),
            reciprocal=False,
            grid=np.array([0.25, 0.75]),
            seed=17,
            epsilon_bits=1e-3,
        )
        res = build_region(sc)
        assert res.solver == "nonrecip-sdr-bisection"
        assert res.randomized is None
        ratio = res.means[:, 0] / (res.means[:, 0] + res.means[:, 1])
        np.testing.assert_allclose(ratio, [0.25, 0.75], rtol=1e-9)

    def test_individual_budget_reports_both_regions(self):
        sc = unit_scenario(
            2,
            IndividualPower(np.array([2.0, 1.0])),
            reciprocal=False,
            grid=np.array([0.25, 0.5, 0.75]),
            seed=3,
            epsilon_bits=1e-3,
            rand_candidates=200,
        )
        res = build_region(sc)
        assert res.solver == "nonrecip-sdr-relaxed"
        assert res.randomized is not None
        assert res.randomized.solver == "nonrecip-sdr-randomized"
        np.testing.assert_array_equal(res.randomized.grid, res.grid)
        assert np.all(res.randomized.means >= 0.0)
        again = build_region(sc)
        np.testing.assert_array_equal(res.means, again.means)
        np.testing.assert_array_equal(res.randomized.means, again.randomized.means)

    @pytest.mark.parametrize("budget", NONRECIP_BUDGETS, ids=["pooled", "caps"])
    def test_points_equal_public_drivers(self, budget):
        # region's per-realization search and the public drivers behind
        # `solve` are one search: same rates and witnesses, bit for bit.
        grid = np.array([0.25, 0.75])
        sc = unit_scenario(
            2,
            budget,
            reciprocal=False,
            grid=grid,
            seed=23,
            epsilon_bits=1e-3,
            rand_candidates=200,
            keep_samples=True,
        )
        res = build_region(sc)
        chan_ss, rand_ss = np.random.SeedSequence(sc.seed).spawn(1)[0].spawn(2)
        ch = sample_channels(sc, chan_ss)
        rand_seeds = rand_ss.spawn(grid.size)
        for j, g in enumerate(grid.tolist()):
            if isinstance(budget, SumPower):
                r, _ = algorithm1_sum_power(ch, sc.params, budget.p_r, g, sc.epsilon_bits)
            else:
                r, x = algorithm2_individual(ch, sc.params, budget.p, g, sc.epsilon_bits)
                rnd = randomize_rank_one(
                    x,
                    ch,
                    sc.params,
                    *snr_targets(g, r),
                    num_candidates=sc.rand_candidates,
                    seed=rand_seeds[j],
                )
                np.testing.assert_array_equal(
                    res.randomized.samples[0, j], [rnd.rates.r1, rnd.rates.r2]
                )
            np.testing.assert_array_equal(res.samples[0, j], [g * r, (1.0 - g) * r])

    def test_shipped_randomized_samples_stay_below_relaxed_rate(self):
        # The documented guarantee is per sample and per profile, not that
        # the randomized hull nests inside the relaxed one.
        sc = replace(load_scenario(str(SHIPPED_CAPS)), realizations=2, keep_samples=True)
        res = build_region(sc)
        relaxed = res.samples.sum(axis=2)
        achieved = res.randomized.samples
        checked = 0
        for i in range(sc.realizations):
            for j, kappa in enumerate(res.grid):
                if not np.isfinite(relaxed[i, j]):
                    continue
                r1, r2 = achieved[i, j]
                assert profile_rate(RatePair(r1, r2), float(kappa)) <= (
                    relaxed[i, j] + sc.epsilon_bits
                )
                checked += 1
        assert checked > 0


class TestRegionContains:
    def test_region_contains_itself_at_zero_tol(self):
        sc = unit_scenario(2, SumPower(10.0), seed=9)
        res = build_region(sc)
        report = region_contains(res, res, 0.0)
        assert report == ContainmentReport(contains=True, max_violation=0.0)

    def test_individual_region_inside_matching_sum_region(self):
        caps = np.array([2.0, 1.0, 3.0])
        grid = default_grid(0.02)
        outer = build_region(
            unit_scenario(3, SumPower(6.0), grid=grid, realizations=5, seed=41)
        )
        inner = build_region(
            unit_scenario(3, IndividualPower(caps), grid=grid, realizations=5, seed=41)
        )
        report = region_contains(outer, inner, 1e-6)
        assert report.contains, report
        # Same seed means the comparison really ran on the same channels.
        assert not region_contains(inner, outer, 1e-6).contains

    def test_cross_pipeline_boundaries_agree_on_reciprocal_channels(self):
        # Fixed reciprocal realization: at every rate profile, the closed-form
        # boundary and the rate-profile bisection report the same sum rate.
        sc = unit_scenario(2, SumPower(10.0), seed=29)
        child = np.random.SeedSequence(sc.seed).spawn(1)[0]
        ch = sample_channels(sc, child.spawn(2)[0])

        def rates_at(mu):
            sol = wsismin_sum_power(ch, sc.params, 10.0, mu)
            return rate_pair(ch, sc.params, sum_power_beamformer(ch, sol))

        r_lo = rates_at(0.0)
        r_hi = rates_at(1.0)
        k_lo = r_lo.r1 / (r_lo.r1 + r_lo.r2)
        k_hi = r_hi.r1 / (r_hi.r1 + r_hi.r2)

        def closed_form_sum_rate(kappa):
            # Profiles outside the sweep range hit the axis-parallel closure
            # of the region at the one-way endpoints.
            if kappa <= k_lo:
                return r_lo.r2 / (1.0 - kappa)
            if kappa >= k_hi:
                return r_hi.r1 / kappa
            mu_star = brentq(
                lambda mu: (lambda r: r.r1 / (r.r1 + r.r2) - kappa)(rates_at(mu)),
                0.0,
                1.0,
                xtol=1e-12,
            )
            r = rates_at(mu_star)
            return r.r1 + r.r2

        for kappa in (0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0):
            r_sum, _ = algorithm1_sum_power(ch, sc.params, 10.0, kappa)
            assert r_sum == pytest.approx(closed_form_sum_rate(kappa), abs=1e-3)

    def test_violation_measures_needed_expansion(self):
        outer = chain_region(np.array([[0.0, 1.0], [1.0, 0.0]]))
        inner = chain_region(np.array([[0.0, 1.2], [1.0, 0.0]]))
        report = region_contains(outer, inner, 0.1)
        assert not report.contains
        assert report.max_violation == pytest.approx(0.2, rel=1e-12)


class TestSerialization:
    def test_csv_layout_and_determinism(self):
        sc = unit_scenario(2, SumPower(10.0), grid=np.array([0.0, 0.5]), seed=2)
        res = build_region(sc)
        text = region_csv_text(res)
        lines = text.strip().split("\n")
        assert lines[0] == "grid_value,r1_mean,r2_mean,n_success"
        assert len(lines) == 3
        cells = lines[1].split(",")
        assert float(cells[0]) == 0.0
        assert float(cells[1]) == res.means[0, 0]
        assert cells[3] == "1"
        assert text == region_csv_text(build_region(sc))

    def test_json_carries_scenario_and_hulls(self):
        sc = unit_scenario(
            2,
            IndividualPower(np.array([2.0, 1.0])),
            reciprocal=False,
            grid=np.array([0.5]),
            seed=8,
            epsilon_bits=1e-3,
            rand_candidates=50,
        )
        res = build_region(sc)
        doc = json.loads(region_json_text(sc, res))
        assert doc["schema_version"] == 1
        assert doc["scenario"] == scenario_to_dict(sc)
        assert doc["scenario"]["budget"] == {"kind": "individual", "p_watts": [2.0, 1.0]}
        region = doc["region"]
        assert region["solver"] == "nonrecip-sdr-relaxed"
        assert region["r1_mean"] == [float(v) for v in res.means[:, 0]]
        assert region["hull"] == [[float(x), float(y)] for x, y in res.hull]
        assert region["randomized"]["solver"] == "nonrecip-sdr-randomized"
        assert "randomized" not in region["randomized"]
