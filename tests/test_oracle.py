"""The brute-force checkers themselves, plus the independence rule they live by."""

import ast
import itertools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import twobeam.oracle as oracle_module
from twobeam.errors import DomainError, ReciprocityError
from twobeam.model import IndividualPower, SumPower, SystemParams
from twobeam.oracle import (
    best_wsis_grid,
    feasibility_descent,
    hull_bruteforce,
    min_trace_descent,
    random_beamformer_cloud,
    weighted_sum_rate_search,
    wsis_objective,
)

from helpers import draw_nonreciprocal, draw_reciprocal, unit_params


def test_oracle_imports_no_production_solvers():
    # The checkers must stay independent of the code they check: only the
    # domain types may be shared.
    source = Path(oracle_module.__file__).read_text()
    tree = ast.parse(source)
    banned = {"recip", "sdp", "nonrecip", "heuristics", "region", "cli"}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            leaf = node.module.rsplit(".", 1)[-1]
            assert leaf not in banned, f"oracle imports production module {node.module}"
        if isinstance(node, ast.Import):
            for alias in node.names:
                leaf = alias.name.rsplit(".", 1)[-1]
                assert leaf not in banned, f"oracle imports production module {alias.name}"


class TestWsisGrid:
    def setup_method(self):
        self.rng = np.random.default_rng(42)
        self.ch = draw_reciprocal(self.rng, 3)
        self.sp = unit_params(3)

    def test_reported_objective_matches_reported_point(self):
        obj, x = best_wsis_grid(self.ch, self.sp, SumPower(p_r=10.0), 0.4, 31)
        assert obj == pytest.approx(wsis_objective(self.ch, self.sp, 0.4, x), abs=1e-12)

    def test_sum_grid_spends_full_budget(self):
        _, x = best_wsis_grid(self.ch, self.sp, SumPower(p_r=10.0), 0.5, 31)
        d = np.abs(self.ch.h1) ** 2 + np.abs(self.ch.h2) ** 2 + 1.0
        assert float(x**2 @ d) == pytest.approx(10.0, rel=1e-12)

    def test_individual_grid_respects_caps(self):
        p = np.array([2.0, 0.5, 1.0])
        _, x = best_wsis_grid(self.ch, self.sp, IndividualPower(p=p), 0.5, 10)
        d = np.abs(self.ch.h1) ** 2 + np.abs(self.ch.h2) ** 2 + 1.0
        assert np.all(x**2 * d <= p * (1 + 1e-12))

    def test_nested_refinement_never_worse(self):
        coarse, _ = best_wsis_grid(self.ch, self.sp, SumPower(p_r=10.0), 0.3, 21)
        fine, _ = best_wsis_grid(self.ch, self.sp, SumPower(p_r=10.0), 0.3, 41)
        assert fine <= coarse + 1e-15

    def test_gap_is_nonnegative_and_shrinks(self):
        *_, gap_coarse = best_wsis_grid(
            self.ch, self.sp, SumPower(p_r=10.0), 0.5, 21, return_gap=True
        )
        *_, gap_fine = best_wsis_grid(
            self.ch, self.sp, SumPower(p_r=10.0), 0.5, 81, return_gap=True
        )
        assert 0.0 <= gap_fine <= gap_coarse

    def test_k1_sum_budget_single_point(self):
        rng = np.random.default_rng(5)
        ch = draw_reciprocal(rng, 1)
        sp = unit_params(1)
        obj, x = best_wsis_grid(ch, sp, SumPower(p_r=4.0), 0.5, 11)
        d = np.abs(ch.h1[0]) ** 2 + np.abs(ch.h2[0]) ** 2 + 1.0
        assert x[0] == pytest.approx(np.sqrt(4.0 / d), rel=1e-12)

    def test_rejects_nonreciprocal_and_large_k(self):
        rng = np.random.default_rng(6)
        with pytest.raises(ReciprocityError):
            best_wsis_grid(draw_nonreciprocal(rng, 2), unit_params(2), SumPower(p_r=1.0), 0.5, 5)
        with pytest.raises(DomainError):
            best_wsis_grid(draw_reciprocal(rng, 5), unit_params(5), SumPower(p_r=1.0), 0.5, 5)


def _enumerated_grid(ch, sp, budget, mu, resolution):
    """Every grid node by explicit enumeration, scored one at a time."""
    d = np.abs(ch.h1) ** 2 * sp.p_s1 + np.abs(ch.h2) ** 2 * sp.p_s2 + sp.sigma_relay
    k = ch.k
    if isinstance(budget, SumPower):
        theta = np.linspace(0.0, np.pi / 2.0, resolution)
        shape = (resolution,) * (k - 1)
        nodes = []
        for angles in itertools.product(theta, repeat=k - 1):
            unit, running = [], 1.0
            for a in angles:
                unit.append(running * np.cos(a))
                running *= np.sin(a)
            nodes.append(np.sqrt(budget.p_r / d) * np.array(unit + [running]))
    else:
        alpha = np.linspace(0.0, 1.0, resolution + 1)
        shape = (resolution + 1,) * k
        nodes = [np.array(a) * np.sqrt(budget.p / d) for a in itertools.product(alpha, repeat=k)]
    objs = np.array([wsis_objective(ch, sp, mu, x) for x in nodes]).reshape(shape)
    return np.array(nodes), objs


@pytest.mark.parametrize("mu", [0.0, 0.3, 1.0])
@pytest.mark.parametrize(
    "kind, k", [("sum", 1), ("sum", 2), ("sum", 3), ("sum", 4), ("box", 1), ("box", 2), ("box", 3)]
)
def test_grid_search_matches_enumeration(kind, k, mu):
    rng = np.random.default_rng(100 + k)
    ch = draw_reciprocal(rng, k)
    sp = SystemParams(
        p_s1=1.5, p_s2=0.7, sigma_relay=rng.uniform(0.5, 2.0, k), sigma_s1_sq=0.8, sigma_s2_sq=1.3
    )
    budget = SumPower(p_r=6.0) if kind == "sum" else IndividualPower(p=rng.uniform(0.5, 3.0, k))
    resolution = 5 + k % 3
    nodes, objs = _enumerated_grid(ch, sp, budget, mu, resolution)
    obj, x, gap = best_wsis_grid(ch, sp, budget, mu, resolution, return_gap=True)
    assert obj == pytest.approx(objs.min(), rel=1e-12)
    assert np.any(np.all(np.isclose(nodes, x, rtol=1e-12, atol=0.0), axis=1))
    assert wsis_objective(ch, sp, mu, x) == pytest.approx(objs.min(), rel=1e-12)
    steps = [np.abs(np.diff(objs, axis=axis)) for axis in range(objs.ndim)]
    finite = [s[np.isfinite(s)] for s in steps]
    expected_gap = max((float(f.max()) for f in finite if f.size), default=0.0)
    assert gap == pytest.approx(expected_gap, rel=1e-12)


class TestCloud:
    def test_budgets_respected_and_deterministic(self):
        rng = np.random.default_rng(7)
        ch = draw_nonreciprocal(rng, 4)
        sp = unit_params(4)
        d = (
            np.abs(ch.h1) ** 2 * sp.p_s1
            + np.abs(ch.h2) ** 2 * sp.p_s2
            + sp.sigma_relay
        )
        cloud = random_beamformer_cloud(ch, sp, SumPower(p_r=5.0), 256, seed=9)
        again = random_beamformer_cloud(ch, sp, SumPower(p_r=5.0), 256, seed=9)
        for (w, r), (w2, r2) in zip(cloud, again):
            assert np.array_equal(w.w, w2.w) and (r.r1, r.r2) == (r2.r1, r2.r2)
            assert float(np.abs(w.w) ** 2 @ d) <= 5.0 * (1 + 1e-12)
            assert np.isfinite(r.r1) and np.isfinite(r.r2)

    def test_individual_budget_caps(self):
        rng = np.random.default_rng(8)
        ch = draw_nonreciprocal(rng, 3)
        sp = unit_params(3)
        p = np.array([1.0, 2.0, 0.25])
        d = np.abs(ch.h1) ** 2 + np.abs(ch.h2) ** 2 + 1.0
        for w, _ in random_beamformer_cloud(ch, sp, IndividualPower(p=p), 128, seed=1):
            assert np.all(np.abs(w.w) ** 2 * d <= p * (1 + 1e-12))

    def test_matched_phases_align_composite_channel(self):
        rng = np.random.default_rng(9)
        ch = draw_reciprocal(rng, 3)
        sp = unit_params(3)
        for w, _ in random_beamformer_cloud(
            ch, sp, SumPower(p_r=2.0), 16, seed=3, matched_phases=True
        ):
            combined = np.angle(w.w * ch.h1 * ch.h2)
            np.testing.assert_allclose(combined, 0.0, atol=1e-12)


class TestWsrSearch:
    def test_beats_random_cloud(self):
        rng = np.random.default_rng(10)
        ch = draw_nonreciprocal(rng, 3)
        sp = unit_params(3)
        val, w = weighted_sum_rate_search(ch, sp, SumPower(p_r=8.0), 0.5, n_restarts=6, seed=0)
        cloud = random_beamformer_cloud(ch, sp, SumPower(p_r=8.0), 4000, seed=1)
        cloud_best = max(0.5 * (r.r1 + r.r2) for _, r in cloud)
        assert val >= cloud_best - 1e-6
        d = np.abs(ch.h1) ** 2 + np.abs(ch.h2) ** 2 + 1.0
        assert float(np.abs(w.w) ** 2 @ d) <= 8.0 * (1 + 1e-9)

    def test_extreme_weights_favor_their_direction(self):
        rng = np.random.default_rng(12)
        ch = draw_reciprocal(rng, 3)
        sp = unit_params(3)
        from twobeam.model import rate_pair

        _, w1 = weighted_sum_rate_search(ch, sp, SumPower(p_r=6.0), 1.0, n_restarts=4, seed=0)
        _, w0 = weighted_sum_rate_search(ch, sp, SumPower(p_r=6.0), 0.0, n_restarts=4, seed=0)
        r_at_w1 = rate_pair(ch, sp, w1)
        r_at_w0 = rate_pair(ch, sp, w0)
        assert r_at_w1.r1 >= r_at_w0.r1 - 1e-9
        assert r_at_w0.r2 >= r_at_w1.r2 - 1e-9

    def test_lambda_out_of_range(self):
        rng = np.random.default_rng(13)
        with pytest.raises(DomainError):
            weighted_sum_rate_search(
                draw_reciprocal(rng, 2), unit_params(2), SumPower(p_r=1.0), 1.5
            )


class TestHullBruteforce:
    def test_known_shape(self):
        pts = np.array(
            [[0, 3], [1, 2], [2, 0], [0.5, 2.5], [1.0, 1.0], [2, 0], [0.2, 2.9], [1.5, 1.25]]
        )
        expected = np.array([[0.0, 3.0], [0.2, 2.9], [1.0, 2.0], [1.5, 1.25], [2.0, 0.0]])
        np.testing.assert_allclose(hull_bruteforce(pts), expected)

    def test_collinear_interior_dropped(self):
        pts = np.array([[0.0, 2.0], [1.0, 1.0], [2.0, 0.0]])
        np.testing.assert_allclose(hull_bruteforce(pts), [[0.0, 2.0], [2.0, 0.0]])

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=10, allow_nan=False),
                st.floats(min_value=0, max_value=10, allow_nan=False),
            ),
            min_size=1,
            max_size=12,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_idempotent_and_subset(self, raw):
        pts = np.array(raw, dtype=float)
        hull = hull_bruteforce(pts)
        rows = {tuple(p) for p in pts}
        assert all(tuple(v) in rows for v in hull)
        np.testing.assert_allclose(hull_bruteforce(hull), hull, atol=1e-12)


class TestPenaltyDescent:
    def test_min_trace_on_solvable_problem(self):
        # min tr(X) with <e1 e1^T, X> >= 2 has optimum 2.
        k = 3
        e11 = np.zeros((k, k), dtype=complex)
        e11[0, 0] = 1.0
        obj, x = min_trace_descent(np.eye(k, dtype=complex), [(e11, 2.0)], restarts=4, seed=0)
        assert x is not None
        assert obj == pytest.approx(2.0, rel=1e-6)

    def test_feasibility_verdicts(self):
        k = 2
        eye = np.eye(k, dtype=complex)
        ok, _ = feasibility_descent([(eye, 1.0)], caps=np.array([1.0, 1.0]), restarts=3, seed=0)
        assert ok
        bad, resid = feasibility_descent([(eye, 5.0)], caps=np.array([1.0, 1.0]), restarts=3, seed=0)
        assert not bad and resid > 1e-3
