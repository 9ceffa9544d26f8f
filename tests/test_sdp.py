"""Semidefinite solver checks: frozen baselines, oracle agreement, contracts."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import draw_nonreciprocal, unit_params
from twobeam import sdp
from twobeam.errors import DimensionMismatchError, DomainError, SolverError
from twobeam.model import IndividualPower, SumPower, noise_matrices
from twobeam.nonrecip import r_max_bound, snr_constraint_rows, snr_targets
from twobeam.oracle import feasibility_descent, min_trace_descent
from twobeam.sdp import (
    FEASIBILITY,
    MAX_DIMENSION,
    SdpProblem,
    SdpStatus,
    solve_feasibility,
    solve_min_trace,
)


def rand_herm(rng: np.random.Generator, k: int) -> np.ndarray:
    a = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
    return 0.5 * (a + a.conj().T)


def sdr_instance(rng: np.random.Generator, k: int, with_caps: bool):
    """Random instance shaped like the relay power problems: diagonal positive
    objective, shifted rank-one-plus-identity constraints."""
    cons = []
    for _ in range(int(rng.integers(1, 4))):
        f = rng.normal(size=k) + 1j * rng.normal(size=k)
        a = np.outer(f.conj(), f)
        a = 0.5 * (a + a.conj().T) + rng.uniform(0.3, 2.0) * np.eye(k)
        cons.append((a, float(rng.uniform(0.3, 2.0))))
    c = np.diag(rng.uniform(0.5, 3.0, size=k)).astype(np.complex128)
    caps = rng.uniform(0.4, 3.0, size=k) if with_caps else None
    return SdpProblem(dimension=k, objective=c, constraints=tuple(cons), caps=caps)


class TestProblemValidation:
    def test_non_hermitian_objective_rejected(self):
        c = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
        with pytest.raises(DomainError):
            SdpProblem(dimension=2, objective=c, constraints=())

    def test_non_hermitian_constraint_rejected(self):
        eye = np.eye(2, dtype=complex)
        a = np.array([[1.0, 2.0], [0.5, 1.0]], dtype=complex)
        with pytest.raises(DomainError):
            SdpProblem(dimension=2, objective=eye, constraints=((a, 1.0),))

    def test_tiny_asymmetry_is_symmetrized(self):
        # Roundoff-level asymmetry is tolerated and cleaned, not rejected.
        a = np.eye(2, dtype=complex)
        a[0, 1] = 1e-14
        prob = SdpProblem(dimension=2, objective=np.eye(2, dtype=complex), constraints=((a, 1.0),))
        stored = prob.constraints[0][0]
        assert np.allclose(stored, stored.conj().T, rtol=0.0, atol=0.0)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(DimensionMismatchError):
            SdpProblem(
                dimension=2,
                objective=np.eye(2, dtype=complex),
                constraints=((np.eye(3, dtype=complex), 1.0),),
            )

    def test_oversized_problem_rejected(self):
        k = MAX_DIMENSION + 1
        with pytest.raises(DomainError):
            SdpProblem(dimension=k, objective=np.eye(k, dtype=complex), constraints=())

    @pytest.mark.parametrize("dimension", [2.0, "2", True], ids=["float", "str", "bool"])
    def test_dimension_must_be_an_integer(self, dimension):
        with pytest.raises(DomainError, match="^dimension must be an integer$"):
            SdpProblem(dimension=dimension, objective=np.eye(2, dtype=complex), constraints=())

    def test_negative_caps_rejected(self):
        with pytest.raises(DomainError):
            SdpProblem(
                dimension=2,
                objective=np.eye(2, dtype=complex),
                constraints=(),
                caps=np.array([1.0, -0.5]),
            )

    def test_feasibility_marker(self):
        prob = SdpProblem(
            dimension=2,
            objective=FEASIBILITY,
            constraints=((np.eye(2, dtype=complex), 1.0),),
        )
        assert prob.is_feasibility
        with pytest.raises(DomainError):
            solve_min_trace(prob)


class TestScalarProgram:
    def test_known_point(self):
        # min 3x s.t. 2x >= 5, x >= 0 has x = 5/2 and objective 15/2.
        prob = SdpProblem(
            dimension=1,
            objective=np.array([[3.0]], dtype=complex),
            constraints=((np.array([[2.0]], dtype=complex), 5.0),),
        )
        sol = solve_min_trace(prob)
        assert sol.status is SdpStatus.OPTIMAL
        assert sol.objective == pytest.approx(7.5, rel=1e-7)
        assert float(np.real(sol.x[0, 0])) == pytest.approx(2.5, rel=1e-7)

    @given(
        d=st.floats(0.1, 10.0),
        a=st.floats(0.1, 10.0),
        b=st.floats(0.1, 10.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_scalar_solution_is_bound_ratio(self, d, a, b):
        prob = SdpProblem(
            dimension=1,
            objective=np.array([[d]], dtype=complex),
            constraints=((np.array([[a]], dtype=complex), b),),
        )
        sol = solve_min_trace(prob)
        assert sol.status is SdpStatus.OPTIMAL
        assert float(np.real(sol.x[0, 0])) == pytest.approx(b / a, rel=1e-6)


class TestTraceBaselines:
    def test_identity_constraint_optimum(self):
        # min tr(X) s.t. tr(I X) >= 1: the constraint is the objective, so the
        # optimum sits exactly on the bound, attained e.g. by X = I/2.
        prob = SdpProblem(
            dimension=2,
            objective=np.eye(2, dtype=complex),
            constraints=((np.eye(2, dtype=complex), 1.0),),
        )
        sol = solve_min_trace(prob)
        assert sol.status is SdpStatus.OPTIMAL
        assert sol.objective == pytest.approx(1.0, rel=1e-7)
        obj_oracle, x_oracle = min_trace_descent(
            np.eye(2, dtype=complex), [(np.eye(2, dtype=complex), 1.0)], restarts=4, seed=3
        )
        assert x_oracle is not None
        assert sol.objective == pytest.approx(obj_oracle, rel=1e-4)

    def test_rank_one_constraint_optimum(self):
        # min tr(X) s.t. <f f^H, X> >= 1 concentrates on f: optimum 1/||f||^2.
        f = np.array([1.0 + 1.0j, 2.0 - 0.5j, -0.25j])
        a = np.outer(f, f.conj())
        prob = SdpProblem(
            dimension=3,
            objective=np.eye(3, dtype=complex),
            constraints=((a, 1.0),),
        )
        sol = solve_min_trace(prob)
        assert sol.status is SdpStatus.OPTIMAL
        assert sol.objective == pytest.approx(1.0 / float(np.vdot(f, f).real), rel=1e-7)


class TestRandomInstanceAgreement:
    def test_matches_descent_oracle(self):
        rng = np.random.default_rng(11)
        for trial in range(8):
            prob = sdr_instance(rng, 3, with_caps=(trial % 2 == 1))
            sol = solve_min_trace(prob)
            assert sol.status is SdpStatus.OPTIMAL
            obj_oracle, x_oracle = min_trace_descent(
                prob.objective,
                [(a, b) for a, b in prob.constraints],
                caps=prob.caps,
                restarts=8,
                seed=trial,
            )
            assert x_oracle is not None
            assert sol.objective == pytest.approx(obj_oracle, rel=1e-4)

    def test_optimal_status_certifies_contract(self):
        rng = np.random.default_rng(5)
        for trial in range(12):
            k = int(rng.integers(1, 5))
            prob = sdr_instance(rng, k, with_caps=(trial % 3 == 0))
            sol = solve_min_trace(prob)
            assert sol.status is SdpStatus.OPTIMAL
            assert sol.duality_gap <= 1e-7
            assert sol.max_violation <= 1e-8

    def test_solution_is_psd_and_consistent(self):
        rng = np.random.default_rng(29)
        for trial in range(6):
            prob = sdr_instance(rng, 3, with_caps=False)
            sol = solve_min_trace(prob)
            vals = np.linalg.eigvalsh(sol.x)
            assert vals.min() >= -1e-8 * max(1.0, float(np.linalg.norm(sol.x)))
            # Reported objective must be the direct complex evaluation on X.
            direct = float(np.real(np.sum(prob.objective.conj() * sol.x)))
            assert sol.objective == pytest.approx(direct, abs=1e-9 * (1.0 + abs(direct)))
            for a, b in prob.constraints:
                scale = max(1.0, float(np.linalg.norm(a)), abs(b))
                val = float(np.real(np.sum(a.conj() * sol.x)))
                assert val >= b - 1e-7 * scale

    def test_tightening_bound_never_cheapens(self):
        rng = np.random.default_rng(83)
        for _ in range(6):
            prob = sdr_instance(rng, 3, with_caps=False)
            sol = solve_min_trace(prob)
            tightened = SdpProblem(
                dimension=prob.dimension,
                objective=prob.objective,
                constraints=tuple((a, 1.3 * b) for a, b in prob.constraints),
                caps=None,
            )
            sol_tight = solve_min_trace(tightened)
            assert sol_tight.status is SdpStatus.OPTIMAL
            assert sol_tight.objective >= sol.objective - 1e-6 * (1.0 + abs(sol.objective))

    def test_badly_scaled_objective_keeps_contract(self):
        # A six-orders-of-magnitude objective must not silently degrade the
        # certified gap.
        rng = np.random.default_rng(101)
        f = rng.normal(size=3) + 1j * rng.normal(size=3)
        a = np.outer(f.conj(), f)
        a = 0.5 * (a + a.conj().T) + 3.0 * np.eye(3)
        c = np.diag(rng.uniform(2e5, 2e6, size=3)).astype(np.complex128)
        sol = solve_min_trace(SdpProblem(dimension=3, objective=c, constraints=((a, 1.7),)))
        assert sol.status is SdpStatus.OPTIMAL
        assert sol.duality_gap <= 1e-7
        assert sol.max_violation <= 1e-8


class TestInfeasibility:
    def test_min_trace_detects_infeasible_caps(self):
        prob = SdpProblem(
            dimension=2,
            objective=np.eye(2, dtype=complex),
            constraints=((np.eye(2, dtype=complex), 1.0),),
            caps=np.array([0.1, 0.2]),
        )
        sol = solve_min_trace(prob)
        assert sol.status is SdpStatus.INFEASIBLE
        assert sol.objective == np.inf


class TestFeasibility:
    def test_trivially_feasible(self):
        prob = SdpProblem(
            dimension=2,
            objective=FEASIBILITY,
            constraints=((np.eye(2, dtype=complex), 0.0),),
            caps=np.array([1e6, 1e6]),
        )
        sol = solve_feasibility(prob)
        assert sol.status is SdpStatus.OPTIMAL
        assert sol.max_violation <= 1e-8

    def test_trivially_infeasible_zero_caps(self):
        prob = SdpProblem(
            dimension=2,
            objective=FEASIBILITY,
            constraints=((np.eye(2, dtype=complex), 1.0),),
            caps=np.array([0.0, 0.0]),
        )
        sol = solve_feasibility(prob)
        assert sol.status is SdpStatus.INFEASIBLE

    def test_partial_zero_caps_freeze_entries(self):
        # A zero cap pins its whole row and column; feasibility must be judged
        # on the surviving block.
        e11 = np.zeros((2, 2), dtype=complex)
        e11[1, 1] = 1.0
        prob = SdpProblem(
            dimension=2,
            objective=FEASIBILITY,
            constraints=((e11, 1.0),),
            caps=np.array([0.0, 5.0]),
        )
        sol = solve_feasibility(prob)
        assert sol.status is SdpStatus.OPTIMAL
        assert abs(sol.x[0, 0]) == 0.0
        assert abs(sol.x[0, 1]) == 0.0
        blocked = SdpProblem(
            dimension=2,
            objective=FEASIBILITY,
            constraints=((np.eye(2, dtype=complex) - e11, 1.0),),
            caps=np.array([0.0, 5.0]),
        )
        assert solve_feasibility(blocked).status is SdpStatus.INFEASIBLE

    def test_boundary_flip_around_solved_instance(self):
        # Requiring exactly what an optimal solution achieves, with its own
        # diagonal as the power caps, stays feasible; asking 1% more flips it.
        rng = np.random.default_rng(17)
        prob = sdr_instance(rng, 3, with_caps=False)
        sol = solve_min_trace(prob)
        assert sol.status is SdpStatus.OPTIMAL
        caps = np.real(np.diag(sol.x)).copy()
        at_bound = SdpProblem(
            dimension=3,
            objective=FEASIBILITY,
            constraints=prob.constraints,
            caps=caps,
        )
        assert solve_feasibility(at_bound).status is SdpStatus.OPTIMAL
        pushed = SdpProblem(
            dimension=3,
            objective=FEASIBILITY,
            constraints=tuple((a, 1.01 * b) for a, b in prob.constraints),
            caps=caps,
        )
        assert solve_feasibility(pushed).status is SdpStatus.INFEASIBLE

    def test_verdicts_match_descent_oracle(self):
        rng = np.random.default_rng(59)
        checked = 0
        for trial in range(10):
            k = int(rng.integers(2, 4))
            prob = sdr_instance(rng, k, with_caps=True)
            feas_prob = SdpProblem(
                dimension=k,
                objective=FEASIBILITY,
                constraints=prob.constraints,
                caps=prob.caps,
            )
            sol = solve_feasibility(feas_prob)
            assert sol.status in (SdpStatus.OPTIMAL, SdpStatus.INFEASIBLE)
            ok, resid = feasibility_descent(
                [(a, b) for a, b in prob.constraints], caps=prob.caps, restarts=6, seed=trial
            )
            # Skip razor-edge cases where both sides sit at their tolerance.
            if abs(sol.objective) < 1e-4:
                continue
            assert (sol.status is SdpStatus.OPTIMAL) == ok
            checked += 1
        assert checked >= 5

    def test_margin_sign_matches_status(self):
        prob = SdpProblem(
            dimension=2,
            objective=FEASIBILITY,
            constraints=((np.eye(2, dtype=complex), 1.0),),
            caps=np.array([2.0, 2.0]),
        )
        sol = solve_feasibility(prob)
        assert sol.status is SdpStatus.OPTIMAL
        assert sol.objective >= -1e-8


def relay_instance(rng: np.random.Generator, k: int):
    """Channels, parameters and per-relay caps X_ii <= p_i / D_ii of one relay draw."""
    ch = draw_nonreciprocal(rng, k)
    sp = unit_params(k)
    p = rng.uniform(0.5, 3.0, size=k)
    return ch, sp, p, p / noise_matrices(ch, sp).d


def within_caps(x: np.ndarray, caps: np.ndarray) -> bool:
    return bool(np.all(np.real(np.diag(x)) <= caps + 1e-8 * np.maximum(1.0, caps)))


class TestStructuredRows:
    @pytest.mark.parametrize("k", [1, 5, 20])
    def test_caps_agree_with_explicit_trace_rows(self, k):
        # The caps vector and the same caps written as general rows
        # (-e_i e_i^H, -u_i) pose one feasibility question.
        rng = np.random.default_rng(400 + k)
        seen = set()
        for _ in range(3):
            ch, sp, p, caps = relay_instance(rng, k)
            cap_rows = tuple((-np.diag(e).astype(complex), -u) for e, u in zip(np.eye(k), caps))
            r_top = r_max_bound(ch, sp, IndividualPower(p))
            for frac in (0.1, 0.4, 0.7, 1.0):
                rows = snr_constraint_rows(ch, sp, *snr_targets(0.5, frac * r_top))
                structured = solve_feasibility(SdpProblem(k, FEASIBILITY, rows, caps=caps))
                explicit = solve_feasibility(SdpProblem(k, FEASIBILITY, rows + cap_rows))
                assert structured.status is explicit.status
                seen.add(structured.status)
                # Caps are hard in the structured form. As general rows they
                # relax with the margin, so only a feasible X must meet them.
                assert within_caps(structured.x, caps)
                if explicit.status is SdpStatus.OPTIMAL:
                    assert within_caps(explicit.x, caps)
        assert seen == {SdpStatus.OPTIMAL, SdpStatus.INFEASIBLE}

    @pytest.mark.parametrize("budget", ["caps", "pooled"])
    def test_max_dimension_is_certified(self, budget):
        k = MAX_DIMENSION
        rng = np.random.default_rng(7)
        ch, sp, p, caps = relay_instance(rng, k)
        if budget == "caps":
            extra, r_top = (), r_max_bound(ch, sp, IndividualPower(p))
        else:
            d = noise_matrices(ch, sp).d
            extra = ((-np.diag(d).astype(complex), -float(p.sum())),)
            caps, r_top = None, r_max_bound(ch, sp, SumPower(float(p.sum())))
        for frac in (0.2, 1.0):
            rows = snr_constraint_rows(ch, sp, *snr_targets(0.5, frac * r_top)) + extra
            sol = solve_feasibility(SdpProblem(k, FEASIBILITY, rows, caps=caps))
            certified = sol.status is SdpStatus.INFEASIBLE or (
                sol.status is SdpStatus.OPTIMAL and sol.max_violation <= 1e-8
            )
            assert certified, (frac, sol.status, sol.max_violation)

    def test_no_rows_is_solved(self):
        eye = np.eye(2, dtype=complex)
        feas = solve_feasibility(SdpProblem(2, FEASIBILITY, ()))
        assert feas.status is SdpStatus.OPTIMAL
        least = solve_min_trace(SdpProblem(2, eye, ()))
        assert least.status is SdpStatus.OPTIMAL
        assert least.objective == pytest.approx(0.0, abs=1e-7)


class TestRowScale:
    @pytest.mark.parametrize("c", [2.0**-20, 2.0**20])
    def test_power_of_two_row_scaling_leaves_solve_bit_identical(self, c):
        # Each row is divided by its own size, so scaling a row by a power of
        # two leaves the normalized form, and with it every iterate, unchanged.
        ch = draw_nonreciprocal(np.random.default_rng(3), 3)
        sp = unit_params(3)
        p = np.array([2.0, 3.0, 1.0])
        d = noise_matrices(ch, sp).d
        r_top = r_max_bound(ch, sp, IndividualPower(p))
        objective = np.diag(d).astype(complex)
        seen = set()
        for frac in (0.3, 0.8):
            rows = snr_constraint_rows(ch, sp, *snr_targets(0.5, frac * r_top))
            scaled = tuple((c * a, c * b) for a, b in rows)
            for goal, solve in ((FEASIBILITY, solve_feasibility), (objective, solve_min_trace)):
                base = solve(SdpProblem(3, goal, rows, caps=p / d))
                sol = solve(SdpProblem(3, goal, scaled, caps=p / d))
                assert sol.status is base.status
                assert sol.objective == base.objective
                np.testing.assert_array_equal(sol.x, base.x)
                seen.add(base.status)
        assert seen == {SdpStatus.OPTIMAL, SdpStatus.INFEASIBLE}


class TestZeroCapsMinTrace:
    E22 = np.diag([0.0, 1.0]).astype(complex)
    EYE = np.eye(2, dtype=complex)

    def test_partial_zero_cap_freezes_its_dimension(self):
        c = np.diag([1.0, 2.0]).astype(complex)
        sol = solve_min_trace(SdpProblem(2, c, ((self.E22, 1.0),), caps=[0.0, 5.0]))
        assert sol.status is SdpStatus.OPTIMAL
        assert sol.objective == pytest.approx(2.0, abs=1e-7)
        assert np.all(sol.x[0, :] == 0.0)
        assert np.all(sol.x[:, 0] == 0.0)

    def test_all_frozen_with_positive_bound_is_infeasible(self):
        sol = solve_min_trace(SdpProblem(2, self.EYE, ((self.EYE, 1.0),), caps=[0.0, 0.0]))
        assert sol.status is SdpStatus.INFEASIBLE
        assert sol.objective == np.inf

    def test_all_frozen_with_zero_bound_is_solved_at_zero(self):
        sol = solve_min_trace(SdpProblem(2, self.EYE, ((self.EYE, 0.0),), caps=[0.0, 0.0]))
        assert sol.status is SdpStatus.OPTIMAL
        assert sol.objective == 0.0


class TestWeakDuality:
    def test_dual_bound_above_minimum_raises(self, monkeypatch):
        real = sdp._solve_trace_objective

        def overshooting_dual(problem):
            obj, x, rel_gap, d_obj, ok = real(problem)
            return obj, x, rel_gap, obj + 1.0, ok

        monkeypatch.setattr(sdp, "_solve_trace_objective", overshooting_dual)
        prob = SdpProblem(
            dimension=1,
            objective=np.array([[3.0]], dtype=complex),
            constraints=((np.array([[2.0]], dtype=complex), 5.0),),
        )
        with pytest.raises(SolverError):
            solve_min_trace(prob)


class TestStalledSolve:
    """Verdicts of solves cut off after two interior-point iterations."""

    EYE = np.eye(2, dtype=complex)

    def test_feasibility_polishes_a_witness(self, monkeypatch):
        monkeypatch.setattr(sdp, "_MAX_ITERS", 2)
        prob = SdpProblem(2, FEASIBILITY, ((self.EYE, 1.0),), caps=[5.0, 5.0])
        sol = solve_feasibility(prob)
        assert sol.status is SdpStatus.OPTIMAL
        assert sol.objective == 1.0
        assert sol.max_violation == 0.0

    def test_feasibility_without_witness_is_undecided(self, monkeypatch):
        # The caps make the row infeasible, but a stalled solve has no
        # converged dual bound to certify that.
        monkeypatch.setattr(sdp, "_MAX_ITERS", 2)
        prob = SdpProblem(2, FEASIBILITY, ((self.EYE, 1.0),), caps=[0.1, 0.2])
        sol = solve_feasibility(prob)
        assert sol.status is SdpStatus.MAX_ITER
        assert sol.max_violation == sdp._violation(prob, sol.x)

    def test_min_trace_reports_where_it_stopped(self, monkeypatch):
        monkeypatch.setattr(sdp, "_MAX_ITERS", 2)
        c = np.diag([1.0, 2.0]).astype(complex)
        prob = SdpProblem(2, c, ((self.EYE, 1.0),), caps=[5.0, 5.0])
        sol = solve_min_trace(prob)
        assert sol.status is SdpStatus.MAX_ITER
        assert sol.objective == pytest.approx(3.4125, abs=1e-4)
        assert sol.objective == pytest.approx(float(np.real(np.vdot(c, sol.x))), rel=1e-12)
        assert sol.max_violation == sdp._violation(prob, sol.x)


class TestNumericalFallbacks:
    """The interior-point method's guards against roundoff near singularity."""

    @pytest.mark.parametrize("k", [1, 5, 20])
    def test_factor_of_singular_psd_matrix(self, k):
        rng = np.random.default_rng(k)
        v = rng.normal(size=(k, k - 1)) + 1j * rng.normal(size=(k, k - 1))
        v[0] = 0.0
        a = v @ v.conj().T
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(a)
        f = sdp._factor(a)
        assert f.shape == (k, k)
        scale = max(1.0, float(np.linalg.norm(a)))
        np.testing.assert_allclose(f @ f.conj().T, a, rtol=0.0, atol=1e-12 * scale)

    def test_schur_solver_on_singular_matrix_is_least_squares(self):
        m = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        rhs = np.array([1.0, 2.0, 3.0])
        solve = sdp._schur_solver(m)
        np.testing.assert_allclose(solve(rhs), np.linalg.pinv(m) @ rhs, atol=1e-14)

    def test_schur_solver_on_near_singular_matrix_is_jittered(self):
        # Roundoff leaves the smallest eigenvalue slightly negative; the
        # first retry adds 1e-14 times the mean diagonal.
        m = np.diag([1.0, -1e-20])
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(m)
        jitter = 0.5 * (1.0 - 1e-20) * 1e-14
        rhs = np.array([1.0, 1.0])
        y = sdp._schur_solver(m)(rhs)
        np.testing.assert_allclose(y, rhs / (np.diag(m) + jitter), rtol=1e-12)

    def test_each_factor_is_formed_once_per_iteration(self, monkeypatch):
        # Iterations are counted by the one SVD each makes. One Schur factor
        # serves both directions, and its inverse is the only one formed:
        # the factors of X and Z are inverted through the scaling instead.
        counts = {"svd": 0, "inv": 0, "schur": 0}

        def counted(name, real):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return real(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(np.linalg, "svd", counted("svd", np.linalg.svd))
        monkeypatch.setattr(np.linalg, "inv", counted("inv", np.linalg.inv))
        monkeypatch.setattr(sdp, "_schur_solver", counted("schur", sdp._schur_solver))
        sol = solve_min_trace(sdr_instance(np.random.default_rng(3), 4, with_caps=True))
        assert sol.status is SdpStatus.OPTIMAL
        assert counts["svd"] > 0
        assert counts["schur"] == counts["svd"]
        assert counts["inv"] == counts["svd"]
